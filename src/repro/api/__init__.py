"""One façade over every way to run an experiment.

The harness historically grew three divergent entry points — single runs
through :func:`repro.harness.experiment.run_experiment`, parameter sweeps
through :func:`repro.harness.sweep.grid_sweep`, and registered scenarios
through :func:`repro.scenarios.runner.run_scenario` — each with its own
argument spellings (``workers`` vs ``num_workers``, ``fixed`` vs algorithm
kwargs).  This module unifies them behind one request/response shape:

* :class:`RunRequest` — a frozen, validated description of *one submission*
  of any kind (``experiment``, ``sweep``, ``comparison``, ``throughput`` or
  a registered ``scenario`` by name), with a single canonical spelling for
  every knob and :data:`DEPRECATED_ALIASES` shims (``workers`` →
  ``num_workers``, ``algo`` → ``algorithm``, ``fixed`` → ``params``) that
  emit :class:`DeprecationWarning` instead of silently diverging;
* :class:`RunResult` — the uniform response: JSON-ready ``records`` in the
  exact :class:`~repro.scenarios.runner.ScenarioRecord` shape, a ``meta``
  block, endpoint-parity verdicts, and the raw
  :class:`~repro.algorithms.base.TrainingResult` objects for assertions;
* :func:`run` — the single executor.  The CLI and the experiment service
  (:mod:`repro.service`) both dispatch through it, so an HTTP submission and
  a local call can never drift: byte-identical inputs produce byte-identical
  records.

``run`` accepts an optional ``cancel_check`` callable polled between runs
(see :class:`~repro.scenarios.runner.RunCancelled`), which the service's
task manager uses for cooperative job cancellation.

Provenance and persistence: ``run`` is the one place run identity is
computed — every :class:`RunResult` carries ``run_id`` / ``config_hash`` /
``git_sha`` / ``started_at`` (see :mod:`repro.results.provenance`), stamped
into ``meta["provenance"]`` so store keys, service job records and JSON
artifacts all agree.  Passing ``record_to=`` (a path or
:class:`~repro.results.store.ResultsStore`) appends the finished result to
the persistent run store; the service task manager turns this on by
default so HTTP jobs and direct runs land in the same history.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro import telemetry
from repro.algorithms.base import TrainingResult
from repro.results.provenance import Provenance, build_provenance
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import (
    RunCancelled,
    ScenarioReport,
    result_metrics,
    run_scenario,
)
from repro.scenarios.spec import (
    ComparisonScenario,
    FaultScenario,
    ScenarioError,
    SweepScenario,
    ThroughputScenario,
)

__all__ = [
    "ApiError",
    "DEPRECATED_ALIASES",
    "KINDS",
    "RunCancelled",
    "RunRequest",
    "RunResult",
    "apply_aliases",
    "request_from_action",
    "run",
]


class ApiError(ValueError):
    """A :class:`RunRequest` is malformed (bad kind, missing field, …)."""


#: The five submission kinds one :class:`RunRequest` can describe.
KINDS = ("experiment", "sweep", "comparison", "throughput", "scenario")

#: Legacy argument spellings accepted (with a :class:`DeprecationWarning`)
#: wherever a request is built from keyword arguments or JSON payloads.
#: ``workers`` is the CLI's historical flag, ``algo`` a common shorthand,
#: and ``fixed`` is :func:`repro.harness.sweep.grid_sweep`'s name for the
#: per-run constants the façade calls ``params``.
DEPRECATED_ALIASES = {
    "workers": "num_workers",
    "algo": "algorithm",
    "fixed": "params",
}

#: Kind-specific fields forwarded to the scenario dataclass constructor via
#: ``options`` (e.g. comparison ``methods`` / ``baseline``, throughput
#: ``worker_counts``).  Everything else lives as a first-class field.


def apply_aliases(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonicalize deprecated key spellings in ``payload`` (with warnings).

    Returns a new dict; a payload supplying both the alias and its canonical
    spelling is rejected with :class:`ApiError` rather than guessing.
    """
    out: Dict[str, Any] = {}
    for key, value in payload.items():
        canonical = DEPRECATED_ALIASES.get(key)
        if canonical is None:
            out[key] = value
            continue
        if canonical in payload:
            raise ApiError(
                f"both {key!r} (deprecated) and {canonical!r} given; "
                f"use {canonical!r} only"
            )
        warnings.warn(
            f"argument {key!r} is deprecated; use {canonical!r}",
            DeprecationWarning,
            stacklevel=3,
        )
        out[canonical] = value
    return out


@dataclass(frozen=True)
class RunRequest:
    """One validated submission of any kind, with canonical field names.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    workload / algorithm:
        Required for ``experiment`` and ``sweep`` kinds (a
        :data:`~repro.harness.experiment.WORKLOAD_PRESETS` key and a
        :data:`~repro.scenarios.spec.KNOWN_ALGORITHMS` name).
    scenario:
        Registered scenario name, required for (and exclusive to) the
        ``scenario`` kind.
    grid:
        ``{parameter: values}`` swept by the ``sweep`` kind.
    params:
        Per-run algorithm keywords (``delta``, ``staleness``, …) — the
        ``experiment`` kind passes them to the trainer, the ``sweep`` kind
        to every grid point (what :func:`~repro.harness.sweep.grid_sweep`
        called ``fixed``).
    options:
        Kind-specific extras forwarded to the scenario dataclass —
        ``comparison``: ``methods`` (required), ``workloads``, ``baseline``,
        ``use_convergence``, …; ``throughput``: ``workloads`` (required),
        ``worker_counts``, ``topology``; ``sweep``: ``verify_endpoints``,
        ``tags``.
    num_workers / iterations / seed / eval_every / batch_size:
        Run sizing; ``None`` means the kind's default (or, for the
        ``scenario`` kind, the registered scenario's own values).
    dtype / transport_dtype:
        Engine knobs (training kinds only).
    fault_seed / failure_rate / straggler_fraction / mttr:
        Fault injection (:mod:`repro.faults`).  The ``experiment`` kind
        accepts all four (a positive rate arms a seeded crash/straggler
        process); the ``scenario`` kind accepts ``fault_seed`` only, as an
        override for registered fault scenarios.
    title:
        Optional human-readable title for ad-hoc scenario kinds.
    """

    kind: str
    workload: Optional[str] = None
    algorithm: Optional[str] = None
    scenario: Optional[str] = None
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    num_workers: Optional[int] = None
    iterations: Optional[int] = None
    seed: Optional[int] = None
    eval_every: Optional[int] = None
    batch_size: Optional[int] = None
    dtype: Optional[str] = None
    transport_dtype: Optional[str] = None
    fault_seed: Optional[int] = None
    failure_rate: Optional[float] = None
    straggler_fraction: Optional[float] = None
    mttr: Optional[int] = None
    title: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ApiError(f"unknown request kind {self.kind!r}; one of {KINDS}")
        object.__setattr__(self, "grid", dict(self.grid))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "options", dict(self.options))
        checker = getattr(self, f"_check_{self.kind}")
        checker()
        if self.fault_seed is not None and int(self.fault_seed) < 0:
            raise ApiError(f"fault_seed must be >= 0, got {self.fault_seed}")
        for name in ("failure_rate", "straggler_fraction"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= float(value) <= 1.0:
                raise ApiError(f"{name} must be in [0, 1], got {value}")
        if self.mttr is not None and int(self.mttr) < 1:
            raise ApiError(f"mttr must be >= 1, got {self.mttr}")
        for name in ("num_workers", "iterations"):
            value = getattr(self, name)
            if value is not None and int(value) < 1:
                raise ApiError(f"{name} must be >= 1, got {value}")
        if self.seed is not None and int(self.seed) < 0:
            raise ApiError(f"seed must be >= 0, got {self.seed}")

    # -- per-kind shape checks --------------------------------------------- #
    def _require(self, *names: str) -> None:
        for name in names:
            if not getattr(self, name):
                raise ApiError(f"{self.kind} request requires {name!r}")

    def _forbid(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            default = {} if name in ("grid", "params", "options") else None
            if value not in (default, None):
                raise ApiError(
                    f"{self.kind} request does not accept {name!r}"
                )

    def _check_experiment(self) -> None:
        self._require("workload", "algorithm")
        self._forbid("scenario", "grid", "options")

    def _check_sweep(self) -> None:
        # algorithm defaults to "selsync", matching the SweepScenario dataclass
        self._require("workload", "grid")
        self._forbid("scenario")
        self._forbid("fault_seed", "failure_rate", "straggler_fraction", "mttr")

    def _check_comparison(self) -> None:
        self._forbid("scenario", "workload", "algorithm", "grid", "params")
        self._forbid("fault_seed", "failure_rate", "straggler_fraction", "mttr")
        if "methods" not in self.options:
            raise ApiError("comparison request requires options['methods']")

    def _check_throughput(self) -> None:
        self._forbid(
            "scenario", "workload", "algorithm", "grid", "params",
            "num_workers", "iterations", "seed", "eval_every", "batch_size",
            "dtype", "transport_dtype",
            "fault_seed", "failure_rate", "straggler_fraction", "mttr",
        )
        if "workloads" not in self.options:
            raise ApiError("throughput request requires options['workloads']")

    def _check_scenario(self) -> None:
        self._require("scenario")
        self._forbid(
            "workload", "algorithm", "grid", "params", "options",
            "eval_every", "batch_size", "dtype", "transport_dtype",
        )
        # fault_seed stays allowed: it overrides registered fault scenarios.
        self._forbid("failure_rate", "straggler_fraction", "mttr")

    # -- construction ------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRequest":
        """Build a request from a JSON-style mapping (aliases accepted)."""
        if not isinstance(payload, Mapping):
            raise ApiError(f"request payload must be a mapping, got {type(payload).__name__}")
        data = apply_aliases(payload)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ApiError(f"unknown request fields {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation with defaulted fields omitted."""
        out: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            if f.name == "kind":
                continue
            value = getattr(self, f.name)
            if value in (None, {}, ()):
                continue
            out[f.name] = value
        return out

    # -- deep validation --------------------------------------------------- #
    def validate(self) -> "RunRequest":
        """Run the full (scenario-dataclass) validation without executing.

        The service controller calls this at submission time so an invalid
        grid or unknown workload is a 400
        response, not a FAILED job hours later.  Raises :class:`ApiError` or
        :class:`~repro.scenarios.spec.ScenarioError`; returns ``self``.
        """
        if self.kind == "experiment":
            self._check_experiment_targets()
        elif self.kind == "scenario":
            scenario = get_scenario(self.scenario)
            if isinstance(scenario, ThroughputScenario) and (
                self.iterations is not None
                or self.num_workers is not None
                or self.seed is not None
            ):
                raise ApiError(
                    f"scenario {self.scenario!r} is analytic; iterations/"
                    "num_workers/seed overrides do not apply"
                )
            if self.fault_seed is not None and not isinstance(scenario, FaultScenario):
                raise ApiError(
                    f"scenario {self.scenario!r} is a {scenario.kind} scenario; "
                    "the 'fault_seed' override applies to fault scenarios only"
                )
        else:
            self._build_scenario()
        return self

    def _check_experiment_targets(self) -> None:
        from repro.harness.experiment import WORKLOAD_PRESETS
        from repro.scenarios.spec import KNOWN_ALGORITHMS, RESERVED_PARAMETERS

        if self.workload not in WORKLOAD_PRESETS:
            raise ApiError(
                f"unknown workload {self.workload!r}; "
                f"available: {sorted(WORKLOAD_PRESETS)}"
            )
        if self.algorithm not in KNOWN_ALGORITHMS:
            raise ApiError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {sorted(KNOWN_ALGORITHMS)}"
            )
        reserved = set(self.params) & RESERVED_PARAMETERS
        if reserved:
            raise ApiError(
                f"params {sorted(reserved)} are reserved run settings; "
                "set them as request fields instead"
            )

    def _build_scenario(self):
        """The ad-hoc scenario dataclass for sweep/comparison/throughput kinds."""
        title = self.title or f"ad-hoc {self.kind} submission"
        if self.kind == "sweep":
            return SweepScenario(
                name="adhoc-sweep",
                title=title,
                workload=self.workload,
                algorithm=self.algorithm or "selsync",
                grid=self.grid,
                fixed=self.params,
                num_workers=self.num_workers or 4,
                iterations=self.iterations or 80,
                seed=self.seed or 0,
                eval_every=self.eval_every,
                batch_size=self.batch_size,
                dtype=self.dtype or "float64",
                transport_dtype=self.transport_dtype,
                **self.options,
            )
        if self.kind == "comparison":
            options = dict(self.options)
            methods = {
                label: tuple(entry) if isinstance(entry, list) else entry
                for label, entry in dict(options.pop("methods")).items()
            }
            workloads = tuple(options.pop("workloads", ("resnet101",)))
            baseline = options.pop("baseline", next(iter(methods)))
            return ComparisonScenario(
                name="adhoc-comparison",
                title=title,
                methods=methods,
                workloads=workloads,
                baseline=baseline,
                num_workers=self.num_workers or 4,
                iterations=self.iterations or 160,
                seed=self.seed or 0,
                eval_every=self.eval_every,
                dtype=self.dtype or "float64",
                transport_dtype=self.transport_dtype,
                **options,
            )
        if self.kind == "throughput":
            options = dict(self.options)
            return ThroughputScenario(
                name="adhoc-throughput",
                title=title,
                workloads=tuple(options.pop("workloads")),
                **options,
            )
        raise ApiError(f"kind {self.kind!r} has no ad-hoc scenario form")


@dataclass
class RunResult:
    """The uniform response shape every :func:`run` call produces.

    ``records`` are JSON-ready dicts in the exact
    :class:`~repro.scenarios.runner.ScenarioRecord` shape
    (``{"params", "label", "metrics"}``), so a record that travelled through
    the experiment service is byte-identical to one produced locally.
    ``results`` keeps the raw :class:`~repro.algorithms.base.TrainingResult`
    objects (never serialized); ``report`` is the underlying
    :class:`~repro.scenarios.runner.ScenarioReport` when one exists.

    ``run_id`` / ``config_hash`` / ``git_sha`` / ``started_at`` are the
    stable provenance fields :func:`run` stamps on every result — the keys
    the persistent run store (:mod:`repro.results`) files it under.
    """

    kind: str
    label: str
    records: List[Dict[str, Any]]
    meta: Dict[str, Any] = field(default_factory=dict)
    endpoints: Dict[str, Any] = field(default_factory=dict)
    results: Dict[str, TrainingResult] = field(default_factory=dict)
    report: Optional[ScenarioReport] = None
    run_id: Optional[str] = None
    config_hash: Optional[str] = None
    git_sha: Optional[str] = None
    started_at: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (drops the raw result objects)."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "label": self.label,
            "meta": dict(self.meta),
            "records": [dict(record) for record in self.records],
        }
        if self.run_id is not None:
            payload["provenance"] = {
                "run_id": self.run_id,
                "config_hash": self.config_hash,
                "git_sha": self.git_sha,
                "started_at": self.started_at,
            }
        if self.endpoints:
            payload["endpoints"] = self.endpoints
        return payload


def request_from_action(action: str, payload: Mapping[str, Any]) -> RunRequest:
    """Build a :class:`RunRequest` from a service action + flat payload.

    The HTTP API's submission bodies are flat (``{"sweep": {"workload":
    ..., "grid": ...}}``); fields that are not first-class
    :class:`RunRequest` fields (comparison ``methods``, throughput
    ``worker_counts``, …) are folded into ``options``.  The ``scenario``
    action maps its ``name`` key onto :attr:`RunRequest.scenario`.
    """
    if action not in KINDS:
        raise ApiError(f"unknown action {action!r}; one of {KINDS}")
    if not isinstance(payload, Mapping):
        raise ApiError(f"{action} payload must be a mapping, got {type(payload).__name__}")
    data = apply_aliases(payload)
    if action == "scenario":
        data = dict(data)
        name = data.pop("name", None)
        if not name:
            raise ApiError("scenario action requires a 'name'")
        return RunRequest(kind="scenario", scenario=name, **data)
    known = {f.name for f in fields(RunRequest)} - {"kind", "scenario", "options"}
    request_fields: Dict[str, Any] = {}
    options: Dict[str, Any] = {}
    for key, value in data.items():
        (request_fields if key in known else options)[key] = value
    return RunRequest(kind=action, options=options, **request_fields)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def _run_experiment_kind(
    request: RunRequest, cancel_check: Optional[Callable[[], bool]]
) -> RunResult:
    from repro.harness.experiment import run_experiment
    from repro.scenarios.runner import _check_cancelled

    _check_cancelled(cancel_check)
    iterations = request.iterations or 100
    num_workers = request.num_workers or 4
    seed = request.seed or 0
    eval_every = request.eval_every or max(iterations // 8, 1)
    fault_kwargs: Dict[str, Any] = {}
    if request.fault_seed is not None:
        fault_kwargs["fault_seed"] = int(request.fault_seed)
    if request.failure_rate is not None:
        fault_kwargs["failure_rate"] = float(request.failure_rate)
    if request.straggler_fraction is not None:
        fault_kwargs["straggler_fraction"] = float(request.straggler_fraction)
    if request.mttr is not None:
        fault_kwargs["mttr"] = int(request.mttr)
    phase_start = telemetry.phase_snapshot()
    out = run_experiment(
        request.workload,
        request.algorithm,
        num_workers=num_workers,
        iterations=iterations,
        seed=seed,
        eval_every=eval_every,
        batch_size=request.batch_size,
        dtype=request.dtype or "float64",
        transport_dtype=request.transport_dtype,
        **fault_kwargs,
        **request.params,
    )
    record = {
        "params": dict(request.params),
        "label": out.algorithm,
        "metrics": result_metrics(out.result),
    }
    # Opt-in per-phase breakdown: present only when telemetry tracing was
    # active during the run, so default artifacts stay byte-identical.
    phases = telemetry.phase_delta(phase_start)
    if phases:
        record["phases"] = phases
    meta = {
        "workload": out.workload,
        "algorithm": request.algorithm,
        "num_workers": num_workers,
        "iterations": iterations,
        "seed": seed,
        "eval_every": eval_every,
        "params": dict(request.params),
        "dtype": request.dtype or "float64",
        "transport_dtype": request.transport_dtype,
    }
    if fault_kwargs:
        meta["faults"] = dict(fault_kwargs)
    if phases:
        meta["phases"] = phases
    return RunResult(
        kind="experiment",
        label=out.algorithm,
        records=[record],
        meta=meta,
        results={"run": out.result},
    )


def _from_report(kind: str, report: ScenarioReport) -> RunResult:
    payload = report.to_dict()
    meta = dict(payload["meta"])
    meta.setdefault("name", report.name)
    meta.setdefault("title", report.title)
    meta.setdefault("scenario_kind", report.kind)
    return RunResult(
        kind=kind,
        label=report.name,
        records=payload["records"],
        meta=meta,
        endpoints=payload.get("endpoints", {}),
        results=dict(report.results),
        report=report,
    )


def _store_scenario_key(request: RunRequest, result: RunResult) -> str:
    """The run-store scenario name one result is filed under.

    Registered scenarios keep their registry name; ad-hoc kinds use the
    report's name (``adhoc-sweep``, …); single experiments get a
    deterministic ``experiment/<workload>/<algorithm>`` key so repeated runs
    of the same pair form one trend series.
    """
    if request.kind == "scenario":
        return str(request.scenario)
    if request.kind == "experiment":
        return f"experiment/{request.workload}/{request.algorithm}"
    return str(result.meta.get("name") or result.label)


def _stamp_provenance(result: RunResult, provenance: Provenance) -> RunResult:
    result.run_id = provenance.run_id
    result.config_hash = provenance.config_hash
    result.git_sha = provenance.git_sha
    result.started_at = provenance.started_at
    result.meta["provenance"] = provenance.to_dict()
    return result


def run(
    request: Optional[RunRequest] = None,
    *,
    cancel_check: Optional[Callable[[], bool]] = None,
    record_to: Optional[Any] = None,
    **kwargs: Any,
) -> RunResult:
    """Execute one submission of any kind and return its :class:`RunResult`.

    Call with a prebuilt :class:`RunRequest`, or with keyword arguments
    (``run(kind="experiment", workload=..., algorithm=...)``) which are
    passed through :func:`apply_aliases` — deprecated spellings work but
    warn.  ``cancel_check`` is polled between runs; see
    :class:`~repro.scenarios.runner.RunCancelled`.

    ``record_to`` (a path or :class:`~repro.results.store.ResultsStore`)
    appends the finished result to the persistent run store under the
    provenance key stamped on the result, making it queryable via
    ``repro scenario history`` and the service's ``GET /v1/history``.
    """
    if request is None:
        request = RunRequest.from_dict(kwargs)
    elif kwargs:
        raise ApiError("pass either a RunRequest or keyword arguments, not both")
    # One place computes run identity: the config hash covers the canonical
    # request (so a service submission and a local call of the same request
    # hash identically), the timestamp is taken before training starts.
    provenance = build_provenance(request.to_dict())
    if request.kind == "experiment":
        request.validate()
        result = _run_experiment_kind(request, cancel_check)
    elif request.kind == "scenario":
        request.validate()
        report = run_scenario(
            request.scenario,
            iterations=request.iterations,
            num_workers=request.num_workers,
            seed=request.seed,
            fault_seed=request.fault_seed,
            cancel_check=cancel_check,
        )
        result = _from_report("scenario", report)
    else:
        scenario = request._build_scenario()
        report = run_scenario(scenario, cancel_check=cancel_check)
        result = _from_report(request.kind, report)
    _stamp_provenance(result, provenance)
    if record_to is not None:
        from repro.results import record_run_payload

        record_run_payload(
            record_to,
            scenario=_store_scenario_key(request, result),
            kind=result.kind,
            records=result.records,
            meta=result.meta,
            tags=tuple(result.meta.get("tags", ())),
            provenance=provenance,
        )
    return result
