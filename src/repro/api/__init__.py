"""One façade over every way to run an experiment.

Every run setting is defined once, as a dataclass field:
:class:`~repro.harness.experiment.RunConfig` for one training run, and the
scenario dataclasses of :mod:`repro.scenarios.spec` for sweeps,
comparisons and throughput curves (which expand to the ``RunConfig`` s they
run).  This module maps one submission onto them:

* :class:`RunRequest` — one submission of any kind (``experiment``,
  ``sweep``, ``comparison``, ``throughput`` or a registered ``scenario`` by
  name) with flat fields.  Construction builds the dataclass the kind
  stands for, so an invalid submission fails right there;
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
artifacts all agree.  :func:`record_result` files a finished result in the
persistent run store (:class:`~repro.service.store.Store`): ``run`` calls
it for ``record_to=``, and the service task manager calls it for every
finished job, so HTTP jobs and direct runs land in the same history.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.algorithms.base import TrainingResult
from repro.harness.experiment import ConfigError, RunConfig
from repro.results.provenance import Provenance, build_provenance
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import (
    RunCancelled,
    ScenarioReport,
    _check_cancelled,
    run_scenario,
    train_run,
)
from repro.scenarios.spec import (
    ComparisonScenario,
    SweepScenario,
    ThroughputScenario,
    with_overrides,
)

__all__ = [
    "ApiError",
    "KINDS",
    "SCENARIO_OVERRIDES",
    "TARGETS",
    "RunCancelled",
    "RunRequest",
    "RunResult",
    "request_fields",
    "record_result",
    "request_from_action",
    "run",
]


class ApiError(ConfigError):
    """A :class:`RunRequest` is malformed (bad kind, missing field, …)."""


#: The dataclass each submission kind builds from its fields.
TARGETS = {
    "experiment": RunConfig,
    "sweep": SweepScenario,
    "comparison": ComparisonScenario,
    "throughput": ThroughputScenario,
}

#: The fields a ``scenario`` submission may override on a registered scenario.
SCENARIO_OVERRIDES = ("iterations", "num_workers", "seed", "fault_seed")

#: The five submission kinds one :class:`RunRequest` can describe.
KINDS = (*TARGETS, "scenario")


@functools.lru_cache(maxsize=None)
def request_fields(kind: str) -> Dict[str, Tuple[Any, bool]]:
    """``{field: (annotation, required)}`` of one kind's submissions.

    Read off :data:`TARGETS[kind] <TARGETS>`'s fields (the ``scenario`` kind:
    a registered name plus :data:`SCENARIO_OVERRIDES`).  The service schemas
    and :class:`RunRequest` both use it, so the HTTP body, a keyword call
    and the dataclass cannot disagree.  Scenario names are assigned here,
    not submitted, and ``title`` has a default.
    """
    if kind == "scenario":
        hints = typing.get_type_hints(RunConfig)
        return {"scenario": (str, True), **{k: (hints[k], False) for k in SCENARIO_OVERRIDES}}
    target = TARGETS[kind]
    hints = typing.get_type_hints(target)
    return {
        f.name: (hints[f.name], f.name != "title" and f.default is dataclasses.MISSING
                 and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(target) if f.init and f.name != "name"
    }


class RunRequest:
    """One submission: a kind plus the flat fields of the dataclass it builds.

    ``kind`` is one of :data:`KINDS`; the fields are those of
    :data:`TARGETS[kind] <TARGETS>` (``scenario`` takes a registered name
    plus :data:`SCENARIO_OVERRIDES`).  A ``None`` field means the
    dataclass's default.  Construction builds :attr:`target` — the
    :class:`~repro.harness.experiment.RunConfig` or scenario dataclass —
    so every check runs once, here; an invalid submission raises
    :class:`ApiError` or :class:`~repro.scenarios.spec.ScenarioError`.
    """

    def __init__(self, kind: str, **fields: Any) -> None:
        if kind not in KINDS:
            raise ApiError(f"unknown request kind {kind!r}; one of {KINDS}")
        self.kind = kind
        self.fields = {k: v for k, v in fields.items() if v is not None}
        known = request_fields(kind)
        unknown = sorted(set(self.fields) - set(known))
        if unknown:
            raise ApiError(f"unknown request fields {unknown} for kind {kind!r}")
        missing = [k for k, (_, required) in known.items() if required and k not in self.fields]
        if missing:
            raise ApiError(f"{kind} request requires {missing}")
        self.target = self._build()

    def _build(self):
        fields = dict(self.fields)
        if self.kind == "scenario":
            return with_overrides(get_scenario(fields.pop("scenario")), **fields)
        if self.kind == "experiment":
            try:
                return RunConfig(**fields)
            except ConfigError as exc:
                raise ApiError(f"experiment request: {exc}") from None
        fields.setdefault("title", f"ad-hoc {self.kind} submission")
        return TARGETS[self.kind](name=f"adhoc-{self.kind}", **fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RunRequest) and other.to_dict() == self.to_dict()

    def __repr__(self) -> str:
        return f"RunRequest({self.to_dict()!r})"

    # -- construction ------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRequest":
        """Build a request from a JSON-style mapping with a ``kind`` key."""
        if not isinstance(payload, Mapping):
            raise ApiError(f"request payload must be a mapping, got {type(payload).__name__}")
        fields = dict(payload)
        return cls(fields.pop("kind", None), **fields)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation with defaulted fields omitted."""
        out: Dict[str, Any] = {"kind": self.kind}
        out.update((k, v) for k, v in self.fields.items() if v not in ({}, ()))
        return out

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
    ..., "grid": ...}}``); the ``scenario`` action names its scenario with
    a ``name`` key.
    """
    if action not in KINDS:
        raise ApiError(f"unknown action {action!r}; one of {KINDS}")
    if not isinstance(payload, Mapping):
        raise ApiError(f"{action} payload must be a mapping, got {type(payload).__name__}")
    fields = dict(payload)
    if action == "scenario":
        fields["scenario"] = fields.pop("name", None)
    return RunRequest(action, **fields)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def _run_experiment_kind(
    config: RunConfig, cancel_check: Optional[Callable[[], bool]]
) -> RunResult:
    _check_cancelled(cancel_check)
    record, result = train_run(config, config.params)
    meta = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    meta.update(params=dict(config.params), eval_every=config.resolved_eval_every)
    # Opt-in per-phase breakdown: present only when telemetry tracing was
    # active during the run, so default artifacts stay byte-identical.
    if record.phases:
        meta["phases"] = record.phases
    return RunResult(
        kind="experiment",
        label=record.label,
        records=[record.to_dict()],
        meta=meta,
        results={"run": result},
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


def record_result(
    store: Any, request: RunRequest, result: RunResult, *, job_id: Optional[str] = None
) -> Any:
    """File ``result`` in the run store ``store`` (a path or store instance).

    The scenario key: registered scenarios keep their registry name; ad-hoc
    kinds use the report's name (``adhoc-sweep``, …); single experiments
    get a deterministic ``experiment/<workload>/<algorithm>`` key so
    repeated runs of the same pair form one trend series.  ``job_id`` files
    the run as that service job's result.  The write goes through
    :func:`repro.results.record_run_payload`, looked up when called.
    """
    from repro import results

    if request.kind == "experiment":
        scenario = f"experiment/{request.target.workload}/{request.target.algorithm}"
    else:
        scenario = result.label
    return results.record_run_payload(
        store,
        scenario=scenario,
        kind=result.kind,
        records=result.records,
        meta=result.meta,
        endpoints=result.endpoints,
        tags=tuple(result.meta.get("tags", ())),
        job_id=job_id,
    )


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
    (``run(kind="experiment", workload=..., algorithm=...)``) that build one.
    ``cancel_check`` is polled between runs; see
    :class:`~repro.scenarios.runner.RunCancelled`.

    ``record_to`` (a path or :class:`~repro.service.store.Store`) files the
    finished result in the persistent run store (:func:`record_result`)
    under the provenance stamped on it, making it queryable via
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
        result = _run_experiment_kind(request.target, cancel_check)
    else:
        report = run_scenario(request.target, cancel_check=cancel_check)
        result = _from_report(request.kind, report)
    _stamp_provenance(result, provenance)
    if record_to is not None:
        record_result(record_to, request, result)
    return result
