"""The single executor for registered scenarios.

:func:`run_scenario` takes a scenario (or a registry name), executes it
through the analytic cost model (throughput kind) or one
:func:`train_run` per expanded run (training kinds), and returns a
:class:`ScenarioReport`: structured per-run records that serialize to JSON
for artifact tracking, the raw :class:`~repro.algorithms.base.TrainingResult`
objects for assertions, and ready-made :mod:`repro.harness.reporting` tables.
:func:`train_run` is the one place a training record is made; the
``experiment`` kind of :func:`repro.api.run` calls it too.

δ-sweep scenarios with ``verify_endpoints=True`` additionally run the
existing :class:`~repro.algorithms.bsp.BSPTrainer` and a never-syncing
:class:`~repro.algorithms.localsgd.LocalSGDTrainer` as *anchors* and record
whether the sweep's δ=0 and δ=max runs reproduce them exactly — final loss,
final metric and the full evaluation history.  This pins the registry's
large-N sweeps to the trainers the unit suite already trusts.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.algorithms.base import TrainingResult
from repro.data.datasets import DatasetBundle
from repro.engine import threads
from repro.harness import experiment
from repro.harness.experiment import RunConfig
from repro.harness.reporting import format_table, results_to_rows, table1_headers
from repro.metrics.convergence import ConvergenceDetector
from repro.scenarios.registry import Scenario, get_scenario
from repro.scenarios.spec import (
    ComparisonScenario,
    FaultScenario,
    Run,
    ScenarioError,
    SweepScenario,
    ThroughputScenario,
    with_overrides,
)

__all__ = [
    "RunCancelled",
    "ScenarioRecord",
    "ScenarioReport",
    "run_scenario",
    "train_run",
]


class RunCancelled(Exception):
    """A scenario run was cancelled cooperatively between runs.

    Raised by :func:`run_scenario` when the ``cancel_check`` callback
    returns ``True`` at a checkpoint (before each grid point, comparison
    method or endpoint anchor).  The experiment service's task manager maps
    this to the job lifecycle's CANCELLED state."""


def _check_cancelled(cancel_check: Optional[Any]) -> None:
    if cancel_check is not None and cancel_check():
        raise RunCancelled("scenario run cancelled by cancel_check")


@dataclass
class ScenarioRecord:
    """One run (or one analytic point) of a scenario, as plain data.

    ``phases`` is the opt-in per-phase wall-clock breakdown (phase name →
    seconds) captured around this run when :mod:`repro.telemetry` tracing is
    active; ``None`` — the default when telemetry is off — keeps the record
    shape byte-identical to pre-telemetry artifacts.
    """

    params: Dict[str, Any]
    label: str
    metrics: Dict[str, float]
    phases: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        payload: Dict[str, Any] = {
            "params": dict(self.params),
            "label": self.label,
            "metrics": dict(self.metrics),
        }
        if self.phases is not None:
            payload["phases"] = dict(self.phases)
        return payload


@dataclass
class ScenarioReport:
    """Everything one scenario execution produced.

    ``records`` are JSON-serializable summaries (one per run);
    ``results`` keeps the raw :class:`~repro.algorithms.base.TrainingResult`
    objects keyed like the records for exact assertions; ``endpoints`` holds
    the anchor records and parity verdicts of ``verify_endpoints`` sweeps.
    """

    name: str
    title: str
    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    records: List[ScenarioRecord] = field(default_factory=list)
    results: Dict[str, TrainingResult] = field(default_factory=dict)
    endpoints: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (drops the raw ``results`` objects)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "kind": self.kind,
            "meta": dict(self.meta),
            "records": [record.to_dict() for record in self.records],
        }
        if self.endpoints:
            payload["endpoints"] = self.endpoints
        return payload

    def series(self, param: str, metric: str) -> Dict[Any, float]:
        """One ``{param value -> metric}`` series across the records."""
        return {
            record.params[param]: record.metrics[metric]
            for record in self.records
            if param in record.params and metric in record.metrics
        }

    def table(self) -> str:
        """Human-readable report table(s), one :func:`format_table` per kind."""
        if self.kind == "comparison":
            return self._comparison_table()
        if self.kind == "throughput":
            return self._throughput_table()
        return self._sweep_table()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _format_param(name: str, value: Any) -> Any:
        # The 1e9 δ sentinel means "beyond any observed Δ(gᵢ)" — print it as
        # the local-SGD extreme it represents, like Fig. 6 in the paper.
        if name == "delta" and isinstance(value, float) and value >= 1e9:
            return "∞ (local SGD)"
        return value

    def _sweep_table(self) -> str:
        param_names = sorted({name for r in self.records for name in r.params})
        metric_names = ["lssr", "best_metric", "final_loss", "sim_time_seconds", "wall_seconds"]
        rows = []
        for record in self.records:
            cells: List[Any] = [
                self._format_param(name, record.params.get(name, "-"))
                for name in param_names
            ]
            for metric in metric_names:
                value = record.metrics.get(metric)
                cells.append("-" if value is None else round(value, 4))
            rows.append(cells)
        title = self.title
        sweep_wall = self.meta.get("sweep_wall_seconds")
        if sweep_wall is not None:
            title = f"{title} (sweep wall {sweep_wall:.1f}s)"
        return format_table(param_names + metric_names, rows, title=title)

    def _comparison_table(self) -> str:
        tables = []
        for workload in self.meta.get("workloads", []):
            results = {
                label: self.results[f"{workload}/{label}"]
                for label in self.meta.get("methods", [])
                if f"{workload}/{label}" in self.results
            }
            if not results:
                continue
            rows = results_to_rows(results, baseline_key=self.meta["baseline"])
            tables.append(
                format_table(table1_headers(), rows, title=f"{self.title} — {workload}")
            )
        return "\n\n".join(tables)

    def _throughput_table(self) -> str:
        workloads = list(self.meta.get("workloads", []))
        curves: Dict[str, Dict[int, float]] = {name: {} for name in workloads}
        for record in self.records:
            curves[record.params["workload"]][record.params["workers"]] = record.metrics[
                "relative_throughput"
            ]
        rows = [
            [n] + [round(curves[name][n], 2) for name in workloads]
            for n in self.meta.get("worker_counts", [])
        ]
        return format_table(["workers"] + workloads, rows, title=self.title)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def train_run(
    config: RunConfig,
    params: Dict[str, Any],
    *,
    timed: bool = False,
    convergence=None,
    fault_schedule=None,
    bundle: Optional[DatasetBundle] = None,
) -> Tuple[ScenarioRecord, TrainingResult]:
    """Run one :class:`RunConfig` and return its record and raw result.

    Every training record comes from here: the ``experiment`` kind of
    :func:`repro.api.run`, sweep points, endpoint anchors, comparison
    methods and fault attempts.  ``params`` is the record's ``params``;
    ``timed`` adds the run's ``wall_seconds`` to its metrics;
    ``convergence``, ``fault_schedule`` and ``bundle`` go to
    :func:`~repro.harness.experiment.run_experiment`, which is looked up
    when called.  The metrics are the result's summary numbers plus its
    ``extras``; the record carries ``phases`` when telemetry tracing is on.
    """
    start = time.perf_counter()
    phase_start = telemetry.phase_snapshot()
    result = experiment.run_experiment(
        config, convergence=convergence, fault_schedule=fault_schedule, bundle=bundle
    )
    phases = telemetry.phase_delta(phase_start) or None
    metrics = {
        "iterations": float(result.iterations),
        "lssr": result.lssr,
        "best_metric": result.best_metric,
        "final_metric": result.final_metric,
        "final_loss": result.final_loss,
        "sim_time_seconds": result.sim_time_seconds,
        "communication_bytes": result.communication_bytes,
    }
    for key, value in result.extras.items():
        metrics.setdefault(key, float(value))
    if timed:
        metrics["wall_seconds"] = time.perf_counter() - start
    record = ScenarioRecord(
        params=dict(params), label=result.algorithm, metrics=metrics, phases=phases
    )
    return record, result


def _exact_match(result: TrainingResult, anchor: TrainingResult) -> bool:
    """Bit-exact trajectory equality: final numbers plus every eval point.

    Simulated time is excluded on purpose — SelSync charges the per-step
    flags all-gather that BSP / local SGD never pay, so clocks differ even
    when the parameter trajectories are identical.
    """
    if result.final_loss != anchor.final_loss:
        return False
    if result.final_metric != anchor.final_metric:
        return False
    if len(result.history) != len(anchor.history):
        return False
    return all(
        a.step == b.step and a.metric == b.metric and a.loss == b.loss
        for a, b in zip(result.history, anchor.history)
    )


class _Datasets(dict):
    """``(workload, seed)`` -> that workload's dataset, built on first use.

    One scenario run's runs share each bundle: dataset arrays are read-only
    and every batch is a copy, so a run cannot change what the next one reads.
    """

    def __missing__(self, key: Tuple[str, int]) -> DatasetBundle:
        workload, seed = key
        preset = experiment.build_workload(workload)
        bundle = self[key] = experiment.build_dataset(
            preset.dataset_name, seed=seed, **preset.dataset_kwargs
        )
        return bundle


#: Fewest worker-steps (Σ workers × iterations) one share of a scenario's runs
#: must hold before the runs fan out (ARCHITECTURE.md, "Run fan-out").  A fork
#: costs more the larger the forking process: measured on ``deep_mlp``, the
#: workload with the cheapest step, smaller shares lost to the in-process loop
#: in the tier-1 test process.
MIN_CHILD_WORKER_STEPS = 384


def _share_count(runs: Sequence[Run]) -> int:
    """How many processes a scenario's runs spread over — computed, never set.

    As many as there are usable cores and runs, but no more than leave every
    share :data:`MIN_CHILD_WORKER_STEPS` worker-steps, and one unless forking
    is safe and hides nothing: the calling process runs one Python thread
    (no service task thread, no live shard pool), repro telemetry is off
    (spans and counters must land in this process) and the BLAS is pinned
    to one thread (an unpinned OpenBLAS worker spins on the core a child
    needs).
    """
    worker_steps = sum(config.num_workers * config.iterations for _, config in runs)
    k = min(threads.usable_cores(), len(runs), worker_steps // MIN_CHILD_WORKER_STEPS)
    if k < 2 or threading.active_count() > 1:
        return 1
    if telemetry.tracing_enabled() or telemetry.metrics_enabled():
        return 1
    if threads.pin_blas() is None:
        return 1
    return k


def _train_report(
    scenario: Scenario,
    meta: Dict[str, Any],
    result_key: Callable[[Dict[str, Any]], str],
    cancel_check=None,
    *,
    timed: bool = False,
    options: Callable[[RunConfig], Dict[str, Any]] = lambda config: {},
    datasets: Optional[_Datasets] = None,
) -> ScenarioReport:
    """Run every ``(params, config)`` of ``scenario.runs`` through :func:`train_run`.

    ``meta`` is the report's run description; ``result_key`` names each
    raw result; ``options`` gives each run's ``train_run`` keywords;
    ``datasets`` holds the bundles the runs share (a new one by default).
    The runs are dealt round-robin into :func:`_share_count` shares, run
    through :func:`~repro.engine.threads.run_forked` and put back in run
    order, so the report is the sequential loop's whatever the share count.
    """
    report = ScenarioReport(
        name=scenario.name, title=scenario.title, kind=scenario.kind,
        meta={**meta, "tags": list(scenario.tags)},
    )
    datasets = _Datasets() if datasets is None else datasets
    runs = scenario.runs
    # Every bundle before any fork, so the children read them copy-on-write.
    bundles = [datasets[config.workload, config.seed] for _, config in runs]

    def run_share(indices: range) -> List[Tuple[ScenarioRecord, TrainingResult]]:
        pairs = []
        for index in indices:
            _check_cancelled(cancel_check)
            params, config = runs[index]
            pairs.append(train_run(
                config, params, timed=timed, bundle=bundles[index], **options(config)
            ))
        return pairs

    k = _share_count(runs)
    done = threads.run_forked(run_share, [range(first, len(runs), k) for first in range(k)])
    for index, (params, _) in enumerate(runs):
        # Share s holds runs s, s + k, s + 2k, …
        record, result = done[index % k][index // k]
        report.results[result_key(params)] = result
        report.records.append(record)
    return report


def _run_sweep(scenario: SweepScenario, cancel_check=None) -> ScenarioReport:
    first = scenario.runs[0][1]
    meta = {
        "workload": scenario.workload,
        "algorithm": scenario.algorithm,
        "num_workers": scenario.num_workers,
        "iterations": scenario.iterations,
        "seed": scenario.seed,
        "eval_every": first.eval_every,
        "grid": {key: list(values) for key, values in scenario.grid.items()},
        "params": dict(scenario.params),
        "dtype": scenario.dtype,
        "transport_dtype": scenario.transport_dtype,
    }
    sweep_phase_start = telemetry.phase_snapshot()
    sweep_start = time.perf_counter()
    datasets = _Datasets()
    report = _train_report(
        scenario, meta, lambda params: "/".join(f"{k}={v}" for k, v in params.items()),
        cancel_check, timed=True, datasets=datasets,
    )
    report.meta["sweep_wall_seconds"] = time.perf_counter() - sweep_start
    sweep_phases = telemetry.phase_delta(sweep_phase_start)
    if sweep_phases:
        report.meta["phases"] = sweep_phases

    if scenario.verify_endpoints:
        report.endpoints = _verify_delta_endpoints(
            scenario, report, first, datasets[first.workload, first.seed], cancel_check
        )
    return report


def _verify_delta_endpoints(
    scenario: SweepScenario,
    report: ScenarioReport,
    config: RunConfig,
    bundle: DatasetBundle,
    cancel_check=None,
) -> Dict[str, Any]:
    """Anchor the δ-sweep's extremes on the existing BSP / local-SGD trainers,
    trained on the sweep's own ``bundle``."""
    deltas = list(scenario.grid["delta"])
    lo, hi = min(deltas), max(deltas)
    endpoints: Dict[str, Any] = {}
    for anchor, delta, params in (
        ("bsp", lo, {}),
        ("local_sgd", hi, {"sync_period": config.iterations + 1}),
    ):
        _check_cancelled(cancel_check)
        record, result = train_run(
            dataclasses.replace(config, algorithm=anchor, params=params),
            {"anchor": anchor}, timed=True, bundle=bundle,
        )
        endpoints[anchor] = {
            "delta": delta,
            "record": record.to_dict(),
            "matches_sweep_endpoint": _exact_match(report.results[f"delta={delta}"], result),
        }
        report.results[f"anchor/{anchor}"] = result
    return endpoints


def _run_comparison(scenario: ComparisonScenario, cancel_check=None) -> ScenarioReport:
    meta = {
        "workloads": list(scenario.workloads),
        "methods": list(scenario.methods),
        "baseline": scenario.baseline,
        "num_workers": scenario.num_workers,
        "iterations": scenario.iterations,
        "seed": scenario.seed,
        "eval_every": scenario.runs[0][1].eval_every,
    }

    def options(config: RunConfig) -> Dict[str, Any]:
        if not scenario.use_convergence:
            return {}
        return {"convergence": ConvergenceDetector(
            higher_is_better=experiment.build_workload(config.workload).task
            != "language_modeling",
            patience=scenario.convergence_patience,
            min_delta=scenario.convergence_min_delta,
        )}

    return _train_report(
        scenario, meta, lambda params: f"{params['workload']}/{params['method']}",
        cancel_check, options=options,
    )


def _run_fault(scenario: FaultScenario, cancel_check=None) -> ScenarioReport:
    """Execute a fault scenario twice and enforce its reliability gates.

    Records deliberately omit wall-clock timings — the deterministic-replay
    gate compares the two runs' serialized records byte for byte, and only
    seeded quantities (losses, metrics, simulated seconds, byte counts) are
    replayable.
    """
    schedule = scenario.schedule
    meta = {
        "workload": scenario.workload,
        "algorithm": scenario.algorithm,
        "num_workers": scenario.num_workers,
        "iterations": scenario.iterations,
        "seed": scenario.seed,
        "eval_every": scenario.runs[0][1].resolved_eval_every,
        "fault_seed": scenario.fault_seed,
        "failure_rate": scenario.failure_rate,
        "straggler_fraction": scenario.straggler_fraction,
        "mttr": scenario.mttr,
        "checkpoint_every": scenario.checkpoint_every,
        "continuity_factor": scenario.continuity_factor,
        "fault_events": schedule.to_dicts(),
    }
    report = _train_report(
        scenario, meta, lambda params: params["attempt"], cancel_check,
        options=lambda config: {"fault_schedule": schedule},
    )

    deterministic = report.records[0].metrics == report.records[1].metrics
    continuity, continuity_detail = _check_loss_continuity(
        report.results["run"], schedule, scenario.continuity_factor
    )
    report.meta["gates"] = {
        "deterministic_replay": deterministic,
        "loss_continuity": continuity,
        "continuity_detail": continuity_detail,
    }
    if not deterministic:
        raise ScenarioError(
            f"scenario {scenario.name!r}: deterministic-replay gate failed — two "
            "runs with the same fault seed produced different records"
        )
    if not continuity:
        raise ScenarioError(
            f"scenario {scenario.name!r}: loss-continuity gate failed — "
            f"{continuity_detail}"
        )
    return report


def _check_loss_continuity(result, schedule, factor: float):
    """All eval losses finite; each crash degrades loss by at most ``factor``."""
    import math

    history = result.history
    for point in history:
        if not math.isfinite(point.loss):
            return False, f"non-finite eval loss {point.loss} at step {point.step}"
    crash_steps = [e.step for e in schedule if e.kind == "crash"]
    for crash_step in crash_steps:
        before = [p for p in history if p.step <= crash_step]
        after = [p for p in history if p.step > crash_step]
        if not before or not after:
            continue
        pre, post = before[-1].loss, after[0].loss
        if post > factor * pre:
            return False, (
                f"eval loss jumped from {pre:.6g} (step {before[-1].step}) to "
                f"{post:.6g} (step {after[0].step}) across the crash at step "
                f"{crash_step} (allowed factor {factor})"
            )
    return True, "ok"


def _run_throughput(scenario: ThroughputScenario) -> ScenarioReport:
    from repro.cluster.compute_model import PAPER_WORKLOADS
    from repro.comm.cost_model import CommunicationCostModel
    from repro.metrics.throughput import throughput_curve

    comm = CommunicationCostModel(topology=scenario.topology)
    report = ScenarioReport(
        name=scenario.name,
        title=scenario.title,
        kind=scenario.kind,
        meta={
            "workloads": list(scenario.workloads),
            "worker_counts": list(scenario.worker_counts),
            "topology": scenario.topology,
            "tags": list(scenario.tags),
        },
    )
    for workload in scenario.workloads:
        spec = PAPER_WORKLOADS[workload]
        curve = throughput_curve(
            spec, list(scenario.worker_counts), spec.base_batch_size, comm
        )
        for workers, value in curve.items():
            report.records.append(
                ScenarioRecord(
                    params={"workload": workload, "workers": int(workers)},
                    label=workload,
                    metrics={"relative_throughput": float(value)},
                )
            )
    return report


def run_scenario(
    scenario: Union[str, Scenario],
    iterations: Optional[int] = None,
    num_workers: Optional[int] = None,
    seed: Optional[int] = None,
    fault_seed: Optional[int] = None,
    cancel_check=None,
) -> ScenarioReport:
    """Execute a scenario (by object or registry name) and return its report.

    ``iterations`` / ``num_workers`` / ``seed`` / ``fault_seed`` override
    the scenario's own fields through :func:`~repro.scenarios.spec.with_overrides`
    (a :func:`dataclasses.replace`, so every run is validated again) without
    mutating it — the benchmark suite uses this to scale the same registered
    scenario between smoke and full-scale runs.  A field the scenario's kind
    does not have (a size for an analytic throughput scenario, a fault seed
    for a sweep) is a :class:`~repro.scenarios.spec.ScenarioError`.

    ``cancel_check`` is an optional zero-argument callable polled between
    runs (each grid point, comparison method and endpoint anchor); when it
    returns ``True`` the execution stops by raising :class:`RunCancelled`.
    The experiment service uses this for cooperative job cancellation.
    Recording a report is :func:`repro.api.run`'s ``record_to=``.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    overrides = dict(iterations=iterations, num_workers=num_workers, seed=seed,
                     fault_seed=fault_seed)
    scenario = with_overrides(
        scenario, **{k: v for k, v in overrides.items() if v is not None}
    )
    if isinstance(scenario, ThroughputScenario):
        return _run_throughput(scenario)
    if isinstance(scenario, SweepScenario):
        return _run_sweep(scenario, cancel_check)
    if isinstance(scenario, ComparisonScenario):
        return _run_comparison(scenario, cancel_check)
    if isinstance(scenario, FaultScenario):
        return _run_fault(scenario, cancel_check)
    raise ScenarioError(f"unsupported scenario type {type(scenario).__name__}")
