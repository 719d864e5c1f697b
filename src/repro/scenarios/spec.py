"""Scenario specifications: experiments as validated, declarative data.

A scenario captures *what* to run — workload preset, cluster size, trainer
family, the parameter grid (δ / staleness / compression / …) and the engine
knobs (compute dtype, transport dtype) — without any run loop
of its own.  :func:`repro.scenarios.runner.run_scenario` is the single
executor for every kind; the benchmarks, examples and the CLI all look
scenarios up in the :mod:`~repro.scenarios.registry` instead of hand-rolling
sweep loops.

Four scenario kinds cover the paper's experiment shapes:

* :class:`SweepScenario` — one (workload, algorithm) pair swept over a grid
  of algorithm parameters (the Fig. 6 δ-sweeps, staleness sweeps, …);
* :class:`ComparisonScenario` — a labelled method grid run across one or
  more workloads (Table I);
* :class:`ThroughputScenario` — analytic scaling curves from the
  communication cost model, no training (Fig. 1a);
* :class:`FaultScenario` — a fault-injection reliability run (worker
  crashes, checkpoint rejoins, straggler bursts) with deterministic-replay
  and loss-continuity gates (see :mod:`repro.faults`).

Every dataclass validates itself in ``__post_init__`` and raises
:class:`ScenarioError` with an actionable message, so a typo in a scenario
definition fails at registration time, not hours into a nightly sweep.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.harness.experiment import (
    FAULT_ALGORITHMS,
    ConfigError,
    RunConfig,
    check_fault_algorithm,
)

__all__ = [
    "ScenarioError",
    "SweepScenario",
    "ComparisonScenario",
    "ThroughputScenario",
    "FaultScenario",
    "FAULT_ALGORITHMS",
    "with_overrides",
]


class ScenarioError(ConfigError):
    """A scenario definition is invalid (unknown workload, bad grid, …)."""


#: One expanded run of a scenario: the record's ``params`` and its config.
Run = Tuple[Dict[str, Any], RunConfig]


def _check_name(name: str) -> None:
    if not name or not isinstance(name, str):
        raise ScenarioError("scenario name must be a non-empty string")
    if any(ch.isspace() for ch in name):
        raise ScenarioError(f"scenario name {name!r} must not contain whitespace")


def _expand(scenario, build) -> None:
    """Store ``build()``'s runs on ``scenario``; any invalid config is a :class:`ScenarioError`."""
    try:
        runs = tuple(build())
    except ValueError as exc:
        raise ScenarioError(f"scenario {scenario.name!r}: {exc}") from None
    object.__setattr__(scenario, "runs", runs)


def with_overrides(scenario, **overrides: Any):
    """``scenario`` with some fields replaced and every run validated again."""
    allowed = {f.name for f in dataclasses.fields(scenario) if f.init} - {"name"}
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        raise ScenarioError(
            f"scenario {scenario.name!r} is a {scenario.kind} scenario; it has no "
            f"{unknown} to override"
        )
    return dataclasses.replace(scenario, **overrides) if overrides else scenario


@dataclass(frozen=True)
class SweepScenario:
    """One (workload, algorithm) pair swept over a grid of trainer parameters.

    Attributes
    ----------
    name:
        Registry key (no whitespace).
    title:
        Human-readable description used as report titles.
    workload / algorithm:
        A :data:`repro.harness.experiment.WORKLOAD_PRESETS` key and a
        :data:`repro.harness.experiment.TRAINERS` name.
    grid:
        ``{param: sequence of values}``; the Cartesian product gives one
        run per point, the rightmost key varying fastest.  Keys are
        algorithm params (``delta``, ``staleness``, …), none of them also
        in ``params``, and every entry needs a value.
    params:
        Algorithm params passed unchanged to every run (e.g.
        ``{"aggregation": "grad"}``).
    num_workers / iterations / seed / eval_every / batch_size / dtype / transport_dtype:
        The :class:`~repro.harness.experiment.RunConfig` fields of every
        run; ``eval_every=None`` evaluates every ``max(iterations // 4, 1)``
        steps.
    verify_endpoints:
        For δ-sweeps (requires ``algorithm="selsync"`` and a ``delta`` grid
        entry): additionally run the existing :class:`~repro.algorithms.bsp.
        BSPTrainer` and a never-syncing :class:`~repro.algorithms.localsgd.
        LocalSGDTrainer` as anchors and record whether the δ=0 / δ=max runs
        reproduce them **exactly** (final loss, final metric and the full
        evaluation history).  Exactness needs gradient aggregation without a
        forced first sync, so ``params`` must pin
        ``aggregation="grad"`` and ``sync_on_first_step=False``.
    tags:
        Free-form labels for registry filtering (``"nightly"``,
        ``"delta-sweep"``, ``"paper-scale"``, …).
    runs:
        Set at construction: one ``(grid point, RunConfig)`` per run.
    """

    name: str
    title: str
    workload: str
    grid: Mapping[str, Sequence[Any]]
    algorithm: str = "selsync"
    params: Mapping[str, Any] = field(default_factory=dict)
    num_workers: int = 4
    iterations: int = 80
    seed: int = 0
    eval_every: Optional[int] = None
    batch_size: Optional[int] = None
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    verify_endpoints: bool = False
    tags: Tuple[str, ...] = ()
    runs: Tuple[Run, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_name(self.name)
        # Freeze the normalized copies (tuples survive dataclasses.replace).
        object.__setattr__(self, "grid", {k: tuple(v) for k, v in dict(self.grid).items()})
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.grid:
            raise ScenarioError(f"scenario {self.name!r}: grid must contain at least one parameter")
        for key, values in self.grid.items():
            if not values:
                raise ScenarioError(f"scenario {self.name!r}: grid entry {key!r} has no values")
        collisions = sorted(set(self.grid) & set(self.params))
        if collisions:
            raise ScenarioError(
                f"scenario {self.name!r}: parameters {collisions} appear in both grid and params"
            )
        if self.verify_endpoints:
            if self.algorithm != "selsync" or set(self.grid) != {"delta"}:
                raise ScenarioError(
                    f"scenario {self.name!r}: verify_endpoints requires "
                    "algorithm='selsync' with a grid over exactly 'delta'"
                )
            if len(self.grid["delta"]) < 2 or min(self.grid["delta"]) != 0.0:
                raise ScenarioError(
                    f"scenario {self.name!r}: verify_endpoints needs a delta grid "
                    "spanning from 0.0 (the BSP endpoint) to a local-SGD extreme"
                )
            if (
                self.params.get("aggregation") != "grad"
                or self.params.get("sync_on_first_step") is not False
            ):
                raise ScenarioError(
                    f"scenario {self.name!r}: verify_endpoints requires params "
                    "aggregation='grad' and sync_on_first_step=False (exact "
                    "BSP / local-SGD endpoint parity holds only there)"
                )
        eval_every = max(self.iterations // 4, 1) if self.eval_every is None else self.eval_every

        points = [dict(zip(self.grid, values)) for values in itertools.product(*self.grid.values())]
        _expand(self, lambda: (
            (point, RunConfig(
                self.workload, self.algorithm, {**self.params, **point}, self.num_workers,
                self.iterations, self.seed, eval_every, self.batch_size, dtype=self.dtype,
                transport_dtype=self.transport_dtype,
            ))
            for point in points
        ))

    @property
    def kind(self) -> str:
        """Scenario kind discriminator: ``"sweep"``."""
        return "sweep"


@dataclass(frozen=True)
class ComparisonScenario:
    """A labelled method grid run across one or more workloads (Table I).

    ``methods`` maps a display label to ``(algorithm, params)``; every method
    runs on every workload with a shared iteration budget and (optionally)
    the Table-I convergence stopping rule.  ``baseline`` names the method
    other rows are compared against in reports (default: the first one).
    ``eval_every=None`` evaluates every ``max(iterations // 8, 1)`` steps.
    """

    name: str
    title: str
    methods: Mapping[str, Tuple[str, Mapping[str, Any]]]
    workloads: Tuple[str, ...] = ("resnet101",)
    num_workers: int = 4
    iterations: int = 160
    seed: int = 0
    eval_every: Optional[int] = None
    baseline: Optional[str] = None
    use_convergence: bool = True
    convergence_patience: int = 4
    convergence_min_delta: float = 1e-3
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    tags: Tuple[str, ...] = ()
    runs: Tuple[Run, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_name(self.name)
        if not self.workloads:
            raise ScenarioError(f"scenario {self.name!r}: workloads must not be empty")
        if not self.methods:
            raise ScenarioError(f"scenario {self.name!r}: methods must not be empty")
        methods: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for label, entry in self.methods.items():
            if not isinstance(label, str) or not label:
                raise ScenarioError(
                    f"scenario {self.name!r}: method labels must be non-empty strings"
                )
            try:
                algorithm, params = entry
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"scenario {self.name!r}: method {label!r} must be an "
                    "(algorithm, params) pair"
                ) from None
            methods[label] = (algorithm, dict(params))
        baseline = next(iter(methods)) if self.baseline is None else self.baseline
        if baseline not in methods:
            raise ScenarioError(
                f"scenario {self.name!r}: baseline {baseline!r} is not one of "
                f"the methods {sorted(methods)}"
            )
        if self.convergence_patience < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: convergence_patience must be >= 1"
            )
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "baseline", baseline)
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "tags", tuple(self.tags))
        eval_every = max(self.iterations // 8, 1) if self.eval_every is None else self.eval_every
        _expand(self, lambda: (
            ({"workload": workload, "method": label}, RunConfig(
                workload, algorithm, params, self.num_workers, self.iterations, self.seed,
                eval_every, dtype=self.dtype, transport_dtype=self.transport_dtype,
            ))
            for workload in self.workloads
            for label, (algorithm, params) in methods.items()
        ))

    @property
    def kind(self) -> str:
        """Scenario kind discriminator: ``"comparison"``."""
        return "comparison"


@dataclass(frozen=True)
class FaultScenario:
    """A fault-injection reliability run: crashes, rejoins, straggler bursts.

    The runner executes the (workload, algorithm) pair under a
    :class:`~repro.faults.schedule.FaultSchedule` **twice with the same
    fault seed** and enforces two gates:

    * *deterministic replay* — both runs must produce byte-identical
      records (the schedule, the data order, the masked fused compute and
      the simulated clock are all seeded, so any divergence is a bug);
    * *loss continuity* — every evaluation loss stays finite, and the first
      evaluation after each crash is no worse than ``continuity_factor``
      times the last evaluation before it (a crash must degrade training
      gracefully, not destroy it).

    ``events`` pins an explicit event list; when empty, the schedule is
    generated from ``(fault_seed, failure_rate, straggler_fraction, mttr)``.
    ``checkpoint_every`` controls the rejoin-from-checkpoint cadence (the
    step-0 snapshot always exists).  ``schedule`` and ``runs`` (the run and
    its replay) are set at construction.
    """

    name: str
    title: str
    workload: str
    algorithm: str = "selsync"
    fault_seed: int = 0
    failure_rate: float = 0.0
    straggler_fraction: float = 0.0
    mttr: int = 5
    events: Tuple[Any, ...] = ()
    checkpoint_every: Optional[int] = 10
    continuity_factor: float = 3.0
    params: Mapping[str, Any] = field(default_factory=dict)
    num_workers: int = 4
    iterations: int = 80
    seed: int = 0
    eval_every: Optional[int] = None
    batch_size: Optional[int] = None
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    tags: Tuple[str, ...] = ()
    schedule: Any = field(init=False, repr=False, compare=False)
    runs: Tuple[Run, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        from repro.faults.schedule import FaultError, FaultEvent, FaultSchedule

        _check_name(self.name)
        try:
            check_fault_algorithm(self.algorithm)
        except ConfigError as exc:
            raise ScenarioError(f"scenario {self.name!r}: {exc}") from None
        if self.continuity_factor <= 0.0:
            raise ScenarioError(
                f"scenario {self.name!r}: continuity_factor must be > 0, "
                f"got {self.continuity_factor}"
            )
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ScenarioError(
                    f"scenario {self.name!r}: events must be FaultEvent instances, "
                    f"got {type(event).__name__}"
                )
        if not events and self.failure_rate == 0.0 and self.straggler_fraction == 0.0:
            raise ScenarioError(
                f"scenario {self.name!r}: no fault source — provide explicit "
                "events or a positive failure_rate / straggler_fraction"
            )
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "tags", tuple(self.tags))

        def config() -> RunConfig:
            return RunConfig(
                self.workload, self.algorithm, self.params, self.num_workers, self.iterations,
                self.seed, self.eval_every, self.batch_size, dtype=self.dtype,
                transport_dtype=self.transport_dtype, fault_seed=self.fault_seed,
                failure_rate=self.failure_rate, straggler_fraction=self.straggler_fraction,
                mttr=self.mttr, fault_checkpoint_every=self.checkpoint_every,
            )

        _expand(self, lambda: [({"attempt": a}, config()) for a in ("run", "replay")])
        # Validate the schedule at registration time, not hours into a run.
        try:
            if events:
                schedule = FaultSchedule(list(events))
                schedule.validate(self.num_workers, self.iterations)
            else:
                schedule = self.runs[0][1].fault_schedule()
        except FaultError as exc:
            raise ScenarioError(f"scenario {self.name!r}: {exc}") from exc
        object.__setattr__(self, "schedule", schedule)

    @property
    def kind(self) -> str:
        """Scenario kind discriminator: ``"fault"``."""
        return "fault"


@dataclass(frozen=True)
class ThroughputScenario:
    """Analytic relative-throughput curves over cluster sizes (Fig. 1a).

    No training happens: the curve comes from the paper-scale
    :data:`repro.cluster.compute_model.PAPER_WORKLOADS` specs priced through
    :class:`repro.comm.cost_model.CommunicationCostModel`, exactly as
    :func:`repro.metrics.throughput.throughput_curve` computes it.
    """

    name: str
    title: str
    workloads: Tuple[str, ...]
    worker_counts: Tuple[int, ...] = (1, 2, 4, 8, 16)
    topology: str = "ps"
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        from repro.cluster.compute_model import PAPER_WORKLOADS

        _check_name(self.name)
        if not self.workloads:
            raise ScenarioError(f"scenario {self.name!r}: workloads must not be empty")
        for workload in self.workloads:
            if workload not in PAPER_WORKLOADS:
                raise ScenarioError(
                    f"unknown paper workload {workload!r}; "
                    f"available: {sorted(PAPER_WORKLOADS)}"
                )
        if not self.worker_counts:
            raise ScenarioError(
                f"scenario {self.name!r}: worker_counts must not be empty"
            )
        if any(n < 1 for n in self.worker_counts):
            raise ScenarioError(
                f"scenario {self.name!r}: worker counts must be >= 1, "
                f"got {self.worker_counts}"
            )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "worker_counts", tuple(int(n) for n in self.worker_counts))
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def kind(self) -> str:
        """Scenario kind discriminator: ``"throughput"``."""
        return "throughput"
