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

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ScenarioError",
    "SweepScenario",
    "ComparisonScenario",
    "ThroughputScenario",
    "FaultScenario",
    "KNOWN_ALGORITHMS",
    "FAULT_ALGORITHMS",
    "RESERVED_PARAMETERS",
]


class ScenarioError(ValueError):
    """A scenario definition is invalid (unknown workload, bad grid, …)."""


#: Algorithms :func:`repro.harness.experiment.make_trainer` can build.
KNOWN_ALGORITHMS = ("bsp", "selsync", "fedavg", "ssp", "local_sgd", "compressed_bsp")

#: Algorithms that support fault injection (elastic worker masks): lockstep
#: trainers whose aggregation paths honor ``cluster.active_mask``.
FAULT_ALGORITHMS = ("bsp", "selsync", "local_sgd")

#: Keyword names owned by :func:`repro.harness.experiment.run_experiment`
#: itself.  Grid and ``fixed`` entries configure the *algorithm*, so these
#: must be expressed as scenario fields instead — a grid over e.g.
#: ``num_workers`` would silently shadow the scenario's cluster size.
RESERVED_PARAMETERS = frozenset(
    {
        "workload",
        "algorithm",
        "num_workers",
        "iterations",
        "seed",
        "eval_every",
        "partitioner",
        "use_default_partitioning",
        "convergence",
        "batch_size",
        "dtype",
        "transport_dtype",
        "injection",
        "fault_schedule",
        "fault_seed",
        "failure_rate",
        "straggler_fraction",
        "mttr",
        "fault_slowdown",
        "fault_checkpoint_every",
    }
)


def _check_name(name: str) -> None:
    if not name or not isinstance(name, str):
        raise ScenarioError("scenario name must be a non-empty string")
    if any(ch.isspace() for ch in name):
        raise ScenarioError(f"scenario name {name!r} must not contain whitespace")


def _check_workload(workload: str) -> None:
    from repro.harness.experiment import WORKLOAD_PRESETS

    if workload not in WORKLOAD_PRESETS:
        raise ScenarioError(
            f"unknown workload {workload!r}; available: {sorted(WORKLOAD_PRESETS)}"
        )


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in KNOWN_ALGORITHMS:
        raise ScenarioError(
            f"unknown algorithm {algorithm!r}; available: {sorted(KNOWN_ALGORITHMS)}"
        )


def _check_run_settings(num_workers: int, iterations: int, seed: int) -> None:
    if num_workers < 1:
        raise ScenarioError(f"num_workers must be >= 1, got {num_workers}")
    if iterations < 1:
        raise ScenarioError(f"iterations must be >= 1, got {iterations}")
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")


def _check_parameter_names(names, where: str) -> None:
    for key in names:
        if not isinstance(key, str) or not key:
            raise ScenarioError(f"{where} keys must be non-empty strings, got {key!r}")
        if key in RESERVED_PARAMETERS:
            raise ScenarioError(
                f"{where} key {key!r} is reserved by run_experiment; "
                "set it as a scenario field instead"
            )


@dataclass(frozen=True)
class SweepScenario:
    """One (workload, algorithm) pair swept over a grid of trainer parameters.

    Attributes
    ----------
    name:
        Registry key (no whitespace).
    title:
        Human-readable description used as report titles.
    workload:
        A :data:`repro.harness.experiment.WORKLOAD_PRESETS` key.
    algorithm:
        A :func:`repro.harness.experiment.make_trainer` algorithm name.
    grid:
        ``{parameter: sequence of values}`` — the Cartesian product is run
        through :func:`repro.harness.sweep.grid_sweep`.  Keys must be
        algorithm keywords (``delta``, ``staleness``, ``sync_period``, …),
        never :data:`RESERVED_PARAMETERS`.
    fixed:
        Algorithm keywords passed unchanged to every run (e.g.
        ``{"aggregation": "grad"}``).
    num_workers / iterations / seed / eval_every / batch_size:
        Cluster and run-loop sizing.  ``eval_every=None`` defaults to
        ``max(iterations // 4, 1)`` at run time so iteration overrides keep
        a proportional evaluation cadence.
    dtype / transport_dtype:
        Engine knobs, forwarded verbatim to ``run_experiment``.
    verify_endpoints:
        For δ-sweeps (requires ``algorithm="selsync"`` and a ``delta`` grid
        entry): additionally run the existing :class:`~repro.algorithms.bsp.
        BSPTrainer` and a never-syncing :class:`~repro.algorithms.localsgd.
        LocalSGDTrainer` as anchors and record whether the δ=0 / δ=max runs
        reproduce them **exactly** (final loss, final metric and the full
        evaluation history).  Exactness needs gradient aggregation without a
        forced first sync, so ``fixed`` must pin
        ``aggregation="grad"`` and ``sync_on_first_step=False``.
    tags:
        Free-form labels for registry filtering (``"nightly"``,
        ``"delta-sweep"``, ``"paper-scale"``, …).
    """

    name: str
    title: str
    workload: str
    algorithm: str = "selsync"
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    num_workers: int = 4
    iterations: int = 80
    seed: int = 0
    eval_every: Optional[int] = None
    batch_size: Optional[int] = None
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    verify_endpoints: bool = False
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_workload(self.workload)
        _check_algorithm(self.algorithm)
        _check_run_settings(self.num_workers, self.iterations, self.seed)
        if not self.grid:
            raise ScenarioError(f"scenario {self.name!r}: grid must not be empty")
        grid: Dict[str, Tuple[Any, ...]] = {}
        _check_parameter_names(self.grid.keys(), f"scenario {self.name!r} grid")
        for key, values in self.grid.items():
            values = tuple(values)
            if not values:
                raise ScenarioError(
                    f"scenario {self.name!r}: grid entry {key!r} has no values"
                )
            grid[key] = values
        _check_parameter_names(self.fixed.keys(), f"scenario {self.name!r} fixed")
        collisions = set(grid) & set(self.fixed)
        if collisions:
            raise ScenarioError(
                f"scenario {self.name!r}: {sorted(collisions)} appear in both "
                "grid and fixed"
            )
        if self.eval_every is not None and self.eval_every < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: eval_every must be >= 1, got {self.eval_every}"
            )
        if self.verify_endpoints:
            if self.algorithm != "selsync" or set(grid) != {"delta"}:
                raise ScenarioError(
                    f"scenario {self.name!r}: verify_endpoints requires "
                    "algorithm='selsync' with a grid over exactly 'delta'"
                )
            if len(grid["delta"]) < 2 or min(grid["delta"]) != 0.0:
                raise ScenarioError(
                    f"scenario {self.name!r}: verify_endpoints needs a delta grid "
                    "spanning from 0.0 (the BSP endpoint) to a local-SGD extreme"
                )
            if (
                self.fixed.get("aggregation") != "grad"
                or self.fixed.get("sync_on_first_step") is not False
            ):
                raise ScenarioError(
                    f"scenario {self.name!r}: verify_endpoints requires fixed "
                    "aggregation='grad' and sync_on_first_step=False (exact "
                    "BSP / local-SGD endpoint parity holds only there)"
                )
        # Freeze the normalized copies (tuples survive dataclasses.replace).
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def kind(self) -> str:
        """Scenario kind discriminator: ``"sweep"``."""
        return "sweep"

    def resolved_eval_every(self, iterations: Optional[int] = None) -> int:
        """Evaluation cadence for a run of ``iterations`` steps."""
        if self.eval_every is not None:
            return self.eval_every
        return max((iterations or self.iterations) // 4, 1)


@dataclass(frozen=True)
class ComparisonScenario:
    """A labelled method grid run across one or more workloads (Table I).

    ``methods`` maps a display label to ``(algorithm, kwargs)``; every method
    runs on every workload with a shared iteration budget and (optionally)
    the Table-I convergence stopping rule.  ``baseline`` names the method
    other rows are compared against in reports.
    """

    name: str
    title: str
    methods: Mapping[str, Tuple[str, Mapping[str, Any]]]
    workloads: Tuple[str, ...] = ("resnet101",)
    num_workers: int = 4
    iterations: int = 160
    seed: int = 0
    eval_every: Optional[int] = None
    baseline: str = "bsp"
    use_convergence: bool = True
    convergence_patience: int = 4
    convergence_min_delta: float = 1e-3
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name)
        if not self.workloads:
            raise ScenarioError(f"scenario {self.name!r}: workloads must not be empty")
        for workload in self.workloads:
            _check_workload(workload)
        _check_run_settings(self.num_workers, self.iterations, self.seed)
        if not self.methods:
            raise ScenarioError(f"scenario {self.name!r}: methods must not be empty")
        methods: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for label, entry in self.methods.items():
            if not isinstance(label, str) or not label:
                raise ScenarioError(
                    f"scenario {self.name!r}: method labels must be non-empty strings"
                )
            try:
                algorithm, kwargs = entry
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"scenario {self.name!r}: method {label!r} must be an "
                    "(algorithm, kwargs) pair"
                ) from None
            _check_algorithm(algorithm)
            _check_parameter_names(
                kwargs.keys(), f"scenario {self.name!r} method {label!r}"
            )
            methods[label] = (algorithm, dict(kwargs))
        if self.baseline not in methods:
            raise ScenarioError(
                f"scenario {self.name!r}: baseline {self.baseline!r} is not one of "
                f"the methods {sorted(methods)}"
            )
        if self.convergence_patience < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: convergence_patience must be >= 1"
            )
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def kind(self) -> str:
        """Scenario kind discriminator: ``"comparison"``."""
        return "comparison"

    def resolved_eval_every(self, iterations: Optional[int] = None) -> int:
        """Evaluation cadence for a run of ``iterations`` steps."""
        if self.eval_every is not None:
            return self.eval_every
        return max((iterations or self.iterations) // 8, 1)


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
    generated from ``(fault_seed, failure_rate, straggler_fraction, mttr,
    slowdown)``.  ``checkpoint_every`` controls the rejoin-from-checkpoint
    cadence (the step-0 snapshot always exists).
    """

    name: str
    title: str
    workload: str
    algorithm: str = "selsync"
    fault_seed: int = 0
    failure_rate: float = 0.0
    straggler_fraction: float = 0.0
    mttr: int = 5
    slowdown: float = 3.0
    events: Tuple[Any, ...] = ()
    checkpoint_every: Optional[int] = 10
    continuity_factor: float = 3.0
    fixed: Mapping[str, Any] = field(default_factory=dict)
    num_workers: int = 4
    iterations: int = 80
    seed: int = 0
    eval_every: Optional[int] = None
    batch_size: Optional[int] = None
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        from repro.faults.schedule import FaultError, FaultEvent

        _check_name(self.name)
        _check_workload(self.workload)
        if self.algorithm not in FAULT_ALGORITHMS:
            raise ScenarioError(
                f"scenario {self.name!r}: fault injection supports "
                f"{sorted(FAULT_ALGORITHMS)}, got {self.algorithm!r}"
            )
        _check_run_settings(self.num_workers, self.iterations, self.seed)
        if self.fault_seed < 0:
            raise ScenarioError(
                f"scenario {self.name!r}: fault_seed must be >= 0, got {self.fault_seed}"
            )
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ScenarioError(
                f"scenario {self.name!r}: failure_rate must be in [0, 1], "
                f"got {self.failure_rate}"
            )
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ScenarioError(
                f"scenario {self.name!r}: straggler_fraction must be in [0, 1], "
                f"got {self.straggler_fraction}"
            )
        if self.mttr < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: mttr must be >= 1, got {self.mttr}"
            )
        if self.slowdown < 1.0:
            raise ScenarioError(
                f"scenario {self.name!r}: slowdown must be >= 1, got {self.slowdown}"
            )
        if self.continuity_factor <= 0.0:
            raise ScenarioError(
                f"scenario {self.name!r}: continuity_factor must be > 0, "
                f"got {self.continuity_factor}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: checkpoint_every must be >= 1 or None, "
                f"got {self.checkpoint_every}"
            )
        if self.eval_every is not None and self.eval_every < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: eval_every must be >= 1, got {self.eval_every}"
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
        _check_parameter_names(self.fixed.keys(), f"scenario {self.name!r} fixed")
        # Validate the schedule at registration time, not hours into a run.
        try:
            self.build_schedule(self.num_workers, self.iterations)
        except FaultError as exc:
            raise ScenarioError(f"scenario {self.name!r}: {exc}") from exc
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "tags", tuple(self.tags))

    def build_schedule(self, num_workers: int, iterations: int):
        """The concrete :class:`~repro.faults.schedule.FaultSchedule` to run.

        Explicit ``events`` win; otherwise the schedule is generated from
        the scenario's seeded fault process.  Always validated against the
        actual (possibly overridden) cluster size and iteration budget.
        """
        from repro.faults.schedule import FaultSchedule

        if self.events:
            schedule = FaultSchedule(list(self.events))
            schedule.validate(num_workers, iterations)
            return schedule
        return FaultSchedule.generate(
            num_workers,
            iterations,
            seed=self.fault_seed,
            failure_rate=self.failure_rate,
            straggler_fraction=self.straggler_fraction,
            mttr=self.mttr,
            slowdown=self.slowdown,
        )

    @property
    def kind(self) -> str:
        """Scenario kind discriminator: ``"fault"``."""
        return "fault"

    def resolved_eval_every(self, iterations: Optional[int] = None) -> int:
        """Evaluation cadence for a run of ``iterations`` steps."""
        if self.eval_every is not None:
            return self.eval_every
        return max((iterations or self.iterations) // 8, 1)


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
