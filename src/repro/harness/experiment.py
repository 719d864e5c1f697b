"""Workload presets and the experiment runner.

A :class:`WorkloadPreset` captures one row of §IV-A's "DNNs and
hyperparameters": which model analog, which dataset analog, optimizer,
learning-rate schedule, batch size and evaluation metric.  Presets are scaled
so a 16-worker simulated run finishes in seconds-to-minutes on a CPU while
keeping the paper's structural distinctions (skip connections vs plain
stacks, classification vs language modelling, SGD vs Adam, decayed vs fixed
learning rates).
"""

from __future__ import annotations

import functools
import inspect
import typing
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.algorithms.base import BaseTrainer, TrainingResult
from repro.algorithms.bsp import BSPTrainer
from repro.algorithms.fedavg import FedAvgTrainer
from repro.algorithms.localsgd import LocalSGDTrainer
from repro.algorithms.ssp import SSPTrainer
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.data.datasets import DatasetBundle, build_dataset
from repro.data.injection import adjusted_batch_size
from repro.data.partition import DefaultPartitioner, Partitioner, SelSyncPartitioner
from repro.engine.dtypes import resolve_dtype, resolve_transport_dtype
from repro.nn.models import MLP, AlexNetLike, ResNetLike, TransformerLM, VGGLike
from repro.nn.module import Module
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.optim.optimizer import Optimizer
from repro.optim.schedules import ConstantLR, IntervalDecay, LRSchedule, MultiStepDecay
from repro.compression.trainer import CompressedBSPTrainer


@dataclass
class WorkloadPreset:
    """One of the paper's four training workloads, scaled for simulation."""

    name: str
    dataset_name: str
    task: str
    model_factory: Callable[[np.random.Generator], Module]
    optimizer_factory: Callable[[Module], Optimizer]
    lr_schedule_factory: Callable[[int], LRSchedule]
    batch_size: int
    top_k: Optional[int] = None
    workload_spec: str = "resnet101"
    dataset_kwargs: Dict = field(default_factory=dict)


def _resnet_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="resnet101",
        dataset_name="cifar10",
        task="classification",
        model_factory=lambda rng: ResNetLike(
            input_dim=64, num_classes=10, width=96, depth=6, rng=rng
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9, weight_decay=4e-4),
        # Paper: decay by 10x after epochs 110 and 150 (of 165); scaled to the
        # run length as 2/3 and 10/11 of the iteration budget.
        lr_schedule_factory=lambda total: MultiStepDecay(
            0.05, milestones=[int(total * 0.66), int(total * 0.9)], gamma=0.1
        ),
        batch_size=32,
        workload_spec="resnet101",
    )


def _vgg_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="vgg11",
        dataset_name="cifar100",
        task="classification",
        model_factory=lambda rng: VGGLike(
            input_dim=64, num_classes=100, feature_widths=(128, 128, 96), head_width=192, rng=rng
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.04, momentum=0.9, weight_decay=5e-4),
        lr_schedule_factory=lambda total: MultiStepDecay(
            0.04, milestones=[int(total * 0.55), int(total * 0.8)], gamma=0.1
        ),
        batch_size=32,
        workload_spec="vgg11",
    )


def _alexnet_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="alexnet",
        dataset_name="imagenet1k",
        task="classification",
        model_factory=lambda rng: AlexNetLike(
            input_dim=96, num_classes=200, hidden_dim=192, dropout=0.1, rng=rng
        ),
        optimizer_factory=lambda m: Adam(m, lr=1e-3),
        lr_schedule_factory=lambda total: ConstantLR(1e-3),
        batch_size=64,
        top_k=5,
        workload_spec="alexnet",
        dataset_kwargs={"num_classes": 200, "input_dim": 96},
    )


def _transformer_preset() -> WorkloadPreset:
    return WorkloadPreset(
        name="transformer",
        dataset_name="wikitext103",
        task="language_modeling",
        model_factory=lambda rng: TransformerLM(
            vocab_size=200, d_model=32, num_heads=2, num_layers=2, dim_feedforward=64,
            dropout=0.0, rng=rng,
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.5, momentum=0.0),
        lr_schedule_factory=lambda total: IntervalDecay(
            0.5, interval=max(total // 10, 1), gamma=0.8
        ),
        batch_size=16,
        workload_spec="transformer",
        dataset_kwargs={"bptt": 16, "vocab_size": 200},
    )


def _deep_mlp_preset() -> WorkloadPreset:
    """Deep-narrow MLP analog for large-N scale sweeps (not a paper workload).

    Per-layer framework overhead grows with depth while the raw matmul work
    stays tiny, so this preset makes N = 64–256 δ-sweeps affordable on a CPU
    — the regime the batched ``(N, D)`` engine exists for.  The cost model
    reuses the ResNet101 spec so simulated times stay paper-scale.
    """
    return WorkloadPreset(
        name="deep_mlp",
        dataset_name="cifar10",
        task="classification",
        model_factory=lambda rng: MLP((32, 48, 48, 48, 48, 10), rng=rng),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9),
        lr_schedule_factory=lambda total: MultiStepDecay(
            0.05, milestones=[int(total * 0.66), int(total * 0.9)], gamma=0.1
        ),
        batch_size=4,
        workload_spec="resnet101",
        dataset_kwargs={"input_dim": 32},
    )


WORKLOAD_PRESETS: Dict[str, Callable[[], WorkloadPreset]] = {
    "resnet101": _resnet_preset,
    "vgg11": _vgg_preset,
    "alexnet": _alexnet_preset,
    "transformer": _transformer_preset,
    "deep_mlp": _deep_mlp_preset,
}


def build_workload(name: str) -> WorkloadPreset:
    """Return the preset for one of the paper's workloads."""
    key = name.lower()
    if key not in WORKLOAD_PRESETS:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_PRESETS)}")
    return WORKLOAD_PRESETS[key]()


def build_cluster(
    preset: WorkloadPreset,
    num_workers: int = 4,
    seed: int = 0,
    partitioner: Optional[Partitioner] = None,
    bundle: Optional[DatasetBundle] = None,
    batch_size: Optional[int] = None,
    topology: str = "ps",
    dtype: str = "float64",
    transport_dtype: Optional[str] = None,
    eval_max_batches: Optional[int] = 4,
    telemetry: Optional[str] = None,
) -> SimulatedCluster:
    """Construct the simulated cluster for a workload preset.

    ``telemetry`` names a JSONL trace-sink path: span tracing turns on for
    the process and the cluster flushes the file on ``close()``.
    """
    bundle = bundle or build_dataset(preset.dataset_name, seed=seed, **preset.dataset_kwargs)
    config = ClusterConfig(
        num_workers=num_workers,
        batch_size=batch_size or preset.batch_size,
        seed=seed,
        task=preset.task,
        workload=preset.workload_spec,
        topology=topology,
        dtype=dtype,
        transport_dtype=transport_dtype,
        top_k=preset.top_k,
        eval_max_batches=eval_max_batches,
        telemetry=telemetry,
    )
    return SimulatedCluster(
        model_factory=preset.model_factory,
        optimizer_factory=preset.optimizer_factory,
        train_dataset=bundle.train,
        test_dataset=bundle.test,
        config=config,
        partitioner=partitioner or SelSyncPartitioner(seed=seed),
        worker_batch_size=batch_size or preset.batch_size,
    )


#: Algorithm name -> trainer class.  Each constructor's keywords (for
#: SelSync also every :class:`~repro.core.config.SelSyncConfig` field) are
#: the ``params`` that algorithm takes; nothing else lists them.
TRAINERS: Dict[str, type] = {
    "bsp": BSPTrainer,
    "selsync": SelSyncTrainer,
    "fedavg": FedAvgTrainer,
    "ssp": SSPTrainer,
    "local_sgd": LocalSGDTrainer,
    "compressed_bsp": CompressedBSPTrainer,
}

#: Algorithms that support fault injection (elastic worker masks): lockstep
#: trainers whose aggregation paths honor ``cluster.active_mask``.
FAULT_ALGORITHMS = ("bsp", "selsync", "local_sgd")

#: Trainer constructor arguments the harness supplies itself.
_HARNESS_ARGS = frozenset({"self", "cluster", "lr_schedule", "eval_every"})


@functools.lru_cache(maxsize=None)
def _constructor(algorithm: str) -> Tuple[inspect.Signature, Dict[str, Any]]:
    """The trainer constructor's signature and resolved annotations."""
    trainer = TRAINERS[algorithm]
    return inspect.signature(trainer), typing.get_type_hints(trainer.__init__)


def algorithm_params(algorithm: str) -> Tuple[str, ...]:
    """The ``params`` names ``algorithm`` takes, read from its constructor."""
    names = tuple(n for n in _constructor(algorithm)[0].parameters if n not in _HARNESS_ARGS)
    if algorithm == "selsync":
        names += tuple(f.name for f in fields(SelSyncConfig))
    return names


def _trainer_kwargs(algorithm: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """``params`` as constructor keywords: SelSync's config fields fold into one config."""
    kwargs = dict(params)
    if algorithm == "selsync" and "config" not in kwargs:
        names = {f.name for f in fields(SelSyncConfig)}
        kwargs["config"] = SelSyncConfig(**{n: kwargs.pop(n) for n in list(kwargs) if n in names})
    return kwargs


def make_trainer(
    algorithm: str,
    cluster: SimulatedCluster,
    preset: WorkloadPreset,
    total_iterations: int,
    eval_every: int = 50,
    **kwargs,
) -> BaseTrainer:
    """Instantiate the :data:`TRAINERS` entry for ``algorithm``.

    Keyword arguments are the algorithm's params (e.g. ``delta=0.3``,
    ``participation=0.5``, ``staleness=100``, ``sync_period=8``,
    ``compressor=TopKCompressor()``); SelSync takes every
    :class:`~repro.core.config.SelSyncConfig` field or a built ``config=``.
    A keyword the trainer does not take is a ``TypeError``.
    """
    return TRAINERS[algorithm](
        cluster,
        lr_schedule=preset.lr_schedule_factory(total_iterations),
        eval_every=eval_every,
        **_trainer_kwargs(algorithm, kwargs),
    )


class ConfigError(ValueError):
    """A :class:`RunConfig` (or a request or scenario built from one) is invalid."""


def _check_fault_algorithm(algorithm: str) -> None:
    if algorithm not in FAULT_ALGORITHMS:
        raise ConfigError(
            "fault injection (failure_rate / straggler_fraction / fault_schedule) supports "
            f"lockstep algorithms {FAULT_ALGORITHMS}, got {algorithm!r}"
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything that decides one training run, validated at construction.

    ``params`` are the algorithm's own keywords (see :func:`algorithm_params`);
    they are checked against the trainer's constructor here, so an unknown
    name, a wrong type or a value outside the trainer's ``check_params``
    ranges (SelSync: its config's) fails before any cluster is built.
    ``eval_every=None`` evaluates every ``max(iterations // 8, 1)`` steps.
    ``dtype`` is the engine compute dtype, ``transport_dtype`` the simulated
    wire format (``None`` = float32 wire).  A positive ``failure_rate`` or
    ``straggler_fraction`` arms a seeded fault process (``fault_seed``,
    ``mttr``; see :mod:`repro.faults`); crashed workers rejoin from the
    latest checkpoint, taken every ``fault_checkpoint_every`` steps (the
    step-0 snapshot always exists).  SelSync ``params`` with
    ``injection_alpha`` / ``injection_beta`` shrink the per-worker batch to
    b′ of Eqn. (3).
    """

    workload: str
    algorithm: str = "selsync"
    params: Mapping[str, Any] = field(default_factory=dict)
    num_workers: int = 4
    iterations: int = 100
    seed: int = 0
    eval_every: Optional[int] = None
    batch_size: Optional[int] = None
    use_default_partitioning: bool = False
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    fault_seed: int = 0
    failure_rate: float = 0.0
    straggler_fraction: float = 0.0
    mttr: int = 5
    fault_checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        if self.workload not in WORKLOAD_PRESETS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; available: {sorted(WORKLOAD_PRESETS)}"
            )
        if self.algorithm not in TRAINERS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; available: {sorted(TRAINERS)}"
            )
        for name, low in (("num_workers", 1), ("iterations", 1), ("seed", 0),
                          ("fault_seed", 0), ("mttr", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("eval_every", "batch_size", "fault_checkpoint_every"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 or None, got {value}")
        for name in ("failure_rate", "straggler_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.faults_armed:
            _check_fault_algorithm(self.algorithm)
        names = algorithm_params(self.algorithm)
        unknown = sorted(set(self.params) - set(names))
        if unknown:
            raise ConfigError(
                f"unknown {self.algorithm} params {unknown}; available: {sorted(names)}"
            )
        signature, hints = _constructor(self.algorithm)
        try:
            resolve_dtype(self.dtype)
            resolve_transport_dtype(self.transport_dtype)
            kwargs = _trainer_kwargs(self.algorithm, self.params)
            bound = signature.bind(None, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        for name, value in kwargs.items():
            hint = hints.get(name, object)
            kinds = tuple(k for k in typing.get_args(hint) or (hint,) if isinstance(k, type))
            if not isinstance(value, kinds + ((int,) if float in kinds else ())):
                raise ConfigError(
                    f"{self.algorithm} param {name!r} must be "
                    f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}"
                )
        bound.apply_defaults()
        try:
            TRAINERS[self.algorithm].check_params(**bound.arguments)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def resolved_eval_every(self) -> int:
        """The evaluation cadence in steps."""
        if self.eval_every is not None:
            return self.eval_every
        return max(self.iterations // 8, 1)

    @property
    def faults_armed(self) -> bool:
        """Whether a positive rate arms the seeded fault process."""
        return self.failure_rate > 0.0 or self.straggler_fraction > 0.0

    def fault_schedule(self):
        """The seeded fault process's schedule, or ``None`` when no rate is set."""
        if not self.faults_armed:
            return None
        from repro.faults import FaultSchedule

        return FaultSchedule.generate(
            self.num_workers,
            self.iterations,
            seed=self.fault_seed,
            failure_rate=self.failure_rate,
            straggler_fraction=self.straggler_fraction,
            mttr=self.mttr,
        )


@dataclass
class ExperimentResult:
    """A training result annotated with its workload and algorithm labels."""

    workload: str
    algorithm: str
    result: TrainingResult


def run_experiment(
    config: RunConfig,
    *,
    convergence=None,
    fault_schedule=None,
    telemetry_file: Optional[str] = None,
) -> ExperimentResult:
    """Build a cluster and run one configured training run end to end.

    Runtime objects stay out of the config: ``convergence`` is a stopping
    rule (:class:`~repro.metrics.convergence.ConvergenceDetector`),
    ``fault_schedule`` an explicit :class:`~repro.faults.schedule.FaultSchedule`
    that replaces the config's seeded fault process, and ``telemetry_file``
    a JSONL span-trace sink path (see :mod:`repro.telemetry`).
    """
    preset = build_workload(config.workload)
    if fault_schedule is None:
        fault_schedule = config.fault_schedule()
    else:
        _check_fault_algorithm(config.algorithm)
    batch_size = config.batch_size or preset.batch_size
    alpha = config.params.get("injection_alpha")
    beta = config.params.get("injection_beta")
    if alpha is not None and beta is not None:
        batch_size = adjusted_batch_size(batch_size, alpha, beta, config.num_workers)

    if telemetry_file is not None:
        # Turn tracing on before the setup span so cluster construction is
        # itself covered by the trace.
        telemetry.configure(tracing=True, trace_file=telemetry_file)
    with telemetry.span("run.setup"):
        cluster = build_cluster(
            preset,
            num_workers=config.num_workers,
            seed=config.seed,
            partitioner=(
                DefaultPartitioner(seed=config.seed) if config.use_default_partitioning else None
            ),
            batch_size=batch_size,
            dtype=config.dtype,
            transport_dtype=config.transport_dtype,
            telemetry=telemetry_file,
        )
        controller = None
        try:
            trainer = make_trainer(
                config.algorithm, cluster, preset, total_iterations=config.iterations,
                eval_every=config.resolved_eval_every, **config.params,
            )
            if fault_schedule is not None:
                from repro.faults import FaultController

                controller = FaultController(
                    cluster, fault_schedule, checkpoint_every=config.fault_checkpoint_every
                )
                trainer.attach_fault_controller(controller)
        except BaseException:
            cluster.close()
            raise
    try:
        result = trainer.run(config.iterations, convergence=convergence)
    finally:
        cluster.close()
    if controller is not None:
        result.extras["fault_crashes"] = float(controller.crash_count)
        result.extras["fault_rejoins"] = float(controller.rejoin_count)
        result.extras["fault_stragglers"] = float(controller.straggler_count)
    return ExperimentResult(workload=preset.name, algorithm=trainer.describe(), result=result)
