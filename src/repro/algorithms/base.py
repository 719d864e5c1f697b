"""Shared trainer interface, the lockstep step, evaluation loop and result records.

:meth:`BaseTrainer.train_step` advances the whole cluster by one global
iteration and charges the simulated clock.  The lockstep algorithms (BSP,
local SGD, FedAvg, SelSync, compressed BSP) share its one implementation and
differ only in hooks — when to sync (:meth:`~BaseTrainer.should_sync`), what
a sync averages (:attr:`~BaseTrainer.aggregation`), which replicas push
(:meth:`~BaseTrainer.sync_rows`), how gradients are reduced
(:meth:`~BaseTrainer.reduce_gradients`) and how batches are drawn
(:meth:`~BaseTrainer.next_batches`); asynchronous SSP overrides the step.
:meth:`run` drives the step loop, evaluates periodically, applies the
convergence stopping rule used for Table I, and assembles a
:class:`TrainingResult`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.cluster.cluster import SimulatedCluster
from repro.metrics.convergence import ConvergenceDetector
from repro.metrics.evaluation import EvalResult
from repro.metrics.lssr import LSSRTracker
from repro.optim.schedules import ConstantLR, LRSchedule


@dataclass
class EvalPoint:
    """One evaluation checkpoint along a training run."""

    step: int
    sim_time: float
    metric: float
    loss: float
    epoch: float


@dataclass
class TrainingResult:
    """Summary of one training run (one row of Table I)."""

    algorithm: str
    metric_name: str
    iterations: int
    sim_time_seconds: float
    final_metric: float
    best_metric: float
    final_loss: float
    lssr: float
    communication_bytes: float
    history: List[EvalPoint] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def higher_is_better(self) -> bool:
        """Metric polarity: accuracy-style metrics rise, perplexity falls."""
        return self.metric_name != "perplexity"

    def speedup_over(self, baseline: "TrainingResult") -> float:
        """Wall-clock speedup of this run relative to ``baseline`` (e.g. BSP)."""
        if self.sim_time_seconds <= 0:
            raise ValueError("cannot compute a speedup for a zero-duration run")
        return baseline.sim_time_seconds / self.sim_time_seconds

    def convergence_difference(self, baseline: "TrainingResult") -> float:
        """Final-metric difference vs a baseline, signed so positive = better."""
        diff = self.best_metric - baseline.best_metric
        return diff if self.higher_is_better else -diff


class BaseTrainer:
    """Common run loop for all distributed training algorithms."""

    name = "base"
    #: What a lockstep sync round averages: ``"param"`` pushes the updated
    #: replicas to the parameter server and broadcasts their mean back,
    #: ``"grad"`` applies one reduced gradient on every replica.
    aggregation = "grad"
    #: Attributes a checkpoint deep-copies: the run counters here, plus
    #: whatever mutable state a trainer's own steps read.
    checkpointed: Tuple[str, ...] = (
        "global_step", "history", "lssr_tracker", "last_synced", "_last_eval"
    )

    def __init__(
        self,
        cluster: SimulatedCluster,
        lr_schedule: Optional[LRSchedule] = None,
        eval_every: int = 50,
    ) -> None:
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        self.cluster = cluster
        self.lr_schedule = ConstantLR() if lr_schedule is None else lr_schedule
        self.eval_every = int(eval_every)
        self.lssr_tracker = LSSRTracker()
        #: Whether the most recent step synchronized.
        self.last_synced = False
        self.global_step = 0
        self.history: List[EvalPoint] = []
        self._last_eval: Optional[EvalResult] = None
        self.fault_controller = None

    # ------------------------------------------------------------------ #
    # hooks for subclasses
    # ------------------------------------------------------------------ #
    @classmethod
    def check_params(cls, **params: Any) -> None:
        """Raise ``ValueError`` for an algorithm param outside its range.

        ``params`` are the constructor's keywords with defaults applied.
        :class:`~repro.harness.experiment.RunConfig` calls this when a run
        is configured and the constructor calls it again, so each range is
        stated once, here in the subclass.
        """

    def next_batches(self) -> Tuple[np.ndarray, np.ndarray]:
        """This step's ``(inputs, targets)`` block, one leading row per worker."""
        return self.cluster.next_batches()

    def should_sync(self) -> bool:
        """Whether this step synchronizes; called once per step, after the
        gradients are computed and before any update (default: always)."""
        return True

    def sync_rows(self) -> np.ndarray:
        """The parameter rows a ``"param"`` round pushes (the active replicas)."""
        return self.cluster.active_params

    def reduce_gradients(self) -> np.ndarray:
        """A ``"grad"`` round's averaged gradient, its transfer charged.

        Default: every active worker pushes its gradient to the parameter
        server and pulls the mean back.
        """
        averaged = self.cluster.ps.push_matrix_gradients(self.cluster.active_grads)
        self.cluster.charge_sync()
        return averaged

    def train_step(self) -> Dict[str, float]:
        """Advance the cluster by one lockstep global iteration.

        Every active worker computes its gradients on its own batch.  A local
        step then applies each worker's own update; a sync round either
        averages the updated replicas through the parameter server
        (``"param"``) or applies one reduced gradient everywhere (``"grad"``,
        after which the parameter server mirrors the primary replica).
        """
        cluster = self.cluster
        lr_factor = self.lr_schedule(self.global_step)
        batches = self.next_batches()
        losses = cluster.compute_gradients_all(batches)
        cluster.charge_compute_step(batches[1].shape[1])
        synchronize = self.should_sync()
        if synchronize and self.aggregation == "grad":
            with telemetry.span("trainer.sync"):
                averaged = self.reduce_gradients()
            cluster.apply_local_updates(lr_factor, grads=averaged)
            cluster.ps.set_state(cluster.primary_worker.param_vector)
        else:
            cluster.apply_local_updates(lr_factor)
            if synchronize:
                with telemetry.span("trainer.sync"):
                    new_global = cluster.ps.push_matrix_parameters(
                        self.sync_rows(), receivers=cluster.num_active
                    )
                    cluster.broadcast_state(new_global)
                    cluster.charge_sync()
        if synchronize:
            self.lssr_tracker.record_sync()
        else:
            self.lssr_tracker.record_local()
        self.last_synced = synchronize
        if telemetry.metrics_enabled():
            telemetry.count(
                "repro_sync_decisions_total", decision="sync" if synchronize else "local"
            )
        return {"loss": float(np.mean(losses)), "synchronized": float(synchronize)}

    def global_state(self) -> Dict[str, np.ndarray]:
        """Model state evaluated at checkpoints (default: replica average)."""
        return self.cluster.average_worker_states()

    # ------------------------------------------------------------------ #
    # fault injection (repro.faults)
    # ------------------------------------------------------------------ #
    def attach_fault_controller(self, controller) -> None:
        """Arm a :class:`~repro.faults.controller.FaultController`.

        The controller's ``before_step(step)`` runs at the start of every
        global step, applying scheduled crash / rejoin / straggler events
        before the step computes.
        """
        self.fault_controller = controller

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    def trainer_state(self) -> Dict:
        """Deep copies of the :attr:`checkpointed` attributes, for :meth:`checkpoint`."""
        return copy.deepcopy({name: getattr(self, name) for name in self.checkpointed})

    def load_trainer_state(self, state: Dict) -> None:
        """Restore the state captured by :meth:`trainer_state`."""
        for name in self.checkpointed:
            setattr(self, name, copy.deepcopy(state[name]))

    def checkpoint(self) -> Dict:
        """Snapshot the cluster plus this trainer's algorithm state."""
        return {"cluster": self.cluster.checkpoint(), "trainer": self.trainer_state()}

    def restore(self, ckpt: Dict) -> None:
        """Restore a :meth:`checkpoint` — continuation is bit-identical."""
        self.cluster.restore(ckpt["cluster"])
        self.load_trainer_state(ckpt["trainer"])

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def mean_epoch_progress(self) -> float:
        """Average fraction of the training set seen across workers."""
        return float(np.mean([w.epoch_progress for w in self.cluster.workers]))

    def evaluate(self) -> EvalResult:
        """Evaluate :meth:`global_state` on the held-out test set."""
        result = self.cluster.evaluate_state(self.global_state())
        self._last_eval = result
        return result

    def _record_eval(self, result: EvalResult) -> EvalPoint:
        point = EvalPoint(
            step=self.global_step,
            sim_time=self.cluster.clock.elapsed,
            metric=result.metric,
            loss=result.loss,
            epoch=self.mean_epoch_progress(),
        )
        self.history.append(point)
        return point

    # ------------------------------------------------------------------ #
    # the run loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_iterations: int,
        convergence: Optional[ConvergenceDetector] = None,
        eval_every: Optional[int] = None,
    ) -> TrainingResult:
        """Train for up to ``max_iterations`` global steps.

        If a :class:`ConvergenceDetector` is supplied the run stops early
        once the test metric plateaus (the Table-I stopping rule).
        """
        stepper = self.run_stepwise(
            max_iterations, convergence=convergence, eval_every=eval_every
        )
        while True:
            try:
                next(stepper)
            except StopIteration as stop:
                return stop.value

    def run_stepwise(
        self,
        max_iterations: int,
        convergence: Optional[ConvergenceDetector] = None,
        eval_every: Optional[int] = None,
    ):
        """Generator form of :meth:`run`: yields the step number after every
        global step, then returns the :class:`TrainingResult` (raised as
        ``StopIteration.value``).

        :meth:`run` simply drains this generator, so the two are identical
        run for run.  The stepwise form exists so a driver can advance a
        trainer one global step at a time — the perf ledger
        (``benchmarks/ledger``) times each step as one operation.

        Note the usual generator caveat: argument validation only fires on
        the first ``next()``, not at call time.
        """
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        eval_every = eval_every or self.eval_every
        best_metric: Optional[float] = None
        higher_is_better = True
        final_result: Optional[EvalResult] = None

        for _ in range(max_iterations):
            if self.fault_controller is not None:
                self.fault_controller.before_step(self.global_step)
            with telemetry.span("trainer.step"):
                self.train_step()
            self.global_step += 1
            self.cluster.global_step = self.global_step
            converged = False
            should_eval = (
                self.global_step % eval_every == 0 or self.global_step == max_iterations
            )
            if should_eval:
                with telemetry.span("trainer.eval"):
                    result = self.evaluate()
                final_result = result
                higher_is_better = result.metric_name != "perplexity"
                self._record_eval(result)
                if best_metric is None:
                    best_metric = result.metric
                elif higher_is_better:
                    best_metric = max(best_metric, result.metric)
                else:
                    best_metric = min(best_metric, result.metric)
                converged = convergence is not None and convergence.update(
                    result.metric, self.global_step
                )
            yield self.global_step
            if converged:
                break

        if final_result is None:
            with telemetry.span("trainer.eval"):
                final_result = self.evaluate()
            self._record_eval(final_result)
            best_metric = final_result.metric

        # Communication accounting covers both transport paths: collective
        # calls through the backend (BSP all-reduce, flags all-gather) and
        # parameter-server pushes (SelSync / FedAvg / local-SGD sync rounds,
        # SSP async updates).
        comm_bytes = (
            self.cluster.backend.record.total_bytes
            + self.cluster.ps.total_pushed_bytes
        )
        return TrainingResult(
            algorithm=self.describe(),
            metric_name=final_result.metric_name,
            iterations=self.global_step,
            sim_time_seconds=self.cluster.clock.elapsed,
            final_metric=final_result.metric,
            best_metric=float(best_metric),
            final_loss=final_result.loss,
            lssr=self.lssr_tracker.value,
            communication_bytes=comm_bytes,
            history=list(self.history),
            extras=self.result_extras(),
        )

    # ------------------------------------------------------------------ #
    # descriptions
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Human-readable label used in result records and report tables."""
        return self.name

    def result_extras(self) -> Dict[str, float]:
        """Algorithm-specific numbers merged into the result record."""
        return {}
