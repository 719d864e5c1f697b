"""The SelSync training loop (Alg. 1 of the paper).

Every global iteration:

1. every worker samples a local mini-batch (optionally mixed by data
   injection in non-IID mode) and computes its gradients,
2. every worker's row of the Δ(gᵢ) tracker bank advances and its
   synchronization flag is set to 1 if Δ(gᵢ) ≥ δ,
3. the flags are exchanged with an (N−1)-bit all-gather,
4. if **any** flag is set the step is synchronous — under parameter
   aggregation every worker first applies its local update and then all
   replicas are averaged through the parameter server; under gradient
   aggregation the averaged gradient is applied locally by each worker —
   otherwise every worker simply keeps its local update (local SGD).

The trainer also charges the simulated clock: parallel compute per step, the
tiny flags all-gather every step, and a full model synchronization only on
synchronous steps.  The LSSR metric therefore translates directly into the
simulated speedups reported in Table I.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.algorithms.base import BaseTrainer
from repro.cluster.cluster import SimulatedCluster
from repro.core.aggregation import AggregationMode
from repro.core.config import SelSyncConfig
from repro.core.gradient_tracker import TrackerBank
from repro.data.injection import DataInjection
from repro.optim.schedules import LRSchedule
from repro.stats.variance import batch_gradient_statistic


class SelSyncTrainer(BaseTrainer):
    """Selective synchronization between local SGD and full aggregation."""

    name = "selsync"

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: Optional[SelSyncConfig] = None,
        lr_schedule: Optional[LRSchedule] = None,
        eval_every: int = 50,
        injection: Optional[DataInjection] = None,
    ) -> None:
        super().__init__(cluster, lr_schedule=lr_schedule, eval_every=eval_every)
        self.config = config or SelSyncConfig()
        if self.config.uses_injection and injection is None:
            injection = DataInjection(
                alpha=self.config.injection_alpha,
                beta=self.config.injection_beta,
                num_workers=cluster.num_workers,
                sample_bytes=getattr(cluster.train_dataset, "sample_bytes", 0),
                seed=cluster.config.seed + 17,
            )
        self.injection = injection
        self.bank = TrackerBank(
            cluster.num_workers, alpha=self.config.resolved_alpha(cluster.num_workers)
        )
        self.aggregation = AggregationMode(self.config.aggregation)
        self.sync_steps = 0
        self.local_steps = 0
        self.sync_step_indices: List[int] = []
        self._last_step_synced = False

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """The config's short label, e.g. ``SelSync(δ=0.3, param)``."""
        return self.config.label()

    def result_extras(self) -> Dict[str, float]:
        return {
            "delta": self.config.delta,
            "sync_steps": float(self.sync_steps),
            "local_steps": float(self.local_steps),
            "max_delta_observed": float(self.bank.max_delta.max()),
        }

    # ------------------------------------------------------------------ #
    def trainer_state(self) -> Dict:
        """Extends the base snapshot with tracker-bank and sync-counter state.

        The bank's (N,) arrays are what make a restored run bit-identical:
        the next ``update`` after a restore must see exactly the smoothed
        statistics the original run would have.
        """
        state = super().trainer_state()
        state["tracker"] = copy.deepcopy(self.bank)
        state["sync_steps"] = self.sync_steps
        state["local_steps"] = self.local_steps
        state["sync_step_indices"] = list(self.sync_step_indices)
        state["last_step_synced"] = self._last_step_synced
        return state

    def load_trainer_state(self, state: Dict) -> None:
        super().load_trainer_state(state)
        self.bank = copy.deepcopy(state["tracker"])
        self.sync_steps = state["sync_steps"]
        self.local_steps = state["local_steps"]
        self.sync_step_indices = list(state["sync_step_indices"])
        self._last_step_synced = state["last_step_synced"]

    # ------------------------------------------------------------------ #
    def _collect_batches(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Fetch one local batch per worker, applying data injection if enabled."""
        if self.injection is None:
            # Crashed workers (elastic fault mask) contribute None slots and
            # their loaders do not advance.
            return self.cluster.next_batches()
        batches = [worker.next_batch() for worker in self.cluster.workers]
        mixed, report = self.injection.inject(batches)
        if report.bytes_transferred > 0:
            self.cluster.charge_p2p(report.bytes_transferred)
        return mixed

    def train_step(self) -> Dict[str, float]:
        cluster = self.cluster
        lr = self.current_lr()
        batches = self._collect_batches()

        # 1. local gradients straight into the (N, D) worker matrix
        #    (Alg. 1 lines 6-9): fused batched-replica execution when the
        #    model supports it, no dict snapshots on the hot path.
        losses = cluster.compute_gradients_all(batches)

        # 2. Δ(gᵢ) for all workers in one vectorized pass over the gradient
        #    matrix and the tracker bank (Alg. 1 lines 10-11).  Crashed
        #    workers keep their rows frozen and never raise a flag.
        with telemetry.span("selsync.tracker"):
            raw_stats = batch_gradient_statistic(
                cluster.matrix.grads, self.config.statistic
            )
            active = cluster.active_mask
            deltas = self.bank.update(raw_stats, active)
            flags = active & (deltas >= self.config.delta)
            max_delta = float(deltas.max())
        ref_batch = next((b for b in batches if b is not None), None)
        cluster.charge_compute_step(
            ref_batch[1].shape[0] if ref_batch is not None else None
        )

        # 3. flags all-gather (Alg. 1 line 12) — N-1 bits per worker.
        with telemetry.span("selsync.flags"):
            gathered = cluster.backend.allgather_bits(flags)
            cluster.charge_flags_allgather()
        force_sync = self.config.sync_on_first_step and self.global_step == 0
        synchronize = bool(gathered.any()) or force_sync

        # 4. apply updates locally or synchronize (Alg. 1 lines 9, 13-15).
        if self.aggregation is AggregationMode.PARAMETER:
            cluster.apply_local_updates(lr=lr)
            if synchronize:
                with telemetry.span("selsync.sync"):
                    new_global = cluster.ps.push_matrix_parameters(cluster.active_params)
                    cluster.broadcast_state(new_global)
                    cluster.charge_sync()
        else:  # gradient aggregation
            if synchronize:
                with telemetry.span("selsync.sync"):
                    averaged = cluster.ps.push_matrix_gradients(cluster.active_grads)
                    cluster.apply_local_updates(lr=lr, grads=averaged)
                    # Track a reference replica on the PS for checkpointing.
                    cluster.ps.set_state(cluster.primary_worker.param_vector)
                    cluster.charge_sync()
            else:
                cluster.apply_local_updates(lr=lr)

        if telemetry.metrics_enabled():
            telemetry.count(
                "repro_sync_decisions_total",
                decision="sync" if synchronize else "local",
            )
        if synchronize:
            self.sync_steps += 1
            self.sync_step_indices.append(self.global_step)
            self.lssr_tracker.record_sync()
        else:
            self.local_steps += 1
            self.lssr_tracker.record_local()
        self._last_step_synced = synchronize

        return {
            "loss": float(np.mean(losses)),
            "max_delta": max_delta,
            "synchronized": float(synchronize),
            "lr": lr if lr is not None else float("nan"),
        }

    # ------------------------------------------------------------------ #
    def global_state(self) -> Dict[str, np.ndarray]:
        """Checkpoint state: the PS state after a sync, else the replica average.

        The parameter-server copy is authoritative when the *most recent*
        step synchronized AND it actually equals every replica: under PA a
        sync pushes the average back out, so that always holds; under GA a
        sync applies the same averaged gradient but never repairs earlier
        drift, so the PS (which tracks replica 0) only equals the replicas
        while **no local step has ever occurred**.  In that degenerate δ=0
        regime the PS pull keeps the checkpoint bit-identical to
        ``BSPTrainer`` (which checkpoints replica 0; an N-row mean of
        identical replicas can differ in the last ulp).  Everywhere else —
        trailing local steps, or GA after any drift — the checkpoint is the
        replica average.
        """
        if (
            self.sync_steps > 0
            and self._last_step_synced
            and (self.aggregation is AggregationMode.PARAMETER or self.local_steps == 0)
        ):
            return self.cluster.ps.pull()
        return self.cluster.average_worker_states()
