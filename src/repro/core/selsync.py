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

The step itself is :meth:`BaseTrainer.train_step
<repro.algorithms.base.BaseTrainer.train_step>`; this trainer supplies the
Δ(gᵢ) ≥ δ rule with the flags all-gather (:meth:`SelSyncTrainer.should_sync`),
the aggregation mode and the data-injection batches.  The clock is charged
for parallel compute every step, the tiny flags all-gather every step, and a
full model synchronization only on synchronous steps.  The LSSR metric
therefore translates directly into the simulated speedups reported in
Table I.
"""

from __future__ import annotations

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
    #: The bank's (N,) arrays are what make a restored run bit-identical: the
    #: next ``update`` after a restore must see exactly the smoothed
    #: statistics the original run would have.
    checkpointed = BaseTrainer.checkpointed + ("bank", "sync_step_indices", "injection")

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
        self.sync_step_indices: List[int] = []

    # ------------------------------------------------------------------ #
    @property
    def sync_steps(self) -> int:
        return self.lssr_tracker.sync_steps

    @property
    def local_steps(self) -> int:
        return self.lssr_tracker.local_steps

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
    def next_batches(self) -> Tuple[np.ndarray, np.ndarray]:
        """This step's batch block, mixed by data injection if enabled."""
        batches = self.cluster.next_batches()
        if self.injection is None:
            return batches
        mixed, report = self.injection.inject(batches, self.cluster.active_mask)
        if report.bytes_transferred > 0:
            self.cluster.charge_p2p(report.bytes_transferred)
        return mixed

    def should_sync(self) -> bool:
        """Δ(gᵢ) ≥ δ on any worker, agreed through the flags all-gather."""
        cluster = self.cluster
        # Δ(gᵢ) for all workers in one vectorized pass over the gradient
        # matrix and the tracker bank (Alg. 1 lines 10-11).  Crashed workers
        # keep their rows frozen and never raise a flag.
        with telemetry.span("selsync.tracker"):
            raw_stats = batch_gradient_statistic(cluster.matrix.grads, self.config.statistic)
            active = cluster.active_mask
            flags = active & (self.bank.update(raw_stats, active) >= self.config.delta)
        # Flags all-gather (Alg. 1 line 12): N-1 bits per worker.
        with telemetry.span("selsync.flags"):
            gathered = cluster.backend.allgather_bits(flags)
            cluster.charge_flags_allgather()
        force_sync = self.config.sync_on_first_step and self.global_step == 0
        synchronize = bool(gathered.any()) or force_sync
        if synchronize:
            self.sync_step_indices.append(self.global_step)
        return synchronize

    # ------------------------------------------------------------------ #
    def global_state(self) -> Dict[str, np.ndarray]:
        """Checkpoint state: the PS state after a sync, else the replica average.

        The parameter-server copy is authoritative when the *most recent*
        step synchronized AND it actually equals every replica: under PA a
        sync pushes the average back out, so that always holds; under GA a
        sync applies the same averaged gradient but never repairs earlier
        drift, so the PS (which tracks replica 0) only equals the replicas
        while **no local step has ever occurred**.  In that degenerate δ=0
        regime the PS copy keeps the checkpoint bit-identical to
        ``BSPTrainer`` (which checkpoints replica 0; an N-row mean of
        identical replicas can differ in the last ulp).  Everywhere else —
        trailing local steps, or GA after any drift — the checkpoint is the
        replica average.
        """
        if self.last_synced and (
            self.aggregation is AggregationMode.PARAMETER or self.local_steps == 0
        ):
            return self.cluster.ps.state_dict()
        return self.cluster.average_worker_states()
