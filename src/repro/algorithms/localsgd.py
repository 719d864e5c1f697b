"""Fixed-period local SGD: synchronize parameters every H local steps.

Not evaluated under its own name in the paper, but it is the degenerate
behaviour SelSync approaches for large δ and the natural ablation between
BSP (H = 1) and pure local training (H = ∞); used by the δ-sweep bench.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import BaseTrainer
from repro.cluster.cluster import SimulatedCluster
from repro.optim.schedules import LRSchedule


class LocalSGDTrainer(BaseTrainer):
    """Workers train locally and average parameters every ``sync_period`` steps."""

    name = "local_sgd"

    def __init__(
        self,
        cluster: SimulatedCluster,
        sync_period: int = 10,
        lr_schedule: Optional[LRSchedule] = None,
        eval_every: int = 50,
    ) -> None:
        super().__init__(cluster, lr_schedule=lr_schedule, eval_every=eval_every)
        self.check_params(sync_period=sync_period)
        self.sync_period = int(sync_period)

    @classmethod
    def check_params(cls, *, sync_period: int, **_: Any) -> None:
        """Workers average at least every step: H >= 1."""
        if sync_period < 1:
            raise ValueError(f"sync_period must be >= 1, got {sync_period}")

    def describe(self) -> str:
        """Label including the sync period, e.g. ``local_sgd(H=10)``."""
        return f"local_sgd(H={self.sync_period})"

    def train_step(self) -> Dict[str, float]:
        cluster = self.cluster
        lr = self.current_lr()
        batches = cluster.next_batches()
        losses = cluster.compute_gradients_all(batches)
        cluster.apply_local_updates(lr=lr)
        cluster.charge_compute_step()

        synchronize = (self.global_step + 1) % self.sync_period == 0
        if synchronize:
            new_global = cluster.ps.push_matrix_parameters(cluster.active_params)
            cluster.broadcast_state(new_global)
            cluster.charge_sync()
            self.lssr_tracker.record_sync()
        else:
            self.lssr_tracker.record_local()
        return {"loss": float(np.mean(losses)), "synchronized": float(synchronize)}

    def result_extras(self) -> Dict[str, float]:
        return {"sync_period": float(self.sync_period)}
