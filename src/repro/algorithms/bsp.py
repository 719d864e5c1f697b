"""Bulk-synchronous parallel (BSP) training (§II-A).

Every iteration all workers compute gradients on their own mini-batch, the
gradients are averaged (through the PS in the paper's deployment) and every
worker applies the same averaged update, so all replicas stay identical.
BSP is the accuracy reference and the speedup baseline for Table I.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import BaseTrainer


class BSPTrainer(BaseTrainer):
    """Aggregate gradients and synchronize on every single step (LSSR = 0)."""

    name = "bsp"

    def reduce_gradients(self) -> np.ndarray:
        # Gradients already live as rows of the (N, D) worker matrix, so the
        # all-reduce is one fused mean over it (the active rows only, under
        # an elastic fault mask).
        averaged = self.cluster.backend.allreduce_matrix(self.cluster.active_grads, op="mean")
        self.cluster.charge_sync()
        return averaged

    def global_state(self):
        return self.cluster.primary_worker.get_state()
