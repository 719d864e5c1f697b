"""Stale-synchronous parallel (SSP) training (§II-C).

Workers train asynchronously against the global model on the parameter
server: after every local step a worker pushes its parameter *delta* to the
PS (non-blocking) and pulls the current global state, which may already
contain other workers' updates (this is where staleness enters).  A worker
that runs more than ``staleness`` iterations ahead of the slowest worker is
blocked until the slow worker catches up.

In the lockstep simulator asynchrony is modelled by a round-robin order
inside each global step: every worker computes its gradient against the
state it last pulled and applies it (one batched pass over the worker
matrix), then the workers push their deltas in worker order, each pulling
the global state right after its own push.  Each pushed delta is scaled by
``1/N``: the N pushes of one global step then move the PS state by the mean
of the N local steps, as one BSP step does.  Unscaled, one global step moves
it by N local steps at the synchronous lr, and the resnet101 preset diverges
at N = 4.  Per-worker simulated clocks advance independently (compute plus a
small non-blocking transfer cost).
Every worker pushes exactly once per global step, so no worker is ever
ahead of another and the staleness bound never binds here: it is kept as
the algorithm's parameter and label.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import BaseTrainer
from repro.cluster.cluster import SimulatedCluster
from repro.optim.schedules import LRSchedule


class SSPTrainer(BaseTrainer):
    """Asynchronous PS training with a bounded staleness window."""

    name = "ssp"

    def __init__(
        self,
        cluster: SimulatedCluster,
        staleness: int = 100,
        lr_schedule: Optional[LRSchedule] = None,
        eval_every: int = 50,
    ) -> None:
        super().__init__(cluster, lr_schedule=lr_schedule, eval_every=eval_every)
        self.check_params(staleness=staleness)
        self.staleness = int(staleness)
        # Each worker starts from the PS state, unpriced like every trainer's start.
        cluster.broadcast_state(cluster.ps.state_vector)

    @classmethod
    def check_params(cls, *, staleness: int, **_: Any) -> None:
        """The staleness bound is a non-negative step count."""
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")

    def describe(self) -> str:
        """Label including the staleness bound, e.g. ``ssp(s=100)``."""
        return f"ssp(s={self.staleness})"

    def result_extras(self) -> Dict[str, float]:
        return {"staleness": float(self.staleness)}

    def train_step(self) -> Dict[str, float]:
        cluster = self.cluster
        losses = cluster.compute_gradients_all(cluster.next_batches())
        cluster.charge_compute_step()
        pulled = cluster.matrix.params.copy()
        cluster.apply_local_updates(self.lr_schedule(self.global_step))
        deltas = (cluster.matrix.params - pulled) / cluster.num_workers
        cluster.matrix.params[:] = cluster.ps.push_deltas(deltas)
        cluster.charge_push_pulls()
        # SSP has no explicit averaging, so LSSR is undefined; every step is
        # counted as asynchronous progress (reported as LSSR "n/a" upstream).
        return {"loss": float(np.mean(losses)), "synchronized": 0.0}

    def global_state(self):
        return self.cluster.ps.state_dict()
