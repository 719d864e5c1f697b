"""Stale-synchronous parallel (SSP) training (§II-C).

Workers train asynchronously against the global model on the parameter
server: after every local step a worker pushes its parameter *delta* to the
PS (non-blocking) and pulls the current global state, which may already
contain other workers' updates (this is where staleness enters).  A worker
that runs more than ``staleness`` iterations ahead of the slowest worker is
blocked until the slow worker catches up.

In the lockstep simulator asynchrony is modelled by processing workers in a
round-robin order inside each global step: a worker computes its gradient
against the state it last pulled, applies it, pushes the delta and pulls the
newer global state.  Per-worker simulated clocks advance independently
(compute plus a small non-blocking transfer cost) and the staleness bound is
enforced against the per-worker iteration counters maintained by the PS.
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
        self.blocked_steps = 0
        # Each worker starts from the PS state (pullFromPS).  Pulled states
        # are kept as flat vectors so the per-step delta push is one fused
        # subtraction on the worker's parameter row.
        initial = cluster.ps.pull_vector()
        cluster.broadcast_state(initial)
        self._last_pulled = [initial for _ in range(cluster.num_workers)]

    @classmethod
    def check_params(cls, *, staleness: int, **_: Any) -> None:
        """The staleness bound is a non-negative step count."""
        if staleness < 0:
            raise ValueError(f"staleness must be non-negative, got {staleness}")

    def describe(self) -> str:
        """Label including the staleness bound, e.g. ``ssp(s=100)``."""
        return f"ssp(s={self.staleness})"

    def result_extras(self) -> Dict[str, float]:
        return {"staleness": float(self.staleness), "blocked_steps": float(self.blocked_steps)}

    def trainer_state(self) -> Dict:
        state = super().trainer_state()
        state["last_pulled"] = [vec.copy() for vec in self._last_pulled]
        state["blocked_steps"] = self.blocked_steps
        return state

    def load_trainer_state(self, state: Dict) -> None:
        super().load_trainer_state(state)
        self._last_pulled = [vec.copy() for vec in state["last_pulled"]]
        self.blocked_steps = state["blocked_steps"]

    def train_step(self) -> Dict[str, float]:
        cluster = self.cluster
        lr = self.current_lr()
        speeds = cluster.speed_model.speed_factors(cluster.num_workers, self.global_step)
        losses = []
        for worker, speed in zip(cluster.workers, speeds):
            # Staleness bound: a worker too far ahead waits for the slowest
            # worker; waiting is charged as a barrier against its clock.
            if cluster.ps.staleness(worker.worker_id) > self.staleness:
                self.blocked_steps += 1
                slowest = float(cluster.clock.worker_time.max())
                wait = max(slowest - cluster.clock.worker_elapsed(worker.worker_id), 0.0)
                if wait > 0:
                    cluster.clock.advance_worker(worker.worker_id, wait, bucket="other")

            reference = self._last_pulled[worker.worker_id]
            # Routed through the cluster so the shared dropout stream
            # advances one tick per gradient computation.
            loss = cluster.compute_gradients_worker(worker)
            worker.apply_update(lr=lr)
            delta = worker.state_delta_vector(reference)
            new_global = cluster.ps.async_apply_delta_vector(worker.worker_id, delta)
            worker.set_state(new_global)
            self._last_pulled[worker.worker_id] = new_global
            losses.append(loss)

            compute_s = cluster.compute_model.step_seconds(cluster.batch_size, speed)
            push_pull_s = cluster.comm_model.ssp_push_pull_seconds(
                cluster.workload_spec.model_bytes
            )
            cluster.clock.advance_worker(worker.worker_id, compute_s, bucket="compute")
            cluster.clock.advance_worker(
                worker.worker_id, push_pull_s, bucket="communication"
            )
        # SSP has no explicit averaging, so LSSR is undefined; every step is
        # counted as asynchronous progress (reported as LSSR "n/a" upstream).
        return {"loss": float(np.mean(losses)), "synchronized": 0.0}

    def global_state(self):
        return self.cluster.ps.pull()
