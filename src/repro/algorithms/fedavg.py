"""Federated Averaging, FedAvg(C, E) (§II-B).

Workers train locally; every ``E``-th fraction of an epoch a fraction ``C``
of the workers is selected, their parameters are averaged into the global
model, and the global model is broadcast back to *all* workers (the next
round starts from the aggregated state).  The paper evaluates (C, E) in
{1, 0.5} x {0.25, 0.125}, i.e. aggregation 4 or 8 times per epoch from all
or half of the workers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.algorithms.base import BaseTrainer
from repro.cluster.cluster import SimulatedCluster
from repro.optim.schedules import LRSchedule
from repro.utils.rng import new_rng


class FedAvgTrainer(BaseTrainer):
    """FedAvg with participation fraction C and synchronization factor E."""

    name = "fedavg"

    def __init__(
        self,
        cluster: SimulatedCluster,
        participation: float = 1.0,
        sync_factor: float = 0.25,
        lr_schedule: Optional[LRSchedule] = None,
        eval_every: int = 50,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(cluster, lr_schedule=lr_schedule, eval_every=eval_every)
        self.check_params(participation=participation, sync_factor=sync_factor)
        self.participation = float(participation)
        self.sync_factor = float(sync_factor)
        # E is a fraction of an epoch: synchronize every E * steps_per_epoch
        # local iterations (uniformly spaced aggregation points).
        steps_per_epoch = max(cluster.workers[0].loader.steps_per_epoch, 1)
        self.sync_interval = max(int(round(self.sync_factor * steps_per_epoch)), 1)
        self._rng = new_rng(seed if seed is not None else cluster.config.seed + 101)
        self.aggregation_rounds = 0

    @classmethod
    def check_params(cls, *, participation: float, sync_factor: float, **_: Any) -> None:
        """C and E are fractions in (0, 1]."""
        if not 0.0 < participation <= 1.0:
            raise ValueError(f"participation C must be in (0, 1], got {participation}")
        if not 0.0 < sync_factor <= 1.0:
            raise ValueError(f"sync_factor E must be in (0, 1], got {sync_factor}")

    def describe(self) -> str:
        """Label including participation and sync factor."""
        return f"fedavg(C={self.participation}, E={self.sync_factor})"

    def result_extras(self) -> Dict[str, float]:
        return {
            "participation": self.participation,
            "sync_factor": self.sync_factor,
            "sync_interval_steps": float(self.sync_interval),
            "aggregation_rounds": float(self.aggregation_rounds),
        }

    def _select_participants(self) -> List[int]:
        n = self.cluster.num_workers
        k = max(int(round(self.participation * n)), 1)
        chosen = self._rng.choice(n, size=k, replace=False)
        return sorted(int(c) for c in chosen)

    def train_step(self) -> Dict[str, float]:
        cluster = self.cluster
        lr = self.current_lr()
        batches = [worker.next_batch() for worker in cluster.workers]
        losses = cluster.compute_gradients_all(batches)
        cluster.apply_local_updates(lr=lr)
        cluster.charge_compute_step()

        synchronize = (self.global_step + 1) % self.sync_interval == 0
        if synchronize:
            participants = self._select_participants()
            # Row-select the participating replicas from the worker matrix;
            # full participation pushes the matrix itself (no copy).
            if len(participants) == cluster.num_workers:
                rows = cluster.matrix.params
            else:
                rows = cluster.matrix.params[participants]
            new_global = cluster.ps.push_matrix_parameters(rows)
            cluster.broadcast_state(new_global)
            cluster.charge_sync()
            self.aggregation_rounds += 1
            self.lssr_tracker.record_sync()
        else:
            self.lssr_tracker.record_local()
        return {"loss": float(np.mean(losses)), "synchronized": float(synchronize)}

    def global_state(self):
        """Evaluate the PS global model (what FedAvg serves between rounds)."""
        if self.aggregation_rounds > 0:
            return self.cluster.ps.pull()
        return self.cluster.average_worker_states()
