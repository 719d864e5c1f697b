"""A simulated training worker: model replica + local data view.

Workers do real numerical work (forward and backward on the NumPy models);
only *time* is simulated.  Their optimizer state lives in the cluster's
fused update (:mod:`repro.engine.fused_optim`), one row per worker, and their
batches in the cluster's per-step block: a worker's loader hands out index
rows, and the cluster gathers every worker's batch with one index.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.loader import DataLoader
from repro.nn.losses import cross_entropy_with_logits
from repro.nn.module import Module


class Worker:
    """One simulated worker with its own replica and data stream."""

    def __init__(self, worker_id: int, model: Module, loader: DataLoader) -> None:
        if worker_id < 0:
            raise ValueError(f"worker_id must be non-negative, got {worker_id}")
        self.worker_id = int(worker_id)
        self.model = model
        self.loader = loader
        self.last_loss: Optional[float] = None

    # ------------------------------------------------------------------ #
    # core training ops
    # ------------------------------------------------------------------ #
    def compute_gradients_flat(
        self, batch: Tuple[np.ndarray, np.ndarray]
    ) -> Tuple[float, np.ndarray]:
        """Forward + backward on ``(inputs, targets)``; returns (loss, live flat gradient view).

        The returned vector aliases the worker's gradient buffer (a row of
        the cluster's WorkerMatrix): it is valid until the next
        ``zero_grad``/backward and must be copied if kept longer.
        """
        inputs, targets = batch
        self.model.zero_grad()
        logits = self.model.forward(inputs)
        loss, dlogits = cross_entropy_with_logits(logits, targets)
        self.model.backward(dlogits)
        self.last_loss = loss
        return loss, self.model.grad_vector

    # ------------------------------------------------------------------ #
    # state exchange
    # ------------------------------------------------------------------ #
    @property
    def param_vector(self) -> np.ndarray:
        """Live flat view of the replica's parameters (WorkerMatrix row)."""
        return self.model.param_vector

    @property
    def grad_vector(self) -> np.ndarray:
        """Live flat view of the replica's accumulated gradients."""
        return self.model.grad_vector

    def get_state(self) -> Dict[str, np.ndarray]:
        return self.model.state_dict()

    def set_state(self, state) -> None:
        """Load a replica state: a named dict or an already-flat vector."""
        if isinstance(state, np.ndarray):
            self.model.load_param_vector(state)
        else:
            self.model.load_state_dict(state)

    @property
    def epoch_progress(self) -> float:
        return self.loader.epoch_progress
