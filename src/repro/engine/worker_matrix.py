"""The cluster-level ``(num_workers, D)`` worker matrix.

All per-worker flat buffers (parameters and gradients) are rows of two
preallocated matrices.  Because every worker's model parameters are *views*
into its row (see :meth:`WorkerMatrix.adopt`), the expensive collective
operations of the simulator collapse into single vectorized NumPy calls:

* parameter / gradient averaging  ->  ``matrix.mean(axis=0)``
* broadcast of a global state     ->  ``matrix[:] = vector`` (row assignment)
* replica-consistency / drift     ->  one norm over ``matrix - mean``
* per-worker gradient statistics  ->  one reduction along ``axis=1``

Nothing is copied at step time: a worker's backward pass accumulates
directly into its gradient row, and an optimizer step mutates its parameter
row in place.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.engine.flat_buffer import ParamSpec


def group_bounds(num_workers: int, num_groups: int) -> List[Tuple[int, int]]:
    """Split ``num_workers`` rows into ``num_groups`` contiguous near-even groups.

    A row shard of the batched executor is one of these ``(lo, hi)`` ranges.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    num_groups = max(1, min(int(num_groups), num_workers))
    base, extra = divmod(num_workers, num_groups)
    bounds = []
    lo = 0
    for g in range(num_groups):
        hi = lo + base + (1 if g < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class WorkerMatrix:
    """Stacked per-worker parameter and gradient buffers.

    Storage dtype follows the spec's compute dtype (float64 default, float32
    in the reduced-precision engine mode).
    """

    def __init__(self, num_workers: int, spec: ParamSpec) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.spec = spec
        self.params = np.zeros((self.num_workers, spec.total_size), dtype=spec.dtype)
        self.grads = np.zeros((self.num_workers, spec.total_size), dtype=spec.dtype)

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype shared by both matrices (owned by the spec)."""
        return self.spec.dtype

    # ------------------------------------------------------------------ #
    # row adoption
    # ------------------------------------------------------------------ #
    def adopt(self, worker_id: int, module) -> None:
        """Move ``module``'s parameter/gradient storage onto rows ``worker_id``.

        After adoption the module's parameters alias ``params[worker_id]``
        and its gradients alias ``grads[worker_id]``; the module keeps its
        full named API while the matrix sees every update for free.
        """
        self._check_worker(worker_id)
        module.flatten_parameters(
            param_vector=self.params[worker_id], grad_vector=self.grads[worker_id]
        )

    # ------------------------------------------------------------------ #
    # vectorized collectives
    # ------------------------------------------------------------------ #
    def mean_params(self) -> np.ndarray:
        """PA averaging across all replicas in one fused reduction."""
        return self.params.mean(axis=0)

    def broadcast(self, vector: np.ndarray) -> None:
        """Load one global flat state into every replica by row assignment."""
        vector = np.asarray(vector, dtype=self.spec.dtype).ravel()
        if vector.size != self.spec.total_size:
            raise ValueError(
                f"broadcast vector has length {vector.size}, expected {self.spec.total_size}"
            )
        self.params[:] = vector

    def divergence(self) -> float:
        """Mean L2 distance of replicas from their average (drift diagnostic)."""
        centered = self.params - self.params.mean(axis=0)
        return float(np.sqrt((centered**2).sum(axis=1)).mean())

    # ------------------------------------------------------------------ #
    # named access (cold paths: checkpointing, tests)
    # ------------------------------------------------------------------ #
    def state_dict(self, worker_id: int) -> Dict[str, np.ndarray]:
        """Copy of one worker's named parameter state."""
        self._check_worker(worker_id)
        return self.spec.unflatten(self.params[worker_id])

    def mean_state_dict(self) -> Dict[str, np.ndarray]:
        """Replica-averaged parameters as a named dict (PA aggregation)."""
        return self.spec.unflatten(self.mean_params())

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(
                f"worker_id {worker_id} out of range for {self.num_workers} workers"
            )
