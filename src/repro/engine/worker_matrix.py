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

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.flat_buffer import ParamSpec


def group_bounds(num_workers: int, num_groups: int) -> List[Tuple[int, int]]:
    """Split ``num_workers`` rows into ``num_groups`` contiguous near-even groups.

    The one row split of the engine: a replica-pool child's group and a row
    shard of the batched executor are both one of these ``(lo, hi)`` ranges.
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

    ``params`` / ``grads`` may donate the backing arrays — e.g. views into a
    :class:`~repro.parallel.shm.SharedMatrixStorage` segment, which is how the
    multiprocessing replica pool makes one ``(N, D)`` matrix visible to every
    worker process, or row-slices of a larger matrix (a pool child's group
    sub-matrix).  Donated storage must be C-contiguous ``(num_workers, D)``
    arrays of the spec's dtype; the matrix never copies or frees it.
    """

    def __init__(
        self,
        num_workers: int,
        spec: ParamSpec,
        params: Optional[np.ndarray] = None,
        grads: Optional[np.ndarray] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.spec = spec
        # Donated storage (shared memory, stacked-sweep slices) is owned by
        # someone else: the matrix must never reallocate or free it, which
        # is what rules out resize() below.
        self.owns_storage = params is None and grads is None
        self.params = self._check_storage(params, "params")
        self.grads = self._check_storage(grads, "grads")

    def _check_storage(self, array, label: str) -> np.ndarray:
        if array is None:
            return np.zeros((self.num_workers, self.spec.total_size), dtype=self.spec.dtype)
        if array.shape != (self.num_workers, self.spec.total_size):
            raise ValueError(
                f"donated {label} storage has shape {array.shape}, expected "
                f"{(self.num_workers, self.spec.total_size)}"
            )
        if array.dtype != self.spec.dtype:
            raise TypeError(
                f"donated {label} storage must be {self.spec.dtype.name}, got {array.dtype}"
            )
        if not array.flags["C_CONTIGUOUS"]:
            raise ValueError(f"donated {label} storage must be C-contiguous")
        return array

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

    def param_row(self, worker_id: int) -> np.ndarray:
        """Zero-copy view of worker ``worker_id``'s flat parameters."""
        self._check_worker(worker_id)
        return self.params[worker_id]

    def grad_row(self, worker_id: int) -> np.ndarray:
        """Zero-copy view of worker ``worker_id``'s flat gradients."""
        self._check_worker(worker_id)
        return self.grads[worker_id]

    # ------------------------------------------------------------------ #
    # elastic resize
    # ------------------------------------------------------------------ #
    def resize(self, new_num_workers: int) -> None:
        """Grow or shrink the matrix to ``new_num_workers`` rows in place.

        Overlapping rows are copied into freshly allocated storage (grown
        rows start at zero; shrinking drops the tail rows).  Existing row
        *views* — adopted modules, rebound optimizer state — keep aliasing
        the old storage, so callers must re-adopt workers afterwards; the
        elastic cluster layer in :mod:`repro.faults` prefers row *masking*
        for exactly this reason and reserves resize for between-run
        reshaping.  Donated storage (shared memory, stacked-sweep slices)
        cannot be resized.
        """
        if new_num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {new_num_workers}")
        if not self.owns_storage:
            raise ValueError(
                "cannot resize a WorkerMatrix over donated storage "
                "(shared memory or stacked-sweep slices own the buffers)"
            )
        if new_num_workers == self.num_workers:
            return
        keep = min(self.num_workers, new_num_workers)
        new_params = np.zeros((new_num_workers, self.spec.total_size), dtype=self.spec.dtype)
        new_grads = np.zeros_like(new_params)
        new_params[:keep] = self.params[:keep]
        new_grads[:keep] = self.grads[:keep]
        self.num_workers = int(new_num_workers)
        self.params = new_params
        self.grads = new_grads

    # ------------------------------------------------------------------ #
    # vectorized collectives
    # ------------------------------------------------------------------ #
    def mean_params(self) -> np.ndarray:
        """PA averaging across all replicas in one fused reduction."""
        return self.params.mean(axis=0)

    def mean_grads(self) -> np.ndarray:
        """GA averaging across all replicas in one fused reduction."""
        return self.grads.mean(axis=0)

    def broadcast(self, vector: np.ndarray) -> None:
        """Load one global flat state into every replica by row assignment."""
        vector = np.asarray(vector, dtype=self.spec.dtype).ravel()
        if vector.size != self.spec.total_size:
            raise ValueError(
                f"broadcast vector has length {vector.size}, expected {self.spec.total_size}"
            )
        self.params[:] = vector

    def consistency_error(self) -> float:
        """Maximum L2 distance of any replica from the replica average."""
        centered = self.params - self.params.mean(axis=0)
        return float(np.sqrt((centered**2).sum(axis=1).max()))

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
