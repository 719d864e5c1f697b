"""Simulated central parameter server (PS).

Implements the ``pullFromPS`` / ``pushToPS`` interface of Alg. 1:

* **Parameter aggregation (PA)** — workers push their *post-update local
  parameters*; the server averages them and every worker pulls the averaged
  state, so all replicas become identical after a synchronization step.
* **Gradient aggregation (GA)** — workers push *gradients*; the server
  averages those and workers apply the averaged gradient locally through
  their own optimizer (the mode compared against PA in Fig. 10).
* **Asynchronous updates (SSP)** — a worker adds its own update to the
  global state without waiting for others and pulls the result
  (:meth:`push_deltas`).

The global state lives in one contiguous flat buffer
(:class:`repro.engine.FlatBuffer`); the named-dict API is preserved through
zero-copy views, and the cluster's hot path pushes whole ``(N, D)`` worker
matrices (:meth:`push_matrix_parameters` / :meth:`push_matrix_gradients`)
instead of re-flattening dicts every synchronization round.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.engine.dtypes import DTypeLike, transport_dtype_bytes, wire_dtype_bytes
from repro.engine.flat_buffer import FlatBuffer, ParamSpec


class ParameterServer:
    """Central state holder plus aggregation and transfer bookkeeping.

    ``dtype`` selects the compute dtype of the global flat state (the
    engine's float64 default when omitted); wire-byte accounting follows the
    dtype through :func:`repro.engine.dtypes.wire_dtype_bytes`, unless a
    ``transport_dtype`` override prices an explicit wire format (so pushed /
    pulled bytes stay consistent with the backend's records and the clock
    when the cluster runs a float16 wire).
    """

    def __init__(
        self,
        initial_state: Mapping[str, np.ndarray],
        num_workers: int,
        dtype: DTypeLike = None,
        transport_dtype: DTypeLike = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.transport_dtype = transport_dtype
        self._buffer = FlatBuffer.from_tree(initial_state, dtype=dtype)
        self.spec: ParamSpec = self._buffer.spec
        # Named zero-copy views into the flat buffer (the legacy dict API).
        self._state: Dict[str, np.ndarray] = self._buffer.as_dict(copy=False)
        self.num_workers = int(num_workers)
        self.version = 0
        self.total_pushed_bytes = 0.0
        self.total_pulled_bytes = 0.0
        self.aggregations = 0

    # ------------------------------------------------------------------ #
    # pull / push
    # ------------------------------------------------------------------ #
    def pull(self, worker_id: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Return a copy of the global model state (``pullFromPS``)."""
        if worker_id is not None and not 0 <= worker_id < self.num_workers:
            raise ValueError(f"worker_id {worker_id} out of range")
        self.total_pulled_bytes += self.state_bytes()
        return self._buffer.as_dict(copy=True)

    def pull_vector(self, worker_id: Optional[int] = None, copy: bool = True) -> np.ndarray:
        """Flat-vector ``pullFromPS``; ``copy=False`` returns the live buffer."""
        if worker_id is not None and not 0 <= worker_id < self.num_workers:
            raise ValueError(f"worker_id {worker_id} out of range")
        self.total_pulled_bytes += self.state_bytes()
        return self._buffer.copy_vector() if copy else self._buffer.vector

    def state_dict(self) -> Dict[str, np.ndarray]:
        """A named copy of the global state without transfer accounting.

        What evaluation reads: looking at the served model moves no bytes.
        """
        return self._buffer.as_dict(copy=True)

    @property
    def state_vector(self) -> np.ndarray:
        """Live flat view of the global state (no transfer accounting)."""
        return self._buffer.vector

    def state_bytes(self) -> int:
        """Model size in transported bytes.

        The wire width of the compute dtype by default; an explicit
        ``transport_dtype`` (e.g. a float16 wire) prices its native width.
        """
        if self.transport_dtype is not None:
            return self._buffer.size * transport_dtype_bytes(self.transport_dtype)
        return self._buffer.size * wire_dtype_bytes(self._buffer.dtype)

    def aggregate_parameters(
        self, worker_states: Mapping[int, Mapping[str, np.ndarray]]
    ) -> Dict[str, np.ndarray]:
        """Average pushed parameter states into the global state (PA mode)."""
        if not worker_states:
            raise ValueError("no worker states to aggregate")
        self._validate_tree_shapes(worker_states)
        stacked = np.stack(
            [self.spec.flatten_tree(ws) for ws in worker_states.values()]
        )
        self._buffer.load_vector(stacked.mean(axis=0))
        self.total_pushed_bytes += self.state_bytes() * len(worker_states)
        self.total_pulled_bytes += self.state_bytes() * len(worker_states)
        self.version += 1
        self.aggregations += 1
        return self.state_dict()

    def push_matrix_parameters(
        self, params_matrix: np.ndarray, receivers: Optional[int] = None
    ) -> np.ndarray:
        """PA push of a ``(K, D)`` worker matrix in one fused mean.

        Accounts like :meth:`aggregate_parameters`: each row is one pushed
        replica, and the averaged state goes back out as one pull per
        replica it reaches — ``receivers`` of them, by default the ``K``
        that pushed.  Returns the new global flat state.
        """
        matrix = self._check_matrix(params_matrix)
        self._buffer.load_vector(matrix.mean(axis=0))
        self.total_pushed_bytes += self.state_bytes() * matrix.shape[0]
        self.total_pulled_bytes += self.state_bytes() * (receivers or matrix.shape[0])
        self.version += 1
        self.aggregations += 1
        return self._buffer.copy_vector()

    def aggregate_gradients(
        self, worker_grads: Mapping[int, Mapping[str, np.ndarray]]
    ) -> Dict[str, np.ndarray]:
        """Average pushed gradients and return them (GA mode).

        The global parameter state is *not* modified; workers apply the
        averaged gradients through their own optimizers, which is exactly why
        local replicas can drift apart under GA (§III-C).
        """
        if not worker_grads:
            raise ValueError("no worker gradients to aggregate")
        self._validate_tree_shapes(worker_grads)
        stacked = np.stack(
            [self.spec.flatten_tree(g) for g in worker_grads.values()]
        )
        averaged = stacked.mean(axis=0)
        self.total_pushed_bytes += self.state_bytes() * len(worker_grads)
        self.total_pulled_bytes += self.state_bytes() * len(worker_grads)
        self.version += 1
        self.aggregations += 1
        return self.spec.unflatten(averaged, copy=False)

    def push_matrix_gradients(self, grads_matrix: np.ndarray) -> np.ndarray:
        """GA push of the whole ``(N, D)`` gradient matrix in one fused mean.

        Matches :meth:`aggregate_gradients` accounting (every worker pushes
        its gradient and pulls the average back); the global state is not
        modified.  Returns the averaged flat gradient.
        """
        matrix = self._check_matrix(grads_matrix)
        averaged = matrix.mean(axis=0)
        self.total_pushed_bytes += self.state_bytes() * matrix.shape[0]
        self.total_pulled_bytes += self.state_bytes() * matrix.shape[0]
        self.version += 1
        self.aggregations += 1
        return averaged

    def set_state(self, state: Union[Mapping[str, np.ndarray], np.ndarray]) -> None:
        """Overwrite the global state (used after GA so the PS tracks a reference replica).

        Accepts a named dict or an already-flat vector.
        """
        if isinstance(state, np.ndarray):
            self._buffer.load_vector(state)
        else:
            self._validate_tree_shapes({0: state})
            self._buffer.load_tree(state)
        self.version += 1

    # ------------------------------------------------------------------ #
    # asynchronous path (SSP)
    # ------------------------------------------------------------------ #
    def push_deltas(self, deltas: np.ndarray) -> np.ndarray:
        """Asynchronous pushes of a ``(N, D)`` delta matrix, one row at a time.

        Row ``i``'s delta is added to the global state without a barrier,
        and the state right after that add is row ``i`` of the result: what
        worker ``i`` pulls straight after its push, with the deltas of rows
        ``0..i-1`` already in it.  Each row counts as one push and one pull.
        """
        matrix = self._check_matrix(deltas)
        vector = self._buffer.vector
        pulled = np.empty_like(matrix)
        for row, delta in enumerate(matrix):
            vector += delta
            pulled[row] = vector
        self.total_pushed_bytes += self.state_bytes() * matrix.shape[0]
        self.total_pulled_bytes += self.state_bytes() * matrix.shape[0]
        self.version += matrix.shape[0]
        return pulled

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _check_matrix(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=self._buffer.dtype)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValueError(
                f"expected a non-empty (N, D) matrix, got shape {matrix.shape}"
            )
        if matrix.shape[1] != self._buffer.size:
            raise ValueError(
                f"matrix row length {matrix.shape[1]} does not match model D={self._buffer.size}"
            )
        return matrix

    def _validate_tree_shapes(self, trees: Mapping[int, Mapping[str, np.ndarray]]) -> None:
        for worker_id, tree in trees.items():
            missing = set(self._state) - set(tree)
            if missing:
                raise KeyError(
                    f"worker {worker_id} push missing parameters: {sorted(missing)[:3]}..."
                )
            for name, reference in self._state.items():
                value = np.asarray(tree[name])
                if value.shape != reference.shape:
                    raise ValueError(
                        f"worker {worker_id} parameter {name!r} has shape {value.shape}, "
                        f"expected {reference.shape}"
                    )
