"""In-process collective-communication backend.

Implements the semantics of the MPI-style collectives the paper's algorithm
relies on (all-gather of synchronization flags, all-reduce of updates,
broadcast of the initial model) over plain NumPy arrays held by the lockstep simulator.  Every call records
the bytes that *would* have crossed the wire, which the cost models turn
into simulated seconds and the benchmarks report as communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.dtypes import WIRE_DTYPE_BYTES, transport_dtype_bytes


def _as_float_array(value: np.ndarray) -> np.ndarray:
    """Keep float arrays in their compute dtype; promote anything else."""
    value = np.asarray(value)
    if not np.issubdtype(value.dtype, np.floating):
        return value.astype(np.float64)
    return value


@dataclass
class CommunicationRecord:
    """Accumulated communication accounting for one backend."""

    total_bytes: float = 0.0
    calls: Dict[str, int] = field(default_factory=dict)
    bytes_by_op: Dict[str, float] = field(default_factory=dict)

    def record(self, op: str, num_bytes: float) -> None:
        self.total_bytes += num_bytes
        self.calls[op] = self.calls.get(op, 0) + 1
        self.bytes_by_op[op] = self.bytes_by_op.get(op, 0.0) + num_bytes


class InProcessBackend:
    """Collective operations across ``world_size`` simulated ranks.

    ``transport_dtype`` overrides the per-element width used for byte
    accounting (``None`` keeps the canonical float32 wire); the arrays
    themselves are never cast — only the recorded wire volume changes.
    """

    #: bytes per element assumed for transport accounting (float32 on the wire)
    DTYPE_BYTES = WIRE_DTYPE_BYTES

    def __init__(self, world_size: int, transport_dtype: Optional[str] = None) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = int(world_size)
        self.transport_dtype = transport_dtype
        # None resolves to the canonical float32 wire (== DTYPE_BYTES).
        self.dtype_bytes = transport_dtype_bytes(transport_dtype)
        self.record = CommunicationRecord()

    # ------------------------------------------------------------------ #
    # collectives over flat arrays
    # ------------------------------------------------------------------ #
    def _check_inputs(self, per_rank: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(per_rank) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank arrays, got {len(per_rank)}"
            )
        arrays = [_as_float_array(a) for a in per_rank]
        shapes = {a.shape for a in arrays}
        if len(shapes) > 1:
            raise ValueError(f"rank arrays have mismatched shapes: {shapes}")
        return arrays

    def allreduce(
        self, per_rank: Sequence[np.ndarray], op: str = "mean"
    ) -> List[np.ndarray]:
        """Reduce across ranks and return the (identical) result for each rank."""
        arrays = self._check_inputs(per_rank)
        stacked = np.stack(arrays)
        if op == "mean":
            reduced = stacked.mean(axis=0)
        elif op == "sum":
            reduced = stacked.sum(axis=0)
        elif op == "max":
            reduced = stacked.max(axis=0)
        else:
            raise ValueError(f"unsupported allreduce op {op!r}")
        per_element = arrays[0].size * self.dtype_bytes
        # Ring all-reduce moves ~2x the payload per rank.
        self.record.record("allreduce", 2.0 * per_element * self.world_size)
        return [reduced.copy() for _ in range(self.world_size)]

    def allgather_bits(self, per_rank_flags: Sequence[int]) -> np.ndarray:
        """The SelSync flags exchange: one status bit per worker (Alg. 1, line 12)."""
        if len(per_rank_flags) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} flags, got {len(per_rank_flags)}"
            )
        flags = np.asarray([1 if f else 0 for f in per_rank_flags], dtype=np.int8)
        # (N - 1) bits received per worker.
        self.record.record("allgather_bits", self.world_size * (self.world_size - 1) / 8.0)
        return flags

    def broadcast(self, value: np.ndarray, root: int = 0) -> List[np.ndarray]:
        """Send ``value`` from ``root`` to every rank."""
        if not 0 <= root < self.world_size:
            raise ValueError(f"root {root} out of range for world size {self.world_size}")
        value = _as_float_array(value)
        self.record.record(
            "broadcast", float(value.size * self.dtype_bytes * (self.world_size - 1))
        )
        return [value.copy() for _ in range(self.world_size)]

    def gather(self, per_rank: Sequence[np.ndarray], root: int = 0) -> List[np.ndarray]:
        if not 0 <= root < self.world_size:
            raise ValueError(f"root {root} out of range for world size {self.world_size}")
        arrays = self._check_inputs(per_rank)
        self.record.record(
            "gather", float(arrays[0].size * self.dtype_bytes * (self.world_size - 1))
        )
        return [a.copy() for a in arrays]

    def allreduce_matrix(self, matrix: np.ndarray, op: str = "mean") -> np.ndarray:
        """All-reduce the rows of a ``(K, D)`` worker matrix in one pass.

        The engine-level form of :meth:`allreduce`: row ``i`` is one
        participating rank's flat buffer, so the reduction is one fused NumPy
        call and no per-rank copies are made.  ``K`` is normally the full
        world size, but an elastic cluster may reduce over any non-empty
        subset of ranks (crashed workers drop their rows); byte accounting
        always reflects the actual participant count.
        """
        matrix = _as_float_array(matrix)
        if matrix.ndim != 2 or not 1 <= matrix.shape[0] <= self.world_size:
            raise ValueError(
                f"expected a (K <= {self.world_size}, D) matrix with K >= 1, "
                f"got shape {matrix.shape}"
            )
        if op == "mean":
            reduced = matrix.mean(axis=0)
        elif op == "sum":
            reduced = matrix.sum(axis=0)
        elif op == "max":
            reduced = matrix.max(axis=0)
        else:
            raise ValueError(f"unsupported allreduce op {op!r}")
        per_element = matrix.shape[1] * self.dtype_bytes
        # Ring all-reduce moves ~2x the payload per participating rank.
        self.record.record("allreduce", 2.0 * per_element * matrix.shape[0])
        return reduced
