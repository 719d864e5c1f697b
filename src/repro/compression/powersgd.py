"""PowerSGD: rank-r low-rank approximation of the gradient.

The flat gradient is reshaped into a (rows, cols) matrix M; one subspace
iteration produces P = M Q and Q' = Mᵀ P (orthonormalized), and the
reconstruction is P Q'ᵀ.  Only P and Q' travel on the wire, so the cost is
``r * (rows + cols)`` floats instead of ``rows * cols``.
"""

from __future__ import annotations

import numbers
from typing import Optional, Tuple

import numpy as np

from repro.engine.dtypes import WIRE_DTYPE_BYTES
from repro.compression.base import CompressedPayload, Compressor
from repro.utils.rng import new_rng


def _matrix_shape(size: int) -> Tuple[int, int]:
    """Choose a near-square (rows, cols) factorization with rows*cols >= size."""
    rows = int(np.ceil(np.sqrt(size)))
    cols = int(np.ceil(size / rows))
    return rows, cols


def _orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Gram-Schmidt via the thin QR factorization."""
    q, _ = np.linalg.qr(matrix)
    return q


class PowerSGDCompressor(Compressor):
    """Rank-``rank`` PowerSGD with a warm-started right factor."""

    name = "powersgd"

    def __init__(self, rank: int = 2, seed: Optional[int] = 0) -> None:
        if isinstance(rank, bool) or not isinstance(rank, numbers.Integral):
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = int(rank)
        self._rng = new_rng(seed)
        self._warm_q: Optional[np.ndarray] = None

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        vector = self._validate(vector)
        size = vector.size
        rows, cols = _matrix_shape(size)
        padded = np.zeros(rows * cols, dtype=vector.dtype)
        padded[:size] = vector
        matrix = padded.reshape(rows, cols)
        rank = min(self.rank, rows, cols)

        if self._warm_q is None or self._warm_q.shape != (cols, rank):
            q = self._rng.standard_normal((cols, rank)).astype(vector.dtype)
        else:
            q = self._warm_q
        q = _orthonormalize(q)
        p = matrix @ q                    # (rows, rank)
        p = _orthonormalize(p)
        q_new = matrix.T @ p              # (cols, rank)
        self._warm_q = q_new.copy()

        compressed_bytes = float((p.size + q_new.size) * WIRE_DTYPE_BYTES)
        return CompressedPayload(
            data={
                "p": p,
                "q": q_new,
                "size": np.array([size]),
                "shape": np.array([rows, cols]),
            },
            original_size=size,
            compressed_bytes=compressed_bytes,
            dtype=vector.dtype,
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        p = payload.data["p"]
        q = payload.data["q"]
        size = int(payload.data["size"][0])
        approx = p @ q.T
        return approx.ravel()[:size].copy()
