"""Top-k sparsification: keep the k largest-magnitude gradient entries."""

from __future__ import annotations

import numbers

import numpy as np

from repro.engine.dtypes import WIRE_DTYPE_BYTES
from repro.compression.base import CompressedPayload, Compressor


class TopKCompressor(Compressor):
    """Send the top ``ratio`` fraction of entries (values + indices)."""

    name = "topk"

    def __init__(self, ratio: float = 0.01) -> None:
        if isinstance(ratio, bool) or not isinstance(ratio, numbers.Real):
            raise ValueError(f"ratio must be a real number, got {ratio!r}")
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = float(ratio)

    def _k(self, size: int) -> int:
        return max(int(np.ceil(self.ratio * size)), 1)

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        vector = self._validate(vector)
        k = self._k(vector.size)
        # argpartition selects the k largest magnitudes in O(n).
        idx = np.argpartition(np.abs(vector), vector.size - k)[-k:]
        values = vector[idx]
        # One wire-width float value + one equally wide int32 index per entry.
        compressed_bytes = float(k * (WIRE_DTYPE_BYTES + WIRE_DTYPE_BYTES))
        return CompressedPayload(
            data={
                "indices": idx.astype(np.int64),
                "values": values,
                "size": np.array([vector.size]),
            },
            original_size=vector.size,
            compressed_bytes=compressed_bytes,
            dtype=vector.dtype,
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        size = int(payload.data["size"][0])
        dense = np.zeros(size, dtype=payload.dtype)
        dense[payload.data["indices"]] = payload.data["values"]
        return dense
