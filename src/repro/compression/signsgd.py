"""signSGD-style 1-bit quantization with a magnitude scale."""

from __future__ import annotations

import numpy as np

from repro.engine.dtypes import WIRE_DTYPE_BYTES
from repro.compression.base import CompressedPayload, Compressor


class SignSGDCompressor(Compressor):
    """Transmit the sign of each entry plus one global scale (mean |g|).

    The scale keeps the reconstructed gradient's magnitude comparable to the
    original, which is the common "scaled signSGD" variant used when signs
    are averaged rather than majority-voted.
    """

    name = "signsgd"

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        vector = self._validate(vector)
        scale = float(np.mean(np.abs(vector)))
        if scale == 0.0 and vector.any():
            # The mean of subnormal magnitudes underflows to 0, which would
            # flatten every transmitted sign; keep the scale representable.
            scale = float(np.finfo(vector.dtype).smallest_subnormal)
        signs = np.sign(vector).astype(np.int8)
        # Zero entries keep sign 0; they transmit as zeros.
        compressed_bytes = vector.size / 8.0 + WIRE_DTYPE_BYTES
        return CompressedPayload(
            data={"signs": signs, "scale": np.array([scale])},
            original_size=vector.size,
            compressed_bytes=float(compressed_bytes),
            dtype=vector.dtype,
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        scale = payload.dtype.type(payload.data["scale"][0])
        return payload.data["signs"].astype(payload.dtype) * scale
