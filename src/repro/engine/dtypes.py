"""Compute-dtype registry for the flat-buffer engine.

The engine (and everything built on top of it: the worker matrix, the fused
optimizers, the parameter server) is parameterized by one *compute dtype*.
``float64`` is the default — it is what the seed simulator used and what the
bit-identity regression tests pin — while ``float32`` is the opt-in mode that
matches the numerical regime of the clusters the paper actually measures
(half the memory traffic, roughly 2x the effective SIMD width).

This module is the **single owner** of the dtype → wire-bytes mapping.  The
communication cost models, the in-process backend, the parameter server and
the compression layer all charge bytes through :func:`wire_dtype_bytes`, so a
new transport mode only needs a new entry here for the
simulated clock to stay consistent with the buffers everywhere.

Transport convention: distributed frameworks ship tensors as float32 on the
wire regardless of the training dtype, so both supported compute dtypes map
to 4 wire bytes per element; narrower future compute dtypes would ship at
their native width (the wire is never wider than the compute dtype).

Separately from the *compute* dtype, a **transport dtype** can override what
the wire actually carries: ``float16`` models mixed-precision communication
(GradientFlow-style half-precision payloads, 2-byte elements),
``float32`` is the canonical default, and
``float64`` prices an uncompressed double-precision wire.  The transport
dtype only affects byte accounting — the simulated clock and the backend's
communication records — never the arithmetic, so wire-time experiments can
price half-precision payloads without changing the compute dtype.
"""

from __future__ import annotations

from typing import Union

import numpy as np

DTypeLike = Union[str, type, np.dtype, None]

#: The engine's default compute dtype (the seed's numerical regime).
DEFAULT_DTYPE = np.dtype(np.float64)

#: Transport element width of the canonical float32 wire format.
WIRE_DTYPE_BYTES = 4

#: Compute dtype -> bytes per element on the simulated wire.  Tensors are
#: shipped as float32 regardless of compute dtype (never wider than either).
_WIRE_BYTES = {
    np.dtype(np.float32): 4,
    np.dtype(np.float64): 4,
}

#: Compute dtypes the engine accepts.
SUPPORTED_DTYPES = tuple(sorted(_WIRE_BYTES, key=lambda d: d.itemsize))

#: The canonical wire format (what frameworks ship absent an override).
DEFAULT_TRANSPORT_DTYPE = np.dtype(np.float32)

#: Transport dtype -> bytes per element actually carried on the wire.
#: ``float16`` is the half-precision payload of mixed-precision
#: communication; it is a *transport* mode only and stays rejected as a
#: compute dtype.
_TRANSPORT_BYTES = {
    np.dtype(np.float16): 2,
    np.dtype(np.float32): 4,
    np.dtype(np.float64): 8,
}

#: Transport dtypes the simulated wire accepts.
TRANSPORT_DTYPES = tuple(sorted(_TRANSPORT_BYTES, key=lambda d: d.itemsize))


def resolve_dtype(dtype: DTypeLike = None) -> np.dtype:
    """Normalize a dtype-like value (``None`` -> :data:`DEFAULT_DTYPE`).

    Accepts ``None``, strings (``"float32"``), NumPy scalar types and
    ``np.dtype`` instances; anything outside :data:`SUPPORTED_DTYPES` raises.
    """
    if dtype is None:
        return DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _WIRE_BYTES:
        supported = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise TypeError(
            f"unsupported engine compute dtype {resolved.name!r}; "
            f"supported: {supported}"
        )
    return resolved


def wire_dtype_bytes(dtype: DTypeLike = None) -> int:
    """Bytes one element of ``dtype`` occupies on the simulated wire."""
    return _WIRE_BYTES[resolve_dtype(dtype)]


def resolve_transport_dtype(dtype: DTypeLike = None) -> np.dtype:
    """Normalize a transport dtype (``None`` -> :data:`DEFAULT_TRANSPORT_DTYPE`).

    Unlike :func:`resolve_dtype` this accepts ``float16`` — the wire may be
    narrower than any compute dtype the engine runs.
    """
    if dtype is None:
        return DEFAULT_TRANSPORT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _TRANSPORT_BYTES:
        supported = ", ".join(d.name for d in TRANSPORT_DTYPES)
        raise TypeError(
            f"unsupported transport dtype {resolved.name!r}; supported: {supported}"
        )
    return resolved


def transport_dtype_bytes(dtype: DTypeLike = None) -> int:
    """Bytes one element of the given *transport* dtype carries on the wire."""
    return _TRANSPORT_BYTES[resolve_transport_dtype(dtype)]


def transport_scale(dtype: DTypeLike = None) -> float:
    """Wire-volume scale of a transport dtype relative to the float32 default.

    ``float16`` -> 0.5, ``float32`` -> 1.0, ``float64`` -> 2.0.  Cost models
    multiply their float32-denominated ``model_bytes`` by this factor so one
    transport switch re-prices every collective consistently.
    """
    return transport_dtype_bytes(dtype) / float(WIRE_DTYPE_BYTES)
