"""Flatten/unflatten utilities for parameter and gradient pytrees.

The simulated communication layer exchanges model state as a single
contiguous ``float64`` vector (mirroring what a fused all-reduce or a
parameter-server push does with a flat buffer).  These helpers convert
between an ordered ``dict`` of named NumPy arrays and that flat vector.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Bytes per element on the simulated wire for the default transport.
#: Re-exported from :mod:`repro.engine.dtypes`, the single owner of the
#: dtype -> wire-bytes mapping: distributed frameworks ship float32 tensors,
#: so every byte-accounting site (cost models, compression ratios, backend
#: records) charges 4 bytes/element regardless of the compute dtype.
from repro.engine.dtypes import WIRE_DTYPE_BYTES

ArrayTree = Mapping[str, np.ndarray]


def flatten_arrays(tree: ArrayTree) -> Tuple[np.ndarray, List[Tuple[str, Tuple[int, ...]]]]:
    """Flatten an ordered mapping of arrays into one 1-D vector.

    Returns the vector and a spec ``[(name, shape), ...]`` that can be used
    by :func:`unflatten_vector` to rebuild the mapping.
    """
    parts: List[np.ndarray] = []
    spec: List[Tuple[str, Tuple[int, ...]]] = []
    for name, arr in tree.items():
        arr = np.asarray(arr)
        parts.append(arr.ravel())
        spec.append((name, arr.shape))
    if not parts:
        return np.zeros(0, dtype=np.float64), spec
    flat = np.concatenate(parts)
    # Preserve the tree's float dtype (float32 trees stay float32); only
    # non-float trees are promoted to the engine default.
    if not np.issubdtype(flat.dtype, np.floating):
        flat = flat.astype(np.float64)
    return flat, spec


def unflatten_vector(
    vector: np.ndarray, spec: Sequence[Tuple[str, Tuple[int, ...]]]
) -> Dict[str, np.ndarray]:
    """Rebuild the named-array mapping described by ``spec`` from ``vector``."""
    vector = np.asarray(vector).ravel()
    out: Dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in spec:
        size = int(np.prod(shape)) if shape else 1
        chunk = vector[offset : offset + size]
        if chunk.size != size:
            raise ValueError(
                f"vector too short while unflattening '{name}': needed {size}, "
                f"got {chunk.size}"
            )
        out[name] = chunk.reshape(shape).copy()
        offset += size
    if offset != vector.size:
        raise ValueError(
            f"vector length {vector.size} does not match spec total {offset}"
        )
    return out


def total_size(tree: ArrayTree) -> int:
    """Total number of scalar elements across all leaves."""
    return int(sum(np.asarray(a).size for a in tree.values()))


def total_bytes(tree: ArrayTree, dtype_bytes: int = WIRE_DTYPE_BYTES) -> int:
    """Total transferred bytes assuming ``dtype_bytes`` per element.

    Defaults to :data:`WIRE_DTYPE_BYTES` (float32 transport), shared with the
    communication cost models and the compression layer.
    """
    return total_size(tree) * int(dtype_bytes)
