"""Contiguous flat-buffer storage with zero-copy named views.

The execution engine stores every quantity that used to live in a dict of
named arrays (parameters, gradients, optimizer moments, the parameter-server
state) as **one preallocated contiguous vector** of the engine's compute
dtype (:mod:`repro.engine.dtypes`; ``float64`` by default, ``float32`` in
the reduced-precision mode).  Named access is preserved through
:class:`FlatBuffer` views: each named tensor is a ``reshape`` of a slice of
the underlying vector, so mutating a view mutates the vector and vice versa
— no copies on the hot path.

:class:`ParamSpec` is the layout descriptor (name, shape, offset, size per
entry) plus the storage dtype.  It is deliberately independent of
:mod:`repro.nn` so the engine can describe any ordered tree of arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.dtypes import DTypeLike, resolve_dtype


class ParamSpec:
    """Immutable layout of named tensors inside one flat vector."""

    __slots__ = ("entries", "total_size", "dtype", "_index")

    def __init__(
        self,
        shapes: Sequence[Tuple[str, Tuple[int, ...]]],
        dtype: DTypeLike = None,
    ) -> None:
        entries: List[Tuple[str, Tuple[int, ...], int, int]] = []
        offset = 0
        seen = set()
        for name, shape in shapes:
            if name in seen:
                raise ValueError(f"duplicate name {name!r} in spec")
            seen.add(name)
            shape = tuple(int(d) for d in shape)
            size = int(np.prod(shape)) if shape else 1
            entries.append((name, shape, offset, size))
            offset += size
        self.entries = tuple(entries)
        self.total_size = offset
        self.dtype = resolve_dtype(dtype)
        self._index = {name: i for i, (name, _, _, _) in enumerate(entries)}

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_tree(cls, tree: Mapping[str, np.ndarray], dtype: DTypeLike = None) -> "ParamSpec":
        return cls(
            [(name, np.asarray(arr).shape) for name, arr in tree.items()], dtype=dtype
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def shape_of(self, name: str) -> Tuple[int, ...]:
        """Original tensor shape of ``name``."""
        return self.entries[self._index[name]][1]

    def slice_of(self, name: str) -> slice:
        """Column slice ``[offset, offset + size)`` of ``name`` in a flat vector."""
        _, _, offset, size = self.entries[self._index[name]]
        return slice(offset, offset + size)

    def __iter__(self) -> Iterator[Tuple[str, Tuple[int, ...], int, int]]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParamSpec)
            and self.entries == other.entries
            and self.dtype == other.dtype
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParamSpec({len(self.entries)} tensors, D={self.total_size}, "
            f"dtype={self.dtype.name})"
        )

    # ------------------------------------------------------------------ #
    # vector <-> tree conversion
    # ------------------------------------------------------------------ #
    def allocate(self) -> np.ndarray:
        """Fresh zero vector of ``total_size`` in the spec's dtype."""
        return np.zeros(self.total_size, dtype=self.dtype)

    def views(self, vector: np.ndarray) -> "OrderedDict[str, np.ndarray]":
        """Zero-copy named views into ``vector`` (must match this layout)."""
        vector = self._check_vector(vector)
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, shape, offset, size in self.entries:
            out[name] = vector[offset : offset + size].reshape(shape)
        return out

    def flatten_tree(
        self, tree: Mapping[str, np.ndarray], out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Write a named-array mapping into a flat vector (validates layout)."""
        if out is None:
            out = self.allocate()
        else:
            out = self._check_vector(out)
        for name, shape, offset, size in self.entries:
            if name not in tree:
                raise KeyError(f"tree is missing tensor {name!r}")
            arr = np.asarray(tree[name], dtype=self.dtype)
            if arr.shape != shape:
                raise ValueError(
                    f"tensor {name!r} has shape {arr.shape}, layout expects {shape}"
                )
            out[offset : offset + size] = arr.reshape(-1)
        return out

    def unflatten(self, vector: np.ndarray, copy: bool = True) -> Dict[str, np.ndarray]:
        """Rebuild the named mapping; ``copy=False`` returns live views."""
        if copy:
            vector = np.array(vector, dtype=self.dtype).ravel()
            if vector.size != self.total_size:
                raise ValueError(
                    f"vector length {vector.size} does not match layout D={self.total_size}"
                )
        return dict(self.views(vector))

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        if not isinstance(vector, np.ndarray):
            raise TypeError("flat storage must be a numpy array")
        if vector.ndim != 1 or vector.size != self.total_size:
            raise ValueError(
                f"flat vector must be 1-D of length {self.total_size}, "
                f"got shape {vector.shape}"
            )
        if vector.dtype != self.dtype:
            raise TypeError(
                f"flat vector must be {self.dtype.name}, got {vector.dtype}"
            )
        if not vector.flags["C_CONTIGUOUS"]:
            raise ValueError("flat vector must be contiguous to support zero-copy views")
        return vector


class FlatBuffer:
    """One contiguous vector plus its zero-copy named views.

    The vector dtype is the spec's compute dtype.  The vector may be freshly
    allocated or *donated* (e.g. a row of the cluster-level
    :class:`~repro.engine.worker_matrix.WorkerMatrix`), which is how
    per-worker buffers become rows of the ``(N, D)`` matrix without any
    copies at step time.
    """

    __slots__ = ("spec", "vector", "views")

    def __init__(self, spec: ParamSpec, vector: Optional[np.ndarray] = None) -> None:
        self.spec = spec
        if vector is None:
            vector = spec.allocate()
        self.vector = spec._check_vector(vector)
        self.views: "OrderedDict[str, np.ndarray]" = spec.views(self.vector)

    @classmethod
    def from_tree(cls, tree: Mapping[str, np.ndarray], dtype: DTypeLike = None) -> "FlatBuffer":
        spec = ParamSpec.from_tree(tree, dtype=dtype)
        buf = cls(spec)
        spec.flatten_tree(tree, out=buf.vector)
        return buf

    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> np.ndarray:
        return self.views[name]

    def __contains__(self, name: str) -> bool:
        return name in self.views

    @property
    def size(self) -> int:
        """Total number of scalars in the buffer (= ``spec.total_size``)."""
        return self.spec.total_size

    @property
    def dtype(self) -> np.dtype:
        """The buffer's compute dtype (owned by the spec)."""
        return self.spec.dtype

    def as_dict(self, copy: bool = False) -> Dict[str, np.ndarray]:
        """Named tensors; ``copy=True`` snapshots via one contiguous memcpy."""
        if not copy:
            return dict(self.views)
        return self.spec.unflatten(self.vector.copy(), copy=False)

    def load_vector(self, vector: np.ndarray) -> None:
        """Overwrite the whole buffer from another flat vector (one memcpy).

        Cross-dtype loads cast into the buffer's compute dtype.
        """
        vector = np.asarray(vector, dtype=self.spec.dtype).ravel()
        if vector.size != self.spec.total_size:
            raise ValueError(
                f"vector length {vector.size} does not match buffer D={self.spec.total_size}"
            )
        self.vector[:] = vector

    def load_tree(self, tree: Mapping[str, np.ndarray]) -> None:
        """Copy a named tensor dict into the flat vector, layout order."""
        self.spec.flatten_tree(tree, out=self.vector)

    def fill(self, value: float = 0.0) -> None:
        """Set every entry (and therefore every view) to ``value``."""
        self.vector.fill(value)

    def copy_vector(self) -> np.ndarray:
        """Detached copy of the flat vector (a cold-path snapshot)."""
        return self.vector.copy()

    def rebind(self, vector: np.ndarray) -> None:
        """Move this buffer onto new storage (e.g. a worker-matrix row).

        The current contents are copied into the new storage first.
        Existing external views of the *old* storage become stale; callers
        owning such views must re-request them.
        """
        vector = self.spec._check_vector(vector)
        if vector is not self.vector:
            vector[:] = self.vector
        self.vector = vector
        self.views = self.spec.views(vector)
