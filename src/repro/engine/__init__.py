"""Flat-buffer execution engine.

Contiguous parameter/gradient storage (:class:`FlatBuffer`), layout
descriptors (:class:`ParamSpec`), the cluster-level ``(N, D)``
:class:`WorkerMatrix` that turns aggregation, tracking, broadcast and
consistency checks into single vectorized NumPy operations, fused
whole-cluster optimizer updates (:class:`FusedSGDUpdate`,
:class:`FusedAdamUpdate`) and the compute-dtype registry
(:mod:`repro.engine.dtypes`).
"""

from repro.engine.dtypes import (
    DEFAULT_DTYPE,
    DEFAULT_TRANSPORT_DTYPE,
    SUPPORTED_DTYPES,
    TRANSPORT_DTYPES,
    WIRE_DTYPE_BYTES,
    resolve_dtype,
    resolve_transport_dtype,
    transport_dtype_bytes,
    transport_scale,
    wire_dtype_bytes,
)
from repro.engine.flat_buffer import FlatBuffer, ParamSpec
from repro.engine.fused_optim import FusedAdamUpdate, FusedSGDUpdate, build_fused_update
from repro.engine.replica_exec import BatchedReplicaExecutor
from repro.engine.worker_matrix import WorkerMatrix

__all__ = [
    "BatchedReplicaExecutor",
    "DEFAULT_DTYPE",
    "DEFAULT_TRANSPORT_DTYPE",
    "FlatBuffer",
    "FusedAdamUpdate",
    "FusedSGDUpdate",
    "ParamSpec",
    "SUPPORTED_DTYPES",
    "TRANSPORT_DTYPES",
    "WIRE_DTYPE_BYTES",
    "WorkerMatrix",
    "build_fused_update",
    "resolve_dtype",
    "resolve_transport_dtype",
    "transport_dtype_bytes",
    "transport_scale",
    "wire_dtype_bytes",
]
