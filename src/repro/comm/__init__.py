"""Simulated communication substrate.

The original system runs over PyTorch RPC between docker containers on a
5 Gbps NIC.  Here communication is simulated in-process: the
:class:`InProcessBackend` implements the collective semantics (all-reduce,
the flags all-gather, broadcast, gather) over NumPy arrays, the
:class:`ParameterServer` implements push/pull parameter and gradient
aggregation, and the cost models translate message volumes into simulated
wall-clock seconds for parameter-server, ring-allreduce and tree topologies.
"""

from repro.comm.network import NetworkModel
from repro.comm.cost_model import (
    CommunicationCostModel,
    ps_sync_seconds,
    ring_allreduce_seconds,
    tree_allreduce_seconds,
    allgather_bits_seconds,
)
from repro.comm.backend import InProcessBackend, CommunicationRecord
from repro.comm.parameter_server import ParameterServer

__all__ = [
    "NetworkModel",
    "CommunicationCostModel",
    "ps_sync_seconds",
    "ring_allreduce_seconds",
    "tree_allreduce_seconds",
    "allgather_bits_seconds",
    "InProcessBackend",
    "CommunicationRecord",
    "ParameterServer",
]
