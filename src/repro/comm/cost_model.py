"""Topology-aware synchronization cost models.

These functions compute the simulated synchronization time ``t_s`` for one
aggregation round, given the model size in bytes, the cluster size and the
:class:`~repro.comm.network.NetworkModel`.

* **Parameter server (PS)** — every worker pushes its update to the central
  server and pulls the averaged state back.  The server NIC is the
  bottleneck: it must ingest ``N * model_bytes`` and egress the same amount,
  so the cost grows linearly with the number of workers (this is the Fig. 1a
  scaling behaviour).
* **Ring all-reduce** — bandwidth optimal: each worker sends
  ``2 * (N-1)/N * model_bytes`` regardless of N, at the price of ``2*(N-1)``
  latency terms.
* **Tree all-reduce** — logarithmic latency, bandwidth ``2 * log2(N) * model_bytes``.
* **Flags all-gather** — the paper's synchronization-status exchange is
  ``N-1`` bits per worker and costs 2–4 ms in their measurements; we model it
  as one small message per worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import Optional

from repro.comm.network import NetworkModel
from repro.engine.dtypes import transport_scale


def ps_sync_seconds(
    model_bytes: float,
    num_workers: int,
    network: NetworkModel,
    contention: float = 0.03,
) -> float:
    """Push + pull through a central parameter server.

    Each worker pushes its full update and pulls the averaged state over its
    own NIC (the paper's testbed packs 4 GPUs per host, so transfers largely
    proceed in parallel); the shared parameter-server side adds a contention
    penalty that grows with the number of workers.  This reproduces the
    Fig. 1a behaviour: throughput keeps improving with cluster size but far
    below linearly, and the biggest model (VGG11) scales worst.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if model_bytes < 0:
        raise ValueError(f"model_bytes must be non-negative, got {model_bytes}")
    if contention < 0:
        raise ValueError(f"contention must be non-negative, got {contention}")
    if num_workers == 1:
        return 0.0
    per_worker = network.transfer_seconds(2.0 * model_bytes, num_messages=2)
    return per_worker * (1.0 + contention * (num_workers - 1))


def ring_allreduce_seconds(model_bytes: float, num_workers: int, network: NetworkModel) -> float:
    """Bandwidth-optimal ring all-reduce."""
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if model_bytes < 0:
        raise ValueError(f"model_bytes must be non-negative, got {model_bytes}")
    if num_workers == 1:
        return 0.0
    n = num_workers
    payload = 2.0 * (n - 1) / n * model_bytes
    steps = 2 * (n - 1)
    return network.transfer_seconds(payload, num_messages=steps)


def tree_allreduce_seconds(model_bytes: float, num_workers: int, network: NetworkModel) -> float:
    """Binary-tree reduce + broadcast."""
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if model_bytes < 0:
        raise ValueError(f"model_bytes must be non-negative, got {model_bytes}")
    if num_workers == 1:
        return 0.0
    depth = math.ceil(math.log2(num_workers))
    return network.transfer_seconds(2.0 * depth * model_bytes, num_messages=2 * depth)


def allgather_bits_seconds(num_workers: int, network: NetworkModel) -> float:
    """The SelSync flags all-gather: (N-1) bits per worker, latency dominated.

    Modelled as one gather + one broadcast of a byte-sized payload, so the
    cost is a couple of message latencies — the 2-4 ms the paper measures —
    independent of model size.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if num_workers == 1:
        return 0.0
    payload_bytes = max((num_workers - 1) / 8.0, 1.0) * num_workers
    return network.transfer_seconds(payload_bytes, num_messages=2)


@dataclass
class CommunicationCostModel:
    """Bundles a network model, topology and transport dtype into per-round costs.

    ``transport_dtype`` selects the wire format for *model payloads*
    (``None`` means the canonical float32 wire): ``"float16"`` halves every
    synchronization transfer, ``"float64"`` doubles it.  The flags
    all-gather (status bits) and raw point-to-point payloads are priced
    verbatim — they are not tensor payloads.
    """

    network: NetworkModel = NetworkModel()
    topology: str = "ps"
    transport_dtype: Optional[str] = None

    _TOPOLOGIES = ("ps", "ring", "tree")

    def __post_init__(self) -> None:
        if self.topology not in self._TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {self._TOPOLOGIES}"
            )
        # Raises on unknown transport dtypes; the scale is fixed per model.
        self._wire_scale = transport_scale(self.transport_dtype)

    @property
    def wire_scale(self) -> float:
        """Payload scale of the configured transport dtype (float32 = 1.0)."""
        return self._wire_scale

    def sync_seconds(
        self, model_bytes: float, num_workers: int, scale_transport: bool = True
    ) -> float:
        """Full-model aggregation round (push + pull / all-reduce).

        ``scale_transport=False`` skips the transport-dtype scale: callers
        whose byte count already reflects the true wire format (the
        compression layer prices its own payloads) must not be discounted
        a second time.
        """
        if scale_transport:
            model_bytes = model_bytes * self._wire_scale
        if self.topology == "ps":
            return ps_sync_seconds(model_bytes, num_workers, self.network)
        if self.topology == "ring":
            return ring_allreduce_seconds(model_bytes, num_workers, self.network)
        return tree_allreduce_seconds(model_bytes, num_workers, self.network)

    def flags_seconds(self, num_workers: int) -> float:
        """SelSync's per-step synchronization-status all-gather."""
        return allgather_bits_seconds(num_workers, self.network)

    def p2p_seconds(self, num_bytes: float) -> float:
        """One point-to-point transfer (used by data injection and SSP pushes)."""
        return self.network.transfer_seconds(num_bytes, num_messages=1)

    def ssp_push_pull_seconds(self, model_bytes: float) -> float:
        """Asynchronous, non-blocking push/pull of one worker's update to the PS.

        Only the single worker's transfer matters (no barrier), and in
        practice most of it overlaps with the next step's compute; the
        non-overlapped fraction is charged here.
        """
        full = self.network.transfer_seconds(
            2.0 * model_bytes * self._wire_scale, num_messages=2
        )
        return 0.25 * full
