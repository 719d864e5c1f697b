"""BSP with gradient compression: the §II-D family as a runnable baseline.

Every step each worker compresses its gradient, the (decompressed) gradients
are averaged, and every worker applies the averaged update together with an
error-feedback residual (the standard trick that keeps biased compressors
like top-k convergent).  Synchronization time is scaled down by the measured
compression ratio, so the ablation bench can compare communication volume and
wall-clock against SelSync.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.algorithms.base import BaseTrainer
from repro.cluster.cluster import SimulatedCluster
from repro.compression.base import Compressor
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.signsgd import SignSGDCompressor
from repro.compression.topk import TopKCompressor
from repro.optim.schedules import LRSchedule

#: A compressor spec's ``kind`` (the compressor's name) -> its class; the
#: spec's other keys are the class's keywords.
COMPRESSORS = {cls.name: cls for cls in (TopKCompressor, SignSGDCompressor, PowerSGDCompressor)}


def build_compressor(spec: Union[Compressor, Mapping[str, Any]]) -> Compressor:
    """The compressor a ``compressor`` param names.

    Either a built :class:`Compressor` or a JSON spec such as
    ``{"kind": "topk", "ratio": 0.1}``, ``{"kind": "signsgd"}`` or
    ``{"kind": "powersgd", "rank": 2}``.  A bad spec is a ``ValueError``.
    """
    if isinstance(spec, Compressor):
        return spec
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in COMPRESSORS:
        raise ValueError(f"compressor kind must be one of {sorted(COMPRESSORS)}, got {kind!r}")
    try:
        return COMPRESSORS[kind](**spec)
    except TypeError as exc:
        raise ValueError(f"bad {kind} compressor spec {spec}: {exc}") from None


class CompressedBSPTrainer(BaseTrainer):
    """Per-step gradient aggregation with a pluggable compressor and error feedback."""

    name = "compressed_bsp"
    #: The compressor carries state too (PowerSGD's warm start and RNG).
    checkpointed = BaseTrainer.checkpointed + ("_residuals", "_ratio_history", "compressor")

    def __init__(
        self,
        cluster: SimulatedCluster,
        compressor: Union[Compressor, dict],
        lr_schedule: Optional[LRSchedule] = None,
        eval_every: int = 50,
        error_feedback: bool = True,
    ) -> None:
        super().__init__(cluster, lr_schedule=lr_schedule, eval_every=eval_every)
        self.compressor = build_compressor(compressor)
        self.error_feedback = bool(error_feedback)
        self._residuals: List[Optional[np.ndarray]] = [None] * cluster.num_workers
        self._ratio_history: List[float] = []

    @classmethod
    def check_params(cls, *, compressor: Union[Compressor, dict], **_: Any) -> None:
        build_compressor(compressor)

    def describe(self) -> str:
        return f"bsp+{self.compressor.name}"

    def result_extras(self) -> Dict[str, float]:
        mean_ratio = float(np.mean(self._ratio_history)) if self._ratio_history else 1.0
        return {"mean_compression_ratio": mean_ratio}

    def reduce_gradients(self) -> np.ndarray:
        """Compress every worker's gradient (plus its residual), average the
        reconstructions and charge the compressed transfer."""
        cluster = self.cluster
        compressed_vectors = []
        total_ratio = 0.0
        for worker_id in cluster.active_indices:
            # Gradients arrive as the worker's flat buffer row — compressors
            # operate on flat vectors, so no per-step re-flattening happens.
            flat = cluster.workers[worker_id].grad_vector
            if self.error_feedback and self._residuals[worker_id] is not None:
                flat = flat + self._residuals[worker_id]
            payload = self.compressor.compress(flat)
            reconstructed = self.compressor.decompress(payload)
            if self.error_feedback:
                self._residuals[worker_id] = flat - reconstructed
            compressed_vectors.append(reconstructed)
            total_ratio += payload.compression_ratio
        mean_ratio = total_ratio / cluster.num_active
        self._ratio_history.append(mean_ratio)

        # Charge a full sync scaled down by the achieved compression ratio.
        # The compressor's payload bytes already reflect the true wire
        # format (sign bits ship 1/8 byte per element, top-k its values and
        # indices, ...), so the cost model's transport-dtype scale must not
        # discount them again.
        cluster.charge_sync(
            cluster.workload_spec.model_bytes / max(mean_ratio, 1.0), scale_transport=False
        )
        cluster.backend.record.record(
            "compressed_allreduce",
            2.0 * cluster.workers[0].model.parameter_bytes() / max(mean_ratio, 1.0)
            * cluster.num_active,
        )
        return np.mean(compressed_vectors, axis=0)

    def global_state(self):
        return self.cluster.primary_worker.get_state()
