"""Per-worker compute-time and memory models.

Two uses:

1. **Simulation** — the lockstep cluster charges each training step a
   simulated compute time ``t_c`` derived from the workload spec, the batch
   size and the worker's speed factor; combined with the communication cost
   model this produces the simulated wall-clock that Table I speedups are
   computed from.
2. **Figure 1a / Figure 2 reproduction** — the specs carry the *paper-scale*
   model sizes and V100/K80 step times, so the throughput-scaling and
   batch-size-scaling figures can be regenerated analytically without any
   GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one of the paper's workloads.

    Attributes
    ----------
    name:
        Paper model name.
    model_mb:
        Serialized model size in megabytes (determines synchronization cost).
    base_compute_ms:
        Per-step compute time at ``base_batch_size`` on the reference GPU.
    base_batch_size:
        Batch size at which ``base_compute_ms`` was measured.
    fixed_memory_gb:
        Memory footprint independent of the batch (weights, optimizer state,
        framework overhead).
    memory_per_sample_mb:
        Activation memory per sample in the batch.
    compute_setup_ms:
        Fixed per-step overhead (kernel launches, data loading).
    dataset:
        Paper dataset name the workload trains on.
    """

    name: str
    model_mb: float
    base_compute_ms: float
    base_batch_size: int
    fixed_memory_gb: float
    memory_per_sample_mb: float
    compute_setup_ms: float = 5.0
    dataset: str = ""

    @property
    def model_bytes(self) -> float:
        return self.model_mb * 1e6


#: Paper-scale workload descriptions (sizes from §II / §IV-A; step times are
#: representative of a V100 at the paper's batch sizes).
PAPER_WORKLOADS: Dict[str, WorkloadSpec] = {
    "resnet101": WorkloadSpec(
        name="resnet101", model_mb=170.0, base_compute_ms=200.0, base_batch_size=32,
        fixed_memory_gb=1.2, memory_per_sample_mb=9.0, dataset="cifar10",
    ),
    "vgg11": WorkloadSpec(
        name="vgg11", model_mb=507.0, base_compute_ms=180.0, base_batch_size=32,
        fixed_memory_gb=2.2, memory_per_sample_mb=5.0, dataset="cifar100",
    ),
    "alexnet": WorkloadSpec(
        name="alexnet", model_mb=233.0, base_compute_ms=250.0, base_batch_size=128,
        fixed_memory_gb=1.0, memory_per_sample_mb=7.0, dataset="imagenet1k",
    ),
    "transformer": WorkloadSpec(
        name="transformer", model_mb=52.0, base_compute_ms=60.0, base_batch_size=20,
        fixed_memory_gb=0.8, memory_per_sample_mb=90.0, dataset="wikitext103",
    ),
}


def memory_gigabytes(spec: WorkloadSpec, batch_size: int) -> float:
    """Worker memory footprint at a given batch size (Fig. 2b)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return spec.fixed_memory_gb + spec.memory_per_sample_mb * batch_size / 1024.0


class ComputeCostModel:
    """Simulated per-step compute time for a workload.

    ``t_c(b) = setup + base_compute * (b / base_batch) ** scaling`` divided by
    the worker's speed factor.  ``scaling`` slightly below 1 models the
    sub-linear growth GPUs show until they saturate (Fig. 2a).
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        scaling_exponent: float = 0.9,
    ) -> None:
        if not 0.1 <= scaling_exponent <= 1.5:
            raise ValueError(f"scaling_exponent out of range: {scaling_exponent}")
        self.spec = spec
        self.scaling_exponent = float(scaling_exponent)

    def step_seconds(self, batch_size: int, speed_factor: float = 1.0) -> float:
        """Compute time for one training step on one worker."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        ratio = batch_size / self.spec.base_batch_size
        variable_ms = self.spec.base_compute_ms * ratio**self.scaling_exponent
        total_ms = self.spec.compute_setup_ms + variable_ms
        return total_ms / 1000.0 / speed_factor

    def step_seconds_batch(self, batch_size: int, speed_factors) -> np.ndarray:
        """Vectorized :meth:`step_seconds` over per-worker speed factors."""
        speed_factors = np.asarray(speed_factors, dtype=np.float64)
        if np.any(speed_factors <= 0):
            raise ValueError("speed factors must be positive")
        return self.step_seconds(batch_size, 1.0) / speed_factors
