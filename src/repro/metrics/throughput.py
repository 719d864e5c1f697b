"""Parallel-efficiency metrics: relative throughput and scaling efficiency (Fig. 1a)."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cluster.compute_model import ComputeCostModel, WorkloadSpec
from repro.comm.cost_model import CommunicationCostModel


def relative_throughput(
    spec: WorkloadSpec,
    num_workers: int,
    batch_size: int,
    comm: CommunicationCostModel,
    compute: ComputeCostModel | None = None,
) -> float:
    """Cluster throughput relative to a single worker under per-step synchronization.

    Single-worker throughput is ``b / t_c``; an N-worker BSP/PS cluster
    processes ``N * b`` samples per step of duration ``t_c + t_s(N)``, so the
    relative throughput is ``N * t_c / (t_c + t_s(N))`` — the quantity plotted
    in Fig. 1a.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    compute = compute or ComputeCostModel(spec)
    t_c = compute.step_seconds(batch_size)
    t_s = comm.sync_seconds(spec.model_bytes, num_workers)
    single = batch_size / t_c
    cluster = num_workers * batch_size / (t_c + t_s)
    return cluster / single


def throughput_curve(
    spec: WorkloadSpec,
    worker_counts: Sequence[int],
    batch_size: int,
    comm: CommunicationCostModel,
) -> Dict[int, float]:
    """Relative throughput for each cluster size (one Fig. 1a series)."""
    return {
        int(n): relative_throughput(spec, int(n), batch_size, comm) for n in worker_counts
    }
