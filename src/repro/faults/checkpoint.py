"""Full-cluster checkpoint/restore as a handful of contiguous copies.

The flat-buffer engine keeps every replica's parameters and gradients as
rows of one ``(N, D)`` matrix, the optimizer state as rows of the fused
update's matrices, and the parameter server's state as one more flat
vector — so a :class:`ClusterCheckpoint` is nothing more than a few
``ndarray.copy()`` calls plus small scalar state (clocks, RNG streams,
loader cursors, byte counters).  Restoring writes the copies back in place:
no object graph is rebuilt, every live view stays valid.

:func:`snapshot_cluster` / :func:`restore_cluster` are duck-typed against
:class:`~repro.cluster.cluster.SimulatedCluster` (imported nowhere here, so
``repro.faults`` stays import-light); :func:`restore_worker` restores a
single worker's slice of a checkpoint, which is how rejoin-from-checkpoint
is implemented by the :class:`~repro.faults.controller.FaultController`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.layers import Dropout


def _rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    return copy.deepcopy(rng.bit_generator.state)


def _set_rng_state(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    rng.bit_generator.state = copy.deepcopy(state)


def _loader_state(loader: Any) -> Dict[str, Any]:
    return {
        "indices": loader.indices.copy(),
        "cursor": loader._cursor,
        "epoch": loader._epoch,
        "rng": _rng_state(loader._rng),
    }


def _dropout_rngs(model: Any) -> List[np.random.Generator]:
    """The mask generators of a replica's dropout layers.

    They are the only dropout state: the per-worker loop and the batched
    executor both draw each replica's masks from them.
    """
    return [m._rng for _, m in model.named_modules() if isinstance(m, Dropout)]


def _restore_loader(loader: Any, state: Dict[str, Any]) -> None:
    loader.indices[:] = state["indices"]
    loader._cursor = state["cursor"]
    loader._epoch = state["epoch"]
    _set_rng_state(loader._rng, state["rng"])


@dataclass
class ClusterCheckpoint:
    """A point-in-time snapshot of the complete simulated-cluster state.

    Everything a bit-identical continuation needs: the ``(N, D)`` parameter
    and gradient matrices, the fused update's state arrays (velocity, or
    Adam's moments and per-row step counts), the parameter-server vector and
    its accounting, the simulated clock, backend byte counters, per-worker
    data-loader positions and RNG streams, the dropout-mask generators of
    every replica, the evaluation RNG, and the elastic worker mask.  The lr
    is not state: a step's lr is the optimizer's times the schedule's factor
    for the restored step.
    """

    step: int
    params: np.ndarray
    grads: np.ndarray
    update_state: Dict[str, np.ndarray]
    worker_last_loss: List[Optional[float]]
    loader_states: List[Dict[str, Any]]
    dropout_rng_states: List[List[Dict[str, Any]]]
    ps_state: np.ndarray
    ps_version: int
    ps_pushed_bytes: float
    ps_pulled_bytes: float
    ps_aggregations: int
    clock_worker_time: np.ndarray
    clock_buckets: Dict[str, float]
    backend_total_bytes: float
    backend_calls: Dict[str, int]
    backend_bytes_by_op: Dict[str, float]
    eval_rng_state: Dict[str, Any]
    active_mask: np.ndarray
    fault_speed_scale: np.ndarray
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_workers(self) -> int:
        return int(self.params.shape[0])


def snapshot_cluster(cluster: Any) -> ClusterCheckpoint:
    """Copy the full cluster state into a :class:`ClusterCheckpoint`."""
    return ClusterCheckpoint(
        step=int(cluster.global_step),
        params=cluster.matrix.params.copy(),
        grads=cluster.matrix.grads.copy(),
        update_state={k: a.copy() for k, a in cluster.fused_update.state.items()},
        worker_last_loss=[w.last_loss for w in cluster.workers],
        loader_states=[_loader_state(w.loader) for w in cluster.workers],
        dropout_rng_states=[
            [_rng_state(rng) for rng in _dropout_rngs(w.model)] for w in cluster.workers
        ],
        ps_state=cluster.ps.state_vector.copy(),
        ps_version=int(cluster.ps.version),
        ps_pushed_bytes=float(cluster.ps.total_pushed_bytes),
        ps_pulled_bytes=float(cluster.ps.total_pulled_bytes),
        ps_aggregations=int(cluster.ps.aggregations),
        clock_worker_time=cluster.clock.worker_time.copy(),
        clock_buckets=dict(cluster.clock.buckets),
        backend_total_bytes=float(cluster.backend.record.total_bytes),
        backend_calls=dict(cluster.backend.record.calls),
        backend_bytes_by_op=dict(cluster.backend.record.bytes_by_op),
        eval_rng_state=_rng_state(cluster._eval_rng),
        active_mask=cluster.active_mask.copy(),
        fault_speed_scale=cluster.fault_speed_scale.copy(),
    )


def restore_cluster(cluster: Any, ckpt: ClusterCheckpoint) -> None:
    """Write a checkpoint back onto the cluster, in place.

    Every buffer is restored through its live view (no rebinding), so
    adopted modules, fused optimizers and shared-memory storage all see the
    restored state immediately.
    """
    if ckpt.num_workers != cluster.num_workers:
        raise ValueError(
            f"checkpoint holds {ckpt.num_workers} workers "
            f"but the cluster has {cluster.num_workers}"
        )
    cluster.global_step = ckpt.step
    cluster.matrix.params[:] = ckpt.params
    cluster.matrix.grads[:] = ckpt.grads
    for worker_id in range(ckpt.num_workers):
        restore_worker(cluster, ckpt, worker_id, sync_params=False)
        rngs = _dropout_rngs(cluster.workers[worker_id].model)
        for rng, state in zip(rngs, ckpt.dropout_rng_states[worker_id]):
            _set_rng_state(rng, state)
    ps = cluster.ps
    ps.state_vector[:] = ckpt.ps_state
    ps.version = ckpt.ps_version
    ps.total_pushed_bytes = ckpt.ps_pushed_bytes
    ps.total_pulled_bytes = ckpt.ps_pulled_bytes
    ps.aggregations = ckpt.ps_aggregations
    cluster.clock.worker_time[:] = ckpt.clock_worker_time
    cluster.clock.buckets = dict(ckpt.clock_buckets)
    record = cluster.backend.record
    record.total_bytes = ckpt.backend_total_bytes
    record.calls = dict(ckpt.backend_calls)
    record.bytes_by_op = dict(ckpt.backend_bytes_by_op)
    _set_rng_state(cluster._eval_rng, ckpt.eval_rng_state)
    cluster.active_mask[:] = ckpt.active_mask
    cluster.fault_speed_scale[:] = ckpt.fault_speed_scale


def restore_worker(
    cluster: Any, ckpt: ClusterCheckpoint, worker_id: int, sync_params: bool = True
) -> None:
    """Restore one worker's slice of a checkpoint (rejoin-from-checkpoint).

    ``sync_params=False`` skips the parameter row (the full-cluster restore
    assigns the whole matrix in one copy; a rejoin typically follows up with
    a fresh parameter-server pull anyway).  A rejoining worker keeps
    drawing dropout masks from its live generators (a crashed row draws
    none); only the full restore rewinds them.
    """
    worker = cluster.workers[worker_id]
    if sync_params:
        cluster.matrix.params[worker_id] = ckpt.params[worker_id]
    for name, array in cluster.fused_update.state.items():
        array[worker_id] = ckpt.update_state[name][worker_id]
    worker.last_loss = ckpt.worker_last_loss[worker_id]
    _restore_loader(worker.loader, ckpt.loader_states[worker_id])
