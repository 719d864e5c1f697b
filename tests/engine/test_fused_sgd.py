"""The cache-blocked fused SGD step against the per-worker ``SGD.step`` loop.

``FusedSGDUpdate.apply`` walks the worker matrix in blocks of at most
``SEGMENT`` elements through one segment-sized scratch vector.  Every block
runs the ufuncs of ``SGD._update_flat`` in the same order, so parameters and
velocity must equal the loop's bit for bit at every size — including the
lengths just around a segment boundary — and one step allocates at most one
segment (Nesterov's temporary) plus a few Python objects.
"""

from __future__ import annotations

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import FusedSGDUpdate, WorkerMatrix
from repro.engine.fused_optim import SEGMENT
from repro.faults.checkpoint import restore_cluster, snapshot_cluster
from repro.nn.module import Module, Parameter
from repro.optim.sgd import SGD
from tests.conftest import make_small_cluster

#: ``(weight_decay, momentum, nesterov)``: every branch of the step.
CONFIGS = [
    (0.0, 0.0, False),
    (0.0, 0.9, False),
    (0.0, 0.9, True),
    (4e-4, 0.0, False),
    (4e-4, 0.9, False),
    (4e-4, 0.9, True),
]
SIZES = [1, SEGMENT - 1, SEGMENT, SEGMENT + 1, 3 * SEGMENT + 7]
WORKER_COUNTS = [1, 3, 8]


class _Vector(Module):
    """A model that is one ``(size,)`` parameter: any D the grid needs."""

    def __init__(self, size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.w = Parameter(rng.standard_normal(size))


def _replicas(num_workers, size, dtype, weight_decay, momentum, nesterov):
    """``(workers, matrix)``: seeded replicas adopted into one worker matrix."""
    rng = np.random.default_rng(size + 1000 * num_workers)
    models = [_Vector(size, rng) for _ in range(num_workers)]
    models[0].flatten_parameters(dtype=dtype)
    matrix = WorkerMatrix(num_workers, models[0].flat_spec)
    for worker_id, model in enumerate(models):
        matrix.adopt(worker_id, model)
    workers = [
        SimpleNamespace(
            optimizer=SGD(
                model, lr=0.05, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov
            ),
            steps_taken=0,
        )
        for model in models
    ]
    return workers, matrix


def _gradients(matrix, step, shared):
    """Step ``step``'s gradients: written into ``matrix.grads`` or one shared row."""
    rng = np.random.default_rng(step)
    values = rng.standard_normal(matrix.params.shape).astype(matrix.dtype)
    if shared:
        return values[0]
    matrix.grads[:] = values
    return None


def _loop_step(workers, lr, grads):
    for worker in workers:
        worker.optimizer.set_lr(lr)
        worker.optimizer.step(grads)
        worker.steps_taken += 1


def _velocity(workers):
    return np.stack([w.optimizer._velocity_vector for w in workers])


def _assert_same_state(fused_workers, fused_matrix, loop_workers, loop_matrix, momentum):
    np.testing.assert_array_equal(fused_matrix.params, loop_matrix.params)
    if momentum:
        np.testing.assert_array_equal(_velocity(fused_workers), _velocity(loop_workers))
    assert [w.steps_taken for w in fused_workers] == [w.steps_taken for w in loop_workers]
    assert [w.optimizer.step_count for w in fused_workers] == [
        w.optimizer.step_count for w in loop_workers
    ]


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_fused_step_is_bit_equal_to_the_per_worker_loop(
    weight_decay, momentum, nesterov, shared, dtype, size, num_workers
):
    hyper = (weight_decay, momentum, nesterov)
    fused_workers, fused_matrix = _replicas(num_workers, size, dtype, *hyper)
    loop_workers, loop_matrix = _replicas(num_workers, size, dtype, *hyper)
    fused = FusedSGDUpdate.build(fused_workers, fused_matrix)
    assert fused is not None
    for step in range(3):
        lr = 0.05 * (step + 1)
        fused_grads = _gradients(fused_matrix, step, shared)
        loop_grads = _gradients(loop_matrix, step, shared)
        assert fused.apply(lr=lr, grads=fused_grads)
        _loop_step(loop_workers, lr, loop_grads)
    _assert_same_state(fused_workers, fused_matrix, loop_workers, loop_matrix, momentum)


@pytest.mark.parametrize("length", [SEGMENT, SEGMENT + 2])
def test_a_shared_gradient_of_the_wrong_length_is_refused(length):
    workers, matrix = _replicas(2, SEGMENT + 1, "float64", 0.0, 0.9, False)
    fused = FusedSGDUpdate.build(workers, matrix)
    before = matrix.params.copy()
    with pytest.raises(ValueError, match=f"flat gradient has length {length}"):
        fused.apply(lr=0.1, grads=np.ones(length))
    np.testing.assert_array_equal(matrix.params, before)


@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_fused_and_per_worker_steps_interleave_on_one_state(
    weight_decay, momentum, nesterov, shared
):
    """SSP steps workers one by one between fused steps; the state stays one."""
    hyper = (weight_decay, momentum, nesterov)
    size, num_workers = 2 * SEGMENT + 5, 3
    mixed_workers, mixed_matrix = _replicas(num_workers, size, "float64", *hyper)
    loop_workers, loop_matrix = _replicas(num_workers, size, "float64", *hyper)
    fused = FusedSGDUpdate.build(mixed_workers, mixed_matrix)
    for step in range(6):
        lr = 0.01 * (step + 1)
        mixed_grads = _gradients(mixed_matrix, step, shared)
        loop_grads = _gradients(loop_matrix, step, shared)
        if step % 2:
            _loop_step(mixed_workers, lr, mixed_grads)
        else:
            assert fused.apply(lr=lr, grads=mixed_grads)
        _loop_step(loop_workers, lr, loop_grads)
    _assert_same_state(mixed_workers, mixed_matrix, loop_workers, loop_matrix, momentum)


def _cluster_steps(cluster, steps):
    """Steps ``steps`` of one schedule: even steps own, odd steps averaged gradients."""
    for step in steps:
        cluster.compute_gradients_all([w.next_batch() for w in cluster.workers])
        grads = cluster.matrix.grads.mean(axis=0) if step % 2 else None
        cluster.apply_local_updates(lr=0.05, grads=grads)
    return cluster.matrix.params.copy(), _velocity(cluster.workers)


def test_checkpoint_restore_mid_run_replays_bit_identically():
    # width 2100 makes D ≈ 44k: the own-gradient walk and each shared-gradient
    # row both cross a segment boundary.
    cluster = make_small_cluster(num_workers=3, momentum=0.9, width=2100)
    assert cluster.matrix.spec.total_size > SEGMENT
    _cluster_steps(cluster, range(3))
    checkpoint = snapshot_cluster(cluster)
    params, velocity = _cluster_steps(cluster, range(3, 7))
    restore_cluster(cluster, checkpoint)
    replayed = _cluster_steps(cluster, range(3, 7))
    np.testing.assert_array_equal(replayed[0], params)
    np.testing.assert_array_equal(replayed[1], velocity)

    loop = make_small_cluster(num_workers=3, momentum=0.9, width=2100)
    loop.fused_update = None
    loop_params, loop_velocity = _cluster_steps(loop, range(7))
    np.testing.assert_array_equal(loop_params, params)
    np.testing.assert_array_equal(loop_velocity, velocity)


@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_one_step_allocates_at_most_one_segment(weight_decay, momentum, nesterov, shared):
    num_workers, size = 3, 3 * SEGMENT + 7
    workers, matrix = _replicas(num_workers, size, "float64", weight_decay, momentum, nesterov)
    fused = FusedSGDUpdate.build(workers, matrix)
    grads = _gradients(matrix, 0, shared)
    assert fused.apply(lr=0.05, grads=grads)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert fused.apply(lr=0.05, grads=grads)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    segment_bytes = SEGMENT * matrix.dtype.itemsize
    whole_matrix_bytes = matrix.params.nbytes
    assert segment_bytes < whole_matrix_bytes // 4
    assert peak <= segment_bytes + 16 * 1024, f"one step peaked at {peak} bytes"


@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_owns_no_worker_matrix_sized_array_but_velocity(weight_decay, momentum, nesterov):
    workers, matrix = _replicas(3, 3 * SEGMENT + 7, "float64", weight_decay, momentum, nesterov)
    fused = FusedSGDUpdate.build(workers, matrix)
    large = {
        name
        for name, value in vars(fused).items()
        if isinstance(value, np.ndarray) and value.size > SEGMENT
    }
    assert large == ({"velocity"} if momentum else set())
    if momentum:
        assert fused.velocity.shape == matrix.params.shape
    # The prebuilt blocks are views of the matrix, the velocity and the scratch.
    views = [
        array
        for blocks in (fused._own_blocks, fused._shared_blocks)
        for block in blocks
        for array in block
        if isinstance(array, np.ndarray)
    ]
    assert views and not any(view.flags.owndata for view in views)
