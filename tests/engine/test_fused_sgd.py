"""The cache-blocked fused SGD step against standalone per-module ``SGD.step``.

``FusedSGDUpdate.apply`` walks the worker matrix in blocks of at most
``SEGMENT`` elements through one segment-sized scratch vector.  Every block
runs the ufuncs of ``SGD._update_flat`` in the same order, so parameters and
velocity must equal one ``SGD`` per replica bit for bit at every size —
including the lengths just around a segment boundary — and one step
allocates at most one segment (Nesterov's temporary) plus a few Python
objects.  Rows the active mask drops keep their parameters and velocity.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.engine import FusedSGDUpdate, WorkerMatrix, build_fused_update
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


def _replicas(num_workers, size, dtype, weight_decay, momentum, nesterov, mask=None):
    """``(fused, matrix, oracles)``: two copies of the same seeded replicas.

    ``fused`` steps the first copy's ``matrix`` under ``mask`` (all True by
    default); ``oracles`` holds one standalone ``SGD`` per replica of the
    second copy, each stepping its own row of the second matrix.
    """
    hyper = dict(lr=0.05, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
    copies = []
    for _ in range(2):
        rng = np.random.default_rng(size + 1000 * num_workers)
        models = [_Vector(size, rng) for _ in range(num_workers)]
        models[0].flatten_parameters(dtype=dtype)
        matrix = WorkerMatrix(num_workers, models[0].flat_spec)
        for worker_id, model in enumerate(models):
            matrix.adopt(worker_id, model)
        copies.append((matrix, models))
    (matrix, models), (oracle_matrix, oracle_models) = copies
    if mask is None:
        mask = np.ones(num_workers, dtype=bool)
    fused = build_fused_update(SGD(models[0], **hyper), matrix, mask)
    oracles = [SGD(model, **hyper) for model in oracle_models]
    return fused, matrix, (oracle_matrix, oracles)


def _gradients(matrix, step, shared):
    """Step ``step``'s gradients: written into ``matrix.grads`` or one shared row."""
    rng = np.random.default_rng(step)
    values = rng.standard_normal(matrix.params.shape).astype(matrix.dtype)
    if shared:
        return values[0]
    matrix.grads[:] = values
    return None


def _oracle_step(oracles, lr, grads, rows=None):
    """Per-module ``SGD.step`` at ``lr`` on ``rows`` (every replica by default)."""
    for worker_id, optimizer in enumerate(oracles):
        if rows is None or rows[worker_id]:
            optimizer.lr = lr
            optimizer.step(grads)


def _velocity(oracles):
    return np.stack([opt._velocity_vector for opt in oracles])


def _assert_same_state(fused, matrix, oracle, momentum):
    oracle_matrix, oracles = oracle
    np.testing.assert_array_equal(matrix.params, oracle_matrix.params)
    if momentum:
        np.testing.assert_array_equal(fused.velocity, _velocity(oracles))


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_fused_step_is_bit_equal_to_per_module_sgd(
    weight_decay, momentum, nesterov, shared, dtype, size, num_workers
):
    hyper = (weight_decay, momentum, nesterov)
    fused, matrix, oracle = _replicas(num_workers, size, dtype, *hyper)
    assert isinstance(fused, FusedSGDUpdate)
    for step in range(3):
        factor = float(step + 1)
        fused_grads = _gradients(matrix, step, shared)
        oracle_grads = _gradients(oracle[0], step, shared)
        fused.apply(factor, grads=fused_grads)
        _oracle_step(oracle[1], 0.05 * factor, oracle_grads)
    _assert_same_state(fused, matrix, oracle, momentum)


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("size", [7, SEGMENT + 1])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_masked_step_freezes_crashed_rows_and_steps_the_rest(
    weight_decay, momentum, nesterov, shared, dtype, size, num_workers
):
    """Each step drops every third row (a different third each time; N=1 sits one out)."""
    hyper = (weight_decay, momentum, nesterov)
    mask = np.ones(num_workers, dtype=bool)
    fused, matrix, oracle = _replicas(num_workers, size, dtype, *hyper, mask=mask)
    for step in range(4):
        mask[:] = (np.arange(num_workers) + step) % 3 != 0
        factor = float(step + 1)
        fused_grads = _gradients(matrix, step, shared)
        oracle_grads = _gradients(oracle[0], step, shared)
        frozen_params = matrix.params[~mask].copy()
        frozen_velocity = None if fused.velocity is None else fused.velocity[~mask].copy()
        fused.apply(factor, grads=fused_grads)
        _oracle_step(oracle[1], 0.05 * factor, oracle_grads, rows=mask)
        np.testing.assert_array_equal(matrix.params[~mask], frozen_params)
        if frozen_velocity is not None:
            np.testing.assert_array_equal(fused.velocity[~mask], frozen_velocity)
        _assert_same_state(fused, matrix, oracle, momentum)


@pytest.mark.parametrize("length", [SEGMENT, SEGMENT + 2])
def test_a_shared_gradient_of_the_wrong_length_is_refused(length):
    fused, matrix, _ = _replicas(2, SEGMENT + 1, "float64", 0.0, 0.9, False)
    before = matrix.params.copy()
    with pytest.raises(ValueError, match=f"flat gradient has length {length}"):
        fused.apply(grads=np.ones(length))
    np.testing.assert_array_equal(matrix.params, before)


def _cluster_steps(cluster, steps, oracles=None):
    """Steps ``steps`` of one schedule: even steps own, odd steps averaged gradients.

    With ``oracles`` (one standalone ``SGD`` per worker) they step in place of
    the cluster's fused update.  Returns the params and velocity after.
    """
    for step in steps:
        cluster.compute_gradients_all(cluster.next_batches())
        grads = cluster.matrix.grads.mean(axis=0) if step % 2 else None
        if oracles is None:
            cluster.apply_local_updates(grads=grads)
        else:
            _oracle_step(oracles, 0.05, grads)
    velocity = cluster.fused_update.velocity if oracles is None else _velocity(oracles)
    return cluster.matrix.params.copy(), velocity.copy()


def test_checkpoint_restore_mid_run_replays_bit_identically():
    # width 2100 makes D ≈ 44k: the own-gradient walk and each shared-gradient
    # row both cross a segment boundary.
    cluster = make_small_cluster(num_workers=3, momentum=0.9, lr=0.05, width=2100)
    assert cluster.matrix.spec.total_size > SEGMENT
    _cluster_steps(cluster, range(3))
    checkpoint = snapshot_cluster(cluster)
    params, velocity = _cluster_steps(cluster, range(3, 7))
    restore_cluster(cluster, checkpoint)
    replayed = _cluster_steps(cluster, range(3, 7))
    np.testing.assert_array_equal(replayed[0], params)
    np.testing.assert_array_equal(replayed[1], velocity)

    reference = make_small_cluster(num_workers=3, momentum=0.9, width=2100)
    oracles = [SGD(w.model, lr=0.05, momentum=0.9) for w in reference.workers]
    reference_params, reference_velocity = _cluster_steps(reference, range(7), oracles)
    np.testing.assert_array_equal(reference_params, params)
    np.testing.assert_array_equal(reference_velocity, velocity)


@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_one_step_allocates_at_most_one_segment(weight_decay, momentum, nesterov, shared):
    num_workers, size = 3, 3 * SEGMENT + 7
    fused, matrix, _ = _replicas(num_workers, size, "float64", weight_decay, momentum, nesterov)
    grads = _gradients(matrix, 0, shared)
    fused.apply(grads=grads)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fused.apply(grads=grads)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    segment_bytes = SEGMENT * matrix.dtype.itemsize
    whole_matrix_bytes = matrix.params.nbytes
    assert segment_bytes < whole_matrix_bytes // 4
    assert peak <= segment_bytes + 16 * 1024, f"one step peaked at {peak} bytes"


@pytest.mark.parametrize("weight_decay, momentum, nesterov", CONFIGS)
def test_owns_no_worker_matrix_sized_array_but_velocity(weight_decay, momentum, nesterov):
    fused, matrix, _ = _replicas(3, 3 * SEGMENT + 7, "float64", weight_decay, momentum, nesterov)
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
