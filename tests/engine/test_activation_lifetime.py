"""Activation lifetime of the batched executor and of evaluation.

One rule (ARCHITECTURE.md, "Activation lifetime"): a temporary is updated in
place, and a backward cache is dropped by the ``backward`` that consumes it.
NumPy reports its allocations to ``tracemalloc``, so the memory assertions
here are deterministic — no RSS sampling.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc

import numpy as np
import pytest

from repro.engine import BatchedReplicaExecutor, WorkerMatrix
from repro.engine import replica_exec as rx
from repro.engine import threads
from repro.harness.experiment import build_cluster, build_workload, make_trainer
from repro.nn.losses import cross_entropy_with_logits
from tests.engine.test_replica_shards import make_tanh_cluster

MIB = 2**20

#: ndarray attributes a ``_Batched*`` layer may hold between steps although
#: they are not parameter / gradient views: step-independent constants, and
#: the cluster's live worker mask.
CONSTANTS = {
    ("_BatchedDropout", "live"),
    ("_BatchedEmbedding", "_rows"),
    ("_BatchedPositionalEncoding", "pe"),
    ("_BatchedPositionalEncoding", "_pe_cast"),
    ("_BatchedSelfAttention", "_causal_mask"),
}


def _batched_layers(obj):
    """Every ``_Batched*`` object reachable from ``obj`` (an executor or layer).

    For an executor that is every shard chain it has built, not only the
    full-matrix one.
    """
    if isinstance(obj, BatchedReplicaExecutor):
        children = [
            layer for shards in obj._chains.values() for _, _, chain in shards for layer in chain
        ]
    else:
        children = vars(obj).values()
    for child in children:
        if type(child).__name__.startswith("_Batched"):
            yield child
            yield from _batched_layers(child)


def _assert_holds_no_activation(exe: BatchedReplicaExecutor, matrix: WorkerMatrix) -> None:
    layers = list(_batched_layers(exe))
    assert layers
    for layer in layers:
        name = type(layer).__name__
        for attr, value in vars(layer).items():
            if attr == "_cache":
                assert value is None, f"{name}._cache survived the step"
            elif isinstance(value, np.ndarray) and (name, attr) not in CONSTANTS:
                assert np.shares_memory(value, matrix.params) or np.shares_memory(
                    value, matrix.grads
                ), f"{name}.{attr} holds an array that is not a parameter/gradient view"


def _retained_by_one_step(exe: BatchedReplicaExecutor, batches) -> int:
    assert exe.step(batches) is not None   # warm-up: index grids, causal masks
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert exe.step(batches) is not None
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestNothingSurvivesAStep:
    @pytest.mark.parametrize(
        "workload,num_workers", [("transformer", 8), ("deep_mlp", 16), ("alexnet", 4)]
    )
    def test_preset_step_retains_no_activation(self, workload, num_workers):
        cluster = build_cluster(build_workload(workload), num_workers=num_workers, seed=7)
        exe = cluster.replica_exec
        assert exe is not None
        retained = _retained_by_one_step(exe, cluster.next_batches())
        assert retained < MIB, f"{retained / MIB:.2f} MiB retained by one step"
        _assert_holds_no_activation(exe, cluster.matrix)

    def test_tanh_mlp_step_retains_no_activation(self):
        cluster = make_tanh_cluster()
        try:
            exe = cluster.replica_exec
            assert exe is not None
            assert _retained_by_one_step(exe, cluster.next_batches()) < MIB
            _assert_holds_no_activation(exe, cluster.matrix)
        finally:
            cluster.close()


class TestAFailedStepLeavesNothingBehind:
    """A shard that raises is joined with the others, re-raised on the
    caller's thread, and no chain keeps a cache; the next step works."""

    @pytest.fixture
    def sharded(self, monkeypatch):
        if threads.pin_blas() is None:
            pytest.skip("no OpenBLAS this process can pin to one thread")
        monkeypatch.setattr(rx, "MIN_SHARD_ELEMENTS", 1)
        monkeypatch.setattr(threads, "usable_cores", lambda: 2)
        cluster = build_cluster(build_workload("transformer"), num_workers=5, seed=7)
        batches = cluster.next_batches()
        exe = cluster.replica_exec
        reference = exe.step(batches).copy(), cluster.matrix.grads.copy()
        assert sorted(exe._chains) == [1, 2]
        yield exe, cluster, batches, reference
        cluster.close()

    @pytest.mark.parametrize("phase", ["forward", "backward"])
    @pytest.mark.parametrize("shard", [0, 1])
    def test_one_shard_raising(self, sharded, shard, phase):
        exe, cluster, batches, (losses, grads) = sharded
        encoder = exe._chains[2][shard][2][3]      # second encoder block of that shard
        caller = threading.get_ident()
        seen = []

        def boom(*_):
            seen.append(threading.get_ident())
            raise FloatingPointError("shard failed")

        setattr(encoder, phase, boom)               # shadows the method on this one layer
        try:
            with pytest.raises(FloatingPointError, match="shard failed"):
                exe.step(batches)
        finally:
            delattr(encoder, phase)
        assert (seen == [caller]) == (shard == 0)   # shard 0 runs on the caller, 1 on the pool
        _assert_holds_no_activation(exe, cluster.matrix)
        np.testing.assert_array_equal(exe.step(batches), losses)
        np.testing.assert_array_equal(cluster.matrix.grads, grads)

    def test_every_shard_raising(self, sharded):
        exe, cluster, batches, (losses, grads) = sharded
        too_long = tuple(np.tile(block, (1, 1, 40)) for block in batches)
        with pytest.raises(ValueError, match="exceeds positional table"):
            exe.step(too_long)                      # after each shard's embedding cached its ids
        _assert_holds_no_activation(exe, cluster.matrix)
        np.testing.assert_array_equal(exe.step(batches), losses)
        np.testing.assert_array_equal(cluster.matrix.grads, grads)

    def test_rejected_targets_leave_no_cache(self, sharded):
        exe, cluster, batches, (losses, grads) = sharded
        with pytest.raises(ValueError, match="targets"):
            exe.step((batches[0], batches[1][:, :, :-1]))
        _assert_holds_no_activation(exe, cluster.matrix)
        np.testing.assert_array_equal(exe.step(batches), losses)
        np.testing.assert_array_equal(cluster.matrix.grads, grads)


class TestEvaluationPeak:
    def test_transformer_evaluate_peaks_below_two_logits_blocks(self):
        preset = build_workload("transformer")
        cluster = build_cluster(preset, num_workers=8, seed=7)
        trainer = make_trainer("selsync", cluster, preset, 100, delta=0.25)
        result = trainer.evaluate()              # warm-up: causal mask, caches
        _, targets = cluster.test_dataset[np.arange(result.num_samples)]
        vocab = cluster.workers[0].model.vocab_size
        logits_bytes = targets.size * vocab * cluster.matrix.dtype.itemsize
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            again = trainer.evaluate()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert again.loss == result.loss
        assert peak <= 2.0 * logits_bytes, f"{peak / logits_bytes:.2f} x the logits block"


class TestBatchedCrossEntropy:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", [(3, 5, 7), (2, 4 * 6, 11)])
    def test_bit_equal_to_per_replica_loss(self, dtype, shape):
        # (2, 4*6, 11) is the folded language-model case: (N, B*T, V).
        rng = np.random.default_rng(0)
        logits = (rng.standard_normal(shape) * 4).astype(dtype)
        targets = rng.integers(0, shape[-1], size=shape[:2])
        reference = [cross_entropy_with_logits(logits[i], targets[i]) for i in range(shape[0])]
        losses, grad = rx._batched_cross_entropy(logits.copy(), targets)
        assert grad.dtype == logits.dtype
        for i, (ref_loss, ref_grad) in enumerate(reference):
            assert float(losses[i]) == ref_loss
            np.testing.assert_array_equal(grad[i], ref_grad)


def _views(rng, *shape):
    return rng.standard_normal(shape), np.zeros(shape)


def _linear(rng, n, out_f, in_f):
    return rx._BatchedLinear(*_views(rng, n, out_f, in_f), *_views(rng, n, out_f))


def _attention(rng, n, d):
    return rx._BatchedSelfAttention(
        *(_linear(rng, n, d, d) for _ in range(4)), num_heads=2, d_head=d // 2, causal=True
    )


def _layer_cases():
    """name -> (factory, input block), one per ``_Batched*`` class that caches."""
    rng = np.random.default_rng(0)
    n, b, t, d = 2, 3, 4, 6
    seq = rng.standard_normal((n, b, t, d))
    ids = rng.integers(0, 9, size=(n, b, t))

    def norm():
        return rx._BatchedLayerNorm(*_views(rng, n, d), *_views(rng, n, d), eps=1e-5)

    def encoder():
        # Delegates to its sub-layers, so its error names the inner layer.
        return rx._BatchedEncoderLayer(
            norm(), _attention(rng, n, d), norm(),
            _linear(rng, n, 8, d), rx._BatchedReLU(), _linear(rng, n, d, 8),
        )

    return {
        "Linear": (lambda: _linear(rng, n, 5, d), seq),
        "ReLU": (rx._BatchedReLU, seq),
        "Tanh": (rx._BatchedTanh, seq),
        "Dropout": (
            lambda: rx._BatchedDropout(
                [np.random.default_rng(row) for row in range(n)], np.ones(n, bool), 0.5
            ),
            seq,
        ),
        "Embedding": (lambda: rx._BatchedEmbedding(*_views(rng, n, 9, d)), ids),
        "LayerNorm": (norm, seq),
        "SelfAttention": (lambda: _attention(rng, n, d), seq),
        "EncoderLayer": (encoder, seq),
    }


class TestBackwardNeedsItsForward:
    @pytest.mark.parametrize("name", sorted(_layer_cases()))
    def test_backward_before_forward_or_twice_raises(self, name):
        factory, x = _layer_cases()[name]
        pattern = r"_Batched\w+\.backward called before forward"
        layer = factory()
        grad = np.ones_like(factory().forward(x))
        with pytest.raises(RuntimeError, match=pattern):
            layer.backward(grad)
        layer.forward(x)
        layer.backward(grad)
        with pytest.raises(RuntimeError, match=pattern):
            layer.backward(grad)

    def test_embedding_backward_returns_no_input_gradient(self):
        rng = np.random.default_rng(0)
        layer = rx._BatchedEmbedding(*_views(rng, 2, 9, 6))
        out = layer.forward(rng.integers(0, 9, size=(2, 3, 4)))
        assert layer.backward(np.ones_like(out)) is None
