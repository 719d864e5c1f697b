"""Batched transformer-family execution vs the per-worker fallback loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchedReplicaExecutor, WorkerMatrix
from repro.nn.losses import cross_entropy_with_logits
from repro.nn.models import TransformerLM
from repro.utils.rng import spawn_rngs
from tests.engine.test_activation_lifetime import _assert_holds_no_activation

DTYPES = ["float32", "float64"]
N, B, T, V = 3, 4, 8, 20
MODEL_KW = dict(
    vocab_size=V, d_model=16, num_heads=2, num_layers=2, dim_feedforward=24, max_len=64
)


def build(matrix, models):
    """The executor over ``models`` with every row live (or None)."""
    return BatchedReplicaExecutor.build(matrix, models, np.ones(len(models), dtype=bool))


def make_model(rng, dropout: float = 0.0):
    return TransformerLM(dropout=dropout, rng=rng, **MODEL_KW)


def make_matrix(dtype, dropout: float = 0.0):
    rngs = spawn_rngs(0, N)
    models = [make_model(r, dropout=dropout) for r in rngs]
    models[0].flatten_parameters(dtype=dtype)
    matrix = WorkerMatrix(N, models[0].flat_spec)
    for i, model in enumerate(models):
        matrix.adopt(i, model)
    return matrix, models


def make_batches(seed=1):
    """One ``(N, B, T)`` token block and its ``(N, B, T)`` targets."""
    rng = np.random.default_rng(seed)
    rows = [
        (rng.integers(0, V, size=(B, T)), rng.integers(0, V, size=(B, T)))
        for _ in range(N)
    ]
    return np.stack([x for x, _ in rows]), np.stack([y for _, y in rows])


class TestBuild:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_builds_for_transformer_lm(self, dtype):
        matrix, models = make_matrix(dtype)
        assert build(matrix, models) is not None

    def test_subclass_falls_back(self):
        class CustomLM(TransformerLM):
            pass

        model = CustomLM(**MODEL_KW)
        model.flatten_parameters()
        matrix = WorkerMatrix(1, model.flat_spec)
        matrix.adopt(0, model)
        assert build(matrix, [model]) is None

    def test_active_dropout_builds(self):
        # Active dropout batches on the layers' own generators (parity in
        # tests/engine/test_batched_dropout.py).
        matrix, models = make_matrix("float64", dropout=0.2)
        assert build(matrix, models) is not None


class TestStep:
    def test_bit_identical_to_per_worker_loop_in_float64(self):
        matrix, models = make_matrix("float64")
        exe = build(matrix, models)
        batches = make_batches()
        losses = exe.step(batches)
        assert losses is not None and losses.shape == (N,)
        for i, (x, y) in enumerate(zip(*batches)):
            ref = make_model(np.random.default_rng(0))
            ref.flatten_parameters()
            ref.load_param_vector(matrix.params[i])
            ref.zero_grad()
            logits = ref.forward(x)
            loss, dlogits = cross_entropy_with_logits(logits, y)
            ref.backward(dlogits)
            # The executor milestone's bar: bit-identical float64 arithmetic
            # (same GEMM shapes, same reduction orders as the fallback).
            assert float(losses[i]) == loss
            np.testing.assert_array_equal(matrix.grads[i], ref.grad_vector)

    def test_matches_per_worker_loop_in_float32(self):
        matrix, models = make_matrix("float32")
        exe = build(matrix, models)
        batches = make_batches()
        losses = exe.step(batches)
        assert losses is not None
        for i, (x, y) in enumerate(zip(*batches)):
            ref = make_model(np.random.default_rng(0))
            ref.flatten_parameters(dtype="float32")
            ref.load_param_vector(matrix.params[i])
            ref.zero_grad()
            logits = ref.forward(x)
            loss, dlogits = cross_entropy_with_logits(logits, y)
            ref.backward(dlogits)
            assert loss == pytest.approx(float(losses[i]), rel=1e-5)
            np.testing.assert_allclose(
                matrix.grads[i], ref.grad_vector, rtol=2e-4, atol=2e-6
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gradients_written_in_matrix_dtype(self, dtype):
        matrix, models = make_matrix(dtype)
        exe = build(matrix, models)
        assert exe.step(make_batches()) is not None
        assert matrix.grads.dtype == np.dtype(dtype)
        assert np.isfinite(matrix.grads).all() and matrix.grads.any()

    def test_embedding_rows_rezeroed_between_steps(self):
        # The embedding gradient is scatter-added, not matmul-overwritten;
        # a second step must not accumulate on top of the first.
        matrix, models = make_matrix("float64")
        exe = build(matrix, models)
        batches = make_batches()
        exe.step(batches)
        first = matrix.grads.copy()
        exe.step(batches)
        np.testing.assert_array_equal(matrix.grads, first)

    @pytest.mark.parametrize(
        "kind", ["count", "target_shape", "target_rows"]
    )
    def test_mismatched_blocks_raise(self, kind):
        matrix, models = make_matrix("float64")
        exe = build(matrix, models)
        x, y = make_batches()
        bad = {
            "count": (x[1:], y[1:]),
            "target_shape": (x, y[:, :, :-1]),
            "target_rows": (x, y[1:]),
        }[kind]
        with pytest.raises(ValueError, match="expected an|cannot batch"):
            exe.step(bad)
        _assert_holds_no_activation(exe, matrix)

    def test_float_inputs_raise(self):
        matrix, models = make_matrix("float64")
        exe = build(matrix, models)
        rng = np.random.default_rng(2)
        float_batches = (rng.standard_normal((N, B, T)), rng.integers(0, V, size=(N, B, T)))
        with pytest.raises(ValueError, match="token inputs must be integers"):
            exe.step(float_batches)
        _assert_holds_no_activation(exe, matrix)


class TestClusterIntegration:
    @staticmethod
    def _make_cluster(dtype):
        from repro.cluster.cluster import ClusterConfig, SimulatedCluster
        from repro.data.datasets import make_sequence_splits
        from repro.data.partition import SelSyncPartitioner
        from repro.optim.sgd import SGD

        train, test = make_sequence_splits(4096, 512, V, bptt=T, seed=0)
        config = ClusterConfig(
            num_workers=2,
            batch_size=4,
            seed=0,
            task="language_modeling",
            workload="transformer",
            dtype=dtype,
            eval_max_batches=1,
        )
        return SimulatedCluster(
            model_factory=lambda r: make_model(r),
            optimizer_factory=lambda m: SGD(m, lr=0.1),
            train_dataset=train,
            test_dataset=test,
            config=config,
            partitioner=SelSyncPartitioner(seed=0),
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_lm_cluster_uses_batched_executor(self, dtype):
        from repro.algorithms.bsp import BSPTrainer

        cluster = self._make_cluster(dtype)
        assert cluster.replica_exec is not None
        trainer = BSPTrainer(cluster, eval_every=10_000)
        losses = [trainer.train_step()["loss"] for _ in range(3)]
        assert all(np.isfinite(losses))

    def test_training_trajectory_matches_fallback_loop(self):
        from repro.algorithms.bsp import BSPTrainer

        fused = self._make_cluster("float64")
        loop = self._make_cluster("float64")
        loop.replica_exec = None
        for cluster in (fused, loop):
            trainer = BSPTrainer(cluster, eval_every=10_000)
            for _ in range(5):
                trainer.train_step()
                trainer.global_step += 1
                cluster.global_step = trainer.global_step
        np.testing.assert_array_equal(fused.matrix.params, loop.matrix.params)

    def test_worker_stats_populated(self):
        cluster = self._make_cluster("float64")
        losses = cluster.compute_gradients_all(cluster.next_batches())
        for worker, loss in zip(cluster.workers, losses):
            assert worker.last_loss is not None and np.isfinite(worker.last_loss)
            assert worker.last_loss == loss


def test_sequence_longer_than_positional_table_raises():
    # Same explicit error as the per-worker PositionalEncoding.
    short_kw = dict(MODEL_KW, max_len=4)
    rngs = spawn_rngs(0, N)
    models = [TransformerLM(dropout=0.0, rng=r, **short_kw) for r in rngs]
    models[0].flatten_parameters()
    matrix = WorkerMatrix(N, models[0].flat_spec)
    for i, model in enumerate(models):
        matrix.adopt(i, model)
    exe = build(matrix, models)
    with pytest.raises(ValueError, match="exceeds positional table"):
        exe.step(make_batches())
