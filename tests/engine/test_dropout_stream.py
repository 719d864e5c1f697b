"""Shared per-step dropout stream: determinism and batched/fallback parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    BatchedReplicaExecutor,
    SharedDropoutStream,
    WorkerMatrix,
    attach_shared_dropout,
    module_has_active_dropout,
)
from repro.nn.layers import Dropout
from repro.nn.losses import cross_entropy_with_logits
from repro.nn.models import MLP, TransformerLM
from repro.utils.rng import spawn_rngs

N, B, T, V = 3, 4, 8, 20
MODEL_KW = dict(
    vocab_size=V, d_model=16, num_heads=2, num_layers=2, dim_feedforward=24, max_len=64
)


class TestSharedDropoutStream:
    def test_masks_are_deterministic_per_step_and_layer(self):
        a = SharedDropoutStream(seed=5, num_workers=4)
        b = SharedDropoutStream(seed=5, num_workers=4)
        a.set_step(3)
        b.set_step(3)
        np.testing.assert_array_equal(
            a.mask_block(1, (2, 3), 0.4), b.mask_block(1, (2, 3), 0.4)
        )

    def test_masks_differ_across_steps_layers_and_seeds(self):
        stream = SharedDropoutStream(seed=5, num_workers=4)
        stream.set_step(1)
        m_layer0 = stream.mask_block(0, (8, 8), 0.4).copy()
        m_layer1 = stream.mask_block(1, (8, 8), 0.4).copy()
        assert not np.array_equal(m_layer0, m_layer1)
        stream.set_step(2)
        assert not np.array_equal(m_layer0, stream.mask_block(0, (8, 8), 0.4))
        other = SharedDropoutStream(seed=6, num_workers=4)
        other.set_step(1)
        assert not np.array_equal(m_layer0, other.mask_block(0, (8, 8), 0.4))

    def test_blocks_cached_within_step(self):
        stream = SharedDropoutStream(seed=0, num_workers=2)
        stream.set_step(1)
        assert stream.mask_block(0, (4,), 0.5) is stream.mask_block(0, (4,), 0.5)
        assert stream.worker_mask(0, (4,), 0.5, 1) is stream.worker_mask(0, (4,), 0.5, 1)

    def test_worker_mask_equals_block_row(self):
        # Per-row derivation: a per-worker consumer draws exactly the row the
        # batched block stacks — without generating the other rows.
        stream = SharedDropoutStream(seed=3, num_workers=4)
        stream.set_step(2)
        block = stream.mask_block(1, (3, 5), 0.3)
        fresh = SharedDropoutStream(seed=3, num_workers=4)
        fresh.set_step(2)
        for slot in range(4):
            np.testing.assert_array_equal(
                block[slot], fresh.worker_mask(1, (3, 5), 0.3, slot)
            )

    def test_mask_block_row_range_matches_full_block(self):
        stream = SharedDropoutStream(seed=3, num_workers=6)
        stream.set_step(1)
        full = stream.mask_block(0, (2, 2), 0.4)
        part = stream.mask_block(0, (2, 2), 0.4, lo=2, hi=5)
        np.testing.assert_array_equal(full[2:5], part)

    def test_inverted_dropout_scaling(self):
        stream = SharedDropoutStream(seed=0, num_workers=1)
        stream.set_step(1)
        block = stream.mask_block(0, (10_000,), 0.25)
        kept = block[block > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert 0.6 < kept.size / block.size < 0.9

    def test_requires_set_step(self):
        stream = SharedDropoutStream(seed=0, num_workers=1)
        with pytest.raises(RuntimeError):
            stream.mask_block(0, (4,), 0.5)

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            SharedDropoutStream(seed=0, num_workers=0)


class TestAttachSharedDropout:
    def test_attaches_every_dropout_layer_in_order(self):
        model = TransformerLM(dropout=0.2, rng=np.random.default_rng(0), **MODEL_KW)
        stream = SharedDropoutStream(seed=0, num_workers=N)
        count = attach_shared_dropout(model, stream, worker_slot=1)
        assert count == 2 * MODEL_KW["num_layers"]
        layer_ids = [
            sub._stream_layer_id
            for _, sub in model.named_modules()
            if isinstance(sub, Dropout)
        ]
        assert layer_ids == list(range(count))
        assert all(
            sub._shared_stream is stream and sub._stream_slot == 1
            for _, sub in model.named_modules()
            if isinstance(sub, Dropout)
        )

    def test_worker_slot_bounds_checked(self):
        model = TransformerLM(dropout=0.2, rng=np.random.default_rng(0), **MODEL_KW)
        stream = SharedDropoutStream(seed=0, num_workers=2)
        with pytest.raises(ValueError):
            attach_shared_dropout(model, stream, worker_slot=2)

    def test_module_has_active_dropout(self):
        assert module_has_active_dropout(
            TransformerLM(dropout=0.2, rng=np.random.default_rng(0), **MODEL_KW)
        )
        assert not module_has_active_dropout(
            TransformerLM(dropout=0.0, rng=np.random.default_rng(0), **MODEL_KW)
        )
        assert not module_has_active_dropout(MLP((4, 4, 2)))


def make_streamed_matrix(dropout=0.3, seed=0):
    rngs = spawn_rngs(seed, N)
    models = [TransformerLM(dropout=dropout, rng=r, **MODEL_KW) for r in rngs]
    models[0].flatten_parameters()
    matrix = WorkerMatrix(N, models[0].flat_spec)
    stream = SharedDropoutStream(seed=seed, num_workers=N)
    for i, model in enumerate(models):
        matrix.adopt(i, model)
        attach_shared_dropout(model, stream, worker_slot=i)
    return matrix, models, stream


def make_batches(seed=1):
    rng = np.random.default_rng(seed)
    rows = [
        (rng.integers(0, V, size=(B, T)), rng.integers(0, V, size=(B, T)))
        for _ in range(N)
    ]
    return np.stack([x for x, _ in rows]), np.stack([y for _, y in rows])


class TestBatchedDropoutParity:
    def test_builds_with_shared_stream(self):
        matrix, models, _ = make_streamed_matrix()
        assert BatchedReplicaExecutor.build(matrix, models[0]) is not None

    def test_batched_bit_identical_to_fallback_with_active_dropout(self):
        # The exact-parity contract: the batched executor's (N, ...) mask
        # blocks and the per-worker layers' rows of the same blocks produce
        # identical losses and gradients in float64.
        matrix, models, stream = make_streamed_matrix()
        executor = BatchedReplicaExecutor.build(matrix, models[0])
        batches = make_batches()

        stream.set_step(1)
        losses = executor.step(batches)
        batched_grads = matrix.grads.copy()

        stream.set_step(1)  # same step -> same masks for the fallback pass
        for model, x, y in zip(models, *batches):
            model.zero_grad()
            logits = model.forward(x)
            loss, dlogits = cross_entropy_with_logits(logits, y)
            model.backward(dlogits)
        np.testing.assert_array_equal(batched_grads, matrix.grads)
        fallback_losses = []
        stream.set_step(1)
        for model, x, y in zip(models, *batches):
            logits = model.forward(x)
            loss, _ = cross_entropy_with_logits(logits, y)
            fallback_losses.append(loss)
        np.testing.assert_array_equal(losses, np.asarray(fallback_losses))

    def test_shard_chain_matches_full_matrix(self, monkeypatch):
        # The second of K = 2 shard chains covers rows [2, 3) but must apply
        # row 2 of the full-cluster mask block, not a fresh block.
        matrix, models, stream = make_streamed_matrix()
        exe = BatchedReplicaExecutor.build(matrix, models[0])
        batches = make_batches()
        stream.set_step(2)
        losses = exe.step(batches)
        grads = matrix.grads.copy()

        monkeypatch.setattr(exe, "_shard_count", lambda x: 2)
        matrix.grads.fill(0.0)
        stream.set_step(2)
        np.testing.assert_array_equal(exe.step(batches), losses)
        np.testing.assert_array_equal(matrix.grads, grads)
        _, (lo, hi, second) = exe._chains[2]
        assert (lo, hi) == (2, 3) and second[2].drop1.row_offset == 2

    def test_eval_mode_ignores_stream(self):
        _, models, stream = make_streamed_matrix()
        model = models[0].eval()
        x = np.arange(B * T).reshape(B, T) % V
        # No set_step: eval-mode dropout never touches the stream.
        logits = model.forward(x)
        assert logits.shape == (B, T, V)
