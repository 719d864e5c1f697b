"""Tests for multi-head attention and positional encoding specifics."""

import numpy as np
import pytest

from repro.nn.attention import (
    MultiHeadSelfAttention,
    PositionalEncoding,
    TransformerEncoderLayer,
)


class TestPositionalEncoding:
    def test_adds_position_dependent_offsets(self):
        pe = PositionalEncoding(8, max_len=16)
        x = np.zeros((1, 4, 8))
        out = pe.forward(x)
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_rejects_too_long_sequences(self):
        pe = PositionalEncoding(8, max_len=4)
        with pytest.raises(ValueError):
            pe.forward(np.zeros((1, 5, 8)))

    def test_backward_is_identity(self):
        pe = PositionalEncoding(8)
        g = np.random.default_rng(0).standard_normal((2, 3, 8))
        np.testing.assert_array_equal(pe.backward(g), g)

    def test_encoding_values_bounded(self):
        pe = PositionalEncoding(16, max_len=64)
        assert np.all(np.abs(pe.pe) <= 1.0)


class TestMultiHeadSelfAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        out = attn.forward(np.random.default_rng(1).standard_normal((3, 5, 8)))
        assert out.shape == (3, 5, 8)

    def test_d_model_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_rejects_wrong_feature_dim(self):
        attn = MultiHeadSelfAttention(8, 2)
        with pytest.raises(ValueError):
            attn.forward(np.zeros((1, 4, 6)))

    def test_causal_mask_blocks_future(self):
        attn = MultiHeadSelfAttention(8, 2, causal=True, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((1, 6, 8))
        base = attn.forward(x)
        x2 = x.copy()
        x2[0, -1] += 10.0
        out2 = attn.forward(x2)
        np.testing.assert_allclose(base[0, :-1], out2[0, :-1], atol=1e-10)

    def test_non_causal_attends_to_future(self):
        attn = MultiHeadSelfAttention(8, 2, causal=False, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((1, 6, 8))
        base = attn.forward(x)
        x2 = x.copy()
        x2[0, -1] += 10.0
        out2 = attn.forward(x2)
        assert not np.allclose(base[0, 0], out2[0, 0])

    def test_causal_mask_follows_the_sequence_length(self):
        # The mask is cached per T; a layer reused on another T rebuilds it.
        reused = MultiHeadSelfAttention(8, 2, causal=True, rng=np.random.default_rng(0))
        for t in (6, 3, 6):
            x = np.random.default_rng(t).standard_normal((2, t, 8))
            fresh = MultiHeadSelfAttention(8, 2, causal=True, rng=np.random.default_rng(0))
            np.testing.assert_array_equal(reused.forward(x), fresh.forward(x))
            assert reused._causal_mask.shape == (t, t)

    def test_backward_before_forward_raises(self):
        attn = MultiHeadSelfAttention(8, 2)
        with pytest.raises(RuntimeError):
            attn.backward(np.zeros((1, 2, 8)))

    def test_attention_weights_cached_are_normalized(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        attn.forward(np.random.default_rng(1).standard_normal((2, 4, 8)))
        _, _, _, weights, _ = attn._cache
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-10)


class TestTransformerEncoderLayer:
    def test_shape_preserved(self):
        layer = TransformerEncoderLayer(8, 2, 16, dropout=0.0, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 5, 8))
        assert layer.forward(x).shape == x.shape

    def test_backward_shape(self):
        layer = TransformerEncoderLayer(8, 2, 16, dropout=0.0, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 5, 8))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_residual_path_dominates_for_zeroed_weights(self):
        layer = TransformerEncoderLayer(8, 2, 16, dropout=0.0, rng=np.random.default_rng(0))
        # Zero the output projections of both sublayers: the block becomes identity.
        layer.attn.out_proj.weight.data[...] = 0.0
        layer.attn.out_proj.bias.data[...] = 0.0
        layer.ff2.weight.data[...] = 0.0
        layer.ff2.bias.data[...] = 0.0
        x = np.random.default_rng(1).standard_normal((1, 4, 8))
        np.testing.assert_allclose(layer.forward(x), x)
