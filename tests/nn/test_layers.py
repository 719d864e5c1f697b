"""Behavioural tests for individual layers (shape, mode and error handling)."""

import numpy as np
import pytest

from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    ResidualMLPBlock,
    Tanh,
)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(8, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((5, 8)))
        assert out.shape == (5, 3)

    def test_three_dimensional_input(self):
        layer = Linear(8, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((2, 7, 8)))
        assert out.shape == (2, 7, 3)

    def test_no_bias_option(self):
        layer = Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert "bias" not in layer.named_parameters()

    def test_bias_is_zero_initialized(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        assert np.all(layer.bias.data == 0.0)

    def test_backward_before_forward_raises(self):
        layer = Linear(4, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_backward_accumulates_gradients(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        x = np.ones((3, 4))
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(np.ones((3, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestActivations:
    def test_relu_clamps_negative(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu_backward_masks(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 2.0]]))
        grad = relu.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    def test_tanh_range(self):
        out = Tanh().forward(np.linspace(-5, 5, 11)[None, :])
        assert np.all(np.abs(out) < 1.0)

    @pytest.mark.parametrize("cls", [ReLU, Tanh])
    def test_backward_before_forward_raises(self, cls):
        with pytest.raises(RuntimeError):
            cls().backward(np.zeros((1, 2)))


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.eval()
        x = np.ones((4, 4))
        np.testing.assert_array_equal(drop.forward(x), x)

    def test_train_mode_scales_kept_units(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        out = drop.forward(np.ones((1000,)))
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)

    def test_zero_probability_is_identity(self):
        drop = Dropout(0.0)
        x = np.ones((3, 3))
        np.testing.assert_array_equal(drop.forward(x), x)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_backward_uses_same_mask(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((200,))
        out = drop.forward(x)
        grad = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, out)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_stays_in_the_input_dtype(self, dtype):
        drop = Dropout(0.1, rng=np.random.default_rng(0))
        out = drop.forward(np.ones((2, 3), dtype))
        assert out.dtype == dtype
        assert drop.backward(np.ones((2, 3), dtype)).dtype == dtype
        # The float64 mask is the plain inverted-dropout arithmetic.
        u = np.random.default_rng(0).random((2, 3))
        expected = (u < 0.9) / 0.9
        np.testing.assert_array_equal(out, expected.astype(dtype))


class TestLayerNorm:
    def test_normalizes_last_dim(self):
        ln = LayerNorm(6)
        x = np.random.default_rng(0).standard_normal((3, 6)) * 4 + 2
        out = ln.forward(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)

    def test_works_on_three_dims(self):
        ln = LayerNorm(5)
        out = ln.forward(np.random.default_rng(0).standard_normal((2, 3, 5)))
        assert out.shape == (2, 3, 5)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_centring_once_is_bit_equal_to_mean_and_var(self, dtype):
        ln = LayerNorm(32)
        ln.flatten_parameters(dtype=dtype)
        rng = np.random.default_rng(0)
        ln.gamma.data[...] = rng.standard_normal(32)
        ln.beta.data[...] = rng.standard_normal(32)
        x = (rng.standard_normal((5, 7, 32)) * 3 + 1).astype(dtype)
        untouched = x.copy()
        x_hat = (x - x.mean(axis=-1, keepdims=True)) * (
            1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ln.eps)
        )
        np.testing.assert_array_equal(ln.forward(x), ln.gamma.data * x_hat + ln.beta.data)
        np.testing.assert_array_equal(ln._cache[0], x_hat)
        np.testing.assert_array_equal(x, untouched)

    def test_gamma_beta_affect_output(self):
        ln = LayerNorm(4)
        ln.gamma.data[...] = 2.0
        ln.beta.data[...] = 1.0
        out = ln.forward(np.random.default_rng(0).standard_normal((2, 4)))
        assert not np.allclose(out.mean(axis=-1), 0.0)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng=np.random.default_rng(0))
        out = emb.forward(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_rejects_float_ids(self):
        emb = Embedding(10, 4)
        with pytest.raises(TypeError):
            emb.forward(np.array([[1.0, 2.0]]))

    def test_rejects_out_of_range(self):
        emb = Embedding(5, 4)
        with pytest.raises(IndexError):
            emb.forward(np.array([[7]]))

    def test_backward_accumulates_at_indices(self):
        emb = Embedding(6, 3, rng=np.random.default_rng(0))
        ids = np.array([[0, 0, 1]])
        emb.forward(ids)
        emb.backward(np.ones((1, 3, 3)))
        np.testing.assert_allclose(emb.weight.grad[0], 2.0)
        np.testing.assert_allclose(emb.weight.grad[1], 1.0)
        np.testing.assert_allclose(emb.weight.grad[2], 0.0)


class TestResidualBlock:
    def test_identity_at_zero_weights(self):
        block = ResidualMLPBlock(6, rng=np.random.default_rng(0))
        block.fc2.weight.data[...] = 0.0
        block.fc2.bias.data[...] = 0.0
        x = np.random.default_rng(1).standard_normal((4, 6))
        np.testing.assert_allclose(block.forward(x), x)

    def test_backward_shape(self):
        block = ResidualMLPBlock(6, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 6))
        out = block.forward(x)
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape


def _inference_cases():
    """(layer, input) for every layer that stashes something for backward."""
    from repro.nn.attention import MultiHeadSelfAttention

    rng = np.random.default_rng(0)
    flat = rng.standard_normal((5, 6))
    return {
        "linear": (Linear(6, 4, rng=rng), flat),
        "relu": (ReLU(), flat),
        "tanh": (Tanh(), flat),
        "dropout": (Dropout(0.5, rng=rng), flat),
        "layernorm": (LayerNorm(6), flat),
        "embedding": (Embedding(9, 4, rng=rng), rng.integers(0, 9, size=(3, 5))),
        "residual": (ResidualMLPBlock(6, rng=rng), flat),
        "attention": (MultiHeadSelfAttention(6, 2, rng=rng), rng.standard_normal((2, 4, 6))),
    }


class TestInferenceScope:
    @pytest.mark.parametrize("name", sorted(_inference_cases()))
    def test_same_output_and_backward_raises(self, name):
        layer, x = _inference_cases()[name]
        layer.eval()
        expected = layer.forward(x)
        layer.backward(np.ones_like(expected))  # an eval-mode forward keeps its cache
        with layer.inference():
            out = layer.forward(x)
            with pytest.raises(RuntimeError, match="called before forward"):
                layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(out, expected)
        assert not layer.training  # the scope leaves train()/eval() alone
        layer.backward(np.ones_like(layer.forward(x)))  # caching again outside the scope

    def test_flag_cleared_on_exception(self):
        block = ResidualMLPBlock(6, rng=np.random.default_rng(0))
        modules = [module for _, module in block.named_modules()]
        with pytest.raises(ValueError):
            with block.inference():
                assert all(module._inference for module in modules)
                raise ValueError("boom")
        assert not any(module._inference for module in modules)
