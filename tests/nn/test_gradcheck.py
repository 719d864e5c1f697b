"""Finite-difference gradient checks for every layer and model.

These are the load-bearing correctness tests of the NN substrate: if a layer's
manual backward pass is wrong, the distributed-training results built on top
of it are meaningless.
"""

import numpy as np
import pytest

from tests.conftest import assert_gradients_close

from repro.nn.attention import MultiHeadSelfAttention, TransformerEncoderLayer
from repro.nn.layers import (
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    ResidualMLPBlock,
    Tanh,
)
from repro.nn.models import AlexNetLike, MLP, ResNetLike, TransformerLM, VGGLike
from repro.nn.module import Module, Sequential


def _classification_batch(input_dim, num_classes, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, input_dim))
    y = rng.integers(0, num_classes, size=batch)
    return x, y


class TestLayerGradients:
    def test_linear(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(6, 5, rng=rng), Linear(5, 3, rng=rng))
        x, y = _classification_batch(6, 3)
        assert_gradients_close(model, x, y)

    @pytest.mark.parametrize("act", [ReLU, Tanh])
    def test_activations(self, act):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(6, 8, rng=rng), act(), Linear(8, 3, rng=rng))
        x, y = _classification_batch(6, 3, seed=2)
        assert_gradients_close(model, x, y)

    def test_layernorm(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(5, 6, rng=rng), LayerNorm(6), Linear(6, 3, rng=rng))
        x, y = _classification_batch(5, 3, seed=3)
        assert_gradients_close(model, x, y)

    def test_residual_block(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            Linear(5, 6, rng=rng),
            ResidualMLPBlock(6, rng=rng, zero_init_residual=False),
            Linear(6, 3, rng=rng),
        )
        x, y = _classification_batch(5, 3, seed=5)
        assert_gradients_close(model, x, y)

    def test_attention(self):
        rng = np.random.default_rng(0)

        class TinyAttn(Module):
            def __init__(self):
                super().__init__()
                self.emb = Embedding(7, 8, rng=rng)
                self.attn = MultiHeadSelfAttention(8, 2, causal=True, rng=rng)
                self.head = Linear(8, 7, rng=rng)

            def forward(self, tokens):
                return self.head.forward(self.attn.forward(self.emb.forward(tokens)))

            def backward(self, g):
                return self.emb.backward(self.attn.backward(self.head.backward(g)))

        model = TinyAttn()
        tokens = np.random.default_rng(1).integers(0, 7, size=(2, 4))
        targets = np.random.default_rng(2).integers(0, 7, size=(2, 4))
        assert_gradients_close(model, tokens, targets, rtol=1e-3, atol=1e-6)

    def test_transformer_encoder_layer(self):
        rng = np.random.default_rng(0)

        class TinyBlock(Module):
            def __init__(self):
                super().__init__()
                self.emb = Embedding(6, 8, rng=rng)
                self.block = TransformerEncoderLayer(8, 2, 12, dropout=0.0, rng=rng)
                self.head = Linear(8, 6, rng=rng)

            def forward(self, tokens):
                return self.head.forward(self.block.forward(self.emb.forward(tokens)))

            def backward(self, g):
                return self.emb.backward(self.block.backward(self.head.backward(g)))

        model = TinyBlock()
        tokens = np.random.default_rng(3).integers(0, 6, size=(2, 3))
        targets = np.random.default_rng(4).integers(0, 6, size=(2, 3))
        assert_gradients_close(model, tokens, targets, rtol=1e-3, atol=1e-6)


class TestModelGradients:
    def test_mlp(self):
        model = MLP((6, 10, 4), rng=np.random.default_rng(0))
        x, y = _classification_batch(6, 4, seed=6)
        assert_gradients_close(model, x, y)

    def test_resnet_like(self):
        model = ResNetLike(
            input_dim=6, num_classes=3, width=8, depth=2, rng=np.random.default_rng(0)
        )
        x, y = _classification_batch(6, 3, seed=7)
        assert_gradients_close(model, x, y, rtol=1e-3, atol=1e-6)

    def test_vgg_like(self):
        model = VGGLike(
            input_dim=6, num_classes=3, feature_widths=(8, 8), head_width=10,
            dropout=0.0, rng=np.random.default_rng(0),
        )
        x, y = _classification_batch(6, 3, seed=8)
        assert_gradients_close(model, x, y, rtol=1e-3, atol=1e-6)

    def test_alexnet_like_eval_mode(self):
        # Dropout is stochastic, so gradcheck runs in eval mode.
        model = AlexNetLike(input_dim=6, num_classes=3, hidden_dim=8, dropout=0.3,
                            rng=np.random.default_rng(0))
        model.eval()
        x, y = _classification_batch(6, 3, seed=9)
        assert_gradients_close(model, x, y, rtol=1e-3, atol=1e-6)

    def test_mlp_tanh(self):
        model = MLP((6, 10, 8, 4), activation="tanh", rng=np.random.default_rng(0))
        x, y = _classification_batch(6, 4, seed=10)
        assert_gradients_close(model, x, y)

    def test_transformer_lm(self):
        model = TransformerLM(
            vocab_size=9, d_model=8, num_heads=2, num_layers=1, dim_feedforward=12,
            dropout=0.0, rng=np.random.default_rng(0),
        )
        rng = np.random.default_rng(11)
        tokens = rng.integers(0, 9, size=(2, 4))
        targets = rng.integers(0, 9, size=(2, 4))
        assert_gradients_close(model, tokens, targets, rtol=1e-3, atol=1e-6)
