"""Tests for the workload model analogs."""

import numpy as np
import pytest

from repro.nn.models import (
    AlexNetLike,
    MLP,
    ResNetLike,
    TransformerLM,
    VGGLike,
)


class TestMLP:
    def test_output_shape(self):
        model = MLP((8, 16, 4), rng=np.random.default_rng(0))
        assert model.forward(np.zeros((5, 8))).shape == (5, 4)

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP((8,))

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP((4, 4), activation="swish")

    def test_tanh_activation_option(self):
        model = MLP((4, 6, 2), activation="tanh", rng=np.random.default_rng(0))
        assert model.forward(np.zeros((2, 4))).shape == (2, 2)


class TestResNetLike:
    def test_depth_controls_blocks(self):
        shallow = ResNetLike(
            input_dim=8, num_classes=3, width=8, depth=1, rng=np.random.default_rng(0)
        )
        deep = ResNetLike(
            input_dim=8, num_classes=3, width=8, depth=4, rng=np.random.default_rng(0)
        )
        assert deep.num_parameters() > shallow.num_parameters()

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            ResNetLike(depth=0)

    def test_rejects_wrong_input_dim(self):
        model = ResNetLike(input_dim=8, num_classes=3, width=8, depth=1)
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 9)))

    def test_forward_backward_shapes(self):
        model = ResNetLike(
            input_dim=8, num_classes=3, width=8, depth=2, rng=np.random.default_rng(0)
        )
        x = np.random.default_rng(1).standard_normal((4, 8))
        out = model.forward(x)
        grad = model.backward(np.ones_like(out))
        assert out.shape == (4, 3)
        assert grad.shape == x.shape


class TestVGGLike:
    def test_head_width_grows_parameters(self):
        small = VGGLike(input_dim=8, num_classes=5, feature_widths=(8,), head_width=8)
        big = VGGLike(input_dim=8, num_classes=5, feature_widths=(8,), head_width=64)
        assert big.num_parameters() > small.num_parameters()

    def test_forward_shape(self):
        model = VGGLike(input_dim=8, num_classes=5, feature_widths=(8, 8), head_width=16,
                        rng=np.random.default_rng(0))
        assert model.forward(np.zeros((3, 8))).shape == (3, 5)

    def test_rejects_wrong_input(self):
        model = VGGLike(input_dim=8)
        with pytest.raises(ValueError):
            model.forward(np.zeros((3, 4)))


class TestAlexNetLike:
    def test_forward_shape(self):
        model = AlexNetLike(input_dim=8, num_classes=6, hidden_dim=12, rng=np.random.default_rng(0))
        assert model.forward(np.zeros((2, 8))).shape == (2, 6)

    def test_dropout_disabled_in_eval(self):
        model = AlexNetLike(input_dim=8, num_classes=6, hidden_dim=12, dropout=0.9,
                            rng=np.random.default_rng(0))
        model.eval()
        x = np.random.default_rng(1).standard_normal((2, 8))
        out1 = model.forward(x)
        out2 = model.forward(x)
        np.testing.assert_array_equal(out1, out2)


class TestTransformerLM:
    def test_logits_shape(self):
        model = TransformerLM(vocab_size=11, d_model=8, num_heads=2, num_layers=1,
                              dim_feedforward=12, rng=np.random.default_rng(0))
        tokens = np.random.default_rng(1).integers(0, 11, size=(3, 5))
        assert model.forward(tokens).shape == (3, 5, 11)

    def test_causality(self):
        """Changing a future token must not change earlier positions' logits."""
        model = TransformerLM(vocab_size=11, d_model=8, num_heads=2, num_layers=2,
                              dim_feedforward=12, dropout=0.0, rng=np.random.default_rng(0))
        model.eval()
        tokens = np.random.default_rng(1).integers(0, 11, size=(1, 6))
        base = model.forward(tokens)
        perturbed_tokens = tokens.copy()
        perturbed_tokens[0, -1] = (perturbed_tokens[0, -1] + 1) % 11
        perturbed = model.forward(perturbed_tokens)
        np.testing.assert_allclose(base[0, :-1], perturbed[0, :-1], atol=1e-10)

    def test_parameter_count_grows_with_layers(self):
        one = TransformerLM(vocab_size=11, d_model=8, num_heads=2, num_layers=1)
        two = TransformerLM(vocab_size=11, d_model=8, num_heads=2, num_layers=2)
        assert two.num_parameters() > one.num_parameters()


class TestPresetModels:
    def test_paper_names_have_presets(self):
        from repro.harness.experiment import WORKLOAD_PRESETS

        for name in ("resnet101", "vgg11", "alexnet", "transformer"):
            assert name in WORKLOAD_PRESETS

    def test_preset_model_matches_its_family(self):
        from repro.harness.experiment import build_workload

        model = build_workload("resnet101").model_factory(np.random.default_rng(0))
        assert isinstance(model, ResNetLike)

    def test_models_are_deterministic_given_seed(self):
        from repro.harness.experiment import build_workload

        factory = build_workload("vgg11").model_factory
        a = factory(np.random.default_rng(5))
        b = factory(np.random.default_rng(5))
        for (na, pa), (nb, pb) in zip(a.named_parameters().items(), b.named_parameters().items()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
