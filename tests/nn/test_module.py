"""Tests for the Parameter/Module system and Sequential container."""

import numpy as np
import pytest

from repro.nn.layers import Linear, ReLU
from repro.nn.module import Module, Parameter, Sequential


class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.act = ReLU()
        self.fc2 = Linear(8, 3, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2.forward(self.act.forward(self.fc1.forward(x)))

    def backward(self, g):
        return self.fc1.backward(self.act.backward(self.fc2.backward(g)))


class TestParameter:
    def test_grad_initialized_to_zeros(self):
        p = Parameter(np.ones((3, 2)))
        assert p.grad.shape == (3, 2)
        assert np.all(p.grad == 0.0)

    def test_data_cast_to_float64(self):
        p = Parameter(np.ones((2,), dtype=np.float32))
        assert p.data.dtype == np.float64

    def test_zero_grad_resets(self):
        p = Parameter(np.ones(4))
        p.grad += 3.0
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_shape_and_size(self):
        p = Parameter(np.zeros((2, 5)))
        assert p.shape == (2, 5)
        assert p.size == 10


class TestModuleRegistration:
    def test_named_parameters_include_submodules(self):
        model = _TwoLayer()
        names = set(model.named_parameters().keys())
        assert names == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}

    def test_num_parameters_counts_scalars(self):
        model = _TwoLayer()
        expected = 4 * 8 + 8 + 8 * 3 + 3
        assert model.num_parameters() == expected

    def test_parameter_bytes_uses_float32_transport(self):
        model = _TwoLayer()
        assert model.parameter_bytes() == model.num_parameters() * 4

    def test_duplicate_module_registration_rejected(self):
        m = Module()
        m.register_module("sub", Module())
        with pytest.raises(KeyError):
            m.register_module("sub", Module())

    def test_named_modules_traversal(self):
        model = _TwoLayer()
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "fc1" in names and "fc2" in names


class TestTrainEvalAndGrads:
    def test_train_eval_propagates(self):
        model = _TwoLayer()
        model.eval()
        assert not model.fc1.training
        model.train()
        assert model.fc2.training

    def test_zero_grad_clears_all(self):
        model = _TwoLayer()
        x = np.random.default_rng(0).standard_normal((5, 4))
        out = model.forward(x)
        model.backward(np.ones_like(out))
        assert any(np.abs(p.grad).sum() > 0 for p in model.parameters())
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())


class TestStateDict:
    def test_state_dict_roundtrip(self):
        model = _TwoLayer()
        state = model.state_dict()
        other = _TwoLayer()
        other.load_state_dict(state)
        for name, value in other.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

    def test_state_dict_returns_copies(self):
        model = _TwoLayer()
        state = model.state_dict()
        state["fc1.weight"][...] = 99.0
        assert not np.any(model.named_parameters()["fc1.weight"].data == 99.0)

    def test_load_state_dict_strict_missing_key(self):
        model = _TwoLayer()
        state = model.state_dict()
        state.pop("fc1.bias")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        model = _TwoLayer()
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_gradient_dict_is_a_copy(self):
        model = _TwoLayer()
        x = np.random.default_rng(0).standard_normal((5, 4))
        out = model.forward(x)
        model.backward(np.ones_like(out))
        grads = model.gradient_dict()
        for name, param in model.named_parameters().items():
            np.testing.assert_array_equal(param.grad, grads[name])
            assert not np.shares_memory(param.grad, grads[name])


class TestSequential:
    def test_forward_matches_manual_chain(self):
        rng = np.random.default_rng(0)
        l1, l2 = Linear(4, 6, rng=rng), Linear(6, 2, rng=rng)
        seq = Sequential(l1, ReLU(), l2)
        x = rng.standard_normal((3, 4))
        manual = l2.forward(np.maximum(l1.forward(x), 0.0))
        np.testing.assert_allclose(seq.forward(x), manual)

    def test_len_getitem_iter(self):
        seq = Sequential(ReLU(), ReLU(), ReLU())
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        assert len(list(iter(seq))) == 3

    def test_append_registers_parameters(self):
        seq = Sequential(Linear(3, 3, rng=np.random.default_rng(0)))
        seq.append(Linear(3, 2, rng=np.random.default_rng(1)))
        assert len(seq.named_parameters()) == 4

    def test_backward_reverses_order(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 4, rng=rng))
        x = rng.standard_normal((2, 4))
        out = seq.forward(x)
        grad_in = seq.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
