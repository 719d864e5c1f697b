"""Tests for SGD, Adam and the optimizer base class."""

import numpy as np
import pytest

from repro.nn.models import MLP
from repro.nn.module import Module, Parameter
from repro.optim.adam import Adam
from repro.optim.sgd import SGD


class _Scalar(Module):
    """Single-parameter model for hand-checkable optimizer algebra."""

    def __init__(self, value=1.0):
        super().__init__()
        self.w = Parameter(np.array([value]))

    def forward(self, x):
        return x * self.w.data

    def backward(self, g):
        return g


def _set_grad(model, value):
    model.named_parameters()["w"].grad[...] = value


class TestSGD:
    def test_vanilla_step(self):
        model = _Scalar(1.0)
        opt = SGD(model, lr=0.1)
        _set_grad(model, 2.0)
        opt.step()
        np.testing.assert_allclose(model.w.data, 1.0 - 0.1 * 2.0)

    def test_weight_decay_adds_l2_term(self):
        model = _Scalar(1.0)
        opt = SGD(model, lr=0.1, weight_decay=0.5)
        _set_grad(model, 0.0)
        opt.step()
        np.testing.assert_allclose(model.w.data, 1.0 - 0.1 * 0.5 * 1.0)

    def test_momentum_accumulates(self):
        model = _Scalar(0.0)
        opt = SGD(model, lr=1.0, momentum=0.5)
        _set_grad(model, 1.0)
        opt.step()            # velocity = 1 -> w = -1
        _set_grad(model, 1.0)
        opt.step()            # velocity = 1.5 -> w = -2.5
        np.testing.assert_allclose(model.w.data, -2.5)

    def test_nesterov_requires_momentum(self):
        model = _Scalar()
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, nesterov=True)

    def test_nesterov_differs_from_plain_momentum(self):
        plain_model, nest_model = _Scalar(0.0), _Scalar(0.0)
        plain = SGD(plain_model, lr=1.0, momentum=0.9)
        nest = SGD(nest_model, lr=1.0, momentum=0.9, nesterov=True)
        for _ in range(2):
            _set_grad(plain_model, 1.0)
            plain.step()
            _set_grad(nest_model, 1.0)
            nest.step()
        assert not np.allclose(plain_model.w.data, nest_model.w.data)

    def test_explicit_grads_override_module_grads(self):
        model = _Scalar(1.0)
        opt = SGD(model, lr=0.1)
        _set_grad(model, 100.0)
        opt.step(grads={"w": np.array([1.0])})
        np.testing.assert_allclose(model.w.data, 0.9)

    def test_negative_hyperparameters_rejected(self):
        model = _Scalar()
        with pytest.raises(ValueError):
            SGD(model, lr=0.0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, momentum=-0.1)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, weight_decay=-1.0)


class TestAdam:
    def test_first_step_size_close_to_lr(self):
        model = _Scalar(0.0)
        opt = Adam(model, lr=0.1)
        _set_grad(model, 5.0)
        opt.step()
        # With bias correction, the first Adam step has magnitude ~lr.
        np.testing.assert_allclose(abs(model.w.data[0]), 0.1, rtol=1e-3)

    def test_step_direction_opposes_gradient(self):
        model = _Scalar(0.0)
        opt = Adam(model, lr=0.01)
        _set_grad(model, -3.0)
        opt.step()
        assert model.w.data[0] > 0

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam(_Scalar(), betas=(1.0, 0.999))

    def test_invalid_eps_rejected(self):
        with pytest.raises(ValueError):
            Adam(_Scalar(), eps=0.0)

    def test_weight_decay_pulls_towards_zero(self):
        model = _Scalar(1.0)
        opt = Adam(model, lr=0.1, weight_decay=1.0)
        _set_grad(model, 0.0)
        opt.step()
        assert abs(model.w.data[0]) < 1.0

    def test_reduces_loss_on_real_model(self):
        rng = np.random.default_rng(0)
        model = MLP((8, 16, 3), rng=rng)
        opt = Adam(model, lr=0.01)
        x = rng.standard_normal((32, 8))
        y = rng.integers(0, 3, size=32)
        from repro.nn.losses import cross_entropy_with_logits

        first_loss = None
        for _ in range(30):
            model.zero_grad()
            logits = model.forward(x)
            loss, dlogits = cross_entropy_with_logits(logits, y)
            if first_loss is None:
                first_loss = loss
            model.backward(dlogits)
            opt.step()
        assert loss < first_loss


class TestOptimizerBase:
    def test_zero_grad_clears_module(self):
        model = MLP((4, 4, 2), rng=np.random.default_rng(0))
        opt = SGD(model, lr=0.1)
        for p in model.parameters():
            p.grad += 1.0
        opt.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())
