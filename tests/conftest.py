"""Shared fixtures and numerical-gradient helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import (
    make_classification_dataset,
    make_classification_splits,
    make_sequence_dataset,
)
from repro.nn.losses import cross_entropy_with_logits
from repro.utils.flatten import flatten_arrays, unflatten_vector


# --------------------------------------------------------------------------- #
# numerical gradient checking
# --------------------------------------------------------------------------- #
def analytic_gradients(model, inputs, targets):
    """Backprop gradients of the mean cross-entropy for a model."""
    model.zero_grad()
    logits = model.forward(inputs)
    loss, dlogits = cross_entropy_with_logits(logits, targets)
    model.backward(dlogits)
    return loss, model.gradient_dict()


def numerical_gradients(model, inputs, targets, epsilon: float = 1e-5):
    """Central finite-difference gradients of the mean cross-entropy."""
    state = model.state_dict()
    flat, spec = flatten_arrays(state)

    def loss_at(vec):
        model.load_state_dict(unflatten_vector(vec, spec))
        logits = model.forward(inputs)
        loss, _ = cross_entropy_with_logits(logits, targets)
        return loss

    grads = np.zeros_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = epsilon
        grads[i] = (loss_at(flat + bump) - loss_at(flat - bump)) / (2 * epsilon)
    model.load_state_dict(state)
    return unflatten_vector(grads, spec)


def assert_gradients_close(model, inputs, targets, rtol=1e-4, atol=1e-6):
    """Assert analytic and numerical gradients agree for every parameter."""
    _, analytic = analytic_gradients(model, inputs, targets)
    numeric = numerical_gradients(model, inputs, targets)
    for name in analytic:
        np.testing.assert_allclose(
            analytic[name], numeric[name], rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for parameter {name!r}",
        )


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_classification_data():
    """Small, well-separated 4-class dataset for fast end-to-end tests."""
    return make_classification_dataset(
        num_samples=256, num_classes=4, input_dim=16, class_sep=4.0, noise=0.6, seed=0
    )


@pytest.fixture
def tiny_classification_test_data():
    return make_classification_dataset(
        num_samples=128, num_classes=4, input_dim=16, class_sep=4.0, noise=0.6, seed=1
    )


@pytest.fixture
def tiny_sequence_data():
    return make_sequence_dataset(num_tokens=2000, vocab_size=20, bptt=8, seed=0)


# --------------------------------------------------------------------------- #
# small-cluster factory used by algorithm and integration tests
# --------------------------------------------------------------------------- #
def make_small_cluster(
    num_workers: int = 4,
    batch_size: int = 16,
    seed: int = 0,
    momentum: float = 0.0,
    lr: float = 0.1,
    partitioner=None,
    num_classes: int = 4,
    train_samples: int = 256,
    width: int = 24,
    **config_kwargs,
):
    """Build a small MLP classification cluster for fast algorithm tests.

    Extra keyword arguments flow into :class:`ClusterConfig` (e.g.
    ``dtype="float32"``, ``transport_dtype="float16"``).
    """
    from repro.cluster.cluster import ClusterConfig, SimulatedCluster
    from repro.data.partition import SelSyncPartitioner
    from repro.nn.models import MLP
    from repro.optim.sgd import SGD

    train, test = make_classification_splits(
        train_samples, max(train_samples // 2, 4 * num_classes), num_classes, 16,
        class_sep=4.0, noise=0.6, seed=seed,
    )
    config = ClusterConfig(
        num_workers=num_workers, batch_size=batch_size, seed=seed, **config_kwargs
    )
    return SimulatedCluster(
        model_factory=lambda rng: MLP((16, width, num_classes), rng=rng),
        optimizer_factory=lambda m: SGD(m, lr=lr, momentum=momentum),
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=partitioner or SelSyncPartitioner(seed=seed),
    )


@pytest.fixture
def small_cluster_builder():
    return make_small_cluster
