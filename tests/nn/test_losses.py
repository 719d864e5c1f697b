"""Tests for loss functions and the softmax helpers."""

import numpy as np
import pytest

from repro.nn.losses import (
    CrossEntropyLoss,
    MSELoss,
    cross_entropy_loss,
    cross_entropy_with_logits,
    log_softmax,
    perplexity_from_loss,
    softmax,
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).standard_normal((4, 7)))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, 0.5)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = np.random.default_rng(1).standard_normal((3, 5))
        np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)), atol=1e-12)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = cross_entropy_with_logits(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_uniform_prediction_log_classes(self):
        logits = np.zeros((5, 8))
        loss, _ = cross_entropy_with_logits(logits, np.zeros(5, dtype=np.int64))
        np.testing.assert_allclose(loss, np.log(8), rtol=1e-6)

    def test_gradient_sums_to_zero_per_sample(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 4))
        _, grad = cross_entropy_with_logits(logits, rng.integers(0, 4, size=6))
        np.testing.assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((3, 4))
        targets = rng.integers(0, 4, size=3)
        _, grad = cross_entropy_with_logits(logits, targets)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                bumped = logits.copy()
                bumped[i, j] += eps
                up, _ = cross_entropy_with_logits(bumped, targets)
                bumped[i, j] -= 2 * eps
                down, _ = cross_entropy_with_logits(bumped, targets)
                numeric[i, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)

    def test_sequence_logits_supported(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        loss, grad = cross_entropy_with_logits(logits, targets)
        assert np.isfinite(loss)
        assert grad.shape == logits.shape

    def test_label_smoothing_increases_loss_on_perfect_prediction(self):
        logits = np.array([[50.0, 0.0]])
        targets = np.array([0])
        plain, _ = cross_entropy_with_logits(logits, targets)
        smoothed, _ = cross_entropy_with_logits(logits, targets, label_smoothing=0.1)
        assert smoothed > plain

    def test_rejects_float_targets(self):
        with pytest.raises(TypeError):
            cross_entropy_with_logits(np.zeros((2, 3)), np.array([0.0, 1.0]))

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(IndexError):
            cross_entropy_with_logits(np.zeros((2, 3)), np.array([0, 5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy_with_logits(np.zeros((2, 3)), np.array([0, 1, 2]))


class TestForwardOnlyCrossEntropy:
    """``cross_entropy_loss`` runs in row slabs; slab edges must not show."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 7488])
    def test_bit_equal_to_one_shot_expression(self, n, dtype):
        rng = np.random.default_rng(n)
        logits = (rng.standard_normal((n, 200)) * 5).astype(dtype)
        targets = rng.integers(0, 200, size=n)
        untouched = logits.copy()
        one_shot = float(-log_softmax(logits, axis=-1)[np.arange(n), targets].mean())
        assert cross_entropy_loss(logits, targets) == one_shot
        assert cross_entropy_loss(logits, targets) == cross_entropy_with_logits(logits, targets)[0]
        # accuracy() reads the caller's logits after the loss.
        np.testing.assert_array_equal(logits, untouched)

    def test_sequence_logits_fold_like_the_training_loss(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((70, 16, 20))      # 1120 rows: two slabs
        targets = rng.integers(0, 20, size=(70, 16))
        assert cross_entropy_loss(logits, targets) == cross_entropy_with_logits(logits, targets)[0]


class TestLossClasses:
    def test_cross_entropy_loss_backward_after_forward(self):
        loss_fn = CrossEntropyLoss()
        logits = np.zeros((2, 3))
        value = loss_fn(logits, np.array([0, 1]))
        grad = loss_fn.backward()
        assert np.isfinite(value)
        assert grad.shape == logits.shape

    def test_cross_entropy_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_cross_entropy_invalid_smoothing(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(label_smoothing=1.5)

    def test_mse_zero_for_identical(self):
        mse = MSELoss()
        x = np.ones((4, 3))
        assert mse(x, x) == 0.0

    def test_mse_gradient_direction(self):
        mse = MSELoss()
        pred = np.array([[2.0]])
        target = np.array([[0.0]])
        _, grad = mse.forward_backward(pred, target)
        assert grad[0, 0] > 0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss()(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPerplexity:
    def test_perplexity_is_exp_of_loss(self):
        np.testing.assert_allclose(perplexity_from_loss(2.0), np.exp(2.0))

    def test_perplexity_clamps_huge_losses(self):
        assert np.isfinite(perplexity_from_loss(10_000.0))
