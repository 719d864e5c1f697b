"""Tests for EWMA smoothing and gradient-variance statistics."""

import numpy as np
import pytest

from repro.stats.ewma import EWMA, ewma_smooth
from repro.stats.variance import (
    batch_gradient_statistic,
    gradient_norm,
    gradient_second_moment,
    gradient_variance,
)


class TestEWMA:
    def test_first_value_passthrough(self):
        ewma = EWMA(alpha=0.2)
        assert ewma.update(5.0) == 5.0

    def test_smoothing_formula(self):
        ewma = EWMA(alpha=0.5)
        ewma.update(0.0)
        assert ewma.update(10.0) == pytest.approx(5.0)
        assert ewma.update(10.0) == pytest.approx(7.5)

    def test_converges_to_constant_input(self):
        ewma = EWMA(alpha=0.3)
        for _ in range(200):
            ewma.update(3.0)
        assert ewma.value == pytest.approx(3.0)

    def test_smoothed_value_within_observed_range(self):
        """EWMA of bounded observations stays within their range."""
        rng = np.random.default_rng(0)
        ewma = EWMA(alpha=0.16, window=25)
        values = rng.uniform(2.0, 4.0, size=100)
        for v in values:
            ewma.update(v)
            assert 2.0 <= ewma.value <= 4.0

    def test_window_tracking(self):
        ewma = EWMA(alpha=0.2, window=5)
        for i in range(3):
            ewma.update(float(i))
        assert not ewma.window_full
        for i in range(5):
            ewma.update(float(i))
        assert ewma.window_full
        assert ewma.count == 5

    def test_window_mean(self):
        ewma = EWMA(alpha=0.5, window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            ewma.update(v)
        assert ewma.window_mean() == pytest.approx(3.0)

    def test_reset(self):
        ewma = EWMA()
        ewma.update(1.0)
        ewma.reset()
        with pytest.raises(RuntimeError):
            _ = ewma.value

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EWMA().update(float("nan"))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EWMA(alpha=0.0)
        with pytest.raises(ValueError):
            EWMA(alpha=1.5)
        with pytest.raises(ValueError):
            EWMA(window=0)

    def test_ewma_smooth_series_length(self):
        out = ewma_smooth([1.0, 2.0, 3.0], alpha=0.5)
        assert len(out) == 3
        assert out[0] == 1.0


class TestBatchGradientStatistic:
    def test_rows_match_the_per_worker_statistics(self):
        matrix = np.random.default_rng(0).standard_normal((4, 50))
        for statistic, per_row in (
            ("variance", gradient_variance),
            ("second_moment", gradient_second_moment),
            ("norm", gradient_norm),
        ):
            expected = [per_row(row) for row in matrix]
            np.testing.assert_allclose(
                batch_gradient_statistic(matrix, statistic), expected, rtol=1e-12
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            batch_gradient_statistic(np.zeros(3), "variance")
        with pytest.raises(ValueError):
            batch_gradient_statistic(np.zeros((2, 3)), "kurtosis")


class TestGradientStatistics:
    def _grads(self):
        return {"a": np.array([1.0, -1.0, 2.0]), "b": np.array([[0.0, 3.0]])}

    def test_gradient_norm(self):
        expected = np.sqrt(1 + 1 + 4 + 0 + 9)
        assert gradient_norm(self._grads()) == pytest.approx(expected)

    def test_second_moment(self):
        expected = (1 + 1 + 4 + 0 + 9) / 5
        assert gradient_second_moment(self._grads()) == pytest.approx(expected)

    def test_variance_matches_numpy(self):
        flat = np.concatenate([g.ravel() for g in self._grads().values()])
        assert gradient_variance(self._grads()) == pytest.approx(flat.var())

    def test_empty_dict(self):
        assert gradient_variance({}) == 0.0
        assert gradient_second_moment({}) == 0.0
        assert gradient_norm({}) == 0.0

    def test_flat_vector_matches_named_tree(self):
        flat = np.concatenate([g.ravel() for g in self._grads().values()])
        assert gradient_norm(flat) == gradient_norm(self._grads())
        assert gradient_variance(flat) == gradient_variance(self._grads())
