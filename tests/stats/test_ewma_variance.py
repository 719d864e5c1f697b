"""Tests for the gradient-variance statistics behind Δ(gᵢ)."""

import numpy as np
import pytest

from repro.stats.variance import (
    batch_gradient_statistic,
    gradient_norm,
    gradient_second_moment,
    gradient_variance,
)


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
