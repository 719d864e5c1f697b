"""Tests for KDE / distribution summaries and Hessian eigenvalue estimation."""

import numpy as np
import pytest

from repro.nn.models import MLP
from repro.stats import kde
from repro.stats.hessian import hessian_top_eigenvalue, hessian_vector_product
from repro.stats.kde import distribution_summary, gaussian_kde_density


class TestKDE:
    def test_density_integrates_to_one(self):
        samples = np.random.default_rng(0).standard_normal(500)
        grid, density = gaussian_kde_density(samples, grid_points=400)
        integral = np.trapezoid(density, grid)
        assert integral == pytest.approx(1.0, abs=0.05)

    def test_density_peaks_near_mode(self):
        samples = np.random.default_rng(0).normal(loc=2.0, scale=0.3, size=800)
        grid, density = gaussian_kde_density(samples)
        assert abs(grid[np.argmax(density)] - 2.0) < 0.3

    def test_custom_grid_respected(self):
        grid = np.linspace(-1, 1, 50)
        out_grid, density = gaussian_kde_density(
            np.random.default_rng(0).standard_normal(100), grid=grid
        )
        np.testing.assert_array_equal(out_grid, grid)
        assert density.shape == (50,)

    def test_degenerate_samples_fallback(self):
        grid, density = gaussian_kde_density(np.full(10, 3.0))
        assert np.all(np.isfinite(density))
        assert density.max() > 0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kde_density(np.array([]))

    @pytest.mark.parametrize(
        "samples",
        [
            np.random.default_rng(0).standard_normal(500),
            np.concatenate(
                [
                    np.random.default_rng(1).normal(-2.0, 0.3, 700),
                    np.random.default_rng(2).normal(1.5, 0.8, 600),
                ]
            ),
            # late-training gradients: a handful of tiny, repeated values
            np.repeat(1e-9 * np.random.default_rng(3).standard_normal(8), 8),
            # not a multiple of the evaluation block, and more than two blocks
            np.random.default_rng(4).laplace(scale=1e-3, size=2 * kde._KDE_BLOCK + 37),
            np.array([0.25, 0.75]),
        ],
        ids=["unimodal", "bimodal", "near-degenerate", "ragged-blocks", "two-samples"],
    )
    def test_matches_scipy_reference(self, samples):
        scipy_stats = pytest.importorskip("scipy.stats")
        grid, density = gaussian_kde_density(samples, grid_points=120)
        np.testing.assert_allclose(
            density, scipy_stats.gaussian_kde(samples)(grid), rtol=1e-9, atol=0.0
        )

    def test_bandwidth_floor_keeps_tiny_spreads_finite(self):
        grid, density = gaussian_kde_density(np.array([0.0, 1e-14, 2e-14]))
        assert np.all(np.isfinite(density))
        assert 0 < density.max() <= 1.0 / (1e-12 * np.sqrt(2 * np.pi))

    def test_blocks_do_not_change_the_estimate(self, monkeypatch):
        samples = np.random.default_rng(5).standard_normal(300)
        grid, one_block = gaussian_kde_density(samples)
        monkeypatch.setattr(kde, "_KDE_BLOCK", 7)
        _, many_blocks = gaussian_kde_density(samples, grid=grid)
        np.testing.assert_allclose(many_blocks, one_block, rtol=1e-12)

    def test_symmetric_samples_give_a_symmetric_density(self):
        half = np.random.default_rng(0).standard_normal(200)
        grid = np.linspace(-3.0, 3.0, 61)
        _, density = gaussian_kde_density(np.concatenate([half, -half]), grid=grid)
        np.testing.assert_allclose(density, density[::-1], rtol=1e-10)


class TestDistributionSummary:
    def test_fraction_near_zero_grows_as_values_shrink(self):
        """Fig. 3: late-training gradients concentrate near zero."""
        early = np.random.default_rng(0).normal(scale=1e-2, size=2000)
        late = np.random.default_rng(1).normal(scale=1e-5, size=2000)
        assert (
            distribution_summary(late).fraction_near_zero
            > distribution_summary(early).fraction_near_zero
        )

    def test_quantiles_ordered(self):
        summary = distribution_summary(np.random.default_rng(0).standard_normal(500))
        q = summary.quantiles
        assert q["p5"] <= q["p25"] <= q["p50"] <= q["p75"] <= q["p95"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distribution_summary(np.array([]))


class TestHessian:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        model = MLP((6, 8, 3), rng=rng)
        x = rng.standard_normal((16, 6))
        y = rng.integers(0, 3, size=16)
        return model, x, y

    def test_hvp_is_linear_in_vector(self):
        model, x, y = self._setup()
        n = model.num_parameters()
        v = np.random.default_rng(1).standard_normal(n)
        hv = hessian_vector_product(model, x, y, v)
        hv2 = hessian_vector_product(model, x, y, 2.0 * v)
        np.testing.assert_allclose(hv2, 2.0 * hv, rtol=1e-2, atol=1e-5)

    def test_hvp_restores_parameters(self):
        model, x, y = self._setup()
        before = model.state_dict()
        v = np.ones(model.num_parameters())
        hessian_vector_product(model, x, y, v)
        after = model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_hvp_rejects_bad_vector(self):
        model, x, y = self._setup()
        with pytest.raises(ValueError):
            hessian_vector_product(model, x, y, np.ones(3))
        with pytest.raises(ValueError):
            hessian_vector_product(model, x, y, np.zeros(model.num_parameters()))

    def test_top_eigenvalue_finite_and_reproducible(self):
        model, x, y = self._setup()
        eig1 = hessian_top_eigenvalue(model, x, y, num_iterations=15, seed=0)
        eig1_again = hessian_top_eigenvalue(model, x, y, num_iterations=15, seed=0)
        assert np.isfinite(eig1) and eig1 != 0.0
        # Same random start must give the same estimate (determinism); different
        # starts may land on different extreme eigenvalues of the indefinite
        # Hessian, which is fine for the Fig. 4 trend comparison.
        assert eig1 == pytest.approx(eig1_again)

    def test_top_eigenvalue_scales_with_loss_curvature(self):
        """Scaling the logit head scales the curvature of the loss surface."""
        model, x, y = self._setup()
        eig_small = abs(hessian_top_eigenvalue(model, x, y, num_iterations=12, seed=0))
        for p in model.parameters():
            p.data *= 3.0
        eig_large = abs(hessian_top_eigenvalue(model, x, y, num_iterations=12, seed=0))
        assert eig_large != pytest.approx(eig_small, rel=1e-3)

    def test_invalid_iterations(self):
        model, x, y = self._setup()
        with pytest.raises(ValueError):
            hessian_top_eigenvalue(model, x, y, num_iterations=0)
