"""Tests for the gradient-compression baselines (§II-D)."""

import numpy as np
import pytest

from repro.compression import (
    Compressor,
    PowerSGDCompressor,
    SignSGDCompressor,
    TopKCompressor,
    compression_error,
)


def _vector(size=1000, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(size)


ALL_COMPRESSORS = [
    TopKCompressor(ratio=0.1),
    SignSGDCompressor(),
    PowerSGDCompressor(rank=2, seed=0),
]


class TestCommonContract:
    @pytest.mark.parametrize("compressor", ALL_COMPRESSORS, ids=lambda c: c.name)
    def test_roundtrip_preserves_length(self, compressor):
        vec = _vector()
        out = compressor.roundtrip(vec)
        assert out.shape == vec.shape

    @pytest.mark.parametrize("compressor", ALL_COMPRESSORS, ids=lambda c: c.name)
    def test_compression_saves_bytes(self, compressor):
        payload = compressor.compress(_vector())
        assert payload.compression_ratio > 1.0

    @pytest.mark.parametrize("compressor", ALL_COMPRESSORS, ids=lambda c: c.name)
    def test_rejects_empty_and_nonfinite(self, compressor):
        with pytest.raises(ValueError):
            compressor.compress(np.array([]))
        with pytest.raises(ValueError):
            compressor.compress(np.array([1.0, np.nan]))

    def test_identity_compressor_lossless(self):
        vec = _vector()
        np.testing.assert_array_equal(Compressor().roundtrip(vec), vec)

    def test_compression_error_helper(self):
        vec = _vector()
        assert compression_error(vec, vec) == 0.0
        assert compression_error(vec, np.zeros_like(vec)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            compression_error(vec, vec[:10])


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        comp = TopKCompressor(ratio=0.01)
        vec = np.zeros(100)
        vec[[3, 50, 99]] = [5.0, -10.0, 1.0]
        out = comp.roundtrip(vec)
        assert out[50] == -10.0

    def test_sparsity_level(self):
        comp = TopKCompressor(ratio=0.05)
        out = comp.roundtrip(_vector(1000))
        assert np.count_nonzero(out) == 50

    def test_ratio_one_is_lossless(self):
        comp = TopKCompressor(ratio=1.0)
        vec = _vector(64)
        np.testing.assert_allclose(comp.roundtrip(vec), vec)

    def test_error_decreases_with_ratio(self):
        vec = _vector(2000)
        errors = [
            compression_error(vec, TopKCompressor(ratio=r).roundtrip(vec))
            for r in (0.01, 0.1, 0.5)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)


class TestSignSGD:
    def test_reconstruction_signs_match(self):
        vec = _vector(500, seed=3)
        out = SignSGDCompressor().roundtrip(vec)
        nonzero = vec != 0
        np.testing.assert_array_equal(np.sign(out[nonzero]), np.sign(vec[nonzero]))

    def test_scale_is_mean_abs(self):
        vec = np.array([1.0, -2.0, 3.0])
        payload = SignSGDCompressor().compress(vec)
        assert payload.data["scale"][0] == pytest.approx(2.0)

    def test_roughly_32x_compression(self):
        payload = SignSGDCompressor().compress(_vector(10_000))
        assert payload.compression_ratio > 25


class TestPowerSGD:
    def test_low_rank_structure_well_approximated(self):
        """A rank-1 'gradient' should be reconstructed almost exactly."""
        u = np.random.default_rng(0).standard_normal(32)
        v = np.random.default_rng(1).standard_normal(32)
        vec = np.outer(u, v).ravel()
        comp = PowerSGDCompressor(rank=2, seed=0)
        comp.roundtrip(vec)          # warm start
        out = comp.roundtrip(vec)
        assert compression_error(vec, out) < 0.05

    def test_compression_ratio_grows_with_size(self):
        small = PowerSGDCompressor(rank=2, seed=0).compress(_vector(256))
        large = PowerSGDCompressor(rank=2, seed=0).compress(_vector(65536))
        assert large.compression_ratio > small.compression_ratio

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            PowerSGDCompressor(rank=0)
