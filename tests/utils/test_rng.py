"""Tests for deterministic RNG management."""

import numpy as np
import pytest

from repro.utils.rng import new_rng, spawn_rngs


class TestNewRng:
    def test_same_seed_same_stream(self):
        a = new_rng(7).standard_normal(5)
        b = new_rng(7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(3)
        rng = new_rng(seq)
        assert isinstance(rng, np.random.Generator)


class TestSpawnRngs:
    def test_spawned_streams_differ(self):
        rngs = spawn_rngs(0, 4)
        draws = [r.standard_normal(3) for r in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_reproducible_across_calls(self):
        a = [r.standard_normal(2) for r in spawn_rngs(1, 3)]
        b = [r.standard_normal(2) for r in spawn_rngs(1, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count_ok(self):
        assert spawn_rngs(0, 0) == []
