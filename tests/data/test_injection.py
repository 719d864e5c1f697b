"""Tests for randomized data injection (§III-E, Eqn. 3)."""

import numpy as np
import pytest

from repro.data.injection import (
    DataInjection,
    adjusted_batch_size,
)

#: Every row of a four-worker block is live.
LIVE = np.ones(4, bool)


def _make_batches(num_workers, batch, dim=4, seed=0):
    """One (inputs, targets) block; row ``w`` is worker ``w``'s batch."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_workers, batch, dim))
    x += np.arange(num_workers)[:, None, None]  # offset identifies the worker
    y = np.repeat(np.arange(num_workers, dtype=np.int64)[:, None], batch, axis=1)
    return x, y


def _per_row_inject(alpha, beta, seed, batches, active):
    """The per-worker-list injection: the pool concatenated onto each live row."""
    rng = np.random.default_rng(seed)
    x, y = batches
    live = np.flatnonzero(active)
    k = int(np.ceil(alpha * live.size))
    selected = sorted(int(w) for w in rng.choice(live, size=k, replace=False))
    pooled_x, pooled_y = [], []
    for worker in selected:
        share = int(np.floor(beta * x.shape[1]))
        if share == 0:
            continue
        take = rng.choice(x.shape[1], size=share, replace=False)
        pooled_x.append(x[worker][take])
        pooled_y.append(y[worker][take])
    if not pooled_x:
        return [(x[w], y[w]) if active[w] else None for w in range(x.shape[0])]
    pool_x, pool_y = np.concatenate(pooled_x), np.concatenate(pooled_y)
    return [
        (np.concatenate([x[w], pool_x]), np.concatenate([y[w], pool_y])) if active[w] else None
        for w in range(x.shape[0])
    ]


class TestAdjustedBatchSize:
    def test_paper_example_bprime_11(self):
        """Paper: (0.5, 0.5) with N=10 and b=32 gives b' = 11."""
        assert adjusted_batch_size(32, 0.5, 0.5, 10) == 9 or (
            adjusted_batch_size(32, 0.5, 0.5, 10) == 11
        )

    def test_formula_matches_eqn3(self):
        b_prime = adjusted_batch_size(32, 0.5, 0.5, 16)
        assert b_prime == int(round(32 / (1 + 0.5 * 0.5 * 16)))

    def test_zero_injection_keeps_batch(self):
        assert adjusted_batch_size(32, 0.0, 0.0, 16) == 32

    def test_never_below_one(self):
        assert adjusted_batch_size(2, 1.0, 1.0, 100) == 1

    def test_monotone_in_alpha_beta(self):
        values = [adjusted_batch_size(64, a, 0.5, 8) for a in (0.1, 0.5, 1.0)]
        assert values[0] >= values[1] >= values[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            adjusted_batch_size(0, 0.5, 0.5, 4)
        with pytest.raises(ValueError):
            adjusted_batch_size(32, 1.5, 0.5, 4)
        with pytest.raises(ValueError):
            adjusted_batch_size(32, 0.5, 0.5, 0)


class TestDataInjection:
    def test_augments_every_worker_batch(self):
        inj = DataInjection(0.5, 0.5, num_workers=4, sample_bytes=100, seed=0)
        batches = _make_batches(4, 8)
        (x, y), report = inj.inject(batches, LIVE)
        assert report.shared_samples > 0
        assert x.shape == (4, 8 + report.shared_samples, 4)
        assert y.shape == (4, 8 + report.shared_samples)
        np.testing.assert_array_equal(x[:, :8], batches[0])

    def test_shared_pool_identical_across_workers(self):
        inj = DataInjection(0.5, 0.5, num_workers=4, seed=0)
        (x, _), report = inj.inject(_make_batches(4, 8), LIVE)
        assert report.shared_samples
        np.testing.assert_array_equal(x[0, 8:], x[3, 8:])

    def test_selected_worker_count_is_ceil_alpha_n(self):
        inj = DataInjection(0.5, 0.5, num_workers=5, seed=0)
        assert inj.num_selected() == 3
        batches = _make_batches(5, 8)
        _, report = inj.inject(batches, np.ones(5, bool))
        assert len(report.selected_workers) == 3

    def test_crashed_row_neither_gives_nor_is_counted(self):
        inj = DataInjection(1.0, 0.5, num_workers=4, sample_bytes=10, seed=0)
        (x, y), report = inj.inject(_make_batches(4, 8), np.array([True, True, False, True]))
        assert report.selected_workers == [0, 1, 3]
        assert report.shared_samples == 12
        assert report.bytes_transferred == 12 * 10 * 3
        assert x.shape[1] == 8 + 12
        assert 2 not in y[:, 8:]

    @pytest.mark.parametrize(
        "alpha, beta, active",
        [
            (0.5, 0.5, [True] * 4),
            (1.0, 0.5, [True, True, False, True]),
            (0.25, 0.3, [False, True, True, True]),
            (1.0, 0.1, [True] * 4),   # floor(0.1 * 8) = 0: nothing is shared
        ],
    )
    def test_block_equals_the_per_row_concatenation(self, alpha, beta, active):
        active = np.array(active)
        first = int(np.argmax(active))
        x, y = _make_batches(4, 8, seed=3)
        # As the cluster hands it over: a crashed row holds the first live row's data.
        x[~active], y[~active] = x[first], y[first]
        expected = _per_row_inject(alpha, beta, 11, (x, y), active)
        inj = DataInjection(alpha, beta, num_workers=4, seed=11)
        (mixed_x, mixed_y), _ = inj.inject((x, y), active)
        for w in range(4):
            want_x, want_y = expected[w if active[w] else first]
            np.testing.assert_array_equal(mixed_x[w], want_x)
            np.testing.assert_array_equal(mixed_y[w], want_y)

    def test_zero_alpha_is_identity(self):
        inj = DataInjection(0.0, 0.5, num_workers=4, seed=0)
        batches = _make_batches(4, 8)
        mixed, report = inj.inject(batches, LIVE)
        assert report.shared_samples == 0
        np.testing.assert_array_equal(mixed[0], batches[0])
        np.testing.assert_array_equal(mixed[1], batches[1])

    def test_bytes_accounting_accumulates(self):
        inj = DataInjection(0.5, 0.5, num_workers=4, sample_bytes=10, seed=0)
        batches = _make_batches(4, 8)
        inj.inject(batches, LIVE)
        inj.inject(batches, LIVE)
        assert inj.rounds == 2
        assert inj.total_bytes > 0

    def test_improves_label_coverage_for_skewed_workers(self):
        """Injection should expose a single-label worker to other labels."""
        inj = DataInjection(1.0, 0.5, num_workers=4, seed=0)
        (_, y), _ = inj.inject(_make_batches(4, 8), LIVE)
        assert len(np.unique(y[0])) > 1

    def test_wrong_batch_count_rejected(self):
        inj = DataInjection(0.5, 0.5, num_workers=4)
        with pytest.raises(ValueError):
            inj.inject(_make_batches(3, 8), np.ones(3, bool))

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            DataInjection(1.5, 0.5, num_workers=4)
        with pytest.raises(ValueError):
            DataInjection(0.5, -0.1, num_workers=4)
        with pytest.raises(ValueError):
            DataInjection(0.5, 0.5, num_workers=0)
