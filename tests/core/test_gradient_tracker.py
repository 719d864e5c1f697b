"""Tests for the Δ(gᵢ) tracker bank (§III-A, Eqn. 2)."""

import time

import numpy as np
import pytest

from repro.core.gradient_tracker import TrackerBank
from repro.stats.variance import batch_gradient_statistic, gradient_variance

ALL = np.ones(1, dtype=bool)


def _stat(scale, size=64, seed=0):
    return gradient_variance(scale * np.random.default_rng(seed).standard_normal(size))


def _feed(bank, raws):
    """Feed a scalar series through a one-row bank; returns the Δ series."""
    return [float(bank.update([raw], ALL)[0]) for raw in raws]


class TestDelta:
    def test_first_update_is_zero(self):
        assert _feed(TrackerBank(1), [_stat(1.0)]) == [0.0]

    def test_first_observation_passes_through(self):
        bank = TrackerBank(3, alpha=0.2)
        bank.update([5.0, 6.0, 7.0], np.ones(3, dtype=bool))
        assert bank.smoothed.tolist() == [5.0, 6.0, 7.0]
        assert bank.seen.all()

    def test_smoothing_formula(self):
        bank = TrackerBank(1, alpha=0.5)
        _feed(bank, [2.0, 10.0])
        assert bank.smoothed[0] == 6.0
        _feed(bank, [10.0])
        assert bank.smoothed[0] == 8.0

    def test_identical_input_gives_zero_delta(self):
        deltas = _feed(TrackerBank(1, alpha=1.0), [_stat(1.0), _stat(1.0)])
        assert deltas[1] == 0.0

    def test_scaling_gradients_changes_delta(self):
        deltas = _feed(TrackerBank(1, alpha=1.0), [_stat(1.0), _stat(10.0)])
        assert deltas[1] > 1.0  # variance grows by 100x, so relative change is large

    def test_delta_is_relative_not_absolute(self):
        """Scaling all gradients by a constant should give the same Δ sequence."""
        scales = [1.0 + 0.1 * step for step in range(5)]
        small = _feed(TrackerBank(1, alpha=1.0), [_stat(s, seed=i) for i, s in enumerate(scales)])
        large = _feed(
            TrackerBank(1, alpha=1.0), [_stat(1000.0 * s, seed=i) for i, s in enumerate(scales)]
        )
        np.testing.assert_allclose(small, large, rtol=1e-9)

    def test_delta_always_nonnegative(self):
        raws = [_stat(np.random.default_rng(s).uniform(0.1, 5.0), seed=s) for s in range(20)]
        assert all(d >= 0 for d in _feed(TrackerBank(1), raws))

    def test_smoothing_reduces_noise(self):
        """A heavily smoothed bank should report smaller per-step changes."""
        raws = [_stat(np.random.default_rng(s).uniform(0.5, 2.0), seed=s) for s in range(40)]
        noisy = _feed(TrackerBank(1, alpha=1.0), raws)
        smooth = _feed(TrackerBank(1, alpha=0.05), raws)
        assert np.mean(smooth[1:]) < np.mean(noisy[1:])

    def test_decaying_gradients_produce_decaying_delta(self):
        """As gradients saturate late in training, Δ(gᵢ) flattens (Fig. 5)."""
        scales = np.concatenate([np.linspace(5.0, 1.0, 30), np.full(30, 1.0)])
        raws = [_stat(s, seed=i % 3) for i, s in enumerate(scales)]
        deltas = _feed(TrackerBank(1, alpha=0.3), raws)
        assert np.mean(deltas[-10:]) < np.mean(deltas[2:20])

    def test_converges_to_constant_input(self):
        bank = TrackerBank(1, alpha=0.3)
        deltas = _feed(bank, [1.0] + [3.0] * 200)
        assert bank.smoothed[0] == pytest.approx(3.0)
        assert deltas[-1] == pytest.approx(0.0, abs=1e-12)

    def test_smoothed_value_within_observed_range(self):
        bank = TrackerBank(1, alpha=0.16)
        for raw in np.random.default_rng(0).uniform(2.0, 4.0, size=100):
            bank.update([raw], ALL)
            assert 2.0 <= bank.smoothed[0] <= 4.0

    def test_max_delta_tracks_extremum(self):
        bank = TrackerBank(1, alpha=1.0)
        deltas = _feed(bank, [_stat(1.0), _stat(3.0), _stat(3.0)])
        assert bank.max_delta[0] == max(deltas) > 0.0

    def test_rows_are_independent(self):
        bank = TrackerBank(2, alpha=0.4)
        row0 = TrackerBank(1, alpha=0.4)
        for step in range(10):
            raws = [_stat(1.0 + step, seed=step), _stat(5.0 - 0.3 * step, seed=step + 50)]
            deltas = bank.update(raws, np.ones(2, dtype=bool))
            assert deltas[0] == row0.update(raws[:1], ALL)[0]


class TestActiveMask:
    def test_crashed_rows_stay_frozen(self):
        bank = TrackerBank(3, alpha=0.5)
        bank.update([1.0, 2.0, 3.0], np.ones(3, dtype=bool))
        before = (bank.smoothed.copy(), bank.max_delta.copy())
        deltas = bank.update([9.0, 9.0, 9.0], np.array([True, False, True]))
        assert deltas[1] == 0.0
        assert bank.smoothed[1] == before[0][1] and bank.max_delta[1] == before[1][1]
        assert bank.smoothed[0] == 5.0 and bank.smoothed[2] == 6.0

    def test_rejoined_row_resumes_from_frozen_state(self):
        bank = TrackerBank(2, alpha=0.5)
        bank.update([2.0, 2.0], np.array([True, True]))
        bank.update([8.0, 8.0], np.array([True, False]))
        deltas = bank.update([4.0, 4.0], np.array([True, True]))
        # Row 1 smooths against its pre-crash value 2.0, not the crash-time 8.0.
        assert bank.smoothed[1] == 3.0
        assert deltas[1] == 0.5

    def test_late_first_observation_gives_zero_delta(self):
        bank = TrackerBank(2)
        bank.update([1.0, 0.0], np.array([True, False]))
        assert not bank.seen[1]
        deltas = bank.update([1.5, 7.0], np.array([True, True]))
        assert deltas[1] == 0.0 and bank.smoothed[1] == 7.0


class TestValidation:
    def test_rejects_nonfinite_on_active_row(self):
        bank = TrackerBank(2)
        with pytest.raises(ValueError, match="finite"):
            bank.update([1.0, float("nan")], np.ones(2, dtype=bool))
        with pytest.raises(ValueError, match="finite"):
            bank.update([float("inf"), 1.0], np.ones(2, dtype=bool))

    def test_rejection_leaves_state_untouched(self):
        bank = TrackerBank(2)
        bank.update([1.0, 2.0], np.ones(2, dtype=bool))
        with pytest.raises(ValueError):
            bank.update([4.0, float("nan")], np.ones(2, dtype=bool))
        assert bank.smoothed.tolist() == [1.0, 2.0]

    def test_ignores_nonfinite_on_crashed_row(self):
        bank = TrackerBank(2)
        deltas = bank.update([1.0, float("nan")], np.array([True, False]))
        assert deltas.tolist() == [0.0, 0.0]
        assert bank.smoothed[1] == 0.0 and not bank.seen[1]

    @pytest.mark.parametrize("kwargs", [
        {"num_workers": 0}, {"num_workers": 1, "alpha": 0.0},
        {"num_workers": 1, "alpha": 1.5}, {"num_workers": 1, "eps": 0.0},
    ], ids=["no-rows", "alpha-0", "alpha-1.5", "eps-0"])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            TrackerBank(**kwargs)


class TestStatistics:
    @pytest.mark.parametrize("statistic", ["variance", "second_moment", "norm"])
    def test_statistic_options_feed_the_bank(self, statistic):
        grads = np.random.default_rng(0).standard_normal((4, 64))
        raw = batch_gradient_statistic(grads, statistic)
        assert (raw > 0).all()
        bank, active = TrackerBank(4), np.ones(4, dtype=bool)
        bank.update(raw, active)
        deltas = bank.update(batch_gradient_statistic(2.0 * grads, statistic), active)
        assert (deltas > 0).all()

    def test_overhead_much_smaller_than_typical_step_time(self):
        """Fig. 8a: tracker overhead is milliseconds, i.e. << 100ms step times."""
        grads = np.random.default_rng(0).standard_normal((16, 50_000))
        bank = TrackerBank(16)
        active = np.ones(16, dtype=bool)
        start = time.perf_counter()
        for _ in range(10):
            bank.update(batch_gradient_statistic(grads, "variance"), active)
        assert (time.perf_counter() - start) / 10 * 1000.0 < 50.0
