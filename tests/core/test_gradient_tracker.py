"""Tests for the Δ(gᵢ) gradient-change tracker (§III-A, Eqn. 2)."""

import numpy as np
import pytest

from repro.core.gradient_tracker import GradientChangeTracker, TrackerOverheadProbe


def _grads(scale, size=64, seed=0):
    rng = np.random.default_rng(seed)
    return {"w": scale * rng.standard_normal(size)}


class TestDelta:
    def test_first_update_is_zero(self):
        tracker = GradientChangeTracker()
        assert tracker.update(_grads(1.0)) == 0.0

    def test_identical_gradients_give_zero_delta(self):
        tracker = GradientChangeTracker(alpha=1.0)
        g = _grads(1.0)
        tracker.update(g)
        assert tracker.update(g) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_gradients_changes_delta(self):
        tracker = GradientChangeTracker(alpha=1.0)
        tracker.update(_grads(1.0))
        delta = tracker.update(_grads(10.0))
        assert delta > 1.0  # variance grows by 100x, so relative change is large

    def test_delta_is_relative_not_absolute(self):
        """Scaling all gradients by a constant should give the same Δ sequence."""
        t_small = GradientChangeTracker(alpha=1.0)
        t_large = GradientChangeTracker(alpha=1.0)
        for step in range(5):
            g = _grads(1.0 + 0.1 * step, seed=step)
            t_small.update(g)
            t_large.update({"w": 1000.0 * g["w"]})
        np.testing.assert_allclose(t_small.history, t_large.history, rtol=1e-9)

    def test_delta_always_nonnegative(self):
        tracker = GradientChangeTracker()
        for step in range(20):
            tracker.update(_grads(np.random.default_rng(step).uniform(0.1, 5.0), seed=step))
        assert all(d >= 0 for d in tracker.history)

    def test_smoothing_reduces_noise(self):
        """A heavily smoothed tracker should report smaller per-step changes."""
        noisy = GradientChangeTracker(alpha=1.0)
        smooth = GradientChangeTracker(alpha=0.05)
        for step in range(40):
            g = _grads(np.random.default_rng(step).uniform(0.5, 2.0), seed=step)
            noisy.update(g)
            smooth.update(g)
        assert np.mean(smooth.history[1:]) < np.mean(noisy.history[1:])

    def test_decaying_gradients_produce_decaying_delta(self):
        """As gradients saturate late in training, Δ(gᵢ) flattens (Fig. 5)."""
        tracker = GradientChangeTracker(alpha=0.3)
        scales = np.concatenate([np.linspace(5.0, 1.0, 30), np.full(30, 1.0)])
        for step, s in enumerate(scales):
            tracker.update(_grads(s, seed=step % 3))
        early = np.mean(tracker.history[2:20])
        late = np.mean(tracker.history[-10:])
        assert late < early

    def test_max_delta_tracks_extremum(self):
        tracker = GradientChangeTracker(alpha=1.0)
        tracker.update(_grads(1.0))
        tracker.update(_grads(3.0))
        tracker.update(_grads(3.0))
        assert tracker.max_delta == max(tracker.history)

    def test_statistic_options(self):
        for statistic in ("variance", "second_moment", "norm"):
            tracker = GradientChangeTracker(statistic=statistic)
            tracker.update(_grads(1.0))
            assert tracker.raw_history[0] > 0

    def test_invalid_statistic(self):
        with pytest.raises(ValueError):
            GradientChangeTracker(statistic="median")

    def test_reset_clears_history(self):
        tracker = GradientChangeTracker()
        tracker.update(_grads(1.0))
        tracker.reset()
        assert tracker.history == [] and tracker.raw_history == []

    def test_history_lengths_match_updates(self):
        tracker = GradientChangeTracker()
        for step in range(7):
            tracker.update(_grads(1.0, seed=step))
        assert len(tracker.history) == 7 == len(tracker.raw_history)


class TestOverheadProbe:
    def test_probe_returns_positive_ms(self):
        probe = TrackerOverheadProbe(parameter_count=10_000, seed=0)
        assert probe.measure_ms(window=25, steps=5) > 0.0

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            TrackerOverheadProbe(parameter_count=0)
        probe = TrackerOverheadProbe(parameter_count=100)
        with pytest.raises(ValueError):
            probe.measure_ms(window=25, steps=0)

    def test_overhead_much_smaller_than_typical_step_time(self):
        """Fig. 8a: tracker overhead is milliseconds, i.e. << 100ms step times."""
        probe = TrackerOverheadProbe(parameter_count=50_000, seed=0)
        assert probe.measure_ms(window=25, steps=10) < 50.0
