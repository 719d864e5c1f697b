"""Tests for learning-rate schedules: shapes, a factor on the optimizer's lr per step."""

import numpy as np
import pytest

from repro.optim.schedules import (
    ConstantLR,
    ExponentialDecay,
    IntervalDecay,
    MultiStepDecay,
    WarmupCosine,
)


class TestConstant:
    def test_always_one(self):
        sched = ConstantLR()
        assert sched(0) == sched(10_000) == 1.0

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            ConstantLR()(-1)


class TestMultiStepDecay:
    def test_paper_style_milestones(self):
        # ResNet101 recipe: decay by 10x after epochs 110 and 150.
        sched = MultiStepDecay(milestones=[110, 150], gamma=0.1, steps_per_epoch=1)
        assert sched(0) == 1.0
        np.testing.assert_allclose(sched(110), 0.1)
        np.testing.assert_allclose(sched(150), 0.01)

    def test_steps_per_epoch_conversion(self):
        sched = MultiStepDecay(milestones=[2], gamma=0.5, steps_per_epoch=100)
        assert sched(199) == 1.0
        assert sched(200) == 0.5

    def test_unsorted_milestones_are_sorted(self):
        sched = MultiStepDecay(milestones=[30, 10], gamma=0.1)
        np.testing.assert_allclose(sched(20), 0.1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MultiStepDecay(milestones=[10], gamma=2.0)
        with pytest.raises(ValueError):
            MultiStepDecay(milestones=[10], steps_per_epoch=0)
        with pytest.raises(ValueError):
            MultiStepDecay(milestones=[-5])


class TestIntervalDecay:
    def test_transformer_recipe(self):
        # Paper: the lr decays by 0.8 every 2000 iterations.
        sched = IntervalDecay(interval=2000, gamma=0.8)
        assert sched(1999) == 1.0
        assert sched(2000) == 0.8
        np.testing.assert_allclose(sched(4000), 0.8**2)

    def test_decays_every_period(self):
        sched = IntervalDecay(interval=10, gamma=0.1)
        assert sched(0) == sched(9) == 1.0
        np.testing.assert_allclose(sched(10), 0.1)
        np.testing.assert_allclose(sched(25), 0.01)

    def test_lr_times_shape_is_the_lr_times_gamma_power(self):
        # The fused update steps at ``lr * factor``: bit for bit ``lr * gamma**k``.
        sched = IntervalDecay(interval=3, gamma=0.8)
        assert [0.5 * sched(s) for s in range(30)] == [0.5 * 0.8 ** (s // 3) for s in range(30)]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IntervalDecay(interval=0, gamma=0.5)
        with pytest.raises(ValueError):
            IntervalDecay(interval=5, gamma=0.0)
        with pytest.raises(ValueError):
            IntervalDecay(interval=5, gamma=1.5)


class TestExponentialDecay:
    def test_monotone_decreasing(self):
        sched = ExponentialDecay(decay_rate=0.5, decay_steps=100)
        values = [sched(s) for s in range(0, 500, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_hits_decay_rate_at_decay_steps(self):
        sched = ExponentialDecay(decay_rate=0.5, decay_steps=100)
        assert sched(0) == 1.0
        np.testing.assert_allclose(sched(100), 0.5)


class TestWarmupCosine:
    def test_warmup_ramps_linearly(self):
        sched = WarmupCosine(warmup_steps=10, total_steps=100)
        assert sched(0) < sched(5) < sched(9)

    def test_peak_at_end_of_warmup(self):
        sched = WarmupCosine(warmup_steps=10, total_steps=100)
        np.testing.assert_allclose(sched(10), 1.0)

    def test_ends_at_min_factor(self):
        sched = WarmupCosine(warmup_steps=0, total_steps=100, min_factor=0.05)
        np.testing.assert_allclose(sched(100), 0.05, atol=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            WarmupCosine(warmup_steps=50, total_steps=50)
        with pytest.raises(ValueError):
            WarmupCosine(warmup_steps=0, total_steps=50, min_factor=1.5)
