"""Tests for compute/memory cost models, heterogeneity and the simulated clock."""

import numpy as np
import pytest

from repro.cluster.clock import SimulatedClock
from repro.cluster.compute_model import (
    PAPER_WORKLOADS,
    ComputeCostModel,
    memory_gigabytes,
)
from repro.cluster.heterogeneity import HomogeneousSpeed, StragglerModel


class TestWorkloadSpecs:
    def test_all_paper_workloads_present(self):
        assert set(PAPER_WORKLOADS) == {"resnet101", "vgg11", "alexnet", "transformer"}

    def test_vgg_is_largest_model(self):
        """VGG11 is 507 MB in the paper — the largest of the four."""
        sizes = {name: spec.model_mb for name, spec in PAPER_WORKLOADS.items()}
        assert max(sizes, key=sizes.get) == "vgg11"

    def test_model_bytes_conversion(self):
        spec = PAPER_WORKLOADS["resnet101"]
        assert spec.model_bytes == spec.model_mb * 1e6


class TestComputeCostModel:
    def test_compute_time_increases_with_batch(self):
        """Fig. 2a: compute time grows with batch size."""
        model = ComputeCostModel(PAPER_WORKLOADS["resnet101"])
        times = [model.step_seconds(b) for b in (32, 64, 128, 256, 512, 1024)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_speed_factor_divides_time(self):
        model = ComputeCostModel(PAPER_WORKLOADS["alexnet"])
        assert model.step_seconds(64, speed_factor=2.0) < model.step_seconds(64, 1.0)

    def test_throughput_positive_and_sublinear(self):
        model = ComputeCostModel(PAPER_WORKLOADS["transformer"])
        small = 32 / model.step_seconds(32)
        large = 1024 / model.step_seconds(1024)
        assert small > 0 and large > 0

    def test_validation(self):
        model = ComputeCostModel(PAPER_WORKLOADS["vgg11"])
        with pytest.raises(ValueError):
            model.step_seconds(0)
        with pytest.raises(ValueError):
            model.step_seconds(32, speed_factor=0.0)
        with pytest.raises(ValueError):
            ComputeCostModel(PAPER_WORKLOADS["vgg11"], scaling_exponent=5.0)


class TestMemoryModel:
    def test_memory_increases_with_batch(self):
        """Fig. 2b: memory utilization grows with batch size."""
        spec = PAPER_WORKLOADS["transformer"]
        mems = [memory_gigabytes(spec, b) for b in (32, 64, 128, 256, 512, 1024)]
        assert all(b > a for a, b in zip(mems, mems[1:]))

    def test_transformer_exceeds_k80_capacity_at_large_batch(self):
        """The paper's Transformer OOMs beyond b=64 on a 12 GB K80."""
        spec = PAPER_WORKLOADS["transformer"]
        assert memory_gigabytes(spec, 1024) > 10.0

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            memory_gigabytes(PAPER_WORKLOADS["resnet101"], 0)


class TestHeterogeneity:
    def test_homogeneous_all_equal(self):
        speeds = HomogeneousSpeed().speed_factors(8, 0)
        np.testing.assert_allclose(speeds, 1.0)

    def test_homogeneous_custom_factor(self):
        speeds = HomogeneousSpeed(2.0).speed_factors(4, 0)
        np.testing.assert_allclose(speeds, 2.0)

    def test_straggler_probability_zero_is_nominal(self):
        speeds = StragglerModel(straggler_prob=0.0).speed_factors(8, 0)
        np.testing.assert_allclose(speeds, 1.0)

    def test_stragglers_slow_down_some_workers(self):
        model = StragglerModel(straggler_prob=0.5, slowdown=4.0, seed=0)
        speeds = model.speed_factors(100, 0)
        assert np.any(speeds < 1.0) and np.any(speeds == 1.0)

    def test_static_factors_respected(self):
        model = StragglerModel(straggler_prob=0.0, static_factors=[1.0, 0.5])
        np.testing.assert_allclose(model.speed_factors(2, 0), [1.0, 0.5])

    def test_static_factors_length_checked(self):
        model = StragglerModel(static_factors=[1.0, 0.5])
        with pytest.raises(ValueError):
            model.speed_factors(3, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerModel(straggler_prob=2.0)
        with pytest.raises(ValueError):
            StragglerModel(slowdown=0.5)
        with pytest.raises(ValueError):
            HomogeneousSpeed(0.0)


class TestSimulatedClock:
    def test_advance_all_and_elapsed(self):
        clock = SimulatedClock(3)
        clock.advance_all([1.0, 2.0, 3.0])
        assert clock.elapsed == 3.0
        assert clock.worker_elapsed(0) == 1.0

    def test_barrier_aligns_to_slowest(self):
        """BSP semantics: every worker waits for the slowest one."""
        clock = SimulatedClock(3)
        clock.advance_all([1.0, 2.0, 5.0])
        clock.barrier()
        np.testing.assert_allclose(clock.worker_time, 5.0)

    def test_barrier_and_add_charges_everyone(self):
        clock = SimulatedClock(2)
        clock.advance_all([1.0, 2.0])
        clock.barrier_and_add(0.5)
        np.testing.assert_allclose(clock.worker_time, 2.5)
        assert clock.buckets["communication"] == 0.5

    def test_async_advance_keeps_workers_apart(self):
        clock = SimulatedClock(2)
        clock.advance_worker(0, 1.0)
        clock.advance_worker(1, 3.0)
        assert clock.worker_elapsed(0) != clock.worker_elapsed(1)

    def test_bucket_accounting(self):
        clock = SimulatedClock(2)
        clock.advance_all([1.0, 1.0], bucket="compute")
        clock.barrier_and_add(2.0, bucket="communication")
        assert clock.buckets["compute"] == 1.0
        assert clock.buckets["communication"] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedClock(0)
        clock = SimulatedClock(2)
        with pytest.raises(ValueError):
            clock.advance_worker(5, 1.0)
        with pytest.raises(ValueError):
            clock.advance_worker(0, -1.0)
        with pytest.raises(ValueError):
            clock.advance_all([1.0])
        with pytest.raises(ValueError):
            clock.barrier_and_add(-1.0)
