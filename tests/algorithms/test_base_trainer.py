"""Tests for the shared run loop, result records and convergence stopping."""

import numpy as np
import pytest

from tests.conftest import make_small_cluster

from repro.algorithms.base import TrainingResult
from repro.algorithms.bsp import BSPTrainer
from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.metrics.convergence import ConvergenceDetector
from repro.optim.schedules import MultiStepDecay


class TestRunLoop:
    def test_history_recorded_at_eval_interval(self):
        cluster = make_small_cluster()
        result = BSPTrainer(cluster, eval_every=5).run(20)
        assert len(result.history) == 4
        assert [p.step for p in result.history] == [5, 10, 15, 20]

    def test_final_step_always_evaluated(self):
        cluster = make_small_cluster()
        result = BSPTrainer(cluster, eval_every=7).run(10)
        assert result.history[-1].step == 10

    def test_history_sim_time_monotone(self):
        cluster = make_small_cluster()
        result = BSPTrainer(cluster, eval_every=3).run(12)
        times = [p.sim_time for p in result.history]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_lr_schedule_applied(self):
        cluster = make_small_cluster(lr=0.1)
        update = cluster.fused_update
        applied = []
        step = update._step
        update._step = lambda lr, grads: (applied.append(lr), step(lr, grads))
        schedule = MultiStepDecay(milestones=[5], gamma=0.1)
        trainer = BSPTrainer(cluster, lr_schedule=schedule, eval_every=100)
        trainer.run(10)
        assert applied == [0.1] * 5 + [0.1 * 0.1] * 5
        assert update.lr == 0.1

    def test_convergence_detector_stops_early(self):
        cluster = make_small_cluster()
        detector = ConvergenceDetector(higher_is_better=True, patience=1, min_delta=2.0)
        result = BSPTrainer(cluster, eval_every=2).run(50, convergence=detector)
        assert result.iterations < 50

    def test_invalid_run_args(self):
        trainer = BSPTrainer(make_small_cluster())
        with pytest.raises(ValueError):
            trainer.run(0)
        with pytest.raises(ValueError):
            BSPTrainer(make_small_cluster(), eval_every=0)

    def test_communication_bytes_reported(self):
        cluster = make_small_cluster()
        result = BSPTrainer(cluster, eval_every=100).run(5)
        assert result.communication_bytes > 0


class TestTrainingResult:
    def _result(self, metric, sim_time, metric_name="accuracy"):
        return TrainingResult(
            algorithm="x", metric_name=metric_name, iterations=10,
            sim_time_seconds=sim_time, final_metric=metric, best_metric=metric,
            final_loss=0.1, lssr=0.5, communication_bytes=0.0,
        )

    def test_speedup_over(self):
        fast = self._result(0.9, 10.0)
        slow = self._result(0.9, 40.0)
        assert fast.speedup_over(slow) == pytest.approx(4.0)

    def test_speedup_requires_positive_time(self):
        broken = self._result(0.9, 0.0)
        with pytest.raises(ValueError):
            broken.speedup_over(self._result(0.9, 1.0))

    def test_convergence_difference_accuracy(self):
        better = self._result(0.95, 1.0)
        baseline = self._result(0.90, 1.0)
        assert better.convergence_difference(baseline) == pytest.approx(0.05)

    def test_convergence_difference_perplexity_sign_flipped(self):
        better = self._result(88.0, 1.0, metric_name="perplexity")
        baseline = self._result(90.0, 1.0, metric_name="perplexity")
        assert better.convergence_difference(baseline) == pytest.approx(2.0)

    def test_higher_is_better_flag(self):
        assert self._result(0.9, 1.0).higher_is_better
        assert not self._result(90.0, 1.0, metric_name="perplexity").higher_is_better


class TestGlobalStateDefault:
    def test_default_global_state_is_replica_average(self):
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=1e9), eval_every=100)
        trainer.run(4)
        state = trainer.global_state()
        avg = cluster.average_worker_states()
        for name in state:
            np.testing.assert_allclose(state[name], avg[name])
