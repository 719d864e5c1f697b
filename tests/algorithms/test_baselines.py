"""Tests for the BSP, FedAvg, SSP and local-SGD baseline trainers."""

import numpy as np
import pytest

from tests.conftest import make_small_cluster

from repro.algorithms.bsp import BSPTrainer
from repro.algorithms.fedavg import FedAvgTrainer
from repro.algorithms.localsgd import LocalSGDTrainer
from repro.algorithms.ssp import SSPTrainer


class TestBSP:
    def test_replicas_stay_identical(self):
        cluster = make_small_cluster()
        BSPTrainer(cluster, eval_every=100).run(8)
        assert cluster.replica_divergence() == pytest.approx(0.0, abs=1e-12)

    def test_lssr_is_zero(self):
        cluster = make_small_cluster()
        result = BSPTrainer(cluster, eval_every=100).run(8)
        assert result.lssr == 0.0

    def test_syncs_every_step(self):
        cluster = make_small_cluster()
        BSPTrainer(cluster, eval_every=100).run(6)
        assert cluster.backend.record.calls["allreduce"] == 6

    def test_learns_the_task(self):
        cluster = make_small_cluster(train_samples=512)
        result = BSPTrainer(cluster, eval_every=20).run(80)
        assert result.final_metric > 0.5

    def test_equivalent_to_single_worker_large_batch(self):
        """BSP over N workers with batch b should match 1 worker with batch N*b
        when the data order is aligned — here we only check both learn to the
        same accuracy ballpark (stochastic equivalence)."""
        multi = make_small_cluster(num_workers=4, batch_size=8, seed=11, train_samples=512)
        single = make_small_cluster(num_workers=1, batch_size=32, seed=11, train_samples=512)
        multi_res = BSPTrainer(multi, eval_every=30).run(60)
        single_res = BSPTrainer(single, eval_every=30).run(60)
        assert abs(multi_res.final_metric - single_res.final_metric) < 0.3


class TestLocalSGD:
    def test_sync_period_respected(self):
        cluster = make_small_cluster()
        trainer = LocalSGDTrainer(cluster, sync_period=5, eval_every=100)
        trainer.run(15)
        assert trainer.lssr_tracker.sync_steps == 3
        assert trainer.lssr_tracker.local_steps == 12

    def test_lssr_matches_period(self):
        cluster = make_small_cluster()
        trainer = LocalSGDTrainer(cluster, sync_period=4, eval_every=100)
        result = trainer.run(16)
        assert result.lssr == pytest.approx(0.75)

    def test_replicas_identical_right_after_sync(self):
        cluster = make_small_cluster()
        trainer = LocalSGDTrainer(cluster, sync_period=5, eval_every=100)
        trainer.run(5)
        assert cluster.replica_divergence() == pytest.approx(0.0, abs=1e-12)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            LocalSGDTrainer(make_small_cluster(), sync_period=0)

    def test_describe(self):
        trainer = LocalSGDTrainer(make_small_cluster(), sync_period=7)
        assert trainer.describe() == "local_sgd(H=7)"


class TestFedAvg:
    def test_sync_interval_from_epoch_fraction(self):
        cluster = make_small_cluster(train_samples=256, batch_size=16)
        trainer = FedAvgTrainer(cluster, participation=1.0, sync_factor=0.25, eval_every=100)
        steps_per_epoch = cluster.workers[0].loader.steps_per_epoch
        assert trainer.sync_interval == max(int(round(0.25 * steps_per_epoch)), 1)

    def test_aggregation_rounds_counted(self):
        cluster = make_small_cluster()
        trainer = FedAvgTrainer(cluster, participation=1.0, sync_factor=0.25, eval_every=100)
        trainer.run(trainer.sync_interval * 3)
        assert trainer.aggregation_rounds == 3

    def test_partial_participation_selects_subset(self):
        cluster = make_small_cluster(num_workers=8)
        trainer = FedAvgTrainer(cluster, participation=0.5, sync_factor=1.0, eval_every=100)
        participants = trainer._select_participants()
        assert len(participants) == 4
        assert len(set(participants)) == 4

    @pytest.mark.parametrize("participation", [1.0, 0.5])
    def test_crashed_worker_never_joins_a_round(self, participation):
        from repro.faults import FaultController, FaultSchedule, crash

        cluster = make_small_cluster(num_workers=4)
        trainer = FedAvgTrainer(cluster, participation=participation, sync_factor=1e-4,
                                eval_every=100)
        trainer.attach_fault_controller(FaultController(cluster, FaultSchedule([crash(1, 0)])))
        rows = []
        push = cluster.ps.push_matrix_parameters

        def recording_push(matrix, receivers=None):
            rows.append(matrix.copy())
            return push(matrix, receivers=receivers)

        cluster.ps.push_matrix_parameters = recording_push
        trainer.run(3)
        frozen = cluster.matrix.params[1]
        assert len(rows) == 3
        for pushed in rows:
            assert len(pushed) == (3 if participation == 1.0 else 2)
            assert not any(np.array_equal(row, frozen) for row in pushed)

    def test_high_lssr(self):
        cluster = make_small_cluster()
        trainer = FedAvgTrainer(cluster, participation=1.0, sync_factor=1.0, eval_every=100)
        result = trainer.run(trainer.sync_interval * 2)
        assert result.lssr > 0.5

    def test_global_state_comes_from_ps_after_rounds(self):
        cluster = make_small_cluster()
        trainer = FedAvgTrainer(cluster, participation=1.0, sync_factor=0.25, eval_every=100)
        trainer.run(trainer.sync_interval)
        state = trainer.global_state()
        ps_state = cluster.ps.pull()
        for name in state:
            np.testing.assert_array_equal(state[name], ps_state[name])

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            FedAvgTrainer(make_small_cluster(), participation=0.0)
        with pytest.raises(ValueError):
            FedAvgTrainer(make_small_cluster(), sync_factor=1.5)

    def test_describe(self):
        trainer = FedAvgTrainer(make_small_cluster(), participation=0.5, sync_factor=0.125)
        assert trainer.describe() == "fedavg(C=0.5, E=0.125)"


class TestSSP:
    def test_runs_and_reports(self):
        cluster = make_small_cluster()
        result = SSPTrainer(cluster, staleness=100, eval_every=100).run(10)
        assert result.iterations == 10
        assert np.isfinite(result.final_metric)

    def test_every_worker_pushes_and_pulls_once_per_step(self):
        cluster = make_small_cluster()
        SSPTrainer(cluster, staleness=100, eval_every=100).run(6)
        n = cluster.num_workers
        # The start loads the PS state unpriced, like every other trainer's.
        assert cluster.ps.total_pushed_bytes == 6 * n * cluster.ps.state_bytes()
        assert cluster.ps.total_pulled_bytes == 6 * n * cluster.ps.state_bytes()
        assert cluster.ps.version == 6 * n

    def test_staleness_bound_never_binds_in_lockstep(self):
        tight, loose = make_small_cluster(seed=5), make_small_cluster(seed=5)
        SSPTrainer(tight, staleness=0, eval_every=100).run(6)
        SSPTrainer(loose, staleness=100, eval_every=100).run(6)
        np.testing.assert_array_equal(tight.matrix.params, loose.matrix.params)
        np.testing.assert_array_equal(tight.clock.worker_time, loose.clock.worker_time)

    def test_extras_hold_the_bound_only(self):
        result = SSPTrainer(make_small_cluster(), staleness=7, eval_every=100).run(2)
        assert result.extras == {"staleness": 7.0}

    def test_cheaper_per_step_than_bsp(self):
        """SSP avoids the per-step barrier, so simulated time should be lower."""
        bsp_cluster = make_small_cluster(seed=4)
        ssp_cluster = make_small_cluster(seed=4)
        BSPTrainer(bsp_cluster, eval_every=100).run(10)
        SSPTrainer(ssp_cluster, staleness=100, eval_every=100).run(10)
        assert ssp_cluster.clock.elapsed < bsp_cluster.clock.elapsed

    def test_global_state_is_ps_state(self):
        cluster = make_small_cluster()
        trainer = SSPTrainer(cluster, staleness=100, eval_every=100)
        trainer.run(3)
        state = trainer.global_state()
        ps_state = cluster.ps.pull()
        for name in state:
            np.testing.assert_array_equal(state[name], ps_state[name])

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            SSPTrainer(make_small_cluster(), staleness=-1)

    def test_describe(self):
        assert SSPTrainer(make_small_cluster(), staleness=200).describe() == "ssp(s=200)"
