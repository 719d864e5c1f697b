"""Tests for the SelSync trainer (Alg. 1): δ rule, flags protocol, PA vs GA."""

import numpy as np
import pytest

from tests.conftest import make_small_cluster

from repro.algorithms.bsp import BSPTrainer
from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer


class TestDeltaExtremes:
    def test_delta_zero_synchronizes_every_step(self):
        """δ = 0 degenerates to fully synchronous training (LSSR = 0)."""
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.0), eval_every=100)
        trainer.run(10)
        assert trainer.sync_steps == 10
        assert trainer.local_steps == 0
        assert trainer.lssr_tracker.value == 0.0

    def test_huge_delta_trains_locally(self):
        """δ above the max observed Δ(gᵢ) degenerates to local SGD (LSSR → 1)."""
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=1e9), eval_every=100)
        trainer.run(10)
        # Only the forced first-step synchronization should have happened.
        assert trainer.sync_steps == 1
        assert trainer.local_steps == 9
        assert trainer.lssr_tracker.value == pytest.approx(0.9)

    def test_intermediate_delta_mixes_modes(self):
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.05), eval_every=100)
        trainer.run(30)
        assert trainer.sync_steps >= 1
        assert trainer.sync_steps + trainer.local_steps == 30

    def test_lssr_decreases_with_delta(self):
        """Sliding δ towards 0 moves training towards BSP (Fig. 6)."""
        lssr = {}
        for delta in (0.0, 0.1, 1e9):
            cluster = make_small_cluster(seed=3)
            trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=delta), eval_every=100)
            trainer.run(25)
            lssr[delta] = trainer.lssr_tracker.value
        assert lssr[0.0] <= lssr[0.1] <= lssr[1e9]


class TestEquivalences:
    def test_delta_zero_matches_bsp_without_momentum(self):
        """With plain SGD, per-step parameter averaging equals gradient averaging.

        SelSync with δ=0 must therefore follow the exact BSP trajectory.
        """
        bsp_cluster = make_small_cluster(momentum=0.0, seed=7)
        sel_cluster = make_small_cluster(momentum=0.0, seed=7)
        bsp = BSPTrainer(bsp_cluster, eval_every=100)
        sel = SelSyncTrainer(sel_cluster, SelSyncConfig(delta=0.0), eval_every=100)
        bsp.run(5)
        sel.run(5)
        bsp_state = bsp.global_state()
        sel_state = sel.global_state()
        for name in bsp_state:
            np.testing.assert_allclose(bsp_state[name], sel_state[name], atol=1e-10)

    def test_pa_sync_leaves_replicas_identical(self):
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.0, aggregation="param"),
                                 eval_every=100)
        trainer.run(3)
        assert cluster.replica_divergence() == pytest.approx(0.0, abs=1e-12)

    def test_ga_replicas_diverge_after_local_steps(self):
        """§III-C: under GA with local steps, replicas drift apart."""
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.2, aggregation="grad"),
                                 eval_every=100)
        trainer.run(20)
        if trainer.local_steps > 0:
            assert cluster.replica_divergence() > 0.0

    def test_pa_and_ga_differ_when_steps_are_local(self):
        pa_cluster = make_small_cluster(seed=5)
        ga_cluster = make_small_cluster(seed=5)
        pa = SelSyncTrainer(pa_cluster, SelSyncConfig(delta=0.15, aggregation="param"),
                            eval_every=100)
        ga = SelSyncTrainer(ga_cluster, SelSyncConfig(delta=0.15, aggregation="grad"),
                            eval_every=100)
        pa.run(20)
        ga.run(20)
        pa_state = pa.global_state()
        ga_state = ga.global_state()
        different = any(
            not np.allclose(pa_state[name], ga_state[name]) for name in pa_state
        )
        # PA and GA only diverge once a *non-forced* synchronization step has
        # interacted with local steps; an all-local run is identical under
        # both modes by construction.
        if pa.sync_steps > 1 and pa.local_steps > 0:
            assert different


class TestGlobalStateCheckpoint:
    """Regression tests for the PA checkpoint-source rule.

    The PS copy is authoritative exactly when the *most recent* step was a
    synchronization (the historical rule required that no local step had
    *ever* happened, so any mixed run silently stopped trusting the PS).
    """

    def test_ps_trusted_when_last_step_synced_after_local_steps(self):
        cluster = make_small_cluster(seed=11)
        trainer = SelSyncTrainer(
            cluster, SelSyncConfig(delta=1e9, aggregation="param"), eval_every=100
        )
        trainer.run(6)  # forced first-step sync, then local steps
        assert trainer.local_steps > 0
        trainer.config.delta = 0.0  # force the next step to synchronize
        trainer.run(1)
        assert trainer.last_synced and trainer.local_steps > 0
        # Perturb one replica after the final sync (simulating external
        # drift): the checkpoint must still be the PS state, not the now
        # perturbed replica average.
        cluster.workers[1].param_vector[0] += 123.0
        state = trainer.global_state()
        ps_state = cluster.ps.pull()
        for name in ps_state:
            np.testing.assert_array_equal(state[name], ps_state[name])

    def test_replica_average_when_last_step_local(self):
        cluster = make_small_cluster(seed=3)
        trainer = SelSyncTrainer(
            cluster, SelSyncConfig(delta=1e9, aggregation="param"), eval_every=100
        )
        trainer.run(10)  # forced first-step sync, then all-local
        assert trainer.sync_steps == 1 and trainer.local_steps == 9
        assert not trainer.last_synced
        state = trainer.global_state()
        expected = cluster.average_worker_states()
        for name in expected:
            np.testing.assert_array_equal(state[name], expected[name])


class TestMechanics:
    def test_flags_allgather_called_every_step(self):
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.5), eval_every=100)
        trainer.run(12)
        assert cluster.backend.record.calls["allgather_bits"] == 12

    def test_sync_step_indices_recorded(self):
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.0), eval_every=100)
        trainer.run(5)
        assert trainer.sync_step_indices == [0, 1, 2, 3, 4]

    def test_one_bank_row_per_worker(self):
        cluster = make_small_cluster(num_workers=5)
        trainer = SelSyncTrainer(cluster, eval_every=100)
        assert trainer.bank.smoothed.shape == (5,)
        assert trainer.bank.alpha == pytest.approx(0.05)

    def test_step_max_delta_and_extremum(self):
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.3), eval_every=100)
        step_maxima = []
        for _ in range(8):
            trainer.train_step()
            step_maxima.append(float(trainer.bank.max_delta.max()))
        assert step_maxima[0] == 0.0
        assert max(step_maxima) == trainer.result_extras()["max_delta_observed"] > 0.0

    def test_simulated_time_lower_than_bsp_when_local(self):
        """Skipping synchronization must reduce simulated wall-clock per step."""
        bsp_cluster = make_small_cluster(seed=2)
        sel_cluster = make_small_cluster(seed=2)
        bsp = BSPTrainer(bsp_cluster, eval_every=100)
        sel = SelSyncTrainer(sel_cluster, SelSyncConfig(delta=1e9), eval_every=100)
        bsp.run(10)
        sel.run(10)
        assert sel_cluster.clock.elapsed < bsp_cluster.clock.elapsed

    def test_describe_and_extras(self):
        cluster = make_small_cluster()
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.3), eval_every=5)
        result = trainer.run(6)
        assert "δ=0.3" in result.algorithm
        assert result.extras["sync_steps"] + result.extras["local_steps"] == 6

    def test_learning_progress(self):
        """SelSync should actually learn the synthetic task."""
        cluster = make_small_cluster(train_samples=512)
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.1), eval_every=20)
        result = trainer.run(80)
        assert result.final_metric > 0.5

    def test_injection_skips_a_crashed_worker(self):
        """A crashed worker's loader stands still and its slot takes no pool."""
        from repro.faults import FaultController, FaultSchedule, crash

        cluster = make_small_cluster(num_workers=3)
        config = SelSyncConfig(delta=0.3, injection_alpha=1.0, injection_beta=0.5)
        trainer = SelSyncTrainer(cluster, config, eval_every=100)
        trainer.attach_fault_controller(FaultController(cluster, FaultSchedule([crash(1, 1)])))
        injected = []
        inject = trainer.injection.inject

        def recording_inject(batches, active):
            mixed, report = inject(batches, active)
            injected.append((mixed, report, active.copy()))
            return mixed, report

        trainer.injection.inject = recording_inject
        trainer.run(1)
        cursor = cluster.workers[1].loader._cursor
        trainer.run(2)
        assert cluster.workers[1].loader._cursor == cursor
        for (x, y), report, active in injected[1:]:
            assert active.tolist() == [True, False, True]
            assert report.selected_workers == [0, 2]
            # The crashed row is the first live row's placeholder, mixed alike.
            np.testing.assert_array_equal(x[1], x[0])
            np.testing.assert_array_equal(y[1], y[0])

    def test_injection_config_builds_injection(self):
        cluster = make_small_cluster()
        config = SelSyncConfig(delta=0.3, injection_alpha=0.5, injection_beta=0.5)
        trainer = SelSyncTrainer(cluster, config, eval_every=100)
        assert trainer.injection is not None
        trainer.run(5)
        assert trainer.injection.rounds == 5
