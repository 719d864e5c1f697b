"""FaultController behavior and run_experiment fault arming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.faults import FaultController, FaultSchedule
from repro.faults.schedule import crash, rejoin, straggler_burst
from repro.harness.experiment import ConfigError, RunConfig, run_experiment
from tests.conftest import make_small_cluster

pytestmark = pytest.mark.faults


def controller_for(cluster, events, **kwargs):
    return FaultController(cluster, FaultSchedule(events), **kwargs)


class TestController:
    def test_invalid_checkpoint_interval_rejected(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            controller_for(cluster, [], checkpoint_every=0)

    def test_schedule_validated_against_cluster_size(self, small_cluster_builder):
        from repro.faults.schedule import FaultError

        cluster = small_cluster_builder(num_workers=2)
        with pytest.raises(FaultError, match="has 2 workers"):
            controller_for(cluster, [crash(5, 0)])

    def test_crash_deactivates_and_snapshots(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3)
        controller = controller_for(cluster, [crash(1, 2)])
        step0_ckpt = controller.latest_checkpoint
        controller.before_step(0)
        assert cluster.active_mask.all()  # nothing scheduled yet
        cluster.matrix.params[:] += 1.0  # state moves between steps
        controller.before_step(2)
        assert not cluster.active_mask[1]
        assert controller.crash_count == 1
        # The crash snapshot is fresh, not the step-0 one.
        assert controller.latest_checkpoint is not step0_ckpt
        np.testing.assert_array_equal(
            controller.latest_checkpoint.params, cluster.matrix.params
        )
        assert controller.event_log == [{"step": 2, "kind": "crash", "worker": 1}]

    def test_rejoin_restores_syncs_and_charges_resync(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3)
        controller = controller_for(cluster, [crash(1, 1), rejoin(1, 4)])
        controller.before_step(1)
        # The survivors make progress while worker 1 is down.
        cluster.clock.advance_worker(0, 5.0)
        cluster.ps.set_state(np.full(cluster.matrix.spec.total_size, 2.5))
        comm_before = cluster.clock.buckets["communication"]
        controller.before_step(4)
        assert cluster.active_mask.all()
        assert controller.rejoin_count == 1
        # Fast-forwarded to the barrier, then charged the re-sync pull.
        assert cluster.clock.worker_elapsed(1) > 5.0
        assert cluster.clock.buckets["communication"] > comm_before
        # The rejoined row carries the parameter server's current state.
        np.testing.assert_allclose(cluster.matrix.params[1], 2.5)

    def test_straggler_burst_scales_and_expires(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        controller = controller_for(
            cluster, [straggler_burst(1, 2, duration=3, slowdown=4.0)]
        )
        controller.before_step(2)
        assert cluster.fault_speed_scale[1] == 0.25
        assert controller.straggler_count == 1
        controller.before_step(4)  # still inside the burst
        assert cluster.fault_speed_scale[1] == 0.25
        controller.before_step(5)  # burst over
        assert cluster.fault_speed_scale[1] == 1.0

    def test_periodic_checkpoint_refreshes_restore_point(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        controller = controller_for(cluster, [], checkpoint_every=2)
        first = controller.latest_checkpoint
        controller.before_step(1)
        assert controller.latest_checkpoint is first  # not due yet
        controller.before_step(2)
        assert controller.latest_checkpoint is not first


class TestRunExperimentFaults:
    def test_unsupported_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="fault injection"):
            RunConfig("deep_mlp", "ssp", {"staleness": 10}, iterations=4, failure_rate=0.1)
        with pytest.raises(ConfigError, match="fault injection"):
            run_experiment(RunConfig("deep_mlp", "ssp", iterations=4),
                           fault_schedule=FaultSchedule([crash(1, 2)]))

    def test_every_lockstep_trainer_takes_faults(self):
        from repro.harness.experiment import FAULT_ALGORITHMS, TRAINERS

        assert sorted(FAULT_ALGORITHMS) == sorted(set(TRAINERS) - {"ssp"})

    @pytest.mark.parametrize("algorithm, params", [
        ("fedavg", {"participation": 0.5}),
        ("compressed_bsp", {"compressor": TopKCompressor(ratio=0.1)}),
    ])
    def test_fedavg_and_compressed_bsp_replay_a_seeded_fault_run(self, algorithm, params):
        config = RunConfig("deep_mlp", algorithm, params, iterations=40, fault_seed=1,
                           failure_rate=0.05, fault_checkpoint_every=8)
        first = run_experiment(config)
        assert first.extras["fault_crashes"] > 0
        assert run_experiment(config) == first

    def test_explicit_schedule_counts_land_in_extras(self):
        schedule = FaultSchedule(
            [crash(1, 2), straggler_burst(0, 3, duration=2), rejoin(1, 6)]
        )
        result = run_experiment(RunConfig("deep_mlp", "selsync", iterations=10),
                                fault_schedule=schedule)
        assert result.extras["fault_crashes"] == 1.0
        assert result.extras["fault_rejoins"] == 1.0
        assert result.extras["fault_stragglers"] == 1.0
        assert np.isfinite(result.final_loss)

    def test_generated_faults_replay_deterministically(self):
        kwargs = dict(
            iterations=16,
            fault_seed=5,
            failure_rate=0.08,
            straggler_fraction=0.2,
            mttr=4,
            fault_checkpoint_every=4,
        )
        a = run_experiment(RunConfig("deep_mlp", "bsp", **kwargs))
        b = run_experiment(RunConfig("deep_mlp", "bsp", **kwargs))
        assert a.final_metric == b.final_metric
        assert a.final_loss == b.final_loss
        assert a.sim_time_seconds == b.sim_time_seconds
        assert a.communication_bytes == b.communication_bytes

    def test_unarmed_run_untouched_by_fault_defaults(self):
        plain = run_experiment(RunConfig("deep_mlp", "bsp", iterations=8))
        explicit = run_experiment(RunConfig(
            "deep_mlp", "bsp", iterations=8, failure_rate=0.0, straggler_fraction=0.0
        ))
        assert "fault_crashes" not in plain.extras
        assert "fault_crashes" not in explicit.extras
        assert plain.final_loss == explicit.final_loss
