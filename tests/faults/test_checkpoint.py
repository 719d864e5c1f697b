"""Checkpoint/restore round-trip: bit-identical float64 continuation.

The contract the rejoin path rests on: ``trainer.checkpoint()`` →
mutate everything → ``trainer.restore()`` → continue on the *same*
``run_stepwise`` generator must yield exactly the trajectory of an
uninterrupted run, for every lockstep trainer family on the MLP,
transformer and AlexNet (Adam, private dropout streams) analogs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.faults import FaultController, FaultSchedule, crash, rejoin
from repro.faults.checkpoint import restore_cluster, restore_worker, snapshot_cluster
from repro.harness.experiment import build_cluster, build_workload, make_trainer
from repro.nn.layers import Dropout
from tests.conftest import make_small_cluster

pytestmark = pytest.mark.faults

ITERATIONS = 12
CHECKPOINT_AT = 5

ALGORITHM_KWARGS = {
    "bsp": {},
    "ssp": {"staleness": 3},
    "selsync": {"delta": 0.3},
}


def build_trainer(algorithm: str, workload: str, **overrides):
    preset = build_workload(workload)
    cluster = build_cluster(preset, num_workers=4, seed=0, batch_size=4)
    return make_trainer(
        algorithm,
        cluster,
        preset,
        ITERATIONS,
        eval_every=4,
        **{**ALGORITHM_KWARGS[algorithm], **overrides},
    )


def drive(stepper, steps=None):
    """Advance a run_stepwise generator; returns the TrainingResult at the end."""
    remaining = steps
    while remaining is None or remaining > 0:
        try:
            next(stepper)
        except StopIteration as stop:
            return stop.value
        if remaining is not None:
            remaining -= 1
    return None


def scramble(trainer):
    """Corrupt every piece of state the checkpoint claims to cover."""
    cluster = trainer.cluster
    cluster.matrix.params += 1.23
    cluster.matrix.grads[:] = 7.0
    cluster.ps.state_vector[:] += 0.5
    cluster.clock.worker_time += 11.0
    for array in cluster.fused_update.state.values():
        array += 3
    for worker in cluster.workers:
        for _, module in worker.model.named_modules():
            if isinstance(module, Dropout):
                module._rng.random(5)
    trainer.global_step += 50


@pytest.mark.parametrize("workload", ["deep_mlp", "transformer", "alexnet"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_KWARGS))
def test_roundtrip_matches_uninterrupted_run(algorithm, workload):
    baseline_trainer = build_trainer(algorithm, workload)
    baseline = baseline_trainer.run(ITERATIONS, eval_every=4)

    trainer = build_trainer(algorithm, workload)
    stepper = trainer.run_stepwise(ITERATIONS, eval_every=4)
    assert drive(stepper, steps=CHECKPOINT_AT) is None
    ckpt = trainer.checkpoint()
    scramble(trainer)
    trainer.restore(ckpt)
    restored = drive(stepper)

    assert restored.final_metric == baseline.final_metric
    assert restored.final_loss == baseline.final_loss
    assert restored.sim_time_seconds == baseline.sim_time_seconds
    assert restored.communication_bytes == baseline.communication_bytes
    assert restored.lssr == baseline.lssr
    assert [p.loss for p in trainer.history] == [
        p.loss for p in baseline_trainer.history
    ]
    np.testing.assert_array_equal(
        trainer.cluster.matrix.params, baseline_trainer.cluster.matrix.params
    )


@pytest.mark.parametrize("workload", ["deep_mlp", "transformer"])
def test_restore_back_across_a_milestone_continues_bit_identically(workload):
    """The lr is a function of the step, not checkpoint state.

    The run goes on past a decay (deep_mlp's first milestone is step 7 of 12;
    the transformer decays every step), is restored to step 5, and finishes:
    its trajectory is the uninterrupted run's.
    """
    baseline = build_trainer("bsp", workload)
    baseline.run(ITERATIONS, eval_every=4)

    trainer = build_trainer("bsp", workload)
    trainer.run(CHECKPOINT_AT, eval_every=4)
    ckpt = trainer.checkpoint()
    trainer.run(4, eval_every=4)
    trainer.restore(ckpt)
    trainer.run(ITERATIONS - CHECKPOINT_AT, eval_every=4)

    assert trainer.global_step == ITERATIONS
    cluster, expected = trainer.cluster, baseline.cluster
    assert cluster.matrix.params.tobytes() == expected.matrix.params.tobytes()
    for name, array in cluster.fused_update.state.items():
        assert array.tobytes() == expected.fused_update.state[name].tobytes()


class TestSelSyncTrackerState:
    def test_tracker_state_does_not_grow_with_steps(self):
        sizes = []
        for steps in (10, 200):
            trainer = SelSyncTrainer(
                make_small_cluster(), SelSyncConfig(delta=0.3), eval_every=1000
            )
            trainer.run(steps)
            sizes.append(len(pickle.dumps(trainer.trainer_state()["bank"])))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("aggregation", ["param", "grad"])
    def test_restore_under_crash_rejoin_matches_uninterrupted_run(self, aggregation):
        # Worker 1 is down across the checkpoint, so its frozen bank row
        # must survive the round trip; worker 2 crashes after it.
        schedule = FaultSchedule([crash(1, 3), crash(2, 6), rejoin(1, 8), rejoin(2, 10)])

        def build():
            trainer = build_trainer("selsync", "deep_mlp", aggregation=aggregation)
            trainer.attach_fault_controller(FaultController(trainer.cluster, schedule))
            return trainer

        baseline = build()
        baseline.run(ITERATIONS, eval_every=4)

        trainer = build()
        stepper = trainer.run_stepwise(ITERATIONS, eval_every=4)
        assert drive(stepper, steps=CHECKPOINT_AT) is None
        ckpt = trainer.checkpoint()
        scramble(trainer)
        trainer.bank.update(np.full(4, 5.0), np.ones(4, dtype=bool))
        trainer.sync_step_indices.append(99)
        trainer.restore(ckpt)
        drive(stepper)

        assert trainer.cluster.matrix.params.tobytes() == (
            baseline.cluster.matrix.params.tobytes()
        )
        assert trainer.sync_step_indices == baseline.sync_step_indices
        assert 0 < len(baseline.sync_step_indices) < ITERATIONS
        extras, expected = trainer.result_extras(), baseline.result_extras()
        assert extras["max_delta_observed"] == expected["max_delta_observed"] > 0.0


class TestCheckpointMechanics:
    def test_checkpoint_holds_copies_not_views(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        ckpt = snapshot_cluster(cluster)
        before = ckpt.params.copy()
        cluster.matrix.params += 3.0
        np.testing.assert_array_equal(ckpt.params, before)

    def test_restore_rejects_mismatched_worker_count(self, small_cluster_builder):
        small = small_cluster_builder(num_workers=2)
        big = small_cluster_builder(num_workers=3)
        with pytest.raises(ValueError, match="workers"):
            restore_cluster(big, snapshot_cluster(small))

    def test_cluster_checkpoint_api_roundtrip(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        batches = cluster.next_batches()
        cluster.compute_gradients_all(batches)
        cluster.apply_local_updates()
        cluster.charge_compute_step()
        ckpt = cluster.checkpoint()
        params = cluster.matrix.params.copy()
        elapsed = cluster.clock.elapsed

        cluster.matrix.params[:] = -4.0
        cluster.clock.worker_time += 9.0
        cluster.deactivate_worker(1)
        cluster.restore(ckpt)

        np.testing.assert_array_equal(cluster.matrix.params, params)
        assert cluster.clock.elapsed == elapsed
        assert cluster.active_mask.all()

    def test_restore_resumes_identical_data_stream(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        ckpt = cluster.checkpoint()
        expected = cluster.next_batches()
        cluster.next_batches()  # advance further before restoring
        cluster.restore(ckpt)
        resumed = cluster.next_batches()
        np.testing.assert_array_equal(resumed[0], expected[0])
        np.testing.assert_array_equal(resumed[1], expected[1])

    def test_optimizer_state_is_a_copy_of_the_fused_update(self):
        cluster = build_cluster(build_workload("alexnet"), num_workers=3, batch_size=4)
        update = cluster.fused_update
        for _ in range(2):
            cluster.compute_gradients_all(cluster.next_batches())
            cluster.apply_local_updates()
        ckpt = snapshot_cluster(cluster)
        assert sorted(ckpt.update_state) == ["m", "t", "v"]
        for name, array in update.state.items():
            np.testing.assert_array_equal(ckpt.update_state[name], array)
            assert not np.shares_memory(ckpt.update_state[name], array)
        assert ckpt.update_state["t"].tolist() == [2, 2, 2]

    def test_rejoin_restores_one_row(self):
        cluster = build_cluster(build_workload("alexnet"), num_workers=3, batch_size=4)
        update = cluster.fused_update
        cluster.compute_gradients_all(cluster.next_batches())
        cluster.apply_local_updates()
        ckpt = snapshot_cluster(cluster)
        for _ in range(2):
            cluster.compute_gradients_all(cluster.next_batches())
            cluster.apply_local_updates()
        later = {name: array.copy() for name, array in update.state.items()}

        restore_worker(cluster, ckpt, 1)
        assert update.t.tolist() == [3, 1, 3]
        for name, array in update.state.items():
            np.testing.assert_array_equal(array[1], ckpt.update_state[name][1])
            np.testing.assert_array_equal(array[[0, 2]], later[name][[0, 2]])

        restore_cluster(cluster, ckpt)
        assert update.t.tolist() == [1, 1, 1]
