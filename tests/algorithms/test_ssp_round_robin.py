"""SSP on the worker matrix equals the per-worker round-robin loop, bit for bit.

The reference below is SSP written one worker at a time: worker ``i``
computes its gradient against the state it last pulled, steps its own
standalone optimizer (built by the preset's factory), adds ``1/N`` of its
delta to the parameter server's state and pulls the result before worker
``i + 1`` starts.  :class:`SSPTrainer` computes every
gradient in one batched pass and pushes the deltas in worker order; both
must leave the same bits behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.experiment import build_cluster, build_workload, make_trainer

WORKERS = 4
STEPS = 8


def _cluster(workload: str):
    preset = build_workload(workload)
    return preset, build_cluster(preset, num_workers=WORKERS, seed=3, dtype="float64")


def _round_robin_step(cluster, optimizers, lr, step):
    """One global SSP step, one worker after another; returns the mean loss."""
    ps = cluster.ps
    model_bytes = cluster.workload_spec.model_bytes
    speeds = cluster.speed_model.speed_factors(cluster.num_workers, step)
    losses = []
    for worker, optimizer, speed in zip(cluster.workers, optimizers, speeds):
        pulled = worker.param_vector.copy()
        batch = cluster.train_dataset[worker.loader.next_indices()]
        losses.append(worker.compute_gradients_flat(batch)[0])
        optimizer.lr = lr
        optimizer.step()
        ps.state_vector[:] += (worker.param_vector - pulled) / cluster.num_workers
        worker.set_state(ps.state_vector.copy())
        ps.total_pushed_bytes += ps.state_bytes()
        ps.total_pulled_bytes += ps.state_bytes()
        compute_s = cluster.compute_model.step_seconds(cluster.batch_size, speed)
        push_pull_s = cluster.comm_model.ssp_push_pull_seconds(model_bytes)
        cluster.clock.worker_time[worker.worker_id] += compute_s
        cluster.clock.worker_time[worker.worker_id] += push_pull_s
    return float(np.mean(losses))


@pytest.mark.parametrize("workload", ["deep_mlp", "transformer"])
def test_matrix_ssp_equals_the_round_robin_loop(workload):
    preset, cluster = _cluster(workload)
    _, reference = _cluster(workload)
    trainer = make_trainer(
        "ssp", cluster, preset, total_iterations=STEPS, eval_every=STEPS, staleness=3
    )
    schedule = preset.lr_schedule_factory(STEPS)
    optimizers = [preset.optimizer_factory(w.model) for w in reference.workers]
    preset_lr = optimizers[0].lr
    try:
        for step in range(STEPS):
            loss = trainer.train_step()["loss"]
            trainer.global_step = cluster.global_step = step + 1
            lr = preset_lr * schedule(step)
            assert loss == _round_robin_step(reference, optimizers, lr, step)
        np.testing.assert_array_equal(cluster.matrix.params, reference.matrix.params)
        np.testing.assert_array_equal(cluster.ps.state_vector, reference.ps.state_vector)
        np.testing.assert_array_equal(cluster.clock.worker_time, reference.clock.worker_time)
        assert cluster.ps.total_pushed_bytes == reference.ps.total_pushed_bytes
        assert cluster.ps.total_pulled_bytes == reference.ps.total_pulled_bytes
    finally:
        cluster.close()
        reference.close()
