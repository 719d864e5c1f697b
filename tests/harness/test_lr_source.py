"""One lr source: a preset's optimizer states the lr, its schedule only shapes it.

Every step of a preset run is taken at ``optimizer.lr * schedule(step)``,
whatever optimizer the preset builds, and the cluster's fused update keeps
the optimizer's lr unchanged for the whole run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.harness.experiment import (
    WORKLOAD_PRESETS,
    build_cluster,
    build_workload,
    make_trainer,
)
from repro.optim.adam import Adam

#: Run length: every preset's schedule decays within it except alexnet's
#: constant one (milestones at steps 6 and 9; the transformer decays every step).
TOTAL = 10


def _run_recording_lrs(preset, steps):
    """Run ``steps`` BSP steps of ``preset`` on 2 workers; the lr of each step."""
    cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=4)
    update = cluster.fused_update
    applied = []
    step = update._step
    update._step = lambda lr, grads: (applied.append(lr), step(lr, grads))
    try:
        make_trainer("bsp", cluster, preset, total_iterations=TOTAL, eval_every=TOTAL).run(steps)
    finally:
        cluster.close()
    return applied, update.lr


def _optimizer_lr(preset):
    return preset.optimizer_factory(preset.model_factory(np.random.default_rng(0))).lr


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PRESETS))
def test_each_step_runs_at_the_optimizer_lr_times_the_shape(workload):
    preset = build_workload(workload)
    lr = _optimizer_lr(preset)
    schedule = preset.lr_schedule_factory(TOTAL)
    applied, kept = _run_recording_lrs(preset, TOTAL)
    assert applied[0] == lr
    assert applied == [lr * schedule(k) for k in range(TOTAL)]
    assert kept == lr
    if workload != "alexnet":
        assert applied[-1] < lr


def test_a_swapped_optimizer_sets_the_lr():
    preset = dataclasses.replace(
        build_workload("transformer"), optimizer_factory=lambda m: Adam(m, lr=3e-3)
    )
    schedule = preset.lr_schedule_factory(TOTAL)
    applied, kept = _run_recording_lrs(preset, 3)
    assert applied == [3e-3 * schedule(k) for k in range(3)]
    assert applied[1] == 3e-3 * 0.8
    assert kept == 3e-3
