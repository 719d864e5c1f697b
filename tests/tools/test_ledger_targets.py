"""The perf ledger's trace targets still land on the trainers' hot path.

``benchmarks/ledger/trace.py`` wraps methods by name from outside the
program: ``SelSyncTrainer.train_step`` and ``BSPTrainer.train_step`` as
``trainer.step``, ``repro.core.selsync:batch_gradient_statistic`` as
``stats.grad_statistic``, the collectives and parameter-server pushes as
``comm.*``.  A refactor can silently move work out from under those names —
a trainer that subclasses another is wrapped twice, a Δ(g) call routed
around ``repro.core.selsync`` is never timed.  This test installs the
wrappers in a child process (``trace.install`` cannot be undone), trains two
steps each of BSP and SelSync, and checks the span tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

CHILD = """
import json
from benchmarks.ledger import trace

recorder = trace.Recorder()
trace.install(recorder)
from repro.harness.experiment import build_cluster, build_workload, make_trainer

spans = {}
for algorithm in ("bsp", "selsync"):
    preset = build_workload("deep_mlp")
    cluster = build_cluster(preset, num_workers=2, seed=0)
    trainer = make_trainer(algorithm, cluster, preset, total_iterations=2, eval_every=100)
    first = len(recorder.spans)
    for _ in range(2):
        trainer.train_step()
        trainer.global_step += 1
        cluster.global_step = trainer.global_step
    spans[algorithm] = [(s[0], s[1], s[2]) for s in recorder.spans[first:]]
print(json.dumps(spans))
"""


@pytest.fixture(scope="module")
def spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def _under_steps(spans):
    """Step span count, and the names of every span nested in a step."""
    parent = {span_id: parent_id for span_id, parent_id, _ in spans}
    steps = {span_id for span_id, _, name in spans if name == "trainer.step"}

    def in_step(span_id):
        while parent.get(span_id):
            span_id = parent[span_id]
            if span_id in steps:
                return True
        return False

    return len(steps), {name for span_id, _, name in spans if in_step(span_id)}


@pytest.mark.parametrize("algorithm,layers", [
    ("bsp", {"comm.allreduce"}),
    ("selsync", {"stats.grad_statistic", "comm.flags", "comm.ps_push"}),
])
def test_each_step_is_one_trainer_span_over_its_layers(spans, algorithm, layers):
    steps, nested = _under_steps(spans[algorithm])
    assert steps == 2
    assert "trainer.step" not in nested
    assert layers <= nested


def test_no_trainer_subclasses_another():
    # Whether a subclass's inherited step is wrapped twice depends on the
    # order of the ledger's targets; ruling the subclass out does not.
    from repro.harness.experiment import TRAINERS

    classes = set(TRAINERS.values())
    pairs = [(a, b) for a in classes for b in classes if a is not b and issubclass(a, b)]
    assert [(a.__name__, b.__name__) for a, b in pairs] == []
