"""The perf ledger's trace targets still land on the trainers' hot path.

``benchmarks/ledger/trace.py`` wraps methods by name from outside the
program: ``SelSyncTrainer.train_step`` and ``BSPTrainer.train_step`` as
``trainer.step``, ``repro.core.selsync:batch_gradient_statistic`` as
``stats.grad_statistic``, the collectives and parameter-server pushes as
``comm.*``.  A refactor can silently move work out from under those names —
a trainer that subclasses another is wrapped twice, a Δ(g) call routed
around ``repro.core.selsync`` is never timed.  This test installs the
wrappers in a child process (``trace.install`` cannot be undone), trains two
steps each of BSP and SelSync, and checks the span tree.  A second child runs
a two-point sweep and an experiment through ``repro.api.run`` and checks that
each training run is one ``harness.run_experiment`` span under the façade's
``api.run`` (through ``scenarios.run_scenario`` for the sweep).
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


#: One ``repro.api.run`` of each kind that goes through the scenario runner or not.
API_CHILD = """
import json
from benchmarks.ledger import trace

recorder = trace.Recorder()
trace.install(recorder)
import repro.api as api

spans = {}
for kind, fields in (("sweep", {"grid": {"delta": [0.1, 0.5]}}),
                     ("experiment", {"params": {"delta": 0.1}})):
    first = len(recorder.spans)
    api.run(kind=kind, workload="deep_mlp", algorithm="selsync", num_workers=2,
            iterations=2, **fields)
    spans[kind] = [(s[0], s[1], s[2]) for s in recorder.spans[first:]]
print(json.dumps(spans))
"""


def _child_spans(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def spans():
    return _child_spans(CHILD)


@pytest.fixture(scope="module")
def api_spans():
    return _child_spans(API_CHILD)


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


def _children(spans, parent_name):
    """The names of the spans directly under the one span called ``parent_name``."""
    (parent,) = [span_id for span_id, _, name in spans if name == parent_name]
    return sorted(name for _, parent_id, name in spans if parent_id == parent)


def test_a_sweep_is_one_scenario_span_over_one_run_span_per_point(api_spans):
    spans = api_spans["sweep"]
    assert "scenarios.run_scenario" in _children(spans, "api.run")
    assert [name for name in _children(spans, "scenarios.run_scenario")
            if name == "harness.run_experiment"] == ["harness.run_experiment"] * 2


def test_an_experiment_is_one_run_span_under_api_run(api_spans):
    spans = api_spans["experiment"]
    assert "scenarios.run_scenario" not in {name for _, _, name in spans}
    assert [name for name in _children(spans, "api.run")
            if name == "harness.run_experiment"] == ["harness.run_experiment"]
