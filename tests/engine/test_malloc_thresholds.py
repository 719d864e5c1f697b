"""Allocator thresholds held from the first large step (ARCHITECTURE.md,
"Process-wide native settings").

Until glibc raises its mmap threshold by itself, every block of 128 KiB or
more is mapped, faulted in and unmapped again on every step.  The executor
holds the thresholds on the first step whose activation block is that large;
small steps never touch them.  The page-fault guard runs in a fresh process,
because glibc's dynamic threshold is process state an earlier test may have
moved already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.engine import threads
from repro.harness.experiment import build_cluster, build_workload, make_trainer

needs_mallopt = pytest.mark.skipif(
    threads._mallopt() is None, reason="libc has no mallopt"
)


@pytest.fixture
def hold_calls(monkeypatch):
    """Count the executor's calls of ``hold_malloc_thresholds``."""
    calls = []
    monkeypatch.setattr(threads, "hold_malloc_thresholds", lambda: calls.append(1))
    return calls


def _selsync_steps(workload, num_workers, steps):
    preset = build_workload(workload)
    cluster = build_cluster(preset, num_workers=num_workers, seed=3)
    try:
        trainer = make_trainer(
            "selsync", cluster, preset, total_iterations=steps, eval_every=steps, delta=0.25
        )
        stepper = trainer.run_stepwise(steps)
        for _ in range(steps):
            next(stepper)
        stepper.close()
    finally:
        cluster.close()


@needs_mallopt
def test_transformer_steps_take_no_page_fault_storm():
    code = (
        "import json, resource\n"
        "from repro.engine import threads\n"
        "from repro.harness.experiment import build_cluster, build_workload, make_trainer\n"
        "preset = build_workload('transformer')\n"
        "cluster = build_cluster(preset, num_workers=8, seed=0)\n"
        "trainer = make_trainer('selsync', cluster, preset, total_iterations=100,\n"
        "                       eval_every=50, delta=0.25)\n"
        "stepper = trainer.run_stepwise(100)\n"
        "faults = []\n"
        "for _ in range(11):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    next(stepper)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(json.dumps({'faults': faults, 'held': threads._thresholds_held}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=120
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["held"]
    # Without the held thresholds every one of these steps maps and faults in
    # ≈18 MiB of activations afresh: 4,500-5,200 minor faults each.
    assert max(report["faults"][3:11]) < 500, report["faults"]


@pytest.mark.parametrize("num_workers", [16, 8])
def test_small_mlp_steps_never_hold_the_thresholds(hold_calls, num_workers):
    # deep_mlp at its preset batch: 16 x 4 x 48 elements = 24 KiB in float64,
    # the step workloads behind the mlp-sweep and svc-mixed ledger rows.
    _selsync_steps("deep_mlp", num_workers, steps=4)
    assert hold_calls == []


def test_the_first_large_step_holds_them_not_the_build(hold_calls):
    preset = build_workload("transformer")
    cluster = build_cluster(preset, num_workers=8, seed=3)
    try:
        assert hold_calls == []
        assert cluster.replica_exec.step(cluster.next_batches()) is not None
        assert hold_calls == [1]
    finally:
        cluster.close()


def test_one_shard_hosts_hold_them_too(hold_calls, monkeypatch):
    # The size test runs before the core count: a one-core host shards
    # nothing, and still keeps its blocks on the heap.
    monkeypatch.setattr(threads, "usable_cores", lambda: 1)
    preset = build_workload("transformer")
    cluster = build_cluster(preset, num_workers=8, seed=3)
    try:
        assert cluster.replica_exec.step(cluster.next_batches()) is not None
        assert list(cluster.replica_exec._chains) == [1]
        assert hold_calls == [1]
    finally:
        cluster.close()


class TestOncePerProcess:
    def test_sets_both_thresholds_once(self, monkeypatch):
        calls = []

        def fake_mallopt():
            return lambda param, value: calls.append((param, value)) or 1

        monkeypatch.setattr(threads, "_thresholds_held", False)
        monkeypatch.setattr(threads, "_mallopt", fake_mallopt)
        threads.hold_malloc_thresholds()
        threads.hold_malloc_thresholds()
        # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = 64 MiB.
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert threads._thresholds_held

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(threads, "_thresholds_held", False)
        monkeypatch.setattr(threads, "_mallopt", lambda: None)
        threads.hold_malloc_thresholds()
        assert threads._thresholds_held

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_keeps_them_held(self, monkeypatch):
        monkeypatch.setattr(threads, "_thresholds_held", False)
        monkeypatch.setattr(threads, "_mallopt", lambda: None)
        threads.hold_malloc_thresholds()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:   # child: report and leave without running pytest's teardown
            os.write(write_end, b"1" if threads._thresholds_held else b"0")
            os._exit(0)
        os.close(write_end)
        try:
            assert os.read(read_end, 1) == b"1"
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
