"""A scenario's runs fan out over forked children (ARCHITECTURE.md, "Run fan-out").

The share count is computed, never set, so the tests steer what it is
computed *from*: ``threads.usable_cores`` and ``MIN_CHILD_WORKER_STEPS``.
A fanned-out report must equal the in-process one in every record and
result; ``wall_seconds`` is the one number measured where a run ran.
"""

from __future__ import annotations

import threading

import pytest

from repro import telemetry
from repro.engine import threads
from repro.faults.schedule import crash, rejoin
from repro.scenarios import (
    ComparisonScenario,
    FaultScenario,
    SweepScenario,
    run_scenario,
)
from repro.scenarios import runner

SIZING = dict(num_workers=3, iterations=6, batch_size=4)

SCENARIOS = {
    # Three runs over two shares: the round-robin deal is uneven.
    "sweep": lambda: SweepScenario(
        name="fan-sweep", title="t", workload="deep_mlp", grid={"delta": (0.0, 0.3, 1e9)},
        params={"aggregation": "grad", "sync_on_first_step": False},
        verify_endpoints=True, **SIZING,
    ),
    "comparison": lambda: ComparisonScenario(
        name="fan-comparison", title="t",
        methods={"bsp": ("bsp", {}), "selsync": ("selsync", {"delta": 0.3})},
        workloads=("deep_mlp", "resnet101"), num_workers=2, iterations=4,
    ),
    "fault": lambda: FaultScenario(
        name="fan-fault", title="t", workload="deep_mlp", algorithm="selsync",
        events=(crash(1, 2), rejoin(1, 5)), checkpoint_every=4, **SIZING,
    ),
}


@pytest.fixture
def fan_out(monkeypatch):
    """Let every scenario fan out to two shares; returns the fork count."""
    # An experiment service built earlier in this process leaves metrics on.
    monkeypatch.setattr(telemetry, "_TRACING", False)
    monkeypatch.setattr(telemetry, "_METRICS", False)
    monkeypatch.setattr(runner, "MIN_CHILD_WORKER_STEPS", 1)
    monkeypatch.setattr(threads, "usable_cores", lambda: 2)
    if threads.pin_blas() is None:
        pytest.skip("no OpenBLAS this process can pin to one thread")
    if threads._pool is not None:
        # An earlier test's shard pool: its idle threads would keep the runs
        # in-process.  It is created again on the next sharded step.
        threads._pool.shutdown(wait=True)
        threads._pool = None
    assert threading.active_count() == 1, threading.enumerate()
    forks = []
    real_fork = threads.os.fork
    monkeypatch.setattr(threads.os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def _comparable(report):
    payload = report.to_dict()
    payload["meta"].pop("sweep_wall_seconds", None)
    for record in payload["records"]:
        record["metrics"].pop("wall_seconds", None)
    for endpoint in payload.get("endpoints", {}).values():
        endpoint["record"]["metrics"].pop("wall_seconds")
    return payload, report.results


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_fanned_out_reports_equal_the_in_process_ones(kind, fan_out, monkeypatch):
    fanned = _comparable(run_scenario(SCENARIOS[kind]()))
    assert fan_out == [1]
    monkeypatch.setattr(threads, "usable_cores", lambda: 1)
    assert fanned == _comparable(run_scenario(SCENARIOS[kind]()))
    assert fan_out == [1]


def test_fanned_out_sweep_records_keep_their_wall_seconds(fan_out):
    report = run_scenario(SCENARIOS["sweep"]())
    assert all(record.metrics["wall_seconds"] > 0 for record in report.records)


def _no_fork():
    raise AssertionError("an in-process scenario forked")


def _start_idle_thread(monkeypatch, request):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()

    def join():
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

    request.addfinalizer(join)


def _trace_on(monkeypatch, request):
    telemetry.configure(tracing=True)
    request.addfinalizer(telemetry.get_tracer().drain)


IN_PROCESS = {
    "one usable core": lambda mp, rq: mp.setattr(threads, "usable_cores", lambda: 1),
    "no BLAS to pin": lambda mp, rq: mp.setattr(threads, "pin_blas", lambda: None),
    "a share below the floor": lambda mp, rq: mp.setattr(
        runner, "MIN_CHILD_WORKER_STEPS", 3 * 6 + 1
    ),
    "tracing on": _trace_on,
    "metrics on": lambda mp, rq: telemetry.configure(metrics=True),
    "a live extra thread": _start_idle_thread,
}


@pytest.mark.parametrize("condition", sorted(IN_PROCESS))
def test_each_in_process_condition_forks_nothing(condition, fan_out, monkeypatch, request):
    IN_PROCESS[condition](monkeypatch, request)
    monkeypatch.setattr(threads.os, "fork", _no_fork)
    scenario = SweepScenario(
        name="in-process", title="t", workload="deep_mlp", grid={"delta": (0.0, 0.3)}, **SIZING,
    )
    assert len(run_scenario(scenario).records) == 2


def test_a_single_run_forks_nothing(fan_out, monkeypatch):
    monkeypatch.setattr(threads.os, "fork", _no_fork)
    scenario = SweepScenario(
        name="one-run", title="t", workload="deep_mlp", grid={"delta": (0.3,)}, **SIZING,
    )
    assert len(run_scenario(scenario).records) == 1


def test_a_childs_failure_reaches_the_caller(fan_out, monkeypatch):
    real = runner.train_run

    def fail_on_the_second_run(config, params, **kwargs):
        if params == {"delta": 0.3}:
            raise RuntimeError("run delta=0.3 failed")
        return real(config, params, **kwargs)

    monkeypatch.setattr(runner, "train_run", fail_on_the_second_run)
    with pytest.raises(RuntimeError, match="run delta=0.3 failed"):
        run_scenario(SCENARIOS["sweep"]())
    assert fan_out == [1]
