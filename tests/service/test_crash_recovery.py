"""Exactly-once after ``kill -9``: every job ends with one run or none.

Each trial forks a child that opens its own :class:`Store` (one file, or a
job file and a run file), drains a queue of scripted jobs through a
:class:`TaskManager`, and SIGKILLs itself just before its k-th SQL
statement, k seeded between 1 and the number a full drain executes.  The
parent then recovers, drains what is left and checks: no job is left
``RUNNING``, every ``DONE`` job has exactly one run (and its records once),
and no ``FAILED`` or ``CANCELLED`` job has a run.
"""

import itertools
import os
import random
import signal
import time

import pytest

from repro.api import RunResult
from repro.scenarios.runner import RunCancelled
from repro.service import CANCELLED, DONE, FAILED, Store, TaskManager

JOBS = 6

#: Job ``n`` (its one worker count) ends by ``n % 3``.
OUTCOMES = {0: DONE, 1: FAILED, 2: CANCELLED}


def runner(request, cancel_check=None):
    (n,) = request.target.worker_counts
    if OUTCOMES[n % 3] == FAILED:
        raise RuntimeError(f"job {n} failed")
    if OUTCOMES[n % 3] == CANCELLED:
        raise RunCancelled(f"job {n} cancelled")
    records = [{"params": {"n": n, "i": i}, "label": "crash", "metrics": {"loss": 1.0 / n}}
               for i in range(2)]
    return RunResult(kind=request.kind, label="crash", records=records, meta={"n": n})


def open_stores(directory, split):
    store = Store(str(directory / "jobs.sqlite3"))
    return store, Store(str(directory / "runs.sqlite3")) if split else store


def close_stores(store, runs):
    store.close()
    if runs is not store:
        runs.close()


def queue_jobs(directory, split):
    directory.mkdir()
    store, runs = open_stores(directory, split)
    for n in range(1, JOBS + 1):
        store.create("t", "throughput", {
            "kind": "throughput", "workloads": ["resnet101"], "worker_counts": [n],
        })
    close_stores(store, runs)


def drain(directory, split, kill_at=None):
    """Drain the queue, SIGKILLing this process before statement ``kill_at``.

    Returns the number of SQL statements the drain executed.
    """
    store, runs = open_stores(directory, split)
    executed = itertools.count(1)

    def trace(_statement):
        if next(executed) == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)

    for handle in {store, runs}:
        handle._conn.set_trace_callback(trace)
    TaskManager(store, runs=runs, runner=runner).run_pending_once()
    close_stores(store, runs)
    return next(executed) - 1


def killed_drain(directory, split, kill_at):
    pid = os.fork()
    if pid == 0:  # the child: never returns into pytest
        try:
            drain(directory, split, kill_at)
        finally:
            os._exit(1)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"child hung before statement {kill_at}")
        time.sleep(0.002)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("split", [False, True], ids=["one-file", "two-files"])
def test_sigkill_at_a_random_statement_then_recover(tmp_path, split, seed):
    queue_jobs(tmp_path / "dry", split)
    budget = drain(tmp_path / "dry", split)
    kill_at = random.Random(seed).randint(1, budget)

    trial = tmp_path / "trial"
    queue_jobs(trial, split)
    status = killed_drain(trial, split, kill_at)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    store, runs = open_stores(trial, split)
    try:
        store.recover(runs)
        TaskManager(store, runs=runs, runner=runner).run_pending_once()
        jobs, _ = store.list_jobs(limit=JOBS + 1)
        filed, _ = runs.runs(limit=JOBS + 1)
        (stored_records,) = runs._conn.execute("SELECT COUNT(*) FROM records").fetchone()
    finally:
        close_stores(store, runs)

    assert len(jobs) == JOBS
    assert [job.state for job in jobs] == [
        OUTCOMES[job.request["worker_counts"][0] % 3] for job in jobs
    ]
    done = {job.id: job for job in jobs if job.state == DONE}
    assert sorted(run.job_id for run in filed) == sorted(done)
    for run in filed:
        job = done[run.job_id]
        assert job.meta == run.meta and job.num_records == run.num_records == 2
    assert stored_records == 2 * len(done)
