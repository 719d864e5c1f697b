"""Service load benchmark: sustained concurrent submissions with p50/p99.

Measures the experiment service's own overhead — HTTP handling, schema +
deep validation, SQLite queueing, worker claim/execute/persist — not
training throughput.  A fleet of client threads submits analytic
``throughput`` jobs (each executes in well under a millisecond) against an
in-process :class:`~repro.service.app.ExperimentService` over real sockets,
so the recorded latencies are dominated by the service stack under
concurrency.

Recorded into ``BENCH_service.json`` at the repo root:

* ``submit_latency_ms`` — HTTP POST round-trip (validation + enqueue),
  p50/p99/mean/max across every submission;
* ``e2e_latency_ms`` — submit to observed ``DONE`` (client-side polling),
  i.e. queueing + execution + persistence;
* ``jobs_per_sec`` — sustained completed-job throughput over the run.

CI gates on the latency percentiles through ``repro bench compare service``
(>25% p99 growth fails, like the engine/scenario benches).  Gated behind ``--run-service`` for pytest runs;
standalone invocation::

    PYTHONPATH=src python -m benchmarks.service_load            # full run
    PYTHONPATH=src python -m benchmarks.service_load --smoke    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.service import ExperimentService, QuotaManager, ServiceClient

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: The submitted job: analytic relative-throughput curves — no training, so
#: latency percentiles measure the service, not the simulator.
ACTION = "throughput"
PAYLOAD = {"workloads": ["resnet101"], "worker_counts": [1, 2, 4, 8]}

#: Full-run shape: 8 concurrent submitters x 25 jobs each.
THREADS = 8
SUBMISSIONS_PER_THREAD = 25
SERVICE_WORKERS = 4

#: CI smoke shape (the per-PR perf job): enough samples for a stable p99
#: without holding the job hostage.
SMOKE_THREADS = 4
SMOKE_SUBMISSIONS = 10


def _percentiles(samples_ms: List[float]) -> Dict[str, float]:
    ordered = sorted(samples_ms)
    if not ordered:
        return {"p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}

    def at(q: float) -> float:
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    return {
        "p50": round(at(0.50), 3),
        "p99": round(at(0.99), 3),
        "mean": round(statistics.fmean(ordered), 3),
        "max": round(ordered[-1], 3),
    }


def run_load(
    *,
    threads: int = THREADS,
    submissions_per_thread: int = SUBMISSIONS_PER_THREAD,
    service_workers: int = SERVICE_WORKERS,
) -> Dict[str, object]:
    """Drive the load and return the BENCH_service.json payload."""
    service = ExperimentService(
        port=0,
        workers=service_workers,
        # admission control off: the benchmark measures capacity, not policy
        quotas=QuotaManager(max_active_jobs=None, rate=None),
    )
    service.start()
    submit_ms: List[float] = []
    e2e_ms: List[float] = []
    errors: List[str] = []
    lock = threading.Lock()

    def submitter(index: int) -> None:
        # one tenant per thread: the multi-tenant shape real traffic has
        client = ServiceClient(service.url, tenant=f"load-{index}")
        jobs: List[tuple[str, float]] = []
        for _ in range(submissions_per_thread):
            t0 = time.perf_counter()
            try:
                job = client.submit(ACTION, PAYLOAD)
            except Exception as exc:  # noqa: BLE001 — a failure is the finding
                with lock:
                    errors.append(f"submit: {exc}")
                continue
            elapsed = (time.perf_counter() - t0) * 1e3
            with lock:
                submit_ms.append(elapsed)
            jobs.append((job["id"], t0))
        for job_id, t0 in jobs:
            try:
                done = client.wait(job_id, timeout=120, poll_interval=0.005)
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(f"wait: {exc}")
                continue
            elapsed = (time.perf_counter() - t0) * 1e3
            with lock:
                e2e_ms.append(elapsed)
                if done["state"] != "DONE":
                    errors.append(f"job {job_id} finished {done['state']}")

    wall_start = time.perf_counter()
    pool = [threading.Thread(target=submitter, args=(i,)) for i in range(threads)]
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        wall = time.perf_counter() - wall_start
    finally:
        service.stop()

    total = threads * submissions_per_thread
    return {
        "config": {
            "threads": threads,
            "submissions_per_thread": submissions_per_thread,
            "service_workers": service_workers,
            "action": ACTION,
            "payload": PAYLOAD,
        },
        "load": {
            "total_jobs": total,
            "completed_jobs": len(e2e_ms),
            "failures": len(errors),
            "errors": errors[:10],
            "duration_seconds": round(wall, 3),
            "jobs_per_sec": round(len(e2e_ms) / wall, 2) if wall else 0.0,
            "submit_latency_ms": _percentiles(submit_ms),
            "e2e_latency_ms": _percentiles(e2e_ms),
        },
    }


def write_bench(payload: Dict[str, object], path: Path = BENCH_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    load = payload["load"]
    print(
        f"service load: {load['completed_jobs']}/{load['total_jobs']} jobs in "
        f"{load['duration_seconds']}s ({load['jobs_per_sec']} jobs/s); "
        f"submit p50/p99 = {load['submit_latency_ms']['p50']}/"
        f"{load['submit_latency_ms']['p99']} ms; "
        f"e2e p50/p99 = {load['e2e_latency_ms']['p50']}/"
        f"{load['e2e_latency_ms']['p99']} ms"
    )
    print(f"[written to {path}]")


# --------------------------------------------------------------------------- #
# pytest entry point (gated behind --run-service)
# --------------------------------------------------------------------------- #
@pytest.mark.perf
def test_service_load_records_latency_percentiles(request):
    if not request.config.getoption("--run-service"):
        pytest.skip("service load benchmark runs only with --run-service")
    payload = run_load(threads=SMOKE_THREADS, submissions_per_thread=SMOKE_SUBMISSIONS)
    load = payload["load"]
    assert load["failures"] == 0, load["errors"]
    assert load["completed_jobs"] == load["total_jobs"]
    assert load["submit_latency_ms"]["p99"] > 0
    assert load["e2e_latency_ms"]["p99"] >= load["e2e_latency_ms"]["p50"]
    write_bench(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI smoke shape ({SMOKE_THREADS} threads x {SMOKE_SUBMISSIONS} jobs)",
    )
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--submissions", type=int, default=None)
    parser.add_argument("--service-workers", type=int, default=SERVICE_WORKERS)
    parser.add_argument("--output", type=Path, default=BENCH_PATH)
    args = parser.parse_args(argv)
    threads = args.threads or (SMOKE_THREADS if args.smoke else THREADS)
    submissions = args.submissions or (SMOKE_SUBMISSIONS if args.smoke else SUBMISSIONS_PER_THREAD)
    payload = run_load(
        threads=threads,
        submissions_per_thread=submissions,
        service_workers=args.service_workers,
    )
    write_bench(payload, args.output)
    return 1 if payload["load"]["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
