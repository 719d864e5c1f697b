"""One pass of one workload, run in a fresh child process.

``python -m benchmarks.ledger.passes --workload W --seed S --seconds X ...``
sets the workload up (imports included: ``setup_s`` counts from the parent's
``--spawned-at`` stamp), warms it up, then runs closed-loop operations until
``X`` seconds have passed and a minimum operation count is reached.  The last
line of stdout is one JSON object; :mod:`benchmarks.ledger.ledger` pools the
passes of a run into metrics.

Every workload goes through public entry points only and leaves ``stacked``,
``pool_workers``, ``dtype`` and ``transport_dtype`` at their defaults: the
default path is what is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
import time
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from benchmarks.ledger import trace

#: LR-schedule horizon of the step workloads: far beyond what a pass reaches,
#: so the schedule (hence the per-step work) does not depend on pass length.
HORIZON = 100_000
WARMUP_STEPS = 5
#: Timed steps after which a step workload's state is digested; every pass
#: runs at least this many, so the digest is comparable across passes.
CHECK_STEPS = 100
MIN_OPS = 2
SVC_TENANTS = 2
SVC_POLL_S = 0.05


class Pass:
    """Clock, operation log and correctness log of one pass."""

    def __init__(
        self, seed: int, seconds: float, scale: float, recorder: Any,
        workdir: str, spawned_at: float,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.recorder = recorder
        self.workdir = workdir
        self.spawned_at = spawned_at
        self.op_ms: List[float] = []
        self.failures: List[str] = []
        self.steps_per_op = 1
        self.digest = ""
        self.counters: Dict[str, float] = {}
        self.extra: Dict[str, Any] = {}
        self.engine: Dict[str, float] = {}

    def scaled(self, size: int, floor: int) -> int:
        return max(int(size * self.scale), floor)

    def start_timed(self) -> None:
        self.setup_s = time.time() - self.spawned_at
        self._cpu0 = _cpu_times()
        self.timed_start = perf_counter()

    def time_left(self) -> bool:
        return perf_counter() - self.timed_start < self.seconds

    def stop_timed(self) -> None:
        self.timed_wall_s = perf_counter() - self.timed_start
        steal0, total0 = self._cpu0
        steal1, total1 = _cpu_times()
        self.steal_pct = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)

    def idle(self, seconds: float) -> None:
        """Sleep; a traced pass records it as idle time, not as unattributed work."""
        if self.recorder is None:
            time.sleep(seconds)
        else:
            with self.recorder.span(trace.IDLE):
                time.sleep(seconds)

    def op(self, fn: Callable[[], Any], check: Callable[[Any], Optional[str]]) -> None:
        """Time one operation, then check its outcome outside the timed part."""
        start = perf_counter()
        try:
            if self.recorder is None:
                value = fn()
            else:
                with self.recorder.span("op"):
                    value = fn()
            error = None
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            value, error = None, f"{type(exc).__name__}: {exc}"
        self.op_ms.append((perf_counter() - start) * 1e3)
        error = error or check(value)
        if error:
            self.failures.append(error)


def _cpu_times() -> tuple:
    """(steal, total) jiffies of the whole host from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def _sha(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# correctness: digests, counters, record checks
# --------------------------------------------------------------------------- #
def _simulated(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Records minus ``wall_seconds``: what must repeat exactly for one seed."""
    return [
        {
            "params": record["params"],
            "label": record["label"],
            "metrics": {k: v for k, v in record["metrics"].items() if k != "wall_seconds"},
        }
        for record in records
    ]


def _check_records(records: Any, count: int, digest: str) -> Optional[str]:
    if records is None:
        return "no records"
    if len(records) != count:
        return f"expected {count} records, got {len(records)}"
    for record in records:
        for name, value in record["metrics"].items():
            if not math.isfinite(value):
                return f"non-finite metric {name}={value}"
    if _sha(_simulated(records)) != digest:
        return "simulation digest differs from the warm-up operation's"
    return None


def _record_counters(records: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics = [record["metrics"] for record in records]
    sync = sum(m["sync_steps"] for m in metrics)
    local = sum(m["local_steps"] for m in metrics)
    return {
        "core.sync_steps": sync,
        "core.local_steps": local,
        "core.lssr": local / (local + sync),
        "comm.bytes_total": sum(m["communication_bytes"] for m in metrics),
        # SelSync talks to the parameter server once per synchronous step.
        "comm.sync_calls": sync,
        "cluster.sim_time_s": sum(m["sim_time_seconds"] for m in metrics),
    }


def _trainer_counters(trainer: Any) -> Dict[str, float]:
    cluster, tracker = trainer.cluster, trainer.lssr_tracker
    return {
        "core.sync_steps": tracker.sync_steps,
        "core.local_steps": tracker.local_steps,
        "core.lssr": tracker.value,
        "comm.bytes_total": cluster.backend.record.total_bytes + cluster.ps.total_pushed_bytes,
        "comm.sync_calls": cluster.ps.aggregations
        + cluster.backend.record.calls.get("allreduce", 0),
        "cluster.sim_time_s": cluster.clock.elapsed,
    }


def _trainer_digest(trainer: Any, counters: Dict[str, float]) -> str:
    """Digest of the run so far: counters, eval history and every parameter bit."""
    return _sha(
        {
            "step": trainer.global_step,
            "counters": counters,
            "history": [[p.step, p.metric, p.loss] for p in trainer.history],
            "params": hashlib.sha256(trainer.cluster.matrix.params.tobytes()).hexdigest(),
        }
    )


def _engine_model(workload: str, num_workers: int) -> Dict[str, float]:
    """Analytic work of one executor step and one fused update, from shapes.

    GEMM FLOPs are ``2·rows·in·out`` forward and twice that backward for every
    2-D weight (the embedding is a lookup); attention adds the two ``T×T``
    products per layer.  A fused update streams the ``(N, D)`` parameter and
    gradient matrices plus the optimizer's state rows, read and written.
    """
    from repro.harness.experiment import build_workload
    from repro.optim.adam import Adam

    preset = build_workload(workload)
    model = preset.model_factory(np.random.default_rng(0))
    shapes = {name: p.shape for name, p in model.named_parameters().items()}
    seq_len = preset.dataset_kwargs.get("bptt", 1)
    rows = preset.batch_size * seq_len
    gemm = sum(
        int(np.prod(shape)) for name, shape in shapes.items()
        if len(shape) == 2 and not name.startswith("embedding")
    )
    attention = sum(
        2 * seq_len * shape[0] for name, shape in shapes.items()
        if name.endswith("attn.q_proj.weight")
    )
    optimizer = preset.optimizer_factory(model)
    if isinstance(optimizer, Adam):
        streams = 7
    else:
        streams = 5 if optimizer.momentum else 3
    return {
        "flops_per_exec": float(6 * rows * (gemm + attention) * num_workers),
        "bytes_per_update": float(streams * num_workers * model.num_parameters() * 8),
    }


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def _step_workload(ctx: Pass, workload: str, algorithm: str, **algo: Any) -> None:
    """Operation = one global step of one trainer on an 8-worker cluster."""
    from repro.harness import experiment

    preset = experiment.build_workload(workload)
    cluster = experiment.build_cluster(preset, num_workers=8, seed=ctx.seed)
    trainer = experiment.make_trainer(
        algorithm, cluster, preset, total_iterations=HORIZON, eval_every=50, **algo
    )
    stepper = trainer.run_stepwise(HORIZON)
    for _ in range(WARMUP_STEPS):
        next(stepper)
    check_at = ctx.scaled(CHECK_STEPS, 5)
    probe = cluster.workers[0]

    def finite(_: Any) -> Optional[str]:
        return None if math.isfinite(probe.last_loss) else f"non-finite loss {probe.last_loss}"

    ctx.start_timed()
    while len(ctx.op_ms) < check_at or ctx.time_left():
        ctx.op(lambda: next(stepper), finite)
        if ctx.failures:
            break  # the stepper is dead after an exception
        if len(ctx.op_ms) == check_at:
            ctx.counters = _trainer_counters(trainer)
            ctx.digest = _trainer_digest(trainer, ctx.counters)
    ctx.stop_timed()
    stepper.close()
    cluster.close()
    ctx.engine = _engine_model(workload, 8)


def lm_fused(ctx: Pass) -> None:
    _step_workload(ctx, "transformer", "selsync", delta=0.25)


def resnet_bsp(ctx: Pass) -> None:
    _step_workload(ctx, "resnet101", "bsp")


def mlp_sweep(ctx: Pass) -> None:
    """Operation = one four-point δ-sweep through ``repro.api.run``."""
    import repro.api as api

    deltas = [0.0, 0.1, 0.3, 0.5]
    iterations = ctx.scaled(60, 6)
    request = api.RunRequest(
        kind="sweep", workload="deep_mlp", algorithm="selsync", grid={"delta": deltas},
        num_workers=16, iterations=iterations, seed=ctx.seed,
    )
    warm = api.run(request).records
    ctx.digest = _sha(_simulated(warm))
    ctx.counters = _record_counters(warm)
    ctx.steps_per_op = len(deltas) * iterations

    def check(records: Any) -> Optional[str]:
        return _check_records(records, len(deltas), ctx.digest)

    ctx.start_timed()
    while len(ctx.op_ms) < MIN_OPS or ctx.time_left():
        ctx.op(lambda: api.run(request).records, check)
    ctx.stop_timed()
    ctx.extra["local_run_ms"] = ctx.op_ms
    ctx.engine = _engine_model("deep_mlp", 16)


def svc_mixed(ctx: Pass) -> None:
    """Operation = submit → wait → fetch records of one training job over HTTP.

    One closed-loop client, alternating between two tenants, against a live
    service (default two worker threads, file-backed job and results stores).
    One job is in flight at a time, so one thread is busy and the operation
    measures the service path itself, not how the host schedules two busy
    threads on its two cores.  After every second job the client also reads
    the tenant's history and job list; those reads are timed on their own and
    are not part of the operation.
    """
    import repro.api as api
    from repro.service import ExperimentService, QuotaManager, ServiceClient

    iterations = ctx.scaled(150, 15)
    payload = {
        "workload": "deep_mlp", "algorithm": "selsync", "num_workers": 8,
        "iterations": iterations, "seed": ctx.seed, "params": {"delta": 0.25},
    }
    request = api.request_from_action("experiment", payload)
    local_ms = []
    for _ in range(5):
        start = perf_counter()
        local = api.run(request).records
        local_ms.append((perf_counter() - start) * 1e3)
    # The local records are the reference: an HTTP job passes only if its
    # records digest to the same value.
    ctx.digest = _sha(_simulated(local))
    ctx.counters = _record_counters(local)
    ctx.steps_per_op = iterations
    jobs: List[Dict[str, float]] = []
    history_ms: List[float] = []
    list_ms: List[float] = []
    ctx.extra = {
        "local_run_ms": local_ms, "jobs": jobs, "history_ms": history_ms, "list_ms": list_ms,
    }

    # Polls of a real client are not aligned to the end of its job.  Here every
    # job is equally long, so without an offset before the first poll the job
    # end locks to the 50 ms poll grid and ``op_ms_q1`` moves in steps of one
    # poll.  Golden-ratio steps from a seeded start cover the interval evenly.
    phase = random.Random(ctx.seed).random()

    def run_job(client: Any) -> Any:
        start = perf_counter()
        job = client.submit("experiment", payload)
        submitted = perf_counter()
        ctx.idle((phase + len(jobs) * 0.6180339887) % 1.0 * SVC_POLL_S)
        view = client.wait(job["id"], poll_interval=SVC_POLL_S)
        seen_done = time.time()
        fetch = perf_counter()
        records = list(client.iter_records(job["id"]))
        jobs.append(
            {
                "submit_ms": (submitted - start) * 1e3,
                "queue_wait_ms": (view["started_at"] - view["created_at"]) * 1e3,
                "done_lag_ms": (seen_done - view["finished_at"]) * 1e3,
                "records_ms": (perf_counter() - fetch) * 1e3,
            }
        )
        return view, records

    def check(outcome: Any) -> Optional[str]:
        if outcome is None:
            return "no outcome"
        view, records = outcome
        if view["state"] != "DONE":
            return f"job ended {view['state']}: {view.get('error')}"
        return _check_records(records, 1, ctx.digest)

    service = ExperimentService(
        db_path=os.path.join(ctx.workdir, "jobs.sqlite3"),
        results_db=os.path.join(ctx.workdir, "results.sqlite3"),
        quotas=QuotaManager(max_active_jobs=None, rate=None),
        runner=api.run,
    )
    with service:
        clients = [ServiceClient(service.url, tenant=f"tenant-{i}") for i in range(SVC_TENANTS)]
        for client in clients:  # one warm-up job per tenant, not an operation
            error = check(run_job(client))
            if error:
                raise RuntimeError(f"svc-mixed warm-up failed: {error}")
        del jobs[:]  # drop the warm-up jobs' timings
        ctx.start_timed()
        while len(ctx.op_ms) < MIN_OPS * SVC_TENANTS or ctx.time_left():
            client = clients[len(ctx.op_ms) % SVC_TENANTS]
            ctx.op(lambda: run_job(client), check)
            if len(ctx.op_ms) % 2 == 0:
                reader = clients[len(ctx.op_ms) // 2 % SVC_TENANTS]
                start = perf_counter()
                reader.history("experiment/deep_mlp/selsync", last=20)
                middle = perf_counter()
                reader.jobs(limit=20)
                history_ms.append((middle - start) * 1e3)
                list_ms.append((perf_counter() - middle) * 1e3)
        ctx.stop_timed()
    ctx.engine = _engine_model("deep_mlp", 8)


WORKLOADS: Dict[str, Callable[[Pass], None]] = {
    "lm-fused": lm_fused,
    "resnet-bsp": resnet_bsp,
    "mlp-sweep": mlp_sweep,
    "svc-mixed": svc_mixed,
}


def _environment() -> Dict[str, Any]:
    """Versions and thread settings as found on this host (nothing is pinned)."""
    from repro.results.provenance import current_git_sha

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        } or "library default",
        "git_sha": current_git_sha(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", help="write the traced pass's spans here (JSONL)")
    args = parser.parse_args(argv)

    recorder = None
    if args.traced:
        recorder = trace.Recorder()
        trace.install(recorder)
    ctx = Pass(args.seed, args.seconds, args.scale, recorder, args.workdir, args.spawned_at)
    WORKLOADS[args.workload](ctx)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.traced),
        "wrappers": trace.installed_wrappers(),
        "setup_s": ctx.setup_s,
        "timed_wall_s": ctx.timed_wall_s,
        "op_ms": ctx.op_ms,
        "steps_per_op": ctx.steps_per_op,
        "failures": ctx.failures,
        "digest": ctx.digest,
        "counters": ctx.counters,
        "engine": ctx.engine,
        "extra": ctx.extra,
        "steal_pct": ctx.steal_pct,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if recorder is not None:
        # ``timed_start`` and the spans share the perf_counter clock.
        result.update(trace.layer_stats(recorder.spans, ctx.timed_start))
        if args.spans:
            trace.write_spans(recorder.spans, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
