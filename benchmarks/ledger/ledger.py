"""Parent side of the ledger: spawn passes, pool them into named metrics.

A *run* is a few passes of each workload (fresh child processes, see
:mod:`benchmarks.ledger.passes`), interleaved across workloads: untraced
passes give the end-to-end metrics, traced passes the per-layer ones.  This
module uses the standard library only, so the parent stays small next to the
children it measures.

Workload names, metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the root of the repo, which is their only definition.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]

#: A pass normally ends within ~15 s; three hung passes must still end within
#: the driver's 180 s limit for one command.
PASS_TIMEOUT_S = 50


@functools.lru_cache(maxsize=None)
def spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``: workloads, metrics, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    return [workload["name"] for workload in spec()["workloads"]]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def op_ms_q1(passes: Sequence[Dict[str, Any]]) -> float:
    """Lower quartile of per-operation wall time, pooled over ``passes``.

    Host noise here is one-sided (it only adds time), so the lower quartile
    of many short operations is the steadiest location statistic; means,
    medians and tails are reported elsewhere and never gated.
    """
    return quantile([ms for p in passes for ms in p["op_ms"]], 0.25)


def spawn_pass(
    workload: str, seed: int, seconds: float, traced: bool, workdir: str,
    scale: float = 1.0, spans: Optional[str] = None, extra_env: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its JSON result."""
    pass_dir = tempfile.mkdtemp(dir=workdir)
    command = [
        sys.executable, "-m", "benchmarks.ledger.passes",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--scale", repr(scale), "--traced", str(int(traced)), "--workdir", pass_dir,
    ]
    if spans:
        command += ["--spans", spans]
    env = {**os.environ, **(extra_env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command += ["--spawned-at", repr(time.time())]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_ledger(
    workloads: Sequence[str], seed: int, untraced: int, traced: int, seconds: float,
    scale: float = 1.0, jobs: int = 1, spans_dir: Optional[str] = None,
) -> Dict[str, Dict[str, Any]]:
    """Every command's measurement: :func:`summarise` output keyed by workload.

    ``untraced`` passes of ``seconds`` each, interleaved across ``workloads``
    (``for pass: for workload: fresh child``) so a slow drift of the host hits
    all workloads alike, then ``traced`` passes the same way.  ``spans_dir``
    keeps each workload's last traced pass's span file.
    """
    plan = [(name, index >= untraced) for index in range(untraced + traced) for name in workloads]
    # Children run side by side only for --smoke; each then gets one BLAS
    # thread, or their spin-waiting threads fight over the cores.
    extra_env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"} if jobs > 1 else None
    # Scratch inside the checkout: job stores and results stores of svc-mixed.
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)

    def one(item: tuple) -> Dict[str, Any]:
        name, is_traced = item
        spans = os.path.join(spans_dir, f"{name}.spans.jsonl") if spans_dir and is_traced else None
        return spawn_pass(
            name, seed, seconds, is_traced, workdir, scale=scale, spans=spans, extra_env=extra_env
        )

    try:
        # One job runs the plan in order, which is what a measurement needs.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, plan))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        name: summarise(name, [r for r in results if r["workload"] == name]) for name in workloads
    }


# --------------------------------------------------------------------------- #
# pooling passes into metrics
# --------------------------------------------------------------------------- #
def summarise(workload: str, passes: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Metrics, counts and correctness verdict of one workload's passes.

    End-to-end metrics come from the untraced passes only; per-layer metrics
    (present when at least one pass was traced) from the traced ones.
    """
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [message for p in passes for message in p["failures"]]
    attempted = sum(len(p["op_ms"]) for p in passes)
    reference = passes[0]
    if any(p["digest"] != reference["digest"] for p in passes):
        failures.append("simulation digest differs between passes of one seed")
    if any(p["counters"] != reference["counters"] for p in passes):
        failures.append("exact counters differ between passes of one seed")
    if any(p["wrappers"] for p in plain):
        failures.append("an untraced pass had wrappers installed")
    summary: Dict[str, Any] = {
        "workload": workload,
        "seed": reference["seed"],
        "attempted": attempted,
        # Several failure messages can stem from one op; never report more
        # failed operations than were attempted.
        "failed": min(len(failures), attempted),
        "correct": not failures,
        "failures": failures,
        "digest": reference["digest"],
        "counters": reference["counters"],
        "env": reference["env"],
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "wrappers": {
            "untraced": max((p["wrappers"] for p in plain), default=0),
            "traced": min((p["wrappers"] for p in traced), default=0),
        },
    }
    if plain:
        q1 = op_ms_q1(plain)
        summary["end_to_end"] = {
            "setup_s": quantile([p["setup_s"] for p in plain], 0.5),
            "op_ms_q1": q1,
            "steps_per_s": reference["steps_per_op"] / q1 * 1e3,
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
        }
        # One value per pass, so ``compare`` can tell a difference from noise.
        pass_q1 = [quantile(p["op_ms"], 0.25) for p in plain]
        summary["per_pass"] = {
            "setup_s": [p["setup_s"] for p in plain],
            "op_ms_q1": pass_q1,
            "steps_per_s": [reference["steps_per_op"] / ms * 1e3 for ms in pass_q1],
            "peak_rss_mb": [p["rss_mb"] for p in plain],
        }
        ops = [ms for p in plain for ms in p["op_ms"]]
        summary["ungated"] = {
            "ops": len(ops),
            "op_ms_p50": quantile(ops, 0.5),
            "op_ms_mean": sum(ops) / len(ops),
            "op_ms_p90": quantile(ops, 0.9),
            "steal_pct": sum(p["steal_pct"] for p in plain) / len(plain),
        }
    if traced:
        summary["per_layer"] = _per_layer(plain, traced)
    return summary


def _per_layer(
    plain: Sequence[Dict[str, Any]], traced: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    wall_ms = sum(p["timed_wall_s"] for p in traced) * 1e3

    def field(name: str, key: str) -> List[float]:
        return [p["layers"][name][key] for p in traced if name in p["layers"]]

    def total(name: str, key: str = "total_ms") -> float:
        return sum(field(name, key))

    def share(name: str) -> float:
        return total(name) / wall_ms

    def typical(name: str, key: str = "q1_ms") -> float:
        """Median over the traced passes of one per-pass quantile."""
        return quantile(field(name, key), 0.5)

    def rate(work_key: str, name: str) -> float:
        """Analytic work per call × calls ÷ busy seconds, in 1e9 units."""
        busy_s = total(name) / 1e3
        return traced[0]["engine"][work_key] * total(name, "calls") / busy_s / 1e9 if busy_s else 0.0

    def pooled_q1(key: str) -> float:
        return quantile([ms for p in traced for ms in p["extra"].get(key, [])], 0.25)

    def job_q1(key: str) -> float:
        return quantile([job[key] for p in traced for job in p["extra"].get("jobs", [])], 0.25)

    jobs = sum(len(p["extra"].get("jobs", [])) for p in traced)
    local_run = pooled_q1("local_run_ms")
    # Timed ``api.run`` spans of svc-mixed all come from service worker threads.
    service_run = typical("api.run") if jobs else 0.0
    pass_q1 = [quantile(p["op_ms"], 0.25) for p in (*plain, *traced)]
    counters = traced[0]["counters"]
    values = {
        "engine.replica_exec_ms_q1": typical("engine.replica_exec"),
        "engine.replica_exec_share": share("engine.replica_exec"),
        "engine.replica_exec_calls": total("engine.replica_exec", "calls"),
        "engine.gflop_per_s": rate("flops_per_exec", "engine.replica_exec"),
        "engine.fused_update_ms_q1": typical("engine.fused_update"),
        "engine.fused_update_share": share("engine.fused_update"),
        "engine.update_gb_per_s": rate("bytes_per_update", "engine.fused_update"),
        "nn.loop_share": share("nn.loop"),
        "nn.loop_calls": total("nn.loop", "calls"),
        "cluster.gradients_share": share("cluster.gradients"),
        "cluster.update_share": share("cluster.update"),
        "cluster.charge_share": share("cluster.charge"),
        "cluster.broadcast_share": share("cluster.broadcast"),
        "stats.grad_statistic_share": share("stats.grad_statistic"),
        "trainer.self_share": total("trainer.step", "self_ms") / wall_ms,
        "trainer.step_ms_p50": typical("trainer.step", "p50_ms"),
        "trainer.step_ms_p95": typical("trainer.step", "p95_ms"),
        "trainer.eval_ms_q1": typical("trainer.eval"),
        "comm.allreduce_share": share("comm.allreduce"),
        "comm.ps_push_share": share("comm.ps_push"),
        "comm.flags_share": share("comm.flags"),
        "data.next_batches_share": share("data.next_batches"),
        "data.build_dataset_ms_q1": typical("data.build_dataset"),
        "harness.build_cluster_ms_q1": typical("harness.build_cluster"),
        "harness.make_trainer_ms_q1": typical("harness.make_trainer"),
        "scenarios.runner_self_ms_q1": typical("scenarios.run_scenario", "self_q1_ms"),
        "api.run_self_ms_q1": typical("api.run", "self_q1_ms"),
        "api.local_run_ms_q1": local_run,
        "results.append_ms_q1": typical("results.append"),
        "service.submit_ms_q1": job_q1("submit_ms"),
        "service.queue_wait_ms_q1": job_q1("queue_wait_ms"),
        "service.run_ms_q1": service_run,
        "service.done_lag_ms_q1": job_q1("done_lag_ms"),
        "service.records_ms_q1": job_q1("records_ms"),
        "service.contention_ratio": service_run / local_run if jobs else 0.0,
        "service.history_ms_q1": pooled_q1("history_ms"),
        "service.list_ms_q1": pooled_q1("list_ms"),
        "service.polls_per_job": total("service.poll", "calls") / jobs if jobs else 0.0,
        "service.job_ms_p90": quantile([ms for p in traced for ms in p["op_ms"]], 0.9)
        if jobs else 0.0,
        **counters,
        "ledger.attributed_share": sum(p["attributed_share"] for p in traced) / len(traced),
        "ledger.trace_overhead_pct": 100.0 * (op_ms_q1(traced) / op_ms_q1(plain) - 1.0)
        if plain else 0.0,
        "ledger.pass_gap_pct": 100.0 * (max(pass_q1) / min(pass_q1) - 1.0),
        "host.steal_pct": sum(p["steal_pct"] for p in traced) / len(traced),
    }
    return {metric["name"]: float(values[metric["name"]]) for metric in spec()["per_layer"]}


def metrics_block(values: Dict[str, float], key: str) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for ``key`` = ``end_to_end`` or ``per_layer``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec()[key]}


def results_document(summaries: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The results file: what ``compare`` reads and reviewers diff."""
    first = next(iter(summaries.values()))
    why = {workload["name"]: workload["why"] for workload in spec()["workloads"]}
    workloads = {}
    for name, summary in summaries.items():
        workloads[name] = {
            "why": why[name],
            **{
                key: metrics_block(summary[key], key)
                for key in ("end_to_end", "per_layer") if key in summary
            },
            "per_pass": summary["per_pass"],
            "ungated": summary["ungated"],
            "ops_attempted": summary["attempted"],
            "ops_failed": summary["failed"],
            "failures": summary["failures"],
            "digest": summary["digest"],
            "counters": summary["counters"],
            "passes": summary["passes"],
        }
    return {"seed": first["seed"], "environment": first["env"], "workloads": workloads}


def report(summaries: Dict[str, Dict[str, Any]], out: Optional[str]) -> None:
    """Print every metric by name with its unit, per workload; write ``out``."""
    for workload, summary in summaries.items():
        for key in ("end_to_end", "per_layer"):
            if key in summary:
                for name, metric in metrics_block(summary[key], key).items():
                    print(f"{workload:<11} {name:<32} {metric['value']:>16.4f} {metric['unit']}")
        for name, value in summary.get("ungated", {}).items():
            print(f"{workload:<11} ({name:<30}) {value:>16.4f}")
        print(
            f"{workload:<11} ops_attempted={summary['attempted']} ops_failed={summary['failed']} "
            f"seed={summary['seed']} digest={summary['digest']}"
        )
        for message in summary["failures"]:
            print(f"{workload:<11} FAILED: {message}")
    document = results_document(summaries)
    print("environment", json.dumps(document["environment"], sort_keys=True))
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
