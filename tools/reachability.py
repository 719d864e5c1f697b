"""Reachability audit: which functions under ``src/repro`` do the entry points run?

Usage (from anywhere; the script takes no flags)::

    python tools/reachability.py

One process, one call-event hook (``sys.settrace`` plus ``threading.settrace``
for every thread started later) drives every real entry point of the repo:

1. the figure, table and ablation benchmarks and the ledger smoke
   (``pytest --benchmark-disable benchmarks/``; with timing on,
   pytest-benchmark switches the hook off around every measured call);
2. every ``examples/*.py`` with its default arguments;
3. every ``repro`` CLI subcommand: ``list``, ``run`` (every algorithm, a
   fault run, a float32 / float16-wire run), ``compare``, ``scenario`` for
   every registered scenario at ``--iterations 4 --num-workers 2`` (fault and
   analytic scenarios at their registered size), ``scenario
   history``, ``trace summarize``, and ``serve`` / ``submit``;
4. a live :class:`~repro.service.ExperimentService` driven through every
   :class:`~repro.service.ServiceClient` method;
5. the ledger's workload bodies (``benchmarks.ledger.passes.WORKLOADS``),
   imported and run in-process at a tenth of their sizes.

Every ``def`` under ``src/repro`` is listed with :mod:`ast`.  The report
prints, per module, the functions and lines defined and the ones reached (a
function's lines are its own, without nested defs).  Then it checks the
public names: every name in a ``repro.*`` ``__all__`` and every public method
of an exported class.  A public name that was never called and is not on
:data:`KEEP` fails the audit, as does a :data:`KEEP` entry that names
nothing.  Classes without Python-level code (enums, plain exceptions) and
constants cannot be traced and are not judged.

Exit status: 0 clean, 1 unreached public names or stale keep entries, 2 an
entry point failed (the audit is then incomplete).
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import runpy
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

_CALIBRATION = (
    "lr shape (a factor on the optimizer's lr) that the known-optimum item may give the "
    "transformer: warm-up or smooth decay"
)
_INIT = "the known-optimum item calibrates the transformer's init scale"
_CHECKPOINT = (
    "checkpoint / restore API: no entry point resumes a run yet; tests/golden/ replays "
    "checkpoint -> restore for every lockstep trainer"
)
_ORACLE = "reference form that tests compare the fused / matrix / flat path against"
_MODULE_API = (
    "repro.nn Module API that tests use to build models by hand; the ResNet-executor item "
    "shrinks Module to ParamSpec + initialiser"
)
_LM_TWIN = (
    "per-worker TransformerLM backward: every TransformerLM cluster runs the batched "
    "executor, and tests/engine/test_transformer_exec.py holds it to this path"
)
_FF_TWIN = (
    "per-worker backward of VGGLike / AlexNetLike and their Dropout: every vgg11 / alexnet "
    "cluster runs the batched executor, and tests/engine/test_batched_dropout.py holds it to "
    "this path"
)
_TANH = "MLP(activation='tanh'), the per-worker twin of _BatchedTanh; no preset uses tanh"
_DATASET = "dataset protocol member (subset, shape metadata) that tests use to build fixtures"
_TELEMETRY = (
    "telemetry facade that the telemetry tests read; the one-tracer item (repro explain) "
    "builds on it"
)

#: Public names no entry point reaches that stay on purpose, with the reason.
KEEP: Dict[str, str] = {
    "repro.optim.schedules.ExponentialDecay": _CALIBRATION,
    "repro.optim.schedules.ExponentialDecay.factor_at": _CALIBRATION,
    "repro.optim.schedules.WarmupCosine": _CALIBRATION,
    "repro.optim.schedules.WarmupCosine.factor_at": _CALIBRATION,
    "repro.nn.init.xavier_uniform": _INIT,
    "repro.nn.init.xavier_normal": _INIT,
    "repro.nn.init.kaiming_normal": _INIT,
    "repro.stats.variance.gradient_second_moment": (
        "per-worker oracle that the batch_gradient_statistic tests compare each row against"
    ),
    "repro.algorithms.base.BaseTrainer.checkpoint": _CHECKPOINT,
    "repro.algorithms.base.BaseTrainer.restore": _CHECKPOINT,
    "repro.algorithms.base.BaseTrainer.trainer_state": _CHECKPOINT,
    "repro.algorithms.base.BaseTrainer.load_trainer_state": _CHECKPOINT,
    "repro.cluster.cluster.SimulatedCluster.checkpoint": _CHECKPOINT,
    "repro.cluster.cluster.SimulatedCluster.restore": _CHECKPOINT,
    "repro.faults.checkpoint.restore_cluster": _CHECKPOINT,
    "repro.faults.checkpoint.ClusterCheckpoint.num_workers": _CHECKPOINT,
    "repro.engine.fused_optim.FusedAdamUpdate.state": (
        "checkpoint rows of an Adam cluster: no entry point runs faults or a restore on "
        "alexnet; the golden alexnet fault and restore cases do"
    ),
    "repro.engine.flat_buffer.FlatBuffer.load_tree": _CHECKPOINT,
    "repro.cluster.cluster.SimulatedCluster.replica_divergence": _ORACLE,
    "repro.engine.worker_matrix.WorkerMatrix.divergence": _ORACLE,
    "repro.engine.worker_matrix.WorkerMatrix.state_dict": _ORACLE,
    "repro.core.aggregation.aggregate_parameters": _ORACLE,
    "repro.core.aggregation.aggregate_gradients": _ORACLE,
    "repro.comm.parameter_server.ParameterServer.aggregate_parameters": _ORACLE,
    "repro.comm.parameter_server.ParameterServer.aggregate_gradients": _ORACLE,
    "repro.comm.parameter_server.ParameterServer.pull": _ORACLE,
    "repro.comm.backend.InProcessBackend.allreduce": _ORACLE,
    "repro.comm.backend.InProcessBackend.broadcast": _ORACLE,
    "repro.comm.backend.InProcessBackend.gather": _ORACLE,
    "repro.compression.base.Compressor.roundtrip": _ORACLE,
    "repro.compression.base.compression_error": _ORACLE,
    "repro.nn.attention.MultiHeadSelfAttention.backward": _LM_TWIN,
    "repro.nn.attention.PositionalEncoding.backward": _LM_TWIN,
    "repro.nn.attention.TransformerEncoderLayer.backward": _LM_TWIN,
    "repro.nn.layers.Embedding.backward": _LM_TWIN,
    "repro.nn.models.transformer.TransformerLM.backward": _LM_TWIN,
    "repro.nn.layers.Dropout.backward": _FF_TWIN,
    "repro.nn.models.alexnet.AlexNetLike.backward": _FF_TWIN,
    "repro.nn.models.vgg.VGGLike.backward": _FF_TWIN,
    "repro.engine.flat_buffer.FlatBuffer.rebind": _MODULE_API,
    "repro.nn.module.Module.dtype": _MODULE_API,
    "repro.nn.module.Module.parameters": _MODULE_API,
    "repro.nn.module.Parameter.size": _MODULE_API,
    "repro.nn.module.Parameter.zero_grad": _MODULE_API,
    "repro.nn.module.Sequential.append": _MODULE_API,
    "repro.optim.optimizer.Optimizer.zero_grad": _MODULE_API,
    "repro.nn.layers.Tanh": _TANH,
    "repro.nn.layers.Tanh.forward": _TANH,
    "repro.nn.layers.Tanh.backward": _TANH,
    "repro.data.datasets.ClassificationDataset.input_dim": _DATASET,
    "repro.data.datasets.ClassificationDataset.subset": _DATASET,
    "repro.data.datasets.SequenceDataset.input_dim": _DATASET,
    "repro.data.datasets.SequenceDataset.num_classes": _DATASET,
    "repro.data.datasets.SequenceDataset.sample_bytes": _DATASET,
    "repro.data.datasets.SequenceDataset.subset": _DATASET,
    "repro.data.datasets.SequenceDataset.targets": _DATASET,
    "repro.data.datasets.make_sequence_dataset": _DATASET,
    "repro.telemetry.gauge": _TELEMETRY,
    "repro.telemetry.get_tracer": _TELEMETRY,
    "repro.telemetry.reset": _TELEMETRY,
    "repro.telemetry.tracing_enabled": _TELEMETRY,
    "repro.telemetry.metrics.Counter.total": _TELEMETRY,
    "repro.telemetry.metrics.Counter.value": _TELEMETRY,
    "repro.telemetry.metrics.Gauge.value": _TELEMETRY,
    "repro.telemetry.metrics.Histogram.count": _TELEMETRY,
    "repro.telemetry.metrics.Histogram.quantile": _TELEMETRY,
    "repro.telemetry.metrics.Histogram.sum": _TELEMETRY,
    "repro.telemetry.trace.Span.set": _TELEMETRY,
    "repro.telemetry.trace.Tracer.drain": _TELEMETRY,
    "repro.telemetry.trace.Tracer.sink_path": _TELEMETRY,
    "repro.api.RunResult.to_dict": (
        "the library's JSON view of a result; the service files a job's records and "
        "meta straight into its run, so only tests read it"
    ),
    "repro.metrics.evaluation.EvalResult.higher_is_better": (
        "metric direction for ConvergenceDetector callers; tests read it"
    ),
    "repro.cluster.clock.SimulatedClock.worker_elapsed": (
        "one worker's simulated time, read by the clock, fault and elasticity tests; no "
        "trainer reads it since SSP's staleness wait was deleted"
    ),
    "repro.service.quotas.TokenBucket.retry_after": (
        "a rate-limited submission's Retry-After; no entry point exceeds a tenant's rate"
    ),
    "repro.service.taskmanager.TaskManager.run_pending_once": (
        "synchronous drain that the service tests use in place of worker threads"
    ),
}

#: One submission per :mod:`repro.service` action, sized to finish in seconds.
_PAYLOADS = {
    "experiment": {"workload": "deep_mlp", "algorithm": "selsync", "num_workers": 2,
                   "iterations": 4, "params": {"delta": 0.25}},
    "sweep": {"workload": "deep_mlp", "algorithm": "selsync", "num_workers": 2,
              "iterations": 4, "grid": {"delta": [0.1, 0.5]}},
    "comparison": {"methods": {"bsp": ["bsp", {}], "fedavg": ["fedavg", {}]},
                   "workloads": ["alexnet"], "num_workers": 2, "iterations": 4},
    "throughput": {"workloads": ["resnet101"], "worker_counts": [1, 2]},
    "scenario": {"name": "quickstart", "iterations": 4, "num_workers": 2},
}


# --------------------------------------------------------------------------- #
# the hook
# --------------------------------------------------------------------------- #
class CallLog:
    """Every code object that received a call event, kept alive by identity."""

    def __init__(self) -> None:
        self.codes: Dict[int, object] = {}

    def hook(self, frame, event, arg):
        code = frame.f_code
        if id(code) not in self.codes:
            self.codes[id(code)] = code
        return None  # no per-line events

    def install(self) -> None:
        threading.settrace(self.hook)
        sys.settrace(self.hook)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def keys(self) -> Set[Tuple[str, int, str]]:
        return {
            (os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name)
            for c in self.codes.values()
        }

    def called(self, fn) -> bool:
        return id(fn.__code__) in self.codes


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #
def _quiet(fn: Callable[[], object]) -> object:
    """Run ``fn`` with stdout and stderr swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn()


def drive_benchmarks() -> List[str]:
    import pytest

    code = _quiet(lambda: pytest.main(
        ["-q", "--benchmark-disable", "-p", "no:cacheprovider", "-W", "ignore", "benchmarks"]
    ))
    return [] if code == 0 else [f"pytest benchmarks/ exited {int(code)}"]


def drive_examples() -> List[str]:
    failures = []
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(examples, name)
        argv = sys.argv
        sys.argv = [path]
        try:
            _quiet(lambda: runpy.run_path(path, run_name="__main__"))
        except SystemExit as exc:
            if exc.code not in (0, None):
                failures.append(f"examples/{name} exited {exc.code}")
        finally:
            sys.argv = argv
    return failures


def _cli(argv: List[str], expect: int = 0) -> Optional[str]:
    from repro.harness.cli import main

    try:
        code = _quiet(lambda: main(argv))
    except SystemExit as exc:
        code = exc.code
    return None if code == expect else f"repro {' '.join(argv)} exited {code}"


def _serve_and_submit(workdir: str) -> List[str]:
    """``repro serve`` on a free port in a thread, ``repro submit --wait`` to it."""
    from repro.service import app

    started: List[object] = []
    start = app.ExperimentService.start

    def capture(self):
        service = start(self)
        started.append(service)
        return service

    app.ExperimentService.start = capture
    outcome: List[Optional[str]] = []
    server = threading.Thread(target=lambda: outcome.append(_cli([
        "serve", "--port", "0", "--db", os.path.join(workdir, "jobs.sqlite3"),
        "--results-db", os.path.join(workdir, "served.sqlite3"), "--service-workers", "1",
    ])))
    server.start()
    try:
        deadline = time.monotonic() + 30
        while not started and time.monotonic() < deadline:
            time.sleep(0.05)
        if not started:
            return ["repro serve did not start"]
        url = started[0].url
        failures = [
            _cli(["submit", action, json.dumps(payload), "--url", url, "--wait",
                  "--timeout", "120", "--json", os.path.join(workdir, f"{action}.json")])
            for action, payload in _PAYLOADS.items()
        ]
        failures.append(_cli(["submit", "experiment", "{}", "--url", url], expect=2))
    finally:
        app.ExperimentService.start = start
        if started:
            started[0]._server.shutdown()
        server.join(timeout=30)
    return [f for f in failures + outcome if f]


def drive_cli() -> List[str]:
    from repro.harness.experiment import TRAINERS
    from repro.scenarios import get_scenario, scenario_names
    from repro import telemetry

    with tempfile.TemporaryDirectory() as workdir:
        results = os.path.join(workdir, "results.sqlite3")
        runs = [["list"]]
        # compressed_bsp's one required param: its compressor, as a JSON spec.
        required = {"compressed_bsp": ["--param", 'compressor={"kind": "topk", "ratio": 0.1}']}
        runs += [["run", "--workload", "deep_mlp", "--algorithm", algorithm, "--num-workers",
                  "2", "--iterations", "4"] + required.get(algorithm, [])
                 for algorithm in sorted(TRAINERS)]
        runs += [
            ["run", "--workload", "deep_mlp", "--num-workers", "2", "--iterations", "6",
             "--failure-rate", "0.2", "--straggler-fraction", "0.3", "--mttr", "2"],
            ["run", "--workload", "transformer", "--num-workers", "2", "--iterations", "4",
             "--dtype", "float32", "--transport-dtype", "float16", "--param", "delta=0.3"],
            ["compare", "--workload", "alexnet", "--num-workers", "2", "--iterations", "4"],
            ["scenario"],
            ["scenario", "--tag", "figure"],
        ]
        # Fault scenarios run at their registered size: at four steps on two
        # workers no crash, rejoin or checkpoint of their schedules fires.
        # Analytic (throughput) scenarios take no size overrides at all.
        as_registered = set(scenario_names(tag="faults")) | {
            name for name in scenario_names() if get_scenario(name).kind == "throughput"
        }
        runs += [
            ["scenario", name, "--record", results, "--json", os.path.join(workdir, f"{name}.json")]
            + ([] if name in as_registered else ["--iterations", "4", "--num-workers", "2"])
            for name in scenario_names()
        ]
        runs += [
            ["scenario", "history", "--store", results],
            ["scenario", "history", "quickstart", "--store", results, "--metrics",
             "lssr,best_metric", "--last", "2", "--json", os.path.join(workdir, "h.json")],
            ["scenario", "history", "fig6-delta-sweep", "--store", results,
             "--where", "delta=0.25"],
        ]
        failures = [_cli(argv) for argv in runs]
        failures += [
            _cli(["scenario", "history", "quickstart", "--store", os.path.join(workdir, "no")],
                 expect=2),
            _cli(["scenario", "no-such-scenario"], expect=2),
        ]
        trace = os.path.join(workdir, "trace.jsonl")
        telemetry.configure(trace_file=trace)
        try:
            failures.append(_cli(["run", "--workload", "transformer", "--num-workers", "2",
                                  "--iterations", "4"]))
            telemetry.flush()
        finally:
            telemetry.configure(tracing=False, trace_file=None)
        failures.append(_cli(["trace", "summarize", trace, "--json",
                              os.path.join(workdir, "summary.json")]))
        failures += _serve_and_submit(workdir)
    return [f for f in failures if f]


def drive_service() -> List[str]:
    from repro.service import ExperimentService, ServiceClient, ServiceClientError

    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        service = ExperimentService(
            db_path=os.path.join(workdir, "jobs.sqlite3"),
            results_db=os.path.join(workdir, "results.sqlite3"),
            workers=1,
        )
        with service:
            client = ServiceClient(service.url, tenant="audit")
            client.describe()
            client.health()
            client.metrics()
            done = []
            for action, payload in _PAYLOADS.items():
                job = client.submit(action, payload)
                client.job(job["id"])
                view = client.wait(job["id"], timeout=120, poll_interval=0.05)
                if view["state"] != "DONE":
                    failures.append(f"service {action} job ended {view['state']}")
                done.append(job["id"])
            client.job(done[0], wait=0.05)
            client.records(done[0], offset=0, limit=1)
            list(client.iter_records(done[1], page_size=1))
            client.jobs(limit=2, state="DONE")
            client.history_scenarios()
            client.history("experiment/deep_mlp/selsync", metrics=["lssr"], last=2)
            client.history_runs("experiment/deep_mlp/selsync", limit=1)
            queued = client.submit("experiment", dict(_PAYLOADS["experiment"], iterations=400))
            client.cancel(queued["id"])
            client.wait(queued["id"], timeout=120, poll_interval=0.05)
            try:
                client.submit("no-such-action", {})
                failures.append("service accepted an unknown action")
            except ServiceClientError:
                pass
    return failures


def drive_ledger_workloads() -> List[str]:
    from benchmarks.ledger import passes

    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, body in passes.WORKLOADS.items():
            ctx = passes.Pass(seed=3, seconds=0.1, scale=0.1, recorder=None,
                              workdir=workdir, spawned_at=time.time())
            _quiet(lambda: body(ctx))
            failures += [f"ledger {name}: {error}" for error in ctx.failures]
    return failures


ENTRY_POINTS: Tuple[Tuple[str, Callable[[], List[str]]], ...] = (
    ("benchmarks", drive_benchmarks),
    ("examples", drive_examples),
    ("cli", drive_cli),
    ("service", drive_service),
    ("ledger workloads", drive_ledger_workloads),
)


# --------------------------------------------------------------------------- #
# what is defined
# --------------------------------------------------------------------------- #
class Def:
    """One ``def`` in one module: where, how many own lines, and its name."""

    def __init__(self, module: str, qualname: str, key: Tuple[str, int, str], lines: int):
        self.module = module
        self.qualname = qualname
        self.key = key
        self.lines = lines


def list_defs() -> List[Def]:
    """Every function and method under ``src/repro``, with its own line count."""
    defs: List[Def] = []
    for dirpath, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(dirpath, name))
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            _walk(tree, module, path, "", defs)
    return defs


def _walk(node: ast.AST, module: str, path: str, prefix: str, out: List[Def]) -> None:
    for child in _defs_under(node):
        qualname = prefix + child.name
        if isinstance(child, ast.ClassDef):
            _walk(child, module, path, qualname + ".", out)
            continue
        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
        own = child.end_lineno - first + 1
        own -= sum(n.end_lineno - n.lineno + 1 for n in _defs_under(child))
        out.append(Def(module, qualname, (path, first, child.name), own))
        _walk(child, module, path, qualname + ".<locals>.", out)


def _defs_under(node: ast.AST):
    """The defs and classes directly inside ``node`` (through if / try / with blocks)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
        else:
            yield from _defs_under(child)


# --------------------------------------------------------------------------- #
# public names
# --------------------------------------------------------------------------- #
def _functions(cls) -> Dict[str, object]:
    """Every function a class body holds: methods, property getters, generated dunders."""
    found = {}
    for name, value in vars(cls).items():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        if inspect.isfunction(value):
            found[name] = value
    return found


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def _method_reached(log: CallLog, cls: type, name: str) -> bool:
    """Called on ``cls`` or through an override in any subclass."""
    return any(
        name in _functions(sub) and log.called(_functions(sub)[name]) for sub in _subclasses(cls)
    )


def public_names(log: CallLog) -> Tuple[Dict[str, bool], List[str]]:
    """``{qualified name: reached}`` for every judged public name, plus the unjudged.

    A class is reached when any code of its own body (a generated dataclass
    ``__init__`` included) or of a subclass ran; a method when it or an
    override in a subclass ran.
    """
    judged: Dict[str, bool] = {}
    unjudged: Set[str] = set()
    for info in pkgutil.walk_packages([PACKAGE], prefix="repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            owner = getattr(obj, "__module__", None) or ""
            if not owner.startswith("repro"):
                continue
            qualified = f"{owner}.{getattr(obj, '__qualname__', name)}"
            if inspect.isfunction(obj):
                judged[qualified] = log.called(obj)
                continue
            if not inspect.isclass(obj):
                continue
            if not any(_functions(sub) for sub in _subclasses(obj)):
                unjudged.add(qualified)
                continue
            judged[qualified] = any(
                log.called(fn) for sub in _subclasses(obj) for fn in _functions(sub).values()
            )
            for method, fn in _functions(obj).items():
                if not method.startswith("_") and _in_package(fn):
                    judged[f"{qualified}.{method}"] = _method_reached(log, obj, method)
    return judged, sorted(unjudged)


def _in_package(fn) -> bool:
    return os.path.realpath(fn.__code__.co_filename).startswith(PACKAGE + os.sep)


# --------------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------------- #
def report(defs: List[Def], log: CallLog) -> Tuple[int, int]:
    reached_keys = log.keys()
    rows: Dict[str, List[int]] = {}
    for d in defs:
        row = rows.setdefault(d.module, [0, 0, 0, 0])
        hit = d.key in reached_keys
        row[0] += 1
        row[1] += hit
        row[2] += d.lines
        row[3] += d.lines if hit else 0
    width = max(len(m) for m in rows)
    print(f"{'module':<{width}}  {'defs':>11}  {'def lines':>11}")
    for module in sorted(rows):
        defined, reached, lines, lines_reached = rows[module]
        print(f"{module:<{width}}  {reached:>5}/{defined:<5}  {lines_reached:>5}/{lines:<5}")
    totals = [sum(r[i] for r in rows.values()) for i in range(4)]
    print(f"{'total':<{width}}  {totals[1]:>5}/{totals[0]:<5}  {totals[3]:>5}/{totals[2]:<5}")
    return totals[1], totals[0]


def main() -> int:
    os.chdir(ROOT)
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    log = CallLog()
    failures: List[str] = []
    log.install()
    try:
        for label, drive in ENTRY_POINTS:
            start = time.perf_counter()
            try:
                failures += drive()
            except Exception as exc:  # noqa: BLE001 - reported, then exit 2
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"[drove {label} in {time.perf_counter() - start:.0f} s]", file=sys.stderr)
    finally:
        log.uninstall()

    report(list_defs(), log)
    judged, unjudged = public_names(log)
    unreached = sorted(name for name, hit in judged.items() if not hit)
    print(f"\npublic names: {len(judged)} judged, {len(judged) - len(unreached)} reached, "
          f"{len(unjudged)} without Python-level code (not judged)")
    kept = [name for name in unreached if name in KEEP]
    for name in kept:
        print(f"  kept     {name}: {KEEP[name]}")
    missing = [name for name in unreached if name not in KEEP]
    for name in missing:
        print(f"  UNREACHED {name}")
    stale = sorted(name for name in KEEP if name not in judged)
    for name in stale:
        print(f"  STALE KEEP {name}: names no public function or method")
    for name in sorted(name for name in KEEP if judged.get(name)):
        print(f"  note: kept {name} is reached now; its keep entry can go")
    for failure in failures:
        print(f"ENTRY POINT FAILED: {failure}")
    if failures:
        return 2
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
