"""Spans recorded from outside the program.

A traced pass wraps public functions of each ``repro.*`` layer with
:meth:`Recorder.wrap` (module attributes and class methods are replaced in the
child process only) and the workload driver opens one ``op`` span per
operation.  Spans stay in memory until the pass ends; :func:`layer_stats`
turns them into per-name totals and :func:`write_spans` dumps them as JSONL.

Nothing under ``src/`` knows about this file: spans inside the program are a
later change.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

#: ``(target, span name)``.  ``module:attr`` patches the name *as bound in that
#: module* (so ``repro.api:run_scenario`` is the façade's own reference), and
#: ``module:Class.attr`` patches the method for every instance.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.engine.replica_exec:BatchedReplicaExecutor.step", "engine.replica_exec"),
    ("repro.engine.fused_optim:FusedSGDUpdate.apply", "engine.fused_update"),
    ("repro.engine.fused_optim:FusedAdamUpdate.apply", "engine.fused_update"),
    ("repro.cluster.worker:Worker.compute_gradients_flat", "nn.loop"),
    ("repro.cluster.cluster:SimulatedCluster.compute_gradients_all", "cluster.gradients"),
    ("repro.cluster.cluster:SimulatedCluster.apply_local_updates", "cluster.update"),
    ("repro.cluster.cluster:SimulatedCluster.charge_compute_step", "cluster.charge"),
    ("repro.cluster.cluster:SimulatedCluster.charge_sync", "cluster.charge"),
    ("repro.cluster.cluster:SimulatedCluster.charge_flags_allgather", "cluster.charge"),
    ("repro.cluster.cluster:SimulatedCluster.charge_p2p", "cluster.charge"),
    ("repro.cluster.cluster:SimulatedCluster.broadcast_state", "cluster.broadcast"),
    ("repro.cluster.cluster:SimulatedCluster.next_batches", "data.next_batches"),
    ("repro.core.selsync:batch_gradient_statistic", "stats.grad_statistic"),
    ("repro.core.selsync:SelSyncTrainer.train_step", "trainer.step"),
    ("repro.algorithms.bsp:BSPTrainer.train_step", "trainer.step"),
    ("repro.algorithms.base:BaseTrainer.evaluate", "trainer.eval"),
    ("repro.comm.backend:InProcessBackend.allreduce_matrix", "comm.allreduce"),
    ("repro.comm.backend:InProcessBackend.allgather_bits", "comm.flags"),
    ("repro.comm.parameter_server:ParameterServer.push_matrix_parameters", "comm.ps_push"),
    ("repro.comm.parameter_server:ParameterServer.push_matrix_gradients", "comm.ps_push"),
    ("repro.harness.experiment:build_dataset", "data.build_dataset"),
    ("repro.harness.experiment:build_cluster", "harness.build_cluster"),
    ("repro.harness.experiment:make_trainer", "harness.make_trainer"),
    ("repro.harness.experiment:run_experiment", "harness.run_experiment"),
    ("repro.api:run_scenario", "scenarios.run_scenario"),
    ("repro.api:run", "api.run"),
    ("repro.results:record_run_payload", "results.append"),
    ("repro.service.client:ServiceClient.submit", "service.submit"),
    ("repro.service.client:ServiceClient.wait", "service.wait"),
    ("repro.service.client:ServiceClient.job", "service.poll"),
    ("repro.service.client:ServiceClient.records", "service.records"),
    ("repro.service.client:ServiceClient.history", "service.history"),
    ("repro.service.client:ServiceClient.jobs", "service.list"),
)

#: One finished span: ``(id, parent id or 0, name, start, end, thread id)``.
Span = Tuple[int, int, str, float, float, int]

#: Spans that only hold other spans: the driver's ``op`` and the wrappers
#: around a whole step, run or request.  Their self time reached no layer, so
#: it is what ``ledger.attributed_share`` counts as unattributed.
CONTAINERS = frozenset(
    {"op", "trainer.step", "harness.run_experiment", "scenarios.run_scenario", "api.run",
     "service.wait"}
)
#: A container whose self time is a sleep (the client before a poll): the
#: job's time is on the worker thread, under a root ``api.run`` span of its
#: own, so the sleep is left out of both sides of the share.
IDLE = "service.wait"


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _begin(self) -> Tuple[List[int], int, int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return stack, span_id, parent

    def _end(self, opened: Tuple[List[int], int, int], name: str, start: float) -> None:
        end = perf_counter()
        stack, span_id, parent = opened
        stack.pop()
        self.spans.append((span_id, parent, name, start, end, threading.get_ident()))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        begin, end = self._begin, self._end

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = begin()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end(opened, name, start)

        wrapper.ledger_span = name  # marks the target as wrapped
        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the driver's own code."""
        opened = self._begin()
        start = perf_counter()
        try:
            yield
        finally:
            self._end(opened, name, start)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: Recorder) -> None:
    """Replace every target in :data:`TARGETS` with its wrapped form."""
    for target, name in TARGETS:
        owner, attr = _resolve(target)
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))


def installed_wrappers() -> int:
    """How many targets currently carry a wrapper (0 on the untraced path)."""
    count = 0
    for target, _ in TARGETS:
        owner, attr = _resolve(target)
        count += hasattr(getattr(owner, attr), "ledger_span")
    return count


def layer_stats(spans: List[Span], timed_start: float) -> Dict[str, Any]:
    """Per-name totals over the timed region, plus the attributed share.

    ``self`` is a span minus its direct children.  A name that only occurs
    during set-up (``harness.build_cluster`` on the step workloads) is
    reported from its set-up spans, with ``calls`` 0 so it adds to no share.

    ``attributed_share`` is the share of traced busy time that reached a layer
    span: root spans of every thread (``op``, and ``api.run`` on a service
    worker thread) minus the self time of :data:`CONTAINERS`, over the same
    root spans, both less the :data:`IDLE` sleeps.  Time a container spends
    outside any wrapped layer call lowers it; with no layer wrapper below the
    containers it reads 0.
    """
    child_time: Dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    timed: Dict[str, List[Tuple[float, float]]] = {}
    setup: Dict[str, List[Tuple[float, float]]] = {}
    root_wall = container_self = idle = 0.0
    for span_id, parent, name, start, end, _ in spans:
        duration = end - start
        self_time = duration - child_time.get(span_id, 0.0)
        bucket = timed if start >= timed_start else setup
        bucket.setdefault(name, []).append((duration, self_time))
        if start >= timed_start:
            if not parent:
                root_wall += duration
            if name == IDLE:
                idle += self_time
            elif name in CONTAINERS:
                container_self += self_time

    layers: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(timed) | set(setup)):
        in_timed = name in timed
        pairs = np.asarray(timed[name] if in_timed else setup[name]) * 1e3
        durations, selfs = pairs[:, 0], pairs[:, 1]
        layers[name] = {
            "calls": len(pairs) if in_timed else 0,
            "total_ms": float(durations.sum()) if in_timed else 0.0,
            "self_ms": float(selfs.sum()) if in_timed else 0.0,
            "q1_ms": float(np.percentile(durations, 25)),
            "p50_ms": float(np.percentile(durations, 50)),
            "p95_ms": float(np.percentile(durations, 95)),
            "self_q1_ms": float(np.percentile(selfs, 25)),
        }
    busy = root_wall - idle
    return {
        "layers": layers,
        "attributed_share": 1.0 - container_self / busy if busy > 0 else 0.0,
    }


def write_spans(spans: List[Span], path: str) -> None:
    """One JSON object per line: id, parent, root, name, start, end, thread.

    ``root`` is the outermost enclosing span, so the spans of one operation
    (or of one job run on a service worker thread) share it.
    """
    parent_of = {span[0]: span[1] for span in spans}
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end, thread in sorted(spans):
            root = span_id
            while parent_of.get(root):
                root = parent_of[root]
            handle.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "root": root, "name": name,
                     "start": start, "end": end, "thread": thread}
                )
                + "\n"
            )
