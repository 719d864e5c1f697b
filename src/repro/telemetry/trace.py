"""Span tracer: nested, thread-aware timing spans.

A :class:`Span` records a name, ``trace_id``/``span_id``/``parent_id``
lineage, a wall-clock ``start`` (``time.time``), a monotonic ``duration``
(``time.perf_counter`` delta), the pid/thread that ran it, and optional
attributes.  Spans nest through a per-thread stack kept by the
:class:`Tracer`, so ``with span(...)`` blocks opened inside another span
automatically parent to it — including across :class:`TaskManager` worker
threads, which each get their own stack.

Span and trace ids embed the pid, so traces written by several processes
into one sink never collide.

The disabled fast path is :data:`NULL_SPAN` — a slotted singleton whose
``__enter__``/``__exit__``/``set`` do nothing and allocate nothing, so hot
loops can keep their ``with telemetry.span(...)`` blocks unconditionally.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["NULL_SPAN", "Span", "Tracer", "summarize_trace"]

#: Finished spans buffered in memory before an automatic sink flush.
FLUSH_THRESHOLD = 10_000


class _NullSpan:
    """The disabled fast path: a do-nothing span singleton.

    ``__slots__ = ()`` and the module-level singleton guarantee the no-op
    path allocates nothing per call — ``telemetry.span(...)`` returns this
    exact object every time tracing is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One timed region.  Use as a context manager; reuse is not supported."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "attrs",
        "_tracer",
        "_t0",
        "_thread",
    )

    def __init__(self, tracer: "Tracer", name: str):
        self.name = name
        self.trace_id: Optional[str] = None
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.start = 0.0
        self.duration = 0.0
        self.attrs: Optional[Dict[str, Any]] = None
        self._tracer = tracer
        self._t0 = 0.0
        self._thread = ""

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute (lazily allocating the dict)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack, self._thread = tracer._state()
        self.span_id = tracer._next_span_id()
        if stack:
            top = stack[-1]
            self.trace_id = top.trace_id
            self.parent_id = top.span_id
        else:
            self.trace_id = tracer._next_trace_id()
            self.parent_id = None
        stack.append(self)
        # One clock read per enter: the wall-clock start is reconstructed
        # from the tracer's epoch anchor instead of a second time.time() call.
        self._t0 = time.perf_counter()
        self.start = tracer._epoch + self._t0
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.duration = time.perf_counter() - self._t0
        stack, _ = self._tracer._state()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - misnested exit, still recover
            stack.remove(self)
        self._tracer._finish(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self._tracer._pid,
            "thread": self._thread,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Collects finished spans, keeps per-phase totals, writes a JSONL sink."""

    def __init__(self, sink_path: Optional[str] = None):
        self._local = threading.local()
        self._lock = threading.Lock()
        # Finished Span objects: the hot path defers building their dicts.
        self._buffer: List[Span] = []
        self._phase_totals: Dict[str, float] = {}
        self._sink_path = sink_path
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        # Per-process/per-tracer constants so the hot path never re-queries
        # them.
        self._pid = os.getpid()
        self._id_prefix = "%x-" % self._pid
        self._trace_prefix = "t%x-" % self._pid
        self._epoch = time.time() - time.perf_counter()

    # -- span lifecycle ------------------------------------------------------ #
    def span(self, name: str) -> Span:
        return Span(self, name)

    def _state(self) -> tuple:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.thread = threading.current_thread().name
        return stack, local.thread

    def _next_span_id(self) -> str:
        return self._id_prefix + "%x" % next(self._span_ids)

    def _next_trace_id(self) -> str:
        return self._trace_prefix + "%x" % next(self._trace_ids)

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._buffer.append(span)
            self._phase_totals[span.name] = (
                self._phase_totals.get(span.name, 0.0) + span.duration
            )
            overflow = (
                self._sink_path is not None and len(self._buffer) >= FLUSH_THRESHOLD
            )
        if overflow:
            self.flush()

    # -- inspection ---------------------------------------------------------- #
    def phase_totals(self) -> Dict[str, float]:
        """Cumulative seconds per span name (cheap snapshot for records)."""
        with self._lock:
            return dict(self._phase_totals)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the in-memory buffer as span dicts."""
        with self._lock:
            spans, self._buffer = self._buffer, []
        return [s.to_dict() for s in spans]

    # -- sink ---------------------------------------------------------------- #
    def set_sink(self, path: Optional[str]) -> None:
        self._sink_path = path

    @property
    def sink_path(self) -> Optional[str]:
        return self._sink_path

    def flush(self) -> int:
        """Append buffered spans to the JSONL sink; returns spans written.

        Without a sink path the buffer is left in place (in-memory mode,
        used by tests).
        """
        if self._sink_path is None:
            return 0
        with self._lock:
            spans, self._buffer = self._buffer, []
        if not spans:
            return 0
        with open(self._sink_path, "a", encoding="utf-8") as sink:
            for span in spans:
                sink.write(json.dumps(span.to_dict()) + "\n")
        return len(spans)


def summarize_trace(path: str) -> Dict[str, Any]:
    """Aggregate a JSONL trace file into per-phase time-share rows.

    Returns ``{"wall_seconds", "span_count", "phases": {name: {count,
    total_seconds, mean_seconds, share}}}`` where ``share`` is the phase's
    fraction of the trace wall (first span start → last span end).  Nested
    phases each count their own inclusive time, so shares can sum past 1.
    """
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    if not spans:
        return {"wall_seconds": 0.0, "span_count": 0, "phases": {}}
    first = min(span["start"] for span in spans)
    last = max(span["start"] + span.get("duration", 0.0) for span in spans)
    wall = max(last - first, 0.0)
    phases: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        entry = phases.setdefault(span["name"], {"count": 0, "total_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += span.get("duration", 0.0)
    for entry in phases.values():
        entry["mean_seconds"] = entry["total_seconds"] / entry["count"]
        entry["share"] = entry["total_seconds"] / wall if wall > 0 else 0.0
    return {"wall_seconds": wall, "span_count": len(spans), "phases": phases}
