"""Observability layer: spans, a metrics registry, and phase profiling.

This package is the repo-wide telemetry facade.  Hot paths call the
module-level helpers unconditionally; both subsystems default *off* and
pay a near-zero fast path when disabled:

* :func:`span` — returns :data:`NULL_SPAN` (an allocation-free singleton)
  while tracing is off, or a real :class:`~repro.telemetry.trace.Span`
  parented to the calling thread's current span while it is on.
* :func:`count` / :func:`observe` / :func:`gauge` — forward to the
  process-global :class:`~repro.telemetry.metrics.MetricsRegistry` only
  while metrics are on.

Activation:

* ``REPRO_TRACE_FILE=/path/trace.jsonl`` in the environment enables
  tracing at import and appends finished spans to that JSONL sink
  (flushed at interpreter exit, on :func:`flush` — which every cluster's
  ``close()`` calls — and when the buffer grows past the flush threshold).
  In-process, ``configure(trace_file="/path/trace.jsonl")`` does the same.
* ``REPRO_METRICS=1`` enables the metrics registry at import; the
  experiment service enables it at construction so ``GET /v1/metrics``
  advances without turning on hot-loop tracing.

Per-phase totals accumulate on span end; :func:`phase_snapshot` /
:func:`phase_delta` bracket a run to attach a phases block to
``ScenarioRecord``/``RunResult`` without re-reading the trace file.
"""

from __future__ import annotations

import atexit
import os
from typing import Any, Dict, Optional

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.trace import NULL_SPAN, Span, Tracer, summarize_trace

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "configure",
    "reset",
    "tracing_enabled",
    "metrics_enabled",
    "span",
    "count",
    "observe",
    "gauge",
    "get_tracer",
    "get_metrics",
    "phase_snapshot",
    "phase_delta",
    "flush",
    "summarize_trace",
]

_UNSET = object()

_TRACING = False
_METRICS = False
_tracer = Tracer()
_metrics = MetricsRegistry()


def tracing_enabled() -> bool:
    """True when spans are being recorded."""
    return _TRACING


def metrics_enabled() -> bool:
    """True when the metrics registry is recording."""
    return _METRICS


def span(name: str) -> Any:
    """Open a (potential) span.  The disabled path returns a shared no-op."""
    if not _TRACING:
        return NULL_SPAN
    return _tracer.span(name)


def count(name: str, value: float = 1.0, **labels: Any) -> None:
    """Increment a counter if metrics are on (no-op otherwise)."""
    if _METRICS:
        _metrics.counter(name).inc(value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record a histogram observation if metrics are on."""
    if _METRICS:
        _metrics.histogram(name).observe(value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge if metrics are on."""
    if _METRICS:
        _metrics.gauge(name).set(value, **labels)


def get_tracer() -> Tracer:
    return _tracer


def get_metrics() -> MetricsRegistry:
    return _metrics


def configure(
    *,
    tracing: Optional[bool] = None,
    metrics: Optional[bool] = None,
    trace_file: Any = _UNSET,
) -> None:
    """Flip telemetry state; omitted arguments leave their aspect alone.

    Passing ``trace_file=<path>`` attaches the JSONL sink and, unless
    ``tracing`` is given explicitly, also turns tracing on;
    ``trace_file=None`` detaches the sink (in-memory tracing).
    """
    global _TRACING, _METRICS
    if trace_file is not _UNSET:
        _tracer.set_sink(trace_file)
        if tracing is None and trace_file is not None:
            tracing = True
    if tracing is not None:
        _TRACING = bool(tracing)
    if metrics is not None:
        _METRICS = bool(metrics)


def reset() -> None:
    """Return to the pristine disabled state (test isolation helper).

    Discards buffered spans, phase totals, and every metric family; does
    *not* flush — call :func:`flush` first to keep pending spans.
    """
    global _TRACING, _METRICS, _tracer, _metrics
    _TRACING = False
    _METRICS = False
    _tracer = Tracer()
    _metrics = MetricsRegistry()


def phase_snapshot() -> Dict[str, float]:
    """Cumulative seconds per span name so far."""
    return _tracer.phase_totals()


def phase_delta(before: Dict[str, float]) -> Dict[str, float]:
    """Per-phase seconds accumulated since ``before`` (a prior snapshot)."""
    now = _tracer.phase_totals()
    delta = {}
    for name, total in now.items():
        spent = total - before.get(name, 0.0)
        if spent > 0.0:
            delta[name] = spent
    return delta


def flush() -> int:
    """Flush buffered spans to the sink (if any); returns spans written."""
    return _tracer.flush()


def _configure_from_env() -> None:
    trace_file = os.environ.get("REPRO_TRACE_FILE")
    if trace_file:
        configure(tracing=True, trace_file=trace_file)
    if os.environ.get("REPRO_METRICS", "").strip() not in ("", "0", "false"):
        configure(metrics=True)


_configure_from_env()
atexit.register(flush)
