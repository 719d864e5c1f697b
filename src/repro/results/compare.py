"""Benchmark-file comparison: one engine for two-point diffs and history.

This module is the engine behind ``repro bench compare``: flattening the
three benchmark artifacts into comparable metric rows, the two-point delta
table, and the store-backed rolling comparison behind
``repro bench compare --store``.

The three artifact kinds share one uniform interface (:data:`BENCH_KINDS`):

``engine``
    ``BENCH_engine.json`` — every numeric leaf under a ``steps_per_sec``
    key, higher is better.
``scenarios``
    ``BENCH_scenarios.json`` — any ``steps_per_sec`` rows plus a
    synthesized per-scenario sweep rate, higher is better.
``service``
    ``BENCH_service.json`` — submit/e2e latency percentiles, *lower* is
    better.

Store-backed mode appends the current rows to a
:class:`~repro.results.store.ResultsStore` (scenario key ``bench-<kind>``)
and assesses each metric against the rolling median-of-last-K baseline
(:func:`repro.results.regression.assess_series`), failing only on
*confirmed* (≥ ``min_consecutive`` consecutive out-of-band) regressions —
a single noisy run can no longer fail the gate the way a two-point diff
could.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.results.regression import (
    DEFAULT_MIN_CONSECUTIVE,
    DEFAULT_WINDOW,
    assess_series,
)
from repro.results.store import ResultsStore, StoredRun, open_store

__all__ = [
    "BENCH_KINDS",
    "BenchKind",
    "compare",
    "compare_store",
    "load_metrics",
    "load_scenario_metrics",
    "load_service_metrics",
    "record_bench_file",
    "service_throughput_line",
]


def _collect_steps_per_sec(node, prefix: str = "", in_sps: bool = False) -> Dict[str, float]:
    """Flatten every numeric leaf governed by a ``steps_per_sec`` key."""
    out: Dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            owns = in_sps or key == "steps_per_sec" or key.endswith("steps_per_sec")
            out.update(_collect_steps_per_sec(value, path, owns))
    elif isinstance(node, (int, float)) and not isinstance(node, bool) and in_sps:
        out[prefix] = float(node)
    return out


def load_metrics(path: Path) -> Dict[str, float]:
    return _collect_steps_per_sec(json.loads(Path(path).read_text()))


def _scenario_sweep_rate(summary: dict) -> Optional[float]:
    """Total trainer steps across the grid per second of sweep wall-clock."""
    meta = summary.get("meta") or {}
    wall = meta.get("sweep_wall_seconds")
    records = summary.get("records") or []
    iterations = meta.get("iterations")
    if not wall or not records or not iterations:
        return None
    return iterations * len(records) / wall


def load_scenario_metrics(path: Path) -> Dict[str, float]:
    """Flatten a BENCH_scenarios.json file into comparable steps/sec rows.

    Includes every ``steps_per_sec`` leaf plus one synthesized
    ``<scenario>.sweep_steps_per_sec`` row per scenario report.
    """
    report = json.loads(Path(path).read_text())
    metrics = _collect_steps_per_sec(report)
    for name, summary in report.items():
        if not isinstance(summary, dict):
            continue
        rate = _scenario_sweep_rate(summary)
        if rate is not None:
            metrics[f"{name}.sweep_steps_per_sec"] = rate
    return metrics


def load_service_metrics(path: Path) -> Dict[str, float]:
    """Flatten a BENCH_service.json file into comparable latency rows.

    Only the latency percentiles gate (lower is better); ``jobs_per_sec``
    would invert the comparison, so it is reported via
    :func:`service_throughput_line` instead.
    """
    report = json.loads(Path(path).read_text())
    load = report.get("load") or {}
    metrics: Dict[str, float] = {}
    for section in ("submit_latency_ms", "e2e_latency_ms"):
        for quantile in ("p50", "p99"):
            value = (load.get(section) or {}).get(quantile)
            if value is not None:
                metrics[f"{section}.{quantile}"] = float(value)
    return metrics


def service_throughput_line(path: Path) -> str:
    """One informational line for the current run's sustained throughput."""
    load = (json.loads(Path(path).read_text()) or {}).get("load") or {}
    if not load:
        return ""
    return (
        f"Current sustained throughput: {load.get('jobs_per_sec', 0)} jobs/s "
        f"({load.get('completed_jobs', 0)}/{load.get('total_jobs', 0)} jobs, "
        f"{load.get('failures', 0)} failures)."
    )


@dataclass(frozen=True)
class BenchKind:
    """One benchmark artifact family's comparison recipe."""

    name: str
    load: Callable[[Path], Dict[str, float]]
    lower_is_better: bool
    title: str
    #: Optional extra markdown rendered from the current file (throughput
    #: lines).
    extras: Callable[[Path], List[str]] = lambda path: []


BENCH_KINDS: Dict[str, BenchKind] = {
    "engine": BenchKind(
        name="engine",
        load=load_metrics,
        lower_is_better=False,
        title="### Engine perf: baseline vs current (steps/sec)",
    ),
    "scenarios": BenchKind(
        name="scenarios",
        load=load_scenario_metrics,
        lower_is_better=False,
        title="### Scenario sweeps: baseline vs current (steps/sec)",
    ),
    "service": BenchKind(
        name="service",
        load=load_service_metrics,
        lower_is_better=True,
        title="### Service load: baseline vs current (latency ms, lower is better)",
        extras=lambda path: [t for t in [service_throughput_line(path)] if t],
    ),
}


def bench_scenario_key(kind: str) -> str:
    """The store scenario name benchmark rows of ``kind`` are filed under."""
    return f"bench-{kind}"


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    max_regression: float,
    title: str = "### Engine perf: baseline vs current (steps/sec)",
    lower_is_better: bool = False,
) -> Tuple[str, bool]:
    """Render the two-point delta table; returns (markdown, failed).

    ``lower_is_better=True`` flips the regression direction for latency-style
    metrics: growth beyond ``max_regression`` fails instead of shrinkage.
    """
    shared = sorted(set(baseline) & set(current))
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))

    lines = [
        title,
        "",
        "| key | baseline | current | delta | status |",
        "| --- | ---: | ---: | ---: | :--- |",
    ]
    failed = False
    for key in shared:
        base, cur = baseline[key], current[key]
        delta = (cur - base) / base if base else float("inf")
        if lower_is_better:
            regressed = delta > max_regression
            improved = delta <= 0
        else:
            regressed = delta < -max_regression
            improved = delta >= 0
        failed |= regressed
        status = "REGRESSION" if regressed else ("ok" if improved else "ok (within limit)")
        lines.append(f"| {key} | {base:.1f} | {cur:.1f} | {delta:+.1%} | {status} |")
    for key in only_baseline:
        lines.append(f"| {key} | {baseline[key]:.1f} | — | — | not measured in this run |")
    for key in only_current:
        lines.append(f"| {key} | — | {current[key]:.1f} | — | new key |")
    lines.append("")
    direction = "above" if lower_is_better else "below"
    lines.append(
        f"Regression limit: {max_regression:.0%} {direction} baseline "
        f"({'FAILED' if failed else 'passed'})."
    )
    return "\n".join(lines), failed


# --------------------------------------------------------------------------- #
# the persistent-store path
# --------------------------------------------------------------------------- #
def record_bench_file(
    store: Union[str, ResultsStore],
    kind: str,
    path: Path,
    *,
    tags: Sequence[str] = (),
) -> StoredRun:
    """Append one benchmark artifact's flattened rows to the run store.

    The run is filed as ``scenario=bench-<kind>, kind=bench`` with a single
    record holding every flattened metric, so
    :meth:`~repro.results.store.ResultsStore.trend` works on benchmark rows
    exactly as it does on scenario records.
    """
    if kind not in BENCH_KINDS:
        raise KeyError(f"unknown bench kind {kind!r}; one of {sorted(BENCH_KINDS)}")
    metrics = BENCH_KINDS[kind].load(Path(path))
    handle, owns = open_store(store)
    try:
        return handle.append(
            bench_scenario_key(kind),
            "bench",
            [{"params": {}, "label": kind, "metrics": metrics}],
            meta={"source": str(path), "bench_kind": kind},
            tags=tags,
        )
    finally:
        if owns:
            handle.close()


def compare_store(
    store: Union[str, ResultsStore],
    kind: str,
    current: Path,
    *,
    window: int = DEFAULT_WINDOW,
    min_consecutive: int = DEFAULT_MIN_CONSECUTIVE,
    record: bool = True,
    tags: Sequence[str] = (),
) -> Tuple[str, bool]:
    """Rolling-baseline comparison of ``current`` against stored history.

    Appends the current rows first (unless ``record=False``), then assesses
    every metric's full series: the verdict table reports the
    median-of-last-``window`` baseline, the IQR noise band, and the trailing
    out-of-band streak.  Returns ``(markdown, any_confirmed_regression)`` —
    only a streak of at least ``min_consecutive`` fails, so the first
    out-of-band run warns instead of failing and a blip never fails.
    """
    if kind not in BENCH_KINDS:
        raise KeyError(f"unknown bench kind {kind!r}; one of {sorted(BENCH_KINDS)}")
    recipe = BENCH_KINDS[kind]
    current_metrics = recipe.load(Path(current))
    handle, owns = open_store(store)
    try:
        if record:
            record_bench_file(handle, kind, Path(current), tags=tags)
        scenario = bench_scenario_key(kind)
        lines = [
            f"### {kind}: rolling baseline (median of last {window}) vs current",
            "",
            "| key | baseline | band | current | delta | streak | status |",
            "| --- | ---: | ---: | ---: | ---: | ---: | :--- |",
        ]
        failed = False
        for key in sorted(current_metrics):
            points = store_trend_with_current(
                handle, scenario, key, current_metrics[key], recorded=record
            )
            verdict = assess_series(
                points,
                metric=key,
                window=window,
                min_consecutive=min_consecutive,
                lower_is_better=recipe.lower_is_better,
            )
            if verdict.insufficient_history:
                lines.append(
                    f"| {key} | — | — | {current_metrics[key]:.1f} | — | — | "
                    "insufficient history |"
                )
                continue
            failed |= verdict.confirmed
            status = (
                "CONFIRMED REGRESSION"
                if verdict.confirmed
                else ("out of band (unconfirmed)" if verdict.consecutive else "ok")
            )
            lines.append(
                f"| {key} | {verdict.baseline:.1f} | ±{verdict.band:.1f} | "
                f"{verdict.latest:.1f} | {verdict.delta:+.1%} | "
                f"{verdict.consecutive} | {status} |"
            )
        lines.append("")
        lines.append(
            f"Confirmed = {min_consecutive}+ consecutive out-of-band runs "
            f"({'FAILED' if failed else 'passed'})."
        )
        return "\n".join(lines), failed
    finally:
        if owns:
            handle.close()


def store_trend_with_current(
    store: ResultsStore,
    scenario: str,
    metric: str,
    current_value: float,
    *,
    recorded: bool,
) -> List[float]:
    """The metric's chronological series including the current observation."""
    values = [point["value"] for point in store.trend(scenario, metric)]
    if not recorded:
        values.append(float(current_value))
    return values
