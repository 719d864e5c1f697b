"""Plain-text report formatting for tables and figure series.

The benchmarks print the same rows/series the paper's tables and figures
contain; these helpers keep that formatting consistent and are also used to
assemble EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Sequence

from repro.algorithms.base import TrainingResult


def _format_cell(value: Any, precision: int = 4) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Render an aligned plain-text table."""
    headers = [str(h) for h in headers]
    str_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def results_to_rows(
    results: Mapping[str, TrainingResult],
    baseline_key: str = "bsp",
) -> List[List[Any]]:
    """Convert labelled training results into Table-I style rows.

    Columns: method, iterations, LSSR, final metric, convergence difference
    vs the baseline, whether it outperforms the baseline, overall speedup.
    """
    if baseline_key not in results:
        raise KeyError(f"baseline {baseline_key!r} missing from results")
    baseline = results[baseline_key]
    rows: List[List[Any]] = []
    for label, result in results.items():
        is_baseline = label == baseline_key
        conv_diff = 0.0 if is_baseline else result.convergence_difference(baseline)
        outperforms = "N/A" if is_baseline else str(conv_diff >= 0)
        lssr_cell: Any
        if result.algorithm.startswith("ssp"):
            lssr_cell = "-"
        else:
            lssr_cell = round(result.lssr, 3)
        speedup = 1.0 if is_baseline else result.speedup_over(baseline)
        speedup_cell = f"{speedup:.2f}x" if (is_baseline or conv_diff >= 0) else "-"
        rows.append(
            [
                result.algorithm,
                result.iterations,
                lssr_cell,
                round(result.best_metric, 4),
                round(conv_diff, 4),
                outperforms,
                speedup_cell,
            ]
        )
    return rows


def table1_headers() -> List[str]:
    """Column names of Table I."""
    return [
        "Method",
        "Iterations",
        "LSSR",
        "Acc./PPL",
        "Conv. Diff.",
        "Outperform BSP?",
        "Overall speedup",
    ]


def trend_table(metric: str, points: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Render one stored metric trend (oldest first) as an aligned table.

    ``points`` are one series of :func:`repro.results.history_payload`;
    ``repro scenario history`` renders one of these per metric so the CLI
    shows exactly the series that function returns.
    """
    import datetime

    rows = []
    for i, point in enumerate(points):
        started = point.get("started_at")
        when = (
            datetime.datetime.fromtimestamp(float(started)).strftime("%Y-%m-%d %H:%M")
            if started is not None
            else "-"
        )
        rows.append(
            [
                i + 1,
                when,
                str(point.get("git_sha", "-"))[:12],
                str(point.get("config_hash", "-"))[:12],
                point.get("value"),
            ]
        )
    return format_table(
        ["run", "started", "git_sha", "config", metric],
        rows,
        title=title or f"history: {metric}",
    )
