"""History-aware regression detection against a rolling baseline.

A two-point diff against one checked-in baseline cannot tell a noisy blip
from a real trend.  This module replaces the single checked-in
baseline with a *rolling* one, in the spirit of the incremental
changing-clusters-over-time analyses in PAPERS.md: membership of the
"regressed" set is computed against a window of recent history, not one
snapshot.

For each point of a metric series the detector builds a baseline from the
``window`` points strictly before it:

* **baseline** — the median of the window (robust to a single outlier
  poisoning the reference, unlike a mean);
* **noise band** — ``iqr_scale`` × the window's interquartile range,
  floored at ``min_rel_band`` of the baseline so a perfectly flat history
  (IQR 0) still tolerates small changes;
* a point is **out of band** when it falls outside ``baseline ± band`` in
  the *bad* direction (below for higher-is-better metrics like steps/sec,
  above for lower-is-better ones like latency);
* a regression is **confirmed** only when the ``min_consecutive`` most
  recent points are all out of band.  A single 30% blip therefore never
  trips the gate — the next in-band point resets the streak — while a
  sustained 30% drop is flagged on its second consecutive observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "SeriesAssessment",
    "assess_series",
    "assess_trend",
    "DEFAULT_WINDOW",
    "DEFAULT_MIN_CONSECUTIVE",
]

#: Median-of-last-K window size used when the caller does not choose one.
DEFAULT_WINDOW = 5

#: Out-of-band observations required, consecutively, to confirm a regression.
DEFAULT_MIN_CONSECUTIVE = 2

#: Points of history required before any verdict is attempted.
_MIN_HISTORY = 2


@dataclass
class SeriesAssessment:
    """The rolling-baseline verdict for one metric series.

    ``out_of_band`` has one entry per assessed point (the series minus the
    warm-up prefix that lacked history); ``consecutive`` counts the trailing
    out-of-band streak, and ``confirmed`` is the gate: streak ≥
    ``min_consecutive``.
    """

    metric: str
    values: List[float]
    baseline: Optional[float] = None
    band: Optional[float] = None
    latest: Optional[float] = None
    delta: Optional[float] = None
    lower_is_better: bool = False
    out_of_band: List[bool] = field(default_factory=list)
    consecutive: int = 0
    confirmed: bool = False
    insufficient_history: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "band": self.band,
            "latest": self.latest,
            "delta": self.delta,
            "lower_is_better": self.lower_is_better,
            "consecutive_out_of_band": self.consecutive,
            "confirmed_regression": self.confirmed,
            "insufficient_history": self.insufficient_history,
            "points": len(self.values),
        }


def _rolling_reference(window: Sequence[float], min_rel_band: float, iqr_scale: float):
    arr = np.asarray(window, dtype=float)
    median = float(np.median(arr))
    q75, q25 = np.percentile(arr, [75.0, 25.0])
    band = max(iqr_scale * float(q75 - q25), min_rel_band * abs(median))
    return median, band


def assess_series(
    values: Sequence[float],
    *,
    metric: str = "value",
    window: int = DEFAULT_WINDOW,
    min_consecutive: int = DEFAULT_MIN_CONSECUTIVE,
    iqr_scale: float = 1.5,
    min_rel_band: float = 0.05,
    lower_is_better: bool = False,
) -> SeriesAssessment:
    """Assess one chronological metric series (oldest first).

    Returns a :class:`SeriesAssessment`; with fewer than two history points
    before the latest value there is nothing to baseline against, so the
    verdict is ``insufficient_history`` and never confirmed.
    """
    series = [float(v) for v in values]
    out = SeriesAssessment(
        metric=metric,
        values=series,
        lower_is_better=lower_is_better,
        latest=series[-1] if series else None,
    )
    if len(series) <= _MIN_HISTORY - 1 or window < 1:
        out.insufficient_history = True
        return out
    flags: List[bool] = []
    for i in range(1, len(series)):
        history = series[max(0, i - window): i]
        if len(history) < _MIN_HISTORY:
            flags.append(False)
            continue
        median, band = _rolling_reference(history, min_rel_band, iqr_scale)
        if lower_is_better:
            flags.append(series[i] > median + band)
        else:
            flags.append(series[i] < median - band)
    out.out_of_band = flags
    streak = 0
    for flag in reversed(flags):
        if not flag:
            break
        streak += 1
    out.consecutive = streak
    out.confirmed = streak >= max(1, int(min_consecutive))
    history = series[max(0, len(series) - 1 - window): len(series) - 1]
    if len(history) >= _MIN_HISTORY:
        median, band = _rolling_reference(history, min_rel_band, iqr_scale)
        out.baseline = median
        out.band = band
        out.delta = (series[-1] - median) / median if median else float("inf")
    else:
        out.insufficient_history = True
    return out


def assess_trend(
    store,
    scenario: str,
    metric: str,
    *,
    where: Optional[Dict[str, Any]] = None,
    window: int = DEFAULT_WINDOW,
    min_consecutive: int = DEFAULT_MIN_CONSECUTIVE,
    lower_is_better: bool = False,
    **kwargs: Any,
) -> SeriesAssessment:
    """Assess a stored scenario's metric trend (see :meth:`ResultsStore.trend`)."""
    points = store.trend(scenario, metric, where=where)
    return assess_series(
        [point["value"] for point in points],
        metric=metric,
        window=window,
        min_consecutive=min_consecutive,
        lower_is_better=lower_is_better,
        **kwargs,
    )
