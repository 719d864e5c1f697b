"""Relative gradient-change tracking, the Δ(gᵢ) of Eqn. (2).

At every iteration the tracker ingests the worker's freshly computed
gradients, reduces them to a scalar statistic (gradient variance by default,
the quantity the paper verifies against the Hessian's top eigenvalue),
smooths the statistic with a windowed EWMA, and reports

    Δ(gᵢ) = | s_i − s_{i−1} | / s_{i−1}

where ``s`` is the smoothed statistic.  The overhead of this computation is
what Fig. 8a measures; :class:`TrackerOverheadProbe` reproduces that
measurement.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.stats.ewma import EWMA
from repro.stats.variance import gradient_norm, gradient_second_moment, gradient_variance


_STATISTICS = ("variance", "second_moment", "norm")


class GradientChangeTracker:
    """Tracks Δ(gᵢ) across iterations for one worker.

    Parameters
    ----------
    window:
        EWMA window size (the paper uses 25 and shows 25–200 in Fig. 8a).
    alpha:
        EWMA smoothing factor; the paper sets it to ``num_workers / 100``.
    statistic:
        Scalar gradient statistic to track: ``"variance"`` (default),
        ``"second_moment"`` (E[||∇F||²] as written in Eqn. 2) or ``"norm"``.
    eps:
        Numerical floor for the denominator of the relative change.
    """

    def __init__(
        self,
        window: int = 25,
        alpha: float = 0.16,
        statistic: str = "variance",
        eps: float = 1e-12,
    ) -> None:
        if statistic not in _STATISTICS:
            raise ValueError(
                f"unknown statistic {statistic!r}; choose from {_STATISTICS}"
            )
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.statistic = statistic
        self.eps = float(eps)
        self._ewma = EWMA(alpha=alpha, window=window)
        self._previous_smoothed: Optional[float] = None
        self.history: List[float] = []
        self.raw_history: List[float] = []
        self.last_compute_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    @property
    def window(self) -> int:
        """EWMA window size (the paper's default is 25)."""
        return self._ewma.window

    @property
    def alpha(self) -> float:
        """EWMA smoothing factor (paper rule: ``num_workers / 100``)."""
        return self._ewma.alpha

    def _reduce(self, grads) -> float:
        if self.statistic == "variance":
            return gradient_variance(grads)
        if self.statistic == "second_moment":
            return gradient_second_moment(grads)
        return gradient_norm(grads)

    def update(self, grads) -> float:
        """Ingest this iteration's gradients and return Δ(gᵢ).

        ``grads`` may be a named mapping or an already-flat gradient vector.
        The first iteration has no predecessor, so Δ is defined as 0 there
        (the SelSync trainer forces a synchronization on the first step
        anyway to establish a common starting state).
        """
        start = time.perf_counter()
        raw = self._reduce(grads)
        delta = self._ingest(raw)
        self.last_compute_seconds = time.perf_counter() - start
        return delta

    def update_scalar(self, raw: float) -> float:
        """Ingest an externally reduced statistic and return Δ(gᵢ).

        Used by the vectorized SelSync path: the per-worker reductions are
        computed in one pass over the cluster's ``(N, D)`` gradient matrix
        (:func:`repro.stats.variance.batch_gradient_statistic`), then each
        tracker only performs the cheap scalar EWMA/Δ bookkeeping.
        """
        start = time.perf_counter()
        delta = self._ingest(float(raw))
        self.last_compute_seconds = time.perf_counter() - start
        return delta

    def _ingest(self, raw: float) -> float:
        smoothed = self._ewma.update(raw)
        if self._previous_smoothed is None:
            delta = 0.0
        else:
            denom = max(abs(self._previous_smoothed), self.eps)
            delta = abs(smoothed - self._previous_smoothed) / denom
        self._previous_smoothed = smoothed
        self.raw_history.append(raw)
        self.history.append(delta)
        return delta

    @property
    def max_delta(self) -> float:
        """The extremum M = max(Δ(gᵢ)) observed so far (§III-B)."""
        if not self.history:
            return 0.0
        return float(max(self.history))

    def reset(self) -> None:
        """Clear all EWMA state, as if freshly constructed."""
        self._ewma.reset()
        self._previous_smoothed = None
        self.history.clear()
        self.raw_history.clear()


class TrackerOverheadProbe:
    """Measures the wall-clock overhead of Δ(gᵢ) tracking (Fig. 8a).

    The probe repeatedly feeds a model-sized synthetic gradient through a
    tracker with the requested window size and reports the mean per-step
    overhead in milliseconds.
    """

    def __init__(self, parameter_count: int, seed: int = 0) -> None:
        if parameter_count < 1:
            raise ValueError(f"parameter_count must be >= 1, got {parameter_count}")
        self.parameter_count = int(parameter_count)
        rng = np.random.default_rng(seed)
        # Measured on the flat-vector path, matching how the SelSync engine
        # feeds gradients to trackers.
        self._fake_grads = rng.standard_normal(self.parameter_count)

    def measure_ms(self, window: int, steps: int = 50, alpha: float = 0.16) -> float:
        """Mean per-iteration tracker overhead in milliseconds."""
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        tracker = GradientChangeTracker(window=window, alpha=alpha)
        start = time.perf_counter()
        for _ in range(steps):
            tracker.update(self._fake_grads)
        elapsed = time.perf_counter() - start
        return elapsed / steps * 1000.0
