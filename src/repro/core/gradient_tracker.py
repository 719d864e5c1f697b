"""Relative gradient-change tracking, the Δ(gᵢ) of Eqn. (2), for all workers.

At every iteration each worker's gradients reduce to a scalar statistic
(:func:`repro.stats.variance.batch_gradient_statistic`, one pass over the
cluster's ``(N, D)`` gradient matrix).  :class:`TrackerBank` smooths the N
statistics with an EWMA, s ← α·x + (1 − α)·s, and reports

    Δ(gᵢ) = | s_i − s_{i−1} | / s_{i−1}

per worker, as (N,) array arithmetic.  The paper also names an EWMA window
(w = 25, Fig. 8a); the recursion above never reads one, so the bank keeps no
window and its state is O(N) however long the run.
"""

from __future__ import annotations

import numpy as np


class TrackerBank:
    """The EWMA / Δ(gᵢ) state of N workers, one row each.

    Parameters
    ----------
    num_workers:
        Number of rows (one per worker).
    alpha:
        EWMA smoothing factor in (0, 1]; the paper sets it to
        ``num_workers / 100``.
    eps:
        Numerical floor for the denominator of the relative change.

    Attributes
    ----------
    smoothed:
        The smoothed statistic s of each row (also the s_{i−1} of its next Δ).
    max_delta:
        The extremum M = max(Δ(gᵢ)) each row has reported so far (§III-B).
    seen:
        Which rows have had their first observation.
    """

    def __init__(self, num_workers: int, alpha: float = 0.16, eps: float = 1e-12) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.alpha = float(alpha)
        self.eps = float(eps)
        self.smoothed = np.zeros(num_workers)
        self.max_delta = np.zeros(num_workers)
        self.seen = np.zeros(num_workers, dtype=bool)

    def update(self, raw, active) -> np.ndarray:
        """Ingest one statistic per row and return the (N,) Δ(gᵢ).

        Only ``active`` rows move; the rest (crashed workers) stay frozen and
        report Δ = 0.  A row's first observation passes through the EWMA
        unchanged and reports Δ = 0 (the SelSync trainer forces a
        synchronization on the first step anyway).
        """
        raw = np.asarray(raw, dtype=np.float64)
        active = np.asarray(active, dtype=bool)
        bad = active & ~np.isfinite(raw)
        if bad.any():
            raise ValueError(f"EWMA observation must be finite, got {raw[bad][0]}")
        # A crashed row's statistic is never used; zero it so a non-finite
        # one cannot raise floating-point warnings below.
        raw = np.where(active, raw, 0.0)
        seen = self.seen
        smoothed = np.where(seen, self.alpha * raw + (1.0 - self.alpha) * self.smoothed, raw)
        previous = np.where(seen, self.smoothed, smoothed)
        delta = np.abs(smoothed - previous) / np.maximum(np.abs(previous), self.eps)
        delta[~active] = 0.0
        np.copyto(self.smoothed, smoothed, where=active)
        np.maximum(self.max_delta, delta, out=self.max_delta)
        self.seen |= active
        return delta
