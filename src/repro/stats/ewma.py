"""Exponentially weighted moving average (EWMA) smoothing.

The paper smooths the per-iteration gradient statistic with an EWMA over a
window of 25 iterations and a smoothing factor of N/100 (0.16 for a 16-node
cluster) before computing the relative gradient change Δ(gᵢ) (§III-A).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, List, Optional

import numpy as np


class EWMA:
    """Windowed exponentially weighted moving average.

    Parameters
    ----------
    alpha:
        Smoothing factor in (0, 1]; the paper uses ``num_workers / 100``.
    window:
        Number of recent observations kept; the EWMA is recomputed over this
        window so very old observations eventually drop out entirely (the
        paper's w = 25).
    """

    def __init__(self, alpha: float = 0.16, window: int = 25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.alpha = float(alpha)
        self.window = int(window)
        self._values: Deque[float] = deque(maxlen=window)
        self._smoothed: Optional[float] = None

    def update(self, value: float) -> float:
        """Add one observation and return the new smoothed value."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"EWMA observation must be finite, got {value}")
        self._values.append(value)
        if self._smoothed is None:
            self._smoothed = value
        else:
            self._smoothed = self.alpha * value + (1.0 - self.alpha) * self._smoothed
        return self._smoothed

    @property
    def value(self) -> float:
        if self._smoothed is None:
            raise RuntimeError("EWMA queried before any observation")
        return self._smoothed

    @property
    def window_full(self) -> bool:
        return len(self._values) == self.window

    @property
    def count(self) -> int:
        return len(self._values)

    def window_mean(self) -> float:
        """Plain mean over the retained window (used in overhead comparisons)."""
        if not self._values:
            raise RuntimeError("EWMA window is empty")
        return float(np.mean(self._values))

    def reset(self) -> None:
        self._values.clear()
        self._smoothed = None


def ewma_smooth(values: Iterable[float], alpha: float = 0.16, window: int = 25) -> List[float]:
    """Smooth a whole series, returning one smoothed value per observation."""
    smoother = EWMA(alpha=alpha, window=window)
    return [smoother.update(v) for v in values]
