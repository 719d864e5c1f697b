"""Convergence detection.

Table I runs each method "until the accuracy/perplexity does not improve any
further" and records the iterations taken.  The detector reproduces that
stopping rule: a run has converged once the best test metric has not improved
by more than ``min_delta`` for ``patience`` consecutive evaluations.
"""

from __future__ import annotations

from typing import List, Optional


def better_than(
    candidate: float, reference: float, higher_is_better: bool, min_delta: float = 0.0
) -> bool:
    """Whether ``candidate`` improves on ``reference`` by more than ``min_delta``."""
    if higher_is_better:
        return candidate > reference + min_delta
    return candidate < reference - min_delta


class ConvergenceDetector:
    """Plateau detector over a stream of evaluation metrics."""

    def __init__(
        self,
        higher_is_better: bool = True,
        patience: int = 3,
        min_delta: float = 1e-4,
        target: Optional[float] = None,
    ) -> None:
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if min_delta < 0:
            raise ValueError(f"min_delta must be non-negative, got {min_delta}")
        self.higher_is_better = bool(higher_is_better)
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.target = target
        self.best: Optional[float] = None
        self.best_step: Optional[int] = None
        self.stale_evals = 0
        self.history: List[float] = []

    def update(self, metric: float, step: Optional[int] = None) -> bool:
        """Record one evaluation; returns True if the run should stop."""
        self.history.append(float(metric))
        if self.best is None or better_than(
            metric, self.best, self.higher_is_better, self.min_delta
        ):
            self.best = float(metric)
            self.best_step = step
            self.stale_evals = 0
        else:
            self.stale_evals += 1
        if self.target is not None and better_than(
            metric, self.target, self.higher_is_better, min_delta=0.0
        ):
            return True
        return self.stale_evals >= self.patience
