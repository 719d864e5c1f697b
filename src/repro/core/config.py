"""Configuration of the SelSync trainer (Alg. 1 plus §III-C/D/E options)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Gradient statistics Δ(gᵢ) can track (see ``batch_gradient_statistic``).
STATISTICS = ("variance", "second_moment", "norm")


@dataclass
class SelSyncConfig:
    """All SelSync-specific knobs.

    Attributes
    ----------
    delta:
        The synchronization threshold δ on the relative gradient change.
        ``0.0`` degenerates to BSP (synchronize every step); a value above
        the maximum observed Δ(gᵢ) degenerates to pure local SGD (Fig. 6).
    aggregation:
        ``"param"`` for parameter aggregation (the paper's recommended mode)
        or ``"grad"`` for gradient aggregation (the Fig. 10 baseline).
    ewma_alpha:
        Smoothing factor; ``None`` uses the paper's rule num_workers / 100.
    statistic:
        Gradient statistic tracked ("variance", "second_moment" or "norm").
    sync_on_first_step:
        Force a synchronization on iteration 0 so every replica starts from
        the same aggregated state even when δ is large.
    injection_alpha / injection_beta:
        Data-injection fractions (α, β) for non-IID training; both ``None``
        disables injection.  When enabled the trainer expects its loaders to
        have been built with the adjusted batch size b′ of Eqn. (3).
    """

    delta: float = 0.25
    aggregation: str = "param"
    ewma_alpha: Optional[float] = None
    statistic: str = "variance"
    sync_on_first_step: bool = True
    injection_alpha: Optional[float] = None
    injection_beta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.aggregation not in ("param", "grad"):
            raise ValueError(
                f"aggregation must be 'param' or 'grad', got {self.aggregation!r}"
            )
        if self.statistic not in STATISTICS:
            raise ValueError(
                f"unknown statistic {self.statistic!r}; choose from {STATISTICS}"
            )
        if self.ewma_alpha is not None and not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        both_none = self.injection_alpha is None and self.injection_beta is None
        both_set = self.injection_alpha is not None and self.injection_beta is not None
        if not (both_none or both_set):
            raise ValueError("injection_alpha and injection_beta must be set together")
        if both_set:
            if not 0.0 <= self.injection_alpha <= 1.0 or not 0.0 <= self.injection_beta <= 1.0:
                raise ValueError("injection fractions must be in [0, 1]")

    @property
    def uses_injection(self) -> bool:
        return self.injection_alpha is not None

    def resolved_alpha(self, num_workers: int) -> float:
        """EWMA smoothing factor, defaulting to the paper's num_workers/100 rule."""
        if self.ewma_alpha is not None:
            return self.ewma_alpha
        return min(max(num_workers / 100.0, 0.01), 1.0)

    def label(self) -> str:
        """Short human-readable config label used in tables."""
        if self.uses_injection:
            return (
                f"SelSync(α={self.injection_alpha}, β={self.injection_beta}, δ={self.delta})"
            )
        return f"SelSync(δ={self.delta}, {self.aggregation})"
