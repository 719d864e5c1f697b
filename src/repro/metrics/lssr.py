"""LSSR: local-to-synchronous step ratio (Eqn. 4 of the paper).

``LSSR = steps_local / (steps_local + steps_bsp)``; BSP has LSSR 0, pure
local-SGD has LSSR 1, and the communication reduction relative to BSP for the
same number of iterations is ``1 / (1 - LSSR)``.
"""

from __future__ import annotations


def lssr(local_steps: int, sync_steps: int) -> float:
    """Compute the LSSR score from step counters."""
    if local_steps < 0 or sync_steps < 0:
        raise ValueError("step counts must be non-negative")
    total = local_steps + sync_steps
    if total == 0:
        return 0.0
    return local_steps / total


def communication_reduction(lssr_value: float) -> float:
    """Communication reduction factor w.r.t. BSP, 1 / (1 - LSSR)."""
    if not 0.0 <= lssr_value <= 1.0:
        raise ValueError(f"LSSR must be in [0, 1], got {lssr_value}")
    if lssr_value >= 1.0:
        return float("inf")
    return 1.0 / (1.0 - lssr_value)


class LSSRTracker:
    """Counts local vs synchronous steps during a training run."""

    def __init__(self) -> None:
        self.local_steps = 0
        self.sync_steps = 0

    def record_local(self, count: int = 1) -> None:
        """Count ``count`` steps that skipped synchronization (local SGD)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.local_steps += count

    def record_sync(self, count: int = 1) -> None:
        """Count ``count`` fully synchronous (BSP-style) steps."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.sync_steps += count

    @property
    def value(self) -> float:
        """The LSSR score so far (0 before any step is recorded)."""
        return lssr(self.local_steps, self.sync_steps)
