"""Randomized data injection for non-IID training (§III-E of the paper).

At every iteration a random fraction ``alpha`` of the workers is selected;
each selected worker contributes a fraction ``beta`` of its mini-batch to a
shared pool which is appended to every worker's batch.  To keep the effective
per-worker batch size at the originally configured ``b`` the local batch size
is reduced to ``b' = b / (1 + alpha * beta * N)`` (Eqn. 3).

Privacy is preserved through K-anonymity: the receiving worker only sees a
pool mixed from ``ceil(alpha * N)`` anonymous contributors chosen fresh each
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.rng import new_rng


def adjusted_batch_size(batch_size: int, alpha: float, beta: float, num_workers: int) -> int:
    """Per-worker batch size b' = b / (1 + alpha*beta*N), Eqn. (3), at least 1."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
        raise ValueError(f"alpha and beta must be in [0, 1], got ({alpha}, {beta})")
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    b_prime = int(round(batch_size / (1.0 + alpha * beta * num_workers)))
    return max(b_prime, 1)


@dataclass
class InjectionReport:
    """Bookkeeping for one injection round."""

    selected_workers: List[int]
    shared_samples: int
    bytes_transferred: float


class DataInjection:
    """Per-iteration random sharing of training samples across workers."""

    def __init__(
        self,
        alpha: float,
        beta: float,
        num_workers: int,
        sample_bytes: int = 0,
        seed: Optional[int] = 0,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.num_workers = int(num_workers)
        self.sample_bytes = int(sample_bytes)
        self._rng = new_rng(seed)
        self.total_bytes = 0.0
        self.rounds = 0

    def num_selected(self, num_live: Optional[int] = None) -> int:
        """Number of workers selected to share, ceil(alpha * N) of the
        ``num_live`` workers (default: all of them)."""
        return int(np.ceil(self.alpha * (self.num_workers if num_live is None else num_live)))

    def inject(
        self,
        batches: Tuple[np.ndarray, np.ndarray],
        active: np.ndarray,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], InjectionReport]:
        """Mix a shared pool into every live worker's batch.

        ``batches`` is the step's ``(inputs, targets)`` block, one leading row
        per worker, each of local size b'; ``active`` marks the live rows.  A
        crashed row neither contributes to the pool nor counts as a receiver
        of the transfer.  Returns the block with the pool appended along the
        batch axis, b' + alpha*beta*N*b' ≈ b samples per row, plus an
        :class:`InjectionReport`.  A crashed row holds the first
        live row's data, so it holds the first live row's mixed batch after.
        """
        inputs, targets = batches
        if inputs.shape[0] != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} worker batches, got {inputs.shape[0]}"
            )
        if self.alpha == 0.0 or self.beta == 0.0:
            report = InjectionReport(selected_workers=[], shared_samples=0, bytes_transferred=0.0)
            self.rounds += 1
            return batches, report

        live = np.flatnonzero(active)
        k = self.num_selected(live.size)
        selected = sorted(int(w) for w in self._rng.choice(live, size=k, replace=False))
        local = inputs.shape[1]
        share = int(np.floor(self.beta * local))
        shared = share * len(selected)
        if shared:
            # Each contributor's samples, in contributor order (one draw each).
            rows = np.repeat(selected, share)
            cols = np.concatenate(
                [self._rng.choice(local, size=share, replace=False) for _ in selected]
            )
            batches = tuple(
                np.concatenate(
                    [block, np.broadcast_to(pool, block.shape[:1] + pool.shape)], axis=1
                )
                for block, pool in ((inputs, inputs[rows, cols]), (targets, targets[rows, cols]))
            )
        bytes_transferred = float(shared) * self.sample_bytes * live.size
        self.total_bytes += bytes_transferred
        self.rounds += 1
        report = InjectionReport(
            selected_workers=selected,
            shared_samples=shared,
            bytes_transferred=bytes_transferred,
        )
        return batches, report
