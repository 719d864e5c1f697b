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
from typing import List, Optional, Sequence, Tuple

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
        batches: Sequence[Optional[Tuple[np.ndarray, np.ndarray]]],
    ) -> Tuple[List[Optional[Tuple[np.ndarray, np.ndarray]]], InjectionReport]:
        """Mix a shared pool into every live worker's batch.

        ``batches`` holds one (inputs, targets) pair per worker, each of local
        size b', and ``None`` at a crashed worker's slot: a crashed worker
        neither contributes to the pool nor receives it, and the transfer is
        counted for live receivers only.  Returns new per-worker batches of
        size roughly b' + alpha*beta*N*b' = b (``None`` where the input was),
        plus an :class:`InjectionReport`.
        """
        if len(batches) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} worker batches, got {len(batches)}"
            )
        if self.alpha == 0.0 or self.beta == 0.0:
            report = InjectionReport(selected_workers=[], shared_samples=0, bytes_transferred=0.0)
            self.rounds += 1
            return list(batches), report

        live = np.flatnonzero([batch is not None for batch in batches])
        k = self.num_selected(live.size)
        selected = sorted(int(w) for w in self._rng.choice(live, size=k, replace=False))
        pooled_x: List[np.ndarray] = []
        pooled_y: List[np.ndarray] = []
        for worker in selected:
            x, y = batches[worker]
            share = int(np.floor(self.beta * x.shape[0]))
            if share == 0:
                continue
            take = self._rng.choice(x.shape[0], size=share, replace=False)
            pooled_x.append(x[take])
            pooled_y.append(y[take])
        pool = (np.concatenate(pooled_x), np.concatenate(pooled_y)) if pooled_x else None
        out = [
            batch if batch is None or pool is None
            else (np.concatenate([batch[0], pool[0]]), np.concatenate([batch[1], pool[1]]))
            for batch in batches
        ]
        shared = 0 if pool is None else int(pool[0].shape[0])
        bytes_transferred = float(shared) * self.sample_bytes * live.size
        self.total_bytes += bytes_transferred
        self.rounds += 1
        report = InjectionReport(
            selected_workers=selected,
            shared_samples=shared,
            bytes_transferred=bytes_transferred,
        )
        return out, report
