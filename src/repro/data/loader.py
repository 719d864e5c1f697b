"""Mini-batch iteration over (possibly partitioned) datasets.

A :class:`DataLoader` owns an *index order* into a dataset — for DefDP that is
the worker's own chunk, for SelDP the full rotated circular-queue order — and
yields mini-batches of a fixed size, reshuffling (optionally) at each epoch
boundary.  The loader is an infinite iterator by design: distributed training
in the paper is driven by a global iteration count, not by epoch boundaries
on any single worker.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.rng import new_rng


class DataLoader:
    """Infinite mini-batch source over an index order into a dataset.

    Parameters
    ----------
    dataset:
        Any object supporting ``__len__`` and fancy-index ``__getitem__``.
    indices:
        Index order this loader walks (a data partition).  Defaults to the
        whole dataset in natural order.
    batch_size:
        Per-worker mini-batch size ``b``.
    shuffle_each_epoch:
        Reshuffle the index order after each full pass.  SelDP keeps the
        rotated chunk order fixed (the rotation *is* the schedule), so the
        partitioners pass ``False`` for SelDP and ``True`` for DefDP.
    seed:
        Shuffling seed (per worker).
    """

    def __init__(
        self,
        dataset,
        indices: Optional[np.ndarray] = None,
        batch_size: int = 32,
        shuffle_each_epoch: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        if indices is None:
            indices = np.arange(len(dataset), dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64).copy()
        if self.indices.size == 0:
            raise ValueError("DataLoader needs a non-empty index set")
        if self.indices.size < batch_size:
            raise ValueError(
                f"partition of size {self.indices.size} smaller than batch size {batch_size}"
            )
        self.batch_size = int(batch_size)
        self.shuffle_each_epoch = bool(shuffle_each_epoch)
        self._rng = new_rng(seed)
        self._cursor = 0
        self._epoch = 0

    @property
    def steps_per_epoch(self) -> int:
        return self.indices.size // self.batch_size

    @property
    def epoch_progress(self) -> float:
        """Fractional epochs completed (used for FedAvg's per-epoch sync factor E)."""
        return self._epoch + self._cursor / self.indices.size

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the next (inputs, targets) mini-batch, wrapping at epoch end."""
        if self._cursor + self.batch_size > self.indices.size:
            self._advance_epoch()
        batch_idx = self.indices[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.dataset[batch_idx]

    def _advance_epoch(self) -> None:
        self._epoch += 1
        self._cursor = 0
        if self.shuffle_each_epoch:
            self._rng.shuffle(self.indices)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.next_batch()
