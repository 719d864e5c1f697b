"""Mini-batch iteration over (possibly partitioned) datasets.

A :class:`DataLoader` owns an *index order* into a dataset — for DefDP that is
the worker's own chunk, for SelDP the full rotated circular-queue order — and
hands out the index rows of fixed-size mini-batches, reshuffling (optionally)
at each epoch boundary.  The loader never runs out by design: distributed
training in the paper is driven by a global iteration count, not by epoch
boundaries on any single worker.  The cluster gathers one step's batches for
all workers with one index into the dataset
(:meth:`~repro.cluster.cluster.SimulatedCluster.next_batches`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import new_rng


class DataLoader:
    """Endless mini-batch index rows over an index order into a dataset.

    Parameters
    ----------
    dataset:
        The dataset the indices point into (its length is the default index
        range); the cluster, not the loader, indexes it.
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

    def next_indices(self) -> np.ndarray:
        """The next mini-batch's dataset indices, wrapping at epoch end.

        A view of the index order: valid until the next call (an epoch
        boundary reshuffles the order in place).  The cluster stacks every
        worker's row and gathers the whole step's batch block in one index.
        """
        if self._cursor + self.batch_size > self.indices.size:
            self._advance_epoch()
        rows = self.indices[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return rows

    def _advance_epoch(self) -> None:
        self._epoch += 1
        self._cursor = 0
        if self.shuffle_each_epoch:
            self._rng.shuffle(self.indices)
