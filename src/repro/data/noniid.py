"""Non-IID data partitioning (label skew and Dirichlet splits).

The paper's non-IID experiments split CIFAR-10 across 10 workers with 1 label
per worker and CIFAR-100 with 10 labels per worker (§II-B, §IV-E).  The
:class:`LabelSkewPartitioner` reproduces exactly that construction; the
Dirichlet split is a softer, commonly used alternative exposed for ablations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.data.partition import PartitionResult, Partitioner
from repro.utils.rng import new_rng


class LabelSkewPartitioner(Partitioner):
    """Give each worker samples from only ``labels_per_worker`` classes."""

    shuffle_each_epoch = True

    def __init__(
        self,
        targets: np.ndarray,
        labels_per_worker: int,
        seed: Optional[int] = 0,
    ) -> None:
        targets = np.asarray(targets)
        if targets.ndim != 1:
            raise ValueError("targets must be a 1-D label array")
        if labels_per_worker < 1:
            raise ValueError(f"labels_per_worker must be >= 1, got {labels_per_worker}")
        self.targets = targets.astype(np.int64)
        self.labels_per_worker = int(labels_per_worker)
        self.seed = seed

    def partition(self, dataset_size: int, num_workers: int) -> PartitionResult:
        self._validate(dataset_size, num_workers)
        if dataset_size != self.targets.size:
            raise ValueError(
                f"dataset_size {dataset_size} does not match targets length {self.targets.size}"
            )
        import time

        start = time.perf_counter()
        rng = new_rng(self.seed)
        classes = np.unique(self.targets)
        needed = num_workers * self.labels_per_worker
        # Assign class labels to workers round-robin over a shuffled class
        # list; classes are reused when workers*labels exceeds the number of
        # distinct classes (e.g. 10 workers x 1 label on 10-class data uses
        # each class exactly once, matching the paper's CIFAR-10 split).
        reps = int(np.ceil(needed / classes.size))
        pool = np.concatenate([rng.permutation(classes) for _ in range(reps)])[:needed]
        assignment = pool.reshape(num_workers, self.labels_per_worker)

        by_class: Dict[int, np.ndarray] = {
            int(c): rng.permutation(np.flatnonzero(self.targets == c)) for c in classes
        }
        # Count how many workers share each class so samples can be split.
        share_count: Dict[int, int] = {int(c): 0 for c in classes}
        for row in assignment:
            for c in row:
                share_count[int(c)] += 1
        offsets: Dict[int, int] = {int(c): 0 for c in classes}

        worker_indices: List[np.ndarray] = []
        for worker in range(num_workers):
            pieces = []
            for c in assignment[worker]:
                c = int(c)
                samples = by_class[c]
                n_shares = share_count[c]
                share = samples.size // n_shares if n_shares > 0 else samples.size
                lo = offsets[c]
                hi = lo + max(share, 1)
                pieces.append(samples[lo:hi])
                offsets[c] = hi
            idx = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
            rng.shuffle(idx)
            worker_indices.append(idx.astype(np.int64))
        elapsed = time.perf_counter() - start
        chunk_assignment = [list(map(int, row)) for row in assignment]
        return PartitionResult(worker_indices, chunk_assignment, elapsed)


def label_distribution(targets: np.ndarray, indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Normalized label histogram of a worker's partition (skew diagnostics)."""
    targets = np.asarray(targets).astype(np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    hist = np.bincount(targets[indices], minlength=num_classes).astype(np.float64)
    total = hist.sum()
    if total > 0:
        hist /= total
    return hist
