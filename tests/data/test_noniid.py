"""Tests for non-IID partitioning (label skew and Dirichlet)."""

import numpy as np
import pytest

from repro.data.datasets import make_classification_dataset
from repro.data.noniid import LabelSkewPartitioner, label_distribution


@pytest.fixture
def cifar10_like():
    return make_classification_dataset(1000, 10, 8, seed=0)


@pytest.fixture
def cifar100_like():
    return make_classification_dataset(3000, 100, 8, seed=0)


class TestLabelSkew:
    def test_one_label_per_worker_matches_paper_cifar10_split(self, cifar10_like):
        """Paper: non-IID CIFAR-10 over 10 workers with 1 label per worker."""
        part = LabelSkewPartitioner(cifar10_like.targets, labels_per_worker=1, seed=0)
        result = part.partition(len(cifar10_like), 10)
        for idx in result.worker_indices:
            labels = np.unique(cifar10_like.targets[idx])
            assert len(labels) == 1

    def test_all_classes_covered_across_workers(self, cifar10_like):
        part = LabelSkewPartitioner(cifar10_like.targets, labels_per_worker=1, seed=0)
        result = part.partition(len(cifar10_like), 10)
        seen = set()
        for idx in result.worker_indices:
            seen.update(np.unique(cifar10_like.targets[idx]).tolist())
        assert seen == set(range(10))

    def test_ten_labels_per_worker_cifar100(self, cifar100_like):
        """Paper: non-IID CIFAR-100 over 10 workers with 10 labels per worker."""
        part = LabelSkewPartitioner(cifar100_like.targets, labels_per_worker=10, seed=0)
        result = part.partition(len(cifar100_like), 10)
        for idx in result.worker_indices:
            labels = np.unique(cifar100_like.targets[idx])
            assert 1 <= len(labels) <= 10

    def test_partitions_nonempty(self, cifar10_like):
        part = LabelSkewPartitioner(cifar10_like.targets, labels_per_worker=2, seed=0)
        result = part.partition(len(cifar10_like), 5)
        assert all(len(idx) > 0 for idx in result.worker_indices)

    def test_size_mismatch_rejected(self, cifar10_like):
        part = LabelSkewPartitioner(cifar10_like.targets, labels_per_worker=1)
        with pytest.raises(ValueError):
            part.partition(123, 10)

    def test_invalid_args(self, cifar10_like):
        with pytest.raises(ValueError):
            LabelSkewPartitioner(cifar10_like.targets, labels_per_worker=0)
        with pytest.raises(ValueError):
            LabelSkewPartitioner(np.zeros((3, 3), dtype=np.int64), labels_per_worker=1)


class TestLabelDistribution:
    def test_distribution_sums_to_one(self, cifar10_like):
        dist = label_distribution(cifar10_like.targets, np.arange(100), 10)
        np.testing.assert_allclose(dist.sum(), 1.0)

    def test_empty_indices_all_zero(self, cifar10_like):
        dist = label_distribution(cifar10_like.targets, np.array([], dtype=np.int64), 10)
        assert np.all(dist == 0.0)
