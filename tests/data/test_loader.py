"""Tests for DataLoader."""

import numpy as np
import pytest

from repro.data.datasets import make_classification_dataset
from repro.data.loader import DataLoader


@pytest.fixture
def dataset():
    return make_classification_dataset(100, 4, 8, seed=0)


class TestDataLoader:
    def test_next_indices_shape(self, dataset):
        loader = DataLoader(dataset, batch_size=16, seed=0)
        rows = loader.next_indices()
        assert rows.shape == (16,) and rows.dtype == np.int64
        x, y = dataset[rows]
        assert x.shape == (16, 8)
        assert y.shape == (16,)

    def test_steps_per_epoch(self, dataset):
        loader = DataLoader(dataset, batch_size=32, seed=0)
        assert loader.steps_per_epoch == 3

    def test_epoch_wraps_and_counts(self, dataset):
        loader = DataLoader(dataset, batch_size=32, seed=0)
        for _ in range(4):
            loader.next_indices()
        assert int(loader.epoch_progress) == 1

    def test_epoch_progress_monotone(self, dataset):
        loader = DataLoader(dataset, batch_size=32, seed=0)
        values = []
        for _ in range(6):
            values.append(loader.epoch_progress)
            loader.next_indices()
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_shuffle_changes_order_between_epochs(self, dataset):
        loader = DataLoader(dataset, batch_size=50, shuffle_each_epoch=True, seed=0)
        first_epoch = [loader.next_indices().copy() for _ in range(2)]
        second_epoch = [loader.next_indices().copy() for _ in range(2)]
        assert not all(
            np.array_equal(a, b) for a, b in zip(first_epoch, second_epoch)
        )

    def test_no_shuffle_repeats_order(self, dataset):
        loader = DataLoader(dataset, batch_size=50, shuffle_each_epoch=False, seed=0)
        first_epoch = [loader.next_indices().copy() for _ in range(2)]
        second_epoch = [loader.next_indices().copy() for _ in range(2)]
        assert all(np.array_equal(a, b) for a, b in zip(first_epoch, second_epoch))

    def test_respects_partition_indices(self, dataset):
        indices = np.arange(10)
        loader = DataLoader(dataset, indices=indices, batch_size=5,
                            shuffle_each_epoch=False, seed=0)
        np.testing.assert_array_equal(loader.next_indices(), indices[:5])

    def test_partition_smaller_than_batch_rejected(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, indices=np.arange(4), batch_size=8)

    def test_empty_indices_rejected(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, indices=np.array([], dtype=np.int64), batch_size=1)

    def test_each_epoch_walks_the_partition_once(self, dataset):
        loader = DataLoader(dataset, batch_size=25, shuffle_each_epoch=True, seed=0)
        for _ in range(3):
            epoch = np.concatenate([loader.next_indices().copy() for _ in range(4)])
            np.testing.assert_array_equal(np.sort(epoch), np.arange(100))
