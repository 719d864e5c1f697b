"""Row groups of the worker matrix.

A row shard of the batched executor (ARCHITECTURE.md, "Replica shards") is one
:func:`group_bounds` range, run over row views ``[lo:hi]`` of the cluster's
matrix.
"""

import pytest

from repro.engine.worker_matrix import group_bounds


class TestGroupBounds:
    def test_even_split(self):
        assert group_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        assert group_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_clamps_groups_to_workers(self):
        assert group_bounds(2, 8) == [(0, 1), (1, 2)]

    def test_single_group(self):
        assert group_bounds(5, 1) == [(0, 5)]

    def test_fewer_than_one_group_is_one_group(self):
        assert group_bounds(4, 0) == [(0, 4)]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            group_bounds(0, 1)

    @pytest.mark.parametrize(
        "num_workers, num_groups", [(1, 1), (5, 2), (5, 3), (8, 3), (16, 5), (64, 7)]
    )
    def test_groups_tile_the_rows_contiguously_and_near_evenly(self, num_workers, num_groups):
        bounds = group_bounds(num_workers, num_groups)
        assert bounds[0][0] == 0 and bounds[-1][1] == num_workers
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert len(sizes) == min(num_groups, num_workers)
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
