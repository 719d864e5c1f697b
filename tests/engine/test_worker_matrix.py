"""Row groups and donated storage of the worker matrix.

A row shard of the batched executor (ARCHITECTURE.md, "Replica shards") is one
:func:`group_bounds` range, run over a :class:`WorkerMatrix` whose storage is
that range of the cluster's matrix.
"""

import numpy as np
import pytest

from repro.engine import WorkerMatrix
from repro.engine.worker_matrix import group_bounds
from repro.nn.models import MLP


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


def _spec():
    model = MLP((4, 6, 2), rng=np.random.default_rng(0))
    model.flatten_parameters()
    return model.flat_spec


class TestDonatedStorage:
    def test_rows_of_a_wider_matrix_are_aliased_not_copied(self):
        spec = _spec()
        whole = WorkerMatrix(5, spec)
        shard = WorkerMatrix(2, spec, params=whole.params[3:5], grads=whole.grads[3:5])
        shard.params[1, 0] = 7.0
        shard.grads[0, -1] = -2.0
        assert whole.params[4, 0] == 7.0 and whole.grads[3, -1] == -2.0
        assert whole.owns_storage and not shard.owns_storage

    def test_wrong_shape_rejected(self):
        spec = _spec()
        whole = WorkerMatrix(4, spec)
        with pytest.raises(ValueError, match="shape"):
            WorkerMatrix(3, spec, params=whole.params[:2], grads=whole.grads[:2])

    def test_wrong_dtype_rejected(self):
        spec = _spec()
        rows = np.zeros((2, spec.total_size), dtype=np.float32)
        with pytest.raises(TypeError, match="float64"):
            WorkerMatrix(2, spec, params=rows)

    def test_non_contiguous_rows_rejected(self):
        spec = _spec()
        whole = WorkerMatrix(4, spec)
        with pytest.raises(ValueError, match="C-contiguous"):
            WorkerMatrix(2, spec, params=whole.params[::2])

    def test_one_donated_array_leaves_the_other_owned_fresh(self):
        spec = _spec()
        whole = WorkerMatrix(2, spec)
        part = WorkerMatrix(2, spec, params=whole.params)
        assert part.params is whole.params
        assert not part.grads.any() and not np.shares_memory(part.grads, whole.grads)
        assert not part.owns_storage
