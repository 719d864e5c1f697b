"""Tests for the in-process collective backend."""

import numpy as np
import pytest

from repro.comm.backend import InProcessBackend


class TestAllreduce:
    def test_mean_matches_numpy(self):
        backend = InProcessBackend(3)
        arrays = [np.full(4, float(i)) for i in range(3)]
        out = backend.allreduce(arrays, op="mean")
        for result in out:
            np.testing.assert_allclose(result, 1.0)

    def test_sum_and_max_ops(self):
        backend = InProcessBackend(2)
        arrays = [np.array([1.0, 5.0]), np.array([3.0, 2.0])]
        np.testing.assert_allclose(backend.allreduce(arrays, op="sum")[0], [4.0, 7.0])
        np.testing.assert_allclose(backend.allreduce(arrays, op="max")[0], [3.0, 5.0])

    def test_every_rank_receives_identical_result(self):
        backend = InProcessBackend(4)
        arrays = [np.random.default_rng(i).standard_normal(8) for i in range(4)]
        out = backend.allreduce(arrays)
        for result in out[1:]:
            np.testing.assert_array_equal(result, out[0])

    def test_unknown_op_rejected(self):
        backend = InProcessBackend(2)
        with pytest.raises(ValueError):
            backend.allreduce([np.zeros(2), np.zeros(2)], op="median")

    def test_wrong_rank_count_rejected(self):
        backend = InProcessBackend(3)
        with pytest.raises(ValueError):
            backend.allreduce([np.zeros(2)] * 2)

    def test_shape_mismatch_rejected(self):
        backend = InProcessBackend(2)
        with pytest.raises(ValueError):
            backend.allreduce([np.zeros(2), np.zeros(3)])

    def test_bytes_accounted(self):
        backend = InProcessBackend(4)
        backend.allreduce([np.zeros(100)] * 4)
        assert backend.record.total_bytes > 0
        assert backend.record.calls["allreduce"] == 1


class TestAllgather:
    def test_gather_copies_every_rank_to_the_root(self):
        backend = InProcessBackend(3)
        per_rank = [np.full(2, float(i)) for i in range(3)]
        out = backend.gather(per_rank, root=1)
        assert len(out) == 3
        np.testing.assert_array_equal(out[2], 2.0)
        assert not np.shares_memory(out[2], per_rank[2])
        assert backend.record.bytes_by_op["gather"] == 2 * 2 * 4

    def test_allgather_bits_flags_semantics(self):
        """Alg. 1 line 12: every worker learns every other worker's sync bit."""
        backend = InProcessBackend(4)
        flags = backend.allgather_bits([0, 1, 0, 0])
        assert flags.tolist() == [0, 1, 0, 0]
        assert bool(flags.any()) is True

    def test_allgather_bits_all_zero(self):
        backend = InProcessBackend(4)
        flags = backend.allgather_bits([0, 0, 0, 0])
        assert not flags.any()

    def test_allgather_bits_volume_is_tiny(self):
        backend = InProcessBackend(16)
        backend.allgather_bits([1] * 16)
        assert backend.record.bytes_by_op["allgather_bits"] < 100

    def test_allgather_bits_wrong_count(self):
        backend = InProcessBackend(4)
        with pytest.raises(ValueError):
            backend.allgather_bits([1, 0])


class TestBroadcastReduceGather:
    def test_broadcast_copies_to_all(self):
        backend = InProcessBackend(3)
        out = backend.broadcast(np.arange(4.0), root=0)
        assert len(out) == 3
        out[1][0] = 99.0
        assert out[0][0] == 0.0  # copies, not views

    def test_broadcast_invalid_root(self):
        backend = InProcessBackend(2)
        with pytest.raises(ValueError):
            backend.broadcast(np.zeros(2), root=5)

    def test_allreduce_mean_to_every_rank(self):
        backend = InProcessBackend(2)
        result = backend.allreduce([np.array([2.0]), np.array([4.0])], op="mean")
        np.testing.assert_allclose(result, 3.0)

    def test_gather_returns_all(self):
        backend = InProcessBackend(2)
        out = backend.gather([np.array([1.0]), np.array([2.0])])
        assert len(out) == 2


class TestAllreduceMatrixAgainstPerRank:
    def test_matrix_mean_matches_the_per_rank_allreduce(self):
        rows = np.random.default_rng(0).standard_normal((2, 5))
        matrix_backend, rank_backend = InProcessBackend(2), InProcessBackend(2)
        reduced = matrix_backend.allreduce_matrix(rows)
        per_rank = rank_backend.allreduce(list(rows))
        np.testing.assert_array_equal(reduced, per_rank[0])
        assert matrix_backend.record.total_bytes == rank_backend.record.total_bytes

    def test_more_rows_than_ranks_rejected(self):
        backend = InProcessBackend(2)
        with pytest.raises(ValueError):
            backend.allreduce_matrix(np.zeros((3, 2)))


class TestConstruction:
    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            InProcessBackend(0)


class TestTransportDtypeAccounting:
    def test_default_matches_class_constant(self):
        backend = InProcessBackend(2)
        assert backend.dtype_bytes == InProcessBackend.DTYPE_BYTES == 4
        assert backend.transport_dtype is None

    def test_float16_halves_recorded_bytes(self):
        fp32 = InProcessBackend(4)
        fp16 = InProcessBackend(4, transport_dtype="float16")
        arrays = [np.ones(16) for _ in range(4)]
        fp32.allreduce(arrays)
        fp16.allreduce(arrays)
        assert fp16.record.total_bytes == fp32.record.total_bytes / 2

    def test_float16_does_not_cast_the_arrays(self):
        backend = InProcessBackend(2, transport_dtype="float16")
        out = backend.allreduce([np.ones(8), np.zeros(8)])
        # Only accounting changes; the arithmetic stays in the compute dtype.
        assert out[0].dtype == np.float64
        np.testing.assert_allclose(out[0], 0.5)

    def test_broadcast_and_matrix_allreduce_use_transport_bytes(self):
        backend = InProcessBackend(3, transport_dtype="float16")
        backend.broadcast(np.ones(10))
        assert backend.record.bytes_by_op["broadcast"] == 10 * 2 * 2
        backend.allreduce_matrix(np.ones((3, 5)))
        assert backend.record.bytes_by_op["allreduce"] == 2.0 * 5 * 2 * 3

    def test_flag_bits_unaffected_by_transport(self):
        fp32 = InProcessBackend(4)
        fp16 = InProcessBackend(4, transport_dtype="float16")
        fp32.allgather_bits([1, 0, 1, 0])
        fp16.allgather_bits([1, 0, 1, 0])
        assert fp16.record.total_bytes == fp32.record.total_bytes

    def test_unknown_transport_dtype_rejected(self):
        with pytest.raises(TypeError):
            InProcessBackend(2, transport_dtype="int8")
