"""Tests for parameter-tree flatten/unflatten helpers."""

import numpy as np
import pytest

from repro.utils.flatten import (
    WIRE_DTYPE_BYTES,
    flatten_arrays,
    total_bytes,
    total_size,
    unflatten_vector,
)


class TestFlattenUnflatten:
    def test_roundtrip(self):
        tree = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0])}
        vec, spec = flatten_arrays(tree)
        rebuilt = unflatten_vector(vec, spec)
        for name in tree:
            np.testing.assert_array_equal(rebuilt[name], tree[name])

    def test_flatten_preserves_order(self):
        tree = {"w1": np.ones(2), "w2": np.full(3, 2.0)}
        vec, spec = flatten_arrays(tree)
        np.testing.assert_array_equal(vec, [1, 1, 2, 2, 2])
        assert [name for name, _ in spec] == ["w1", "w2"]

    def test_empty_tree(self):
        vec, spec = flatten_arrays({})
        assert vec.size == 0 and spec == []

    def test_unflatten_too_short_vector(self):
        tree = {"a": np.zeros((2, 2))}
        _, spec = flatten_arrays(tree)
        with pytest.raises(ValueError):
            unflatten_vector(np.zeros(3), spec)

    def test_unflatten_too_long_vector(self):
        tree = {"a": np.zeros(2)}
        _, spec = flatten_arrays(tree)
        with pytest.raises(ValueError):
            unflatten_vector(np.zeros(5), spec)

    def test_unflatten_returns_copies(self):
        tree = {"a": np.zeros(3)}
        vec, spec = flatten_arrays(tree)
        rebuilt = unflatten_vector(vec, spec)
        rebuilt["a"][0] = 9.0
        assert vec[0] == 0.0

    def test_empty_tree_roundtrip(self):
        vec, spec = flatten_arrays({})
        assert vec.dtype == np.float64
        assert unflatten_vector(vec, spec) == {}

    def test_scalar_zero_d_parameter_roundtrip(self):
        tree = {"scale": np.array(2.5), "w": np.ones(2)}
        vec, spec = flatten_arrays(tree)
        assert vec.size == 3
        rebuilt = unflatten_vector(vec, spec)
        assert rebuilt["scale"].shape == ()
        assert float(rebuilt["scale"]) == 2.5

    def test_dtype_normalized_to_float64(self):
        tree = {"a": np.ones(3, dtype=np.float32), "b": np.arange(2, dtype=np.int64)}
        vec, spec = flatten_arrays(tree)
        assert vec.dtype == np.float64
        rebuilt = unflatten_vector(vec, spec)
        assert all(arr.dtype == np.float64 for arr in rebuilt.values())
        np.testing.assert_array_equal(rebuilt["a"], np.ones(3))
        np.testing.assert_array_equal(rebuilt["b"], [0.0, 1.0])

    def test_roundtrip_values_bitexact(self):
        rng = np.random.default_rng(0)
        tree = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
        vec, spec = flatten_arrays(tree)
        rebuilt = unflatten_vector(vec, spec)
        for name in tree:
            np.testing.assert_array_equal(rebuilt[name], tree[name])


class TestTreeOps:
    def test_total_size_and_bytes(self):
        tree = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        assert total_size(tree) == 10
        assert total_bytes(tree) == 40
        assert total_bytes(tree, dtype_bytes=8) == 80

    def test_wire_dtype_constant_shared(self):
        """One dtype-width constant drives every byte-accounting site."""
        from repro.comm.backend import InProcessBackend
        from repro.compression.base import CompressedPayload

        tree = {"a": np.zeros(10)}
        assert total_bytes(tree) == 10 * WIRE_DTYPE_BYTES
        assert InProcessBackend.DTYPE_BYTES == WIRE_DTYPE_BYTES
        payload = CompressedPayload(data={}, original_size=10, compressed_bytes=1.0)
        assert payload.original_bytes == 10 * WIRE_DTYPE_BYTES
