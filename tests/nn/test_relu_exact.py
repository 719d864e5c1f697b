"""The one ReLU arithmetic is ``np.where(x > 0, x, 0)`` bit for bit.

``repro.nn.layers.ReLU`` and the batched executor's ReLU both run
:func:`~repro.nn.layers.relu` / :func:`~repro.nn.layers.relu_grad` (branch-free
``fmax`` and a bit mask).  Both must return exactly what the ``np.where``
select returns, for every float: ±0, ±inf, NaN, subnormals and the extremes,
with no floating-point warning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchedReplicaExecutor, WorkerMatrix
from repro.nn.layers import ReLU
from repro.nn.models import MLP

pytestmark = pytest.mark.filterwarnings("error")

DTYPES = [np.float64, np.float32]


def _specials(dtype):
    info = np.finfo(dtype)
    return np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.smallest_subnormal,
         -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0],
        dtype=dtype,
    )


def _values(dtype, seed):
    """Specials in every pairing with each other, then random normals of many scales."""
    rng = np.random.default_rng(seed)
    specials = _specials(dtype)
    randoms = (rng.standard_normal(420) * 10.0 ** rng.integers(-40, 30, 420)).astype(dtype)
    head = np.repeat(specials, specials.size)
    x = np.concatenate([head, randoms])
    g = np.concatenate([np.tile(specials, specials.size), rng.permutation(randoms)])
    return x.reshape(4, -1, 7), g.reshape(4, -1, 7)


def _bits(array):
    return array.view(f"u{array.dtype.itemsize}")


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def _batched_relu(width):
    """The ReLU layer the executor's table builds for an MLP."""
    model = MLP((width, width, 2), rng=np.random.default_rng(0))
    model.flatten_parameters()
    matrix = WorkerMatrix(1, model.flat_spec)
    matrix.adopt(0, model)
    chain = BatchedReplicaExecutor.build(matrix, [model], np.ones(1, bool))._chains[1][0][2]
    (relu,) = [layer for layer in chain if type(layer).__name__ == "_BatchedReLU"]
    return relu


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestReluIsTheWhereSelect:
    def test_nn_layer(self, dtype, seed):
        x, g = _values(dtype, seed)
        layer = ReLU()
        _assert_same_bits(layer.forward(x), np.where(x > 0, x, dtype(0)))
        _assert_same_bits(layer.backward(g), np.where(x > 0, g, dtype(0)))

    def test_executor_layer(self, dtype, seed):
        x, g = _values(dtype, seed)
        layer = _batched_relu(7)
        _assert_same_bits(layer.forward(x), np.where(x > 0, x, dtype(0)))
        _assert_same_bits(layer.backward(g), np.where(x > 0, g, dtype(0)))
        assert layer._cache is None

    def test_non_contiguous_gradient(self, dtype, seed):
        x, g = _values(dtype, seed)
        strided = np.concatenate([g, g], axis=2)[..., ::2]
        layer = ReLU()
        layer.forward(x)
        _assert_same_bits(layer.backward(strided), np.where(x > 0, strided, dtype(0)))


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
def test_every_length_takes_the_same_bits(dtype):
    # NumPy runs a SIMD loop over most of an array and a scalar loop over its
    # tail; each special must come out right in both, at every length.
    layer = ReLU()
    for length in range(1, 18):
        for special in _specials(dtype):
            x = np.full(length, special)
            g = np.full(length, -special)
            _assert_same_bits(layer.forward(x), np.where(x > 0, x, dtype(0)))
            _assert_same_bits(layer.backward(g), np.where(x > 0, g, dtype(0)))


def test_the_cache_is_the_bool_mask():
    layer = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    layer.forward(x)
    assert layer._mask.dtype == np.bool_
    np.testing.assert_array_equal(layer._mask, x > 0)


def test_inference_forward_keeps_no_mask():
    layer = ReLU()
    with layer.inference():
        out = layer.forward(np.array([-0.0, 3.0]))
    assert layer._mask is None
    _assert_same_bits(out, np.array([0.0, 3.0]))
