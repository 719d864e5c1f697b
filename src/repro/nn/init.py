"""Weight initializers.

The paper notes that "the maximum degree by which gradients vary depends on
DNN size and complexity, weight initialization, among other hyperparameters"
(§III-B), so initialization is pluggable and seeded explicitly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "zeros",
    "ones",
    "uniform",
    "normal",
    "xavier_uniform",
    "xavier_normal",
    "kaiming_uniform",
    "kaiming_normal",
]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
        return fan_in, fan_out
    # Higher-rank kernels: (out, in, *receptive field).
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)


def uniform(
    shape: Tuple[int, ...], low: float, high: float, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    rng = rng or np.random.default_rng()
    return rng.uniform(low, high, size=shape).astype(np.float64)


def normal(
    shape: Tuple[int, ...], std: float = 0.01, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    rng = rng or np.random.default_rng()
    return (rng.standard_normal(shape) * std).astype(np.float64)


def xavier_uniform(
    shape: Tuple[int, ...], gain: float = 1.0, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Glorot & Bengio uniform initialization."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return uniform(shape, -limit, limit, rng=rng)


def xavier_normal(
    shape: Tuple[int, ...], gain: float = 1.0, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    fan_in, fan_out = _fan_in_out(shape)
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    return normal(shape, std=std, rng=rng)


def kaiming_uniform(
    shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """He et al. uniform initialization, appropriate before ReLU layers."""
    fan_in, _ = _fan_in_out(shape)
    limit = np.sqrt(6.0 / fan_in)
    return uniform(shape, -limit, limit, rng=rng)


def kaiming_normal(
    shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return normal(shape, std=std, rng=rng)
