"""Gradient variance and second-moment statistics.

The paper tracks the variance of first-order gradients as a cheap proxy for
the Hessian's largest eigenvalue (Fig. 4, citing Accordion [27]); Δ(gᵢ) is
then the relative change of the smoothed statistic between consecutive
iterations (Eqn. 2).
"""

from __future__ import annotations

import numpy as np


def _as_flat(grads) -> np.ndarray:
    """Accept either a named-array mapping or an already-flat vector."""
    if isinstance(grads, np.ndarray):
        return grads.ravel()
    flat_parts = [np.asarray(g).ravel() for g in grads.values()]
    if not flat_parts:
        return np.zeros(0)
    return np.concatenate(flat_parts)


def gradient_second_moment(grads) -> float:
    """Mean squared gradient entry, E[g^2], across all parameters.

    ``grads`` may be a named mapping or a flat gradient vector.
    """
    flat = _as_flat(grads)
    if flat.size == 0:
        return 0.0
    return float(np.mean(flat**2))


def gradient_variance(grads) -> float:
    """Variance of gradient entries across the whole model, Var[g].

    ``grads`` may be a named mapping or a flat gradient vector.
    """
    flat = _as_flat(grads)
    if flat.size < 2:
        return 0.0
    return float(flat.var())


def gradient_norm(grads) -> float:
    """Global L2 norm of the gradient, ||∇F||₂.

    ``grads`` may be a named mapping or a flat gradient vector.
    """
    flat = _as_flat(grads)
    return float(np.sqrt(np.sum(flat**2)))


def batch_gradient_statistic(matrix: np.ndarray, statistic: str) -> np.ndarray:
    """Per-worker scalar gradient statistics over an ``(N, D)`` matrix.

    One vectorized pass computes the reduction for *all* workers at once,
    replacing N per-worker dict traversals on the SelSync hot path.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected an (N, D) matrix, got shape {matrix.shape}")
    if statistic == "variance":
        return matrix.var(axis=1)
    if statistic == "second_moment":
        return np.mean(matrix**2, axis=1)
    if statistic == "norm":
        return np.sqrt(np.sum(matrix**2, axis=1))
    raise ValueError(f"unknown statistic {statistic!r}")
