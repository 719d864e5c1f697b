"""Deterministic random-number management for simulated distributed training.

Every worker in the simulated cluster, every dataset and every stochastic
component draws from its own :class:`numpy.random.Generator`.  The generators
are derived from a single root seed through ``numpy``'s ``SeedSequence``
spawning mechanism, so experiments are reproducible bit-for-bit regardless of
the number of workers or the order in which components are constructed.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, None]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Create a new :class:`numpy.random.Generator` from ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an integer, or an existing
        ``SeedSequence``.
    """
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Spawn ``n`` statistically independent generators from one seed.

    Used to give every simulated worker its own RNG stream.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of RNGs: {n}")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]
