"""Parameter vs gradient aggregation (§III-C).

In BSP the two are equivalent (same initial state, same averaged update);
in semi-synchronous training they are not: applying the *same averaged
gradient* to *different local parameters* leaves the replicas different,
whereas averaging the parameters themselves makes every replica identical to
the global state.  Fig. 10 and Fig. 11 quantify the consequences.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Mapping, Sequence

import numpy as np


class AggregationMode(str, Enum):
    """Which quantity is averaged during a synchronization step."""

    PARAMETER = "param"
    GRADIENT = "grad"


def _validate_trees(trees: Sequence[Mapping[str, np.ndarray]]) -> None:
    if not trees:
        raise ValueError("nothing to aggregate")
    reference = trees[0]
    for i, tree in enumerate(trees[1:], start=1):
        if set(tree.keys()) != set(reference.keys()):
            raise KeyError(f"tree {i} has different parameter names than tree 0")
        for name in reference:
            if np.asarray(tree[name]).shape != np.asarray(reference[name]).shape:
                raise ValueError(
                    f"tree {i} parameter {name!r} has shape "
                    f"{np.asarray(tree[name]).shape}, expected "
                    f"{np.asarray(reference[name]).shape}"
                )


def aggregate_parameters(
    states: Sequence[Mapping[str, np.ndarray]]
) -> Dict[str, np.ndarray]:
    """Average worker parameter states (PA): the new global = mean of replicas."""
    _validate_trees(states)
    names = states[0].keys()
    return {
        name: np.mean([np.asarray(s[name], dtype=np.float64) for s in states], axis=0)
        for name in names
    }


def aggregate_gradients(
    grads: Sequence[Mapping[str, np.ndarray]]
) -> Dict[str, np.ndarray]:
    """Average worker gradients (GA): workers then apply the mean locally."""
    _validate_trees(grads)
    names = grads[0].keys()
    return {
        name: np.mean([np.asarray(g[name], dtype=np.float64) for g in grads], axis=0)
        for name in names
    }
