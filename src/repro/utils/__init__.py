"""Shared utilities: seeded RNG management, parameter flattening, logging.

These helpers are deliberately dependency-free (NumPy only) so every other
subpackage can import them without cycles.
"""

from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.flatten import (
    WIRE_DTYPE_BYTES,
    flatten_arrays,
    unflatten_vector,
)
from repro.utils.logging import get_logger

__all__ = [
    "new_rng",
    "spawn_rngs",
    "WIRE_DTYPE_BYTES",
    "flatten_arrays",
    "unflatten_vector",
    "get_logger",
]
