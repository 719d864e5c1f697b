"""SelSync core: the paper's primary contribution.

* :class:`TrackerBank` — the N workers' EWMA-smoothed relative gradient
  change Δ(gᵢ) as (N,) array arithmetic (§III-A, Eqn. 2).
* :class:`SelSyncConfig` — the (δ, aggregation-mode, EWMA, data-injection)
  knobs of Alg. 1.
* :class:`SelSyncTrainer` — the selective-synchronization training loop that
  switches between local SGD and full synchronization based on Δ(gᵢ) ≥ δ,
  including the flags all-gather protocol, SelDP partitioning and the
  non-IID data-injection path.
* aggregation helpers for parameter vs gradient aggregation (§III-C).
"""

from repro.core.gradient_tracker import TrackerBank
from repro.core.config import SelSyncConfig
from repro.core.aggregation import (
    aggregate_parameters,
    aggregate_gradients,
    AggregationMode,
)
from repro.core.selsync import SelSyncTrainer

__all__ = [
    "TrackerBank",
    "SelSyncConfig",
    "aggregate_parameters",
    "aggregate_gradients",
    "AggregationMode",
    "SelSyncTrainer",
]
