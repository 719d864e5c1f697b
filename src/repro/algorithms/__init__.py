"""Distributed training algorithms sharing one trainer interface.

The lockstep trainers run one step, :meth:`BaseTrainer.train_step`, and
differ only in its hooks (when to sync, what a sync averages, which
replicas push, how gradients are reduced); SSP keeps its own
asynchronous step.

* :class:`BSPTrainer` — bulk-synchronous parallel (aggregate every step),
* :class:`FedAvgTrainer` — federated averaging with participation fraction C
  and per-epoch synchronization factor E,
* :class:`SSPTrainer` — stale-synchronous parallel with staleness bound s,
* :class:`LocalSGDTrainer` — fixed-period local SGD (synchronize every H steps),
* :class:`SelSyncTrainer` — the paper's contribution (defined in
  :mod:`repro.core.selsync`, re-exported lazily here to avoid an import
  cycle),
* :class:`CompressedBSPTrainer` — BSP with a pluggable gradient compressor
  (defined in :mod:`repro.compression.trainer`, also re-exported lazily).
"""

from repro.algorithms.base import BaseTrainer, TrainingResult, EvalPoint
from repro.algorithms.bsp import BSPTrainer
from repro.algorithms.fedavg import FedAvgTrainer
from repro.algorithms.ssp import SSPTrainer
from repro.algorithms.localsgd import LocalSGDTrainer

__all__ = [
    "BaseTrainer",
    "TrainingResult",
    "EvalPoint",
    "BSPTrainer",
    "FedAvgTrainer",
    "SSPTrainer",
    "LocalSGDTrainer",
    "SelSyncTrainer",
    "CompressedBSPTrainer",
]


def __getattr__(name: str):
    # SelSyncTrainer and CompressedBSPTrainer subclass BaseTrainer, so their
    # modules import this package; resolving them lazily breaks the cycle
    # while keeping `from repro.algorithms import SelSyncTrainer` working.
    if name == "SelSyncTrainer":
        from repro.core.selsync import SelSyncTrainer

        return SelSyncTrainer
    if name == "CompressedBSPTrainer":
        from repro.compression.trainer import CompressedBSPTrainer

        return CompressedBSPTrainer
    raise AttributeError(f"module 'repro.algorithms' has no attribute {name!r}")
