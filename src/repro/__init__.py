"""repro: reproduction of "Accelerating Distributed ML Training via Selective
Synchronization" (SelSync, IEEE CLUSTER 2023) on a pure-NumPy simulated cluster.

Top-level convenience re-exports cover the most common entry points; see the
subpackages for the full API:

* :mod:`repro.core`        — SelSync itself (Δ(gᵢ) tracker, δ rule, trainer)
* :mod:`repro.algorithms`  — BSP, FedAvg, SSP, local SGD baselines
* :mod:`repro.compression` — gradient-compression baselines
* :mod:`repro.nn`          — NumPy neural-network substrate
* :mod:`repro.optim`       — optimizers and LR schedules
* :mod:`repro.data`        — synthetic datasets, SelDP/DefDP, data injection
* :mod:`repro.comm`        — simulated PS / collectives / cost models
* :mod:`repro.cluster`     — simulated workers, clocks, compute models
* :mod:`repro.engine`      — flat-buffer execution engine (FlatBuffer, WorkerMatrix)
* :mod:`repro.stats`       — gradient statistics, KDE, Hessian eigenvalue estimation
* :mod:`repro.metrics`     — accuracy/perplexity, LSSR, throughput, convergence
* :mod:`repro.harness`     — workload presets, experiment runner, reporting
* :mod:`repro.scenarios`   — declarative scenario registry and runner
"""

from repro.core import SelSyncConfig, SelSyncTrainer
from repro.engine import FlatBuffer, ParamSpec, WorkerMatrix
from repro.algorithms import (
    BSPTrainer,
    FedAvgTrainer,
    SSPTrainer,
    LocalSGDTrainer,
    TrainingResult,
)
from repro.harness import RunConfig, build_workload, build_cluster, make_trainer, run_experiment
from repro.scenarios import get_scenario, run_scenario, scenario_names

__version__ = "0.1.0"

__all__ = [
    "SelSyncConfig",
    "SelSyncTrainer",
    "FlatBuffer",
    "ParamSpec",
    "WorkerMatrix",
    "BSPTrainer",
    "FedAvgTrainer",
    "SSPTrainer",
    "LocalSGDTrainer",
    "TrainingResult",
    "RunConfig",
    "build_workload",
    "build_cluster",
    "make_trainer",
    "run_experiment",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "__version__",
]
