"""Experiment harness: workload presets, the experiment runner and report formatting.

A workload preset names one of the paper's four (model, dataset, optimizer,
schedule) combinations scaled to CPU size; :func:`run_experiment` builds the
simulated cluster for one :class:`RunConfig` and runs its trainer on it; the
reporting helpers print the rows/series that the paper's tables and figures
contain.  Sweeps are scenarios (:mod:`repro.scenarios`).
"""

from repro.harness.experiment import (
    ConfigError,
    RunConfig,
    TRAINERS,
    WorkloadPreset,
    WORKLOAD_PRESETS,
    algorithm_params,
    build_workload,
    build_cluster,
    make_trainer,
    run_experiment,
)
from repro.harness.reporting import format_table, results_to_rows

__all__ = [
    "ConfigError",
    "RunConfig",
    "TRAINERS",
    "WorkloadPreset",
    "WORKLOAD_PRESETS",
    "algorithm_params",
    "build_workload",
    "build_cluster",
    "make_trainer",
    "run_experiment",
    "format_table",
    "results_to_rows",
]
