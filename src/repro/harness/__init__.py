"""Experiment harness: workload presets, runners, sweeps and report formatting.

The benchmarks under ``benchmarks/`` and the scripts under ``examples/`` are
thin wrappers around this package: a workload preset names one of the paper's
four (model, dataset, optimizer, schedule) combinations scaled to CPU size,
the runner builds the simulated cluster and executes any of the training
algorithms on it, and the reporting helpers print the rows/series that the
paper's tables and figures contain.
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
    ExperimentResult,
)
from repro.harness.sweep import grid_sweep, SweepResult
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
    "ExperimentResult",
    "grid_sweep",
    "SweepResult",
    "format_table",
    "results_to_rows",
]
