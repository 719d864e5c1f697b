"""Root pytest configuration shared by the test and benchmark suites.

This is the single registration point for the suite's custom markers and
command-line flags, so ``pytest --strict-markers`` (enforced in CI) passes
from any invocation directory:

* ``perf`` marker / ``--run-perf`` — engine perf-tracking benchmarks
  (``benchmarks/perf_smoke.py``), skipped unless explicitly requested.
  ``--run-perf`` also (re)writes ``BENCH_engine.json`` at the repo root.
* ``--run-scale`` — the large-N scale sweep (N = 8..256 on the MLP and
  transformer analogs); merges a ``scale_sweep`` section into
  ``BENCH_engine.json``.  Slower than the perf smoke, so it runs in the
  nightly workflow rather than per-PR CI.
* ``--run-telemetry`` — the telemetry overhead benchmark (baseline vs
  disabled vs enabled tracing on the BSP MLP loop); merges a ``telemetry``
  section into ``BENCH_engine.json``, gated at disabled <= 2% / enabled
  <= 10% overhead.  Runs in the per-PR perf job.
* ``--run-scenarios`` — the paper-scale scenario sweeps
  (``benchmarks/scenario_suite.py``: deep-MLP and transformer δ-sweeps at
  N = 64–256 from the declarative registry); writes
  ``BENCH_scenarios.json`` at the repo root and, under ``--write-results``,
  the per-scenario reports in ``benchmarks/results/scenarios/``.  Runs in
  the nightly workflow.
* ``--run-service`` — the experiment-service load benchmark
  (``benchmarks/service_load.py``: sustained concurrent submissions against
  a live :mod:`repro.service` instance over HTTP); writes
  ``BENCH_service.json`` (submit/e2e latency p50/p99) at the repo root.
  Runs in the per-PR perf job as a smoke and is compared by
  ``repro bench compare service``.
* ``--write-results`` — opt-in persistence of the figure benchmarks'
  ``benchmarks/results/*.txt`` reports.  Plain test runs never touch the
  working tree; CI and result-regeneration runs pass the flag.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--run-perf",
        action="store_true",
        default=False,
        help="run the engine perf smoke benchmark (writes BENCH_engine.json)",
    )
    parser.addoption(
        "--run-scale",
        action="store_true",
        default=False,
        help="run the large-N scale sweep (merges scale_sweep into BENCH_engine.json)",
    )
    parser.addoption(
        "--run-telemetry",
        action="store_true",
        default=False,
        help=(
            "run the telemetry overhead benchmark "
            "(merges telemetry into BENCH_engine.json)"
        ),
    )
    parser.addoption(
        "--run-scenarios",
        action="store_true",
        default=False,
        help="run the paper-scale scenario sweeps (writes BENCH_scenarios.json)",
    )
    parser.addoption(
        "--run-service",
        action="store_true",
        default=False,
        help=(
            "run the experiment-service load benchmark "
            "(benchmarks/service_load.py; writes BENCH_service.json)"
        ),
    )
    parser.addoption(
        "--write-results",
        action="store_true",
        default=False,
        help="persist figure-benchmark reports to benchmarks/results/*.txt",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "perf: engine perf-tracking benchmarks, gated behind --run-perf"
    )
    config.addinivalue_line(
        "markers",
        "faults: fault-injection and elasticity reliability tests (repro.faults)",
    )
    # Propagate the opt-in to the benchmark helpers (the figure benchmarks
    # call save_report directly, not through a fixture).
    try:
        from benchmarks import _helpers
    except ImportError:  # benchmarks/ absent in stripped-down checkouts
        pass
    else:
        _helpers.WRITE_RESULTS = config.getoption("--write-results")
