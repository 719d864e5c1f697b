"""Root pytest configuration shared by the test and benchmark suites.

This is the single registration point for the suite's custom markers and
command-line flags, so ``pytest --strict-markers`` (enforced in CI) passes
from any invocation directory:

* ``--run-scenarios`` — the paper-scale scenario contract
  (``benchmarks/scenario_suite.py``: deep-MLP and transformer δ-sweeps at
  N = 64–256 from the declarative registry, plus the fault-replay gates);
  under ``--write-results`` it also writes the per-scenario reports in
  ``benchmarks/results/scenarios/``.  Runs in the nightly workflow.
* ``--write-results`` — opt-in persistence of the figure benchmarks'
  ``benchmarks/results/*.txt`` reports.  Plain test runs never touch the
  working tree; CI and result-regeneration runs pass the flag.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--run-scenarios",
        action="store_true",
        default=False,
        help="run the paper-scale scenario sweeps and the fault-replay gates",
    )
    parser.addoption(
        "--write-results",
        action="store_true",
        default=False,
        help="persist figure-benchmark reports to benchmarks/results/*.txt",
    )


def pytest_configure(config):
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
