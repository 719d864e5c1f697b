"""Declarative scenario registry: experiments as data, one runner for all.

A *scenario* is an immutable description of one experiment — workload
preset, cluster size, trainer family, the parameter grid and the engine
knobs — validated at construction and registered under a stable name.
:func:`run_scenario` is the single executor: it makes one
:func:`~repro.scenarios.runner.train_run` per expanded run (or asks the
analytic cost model) and returns a
:class:`~repro.scenarios.runner.ScenarioReport` with JSON-ready per-run
records, the raw training results, and :mod:`repro.harness.reporting` tables.

>>> from repro.scenarios import get_scenario, run_scenario, scenario_names
>>> scenario_names(tag="paper-scale")  # doctest: +SKIP
['deep-mlp-delta-n128', 'deep-mlp-delta-n256', ...]
>>> report = run_scenario("fig6-delta-sweep", iterations=40)  # doctest: +SKIP
>>> print(report.table())  # doctest: +SKIP

The built-in catalog (:mod:`repro.scenarios.catalog`) covers the paper's
figure/table scenarios and the large-N δ-sweep suite; the benchmark and
example scripts resolve everything through this registry instead of
hand-rolled loops.
"""

from repro.scenarios.spec import (
    ComparisonScenario,
    FAULT_ALGORITHMS,
    FaultScenario,
    ScenarioError,
    SweepScenario,
    ThroughputScenario,
    with_overrides,
)
from repro.scenarios.registry import (
    REGISTRY,
    Scenario,
    ScenarioRegistry,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    RunCancelled,
    ScenarioRecord,
    ScenarioReport,
    run_scenario,
    train_run,
)

# Populate the global REGISTRY with the built-in scenarios eagerly, so
# direct REGISTRY access and register_scenario() collisions behave the same
# whether or not get_scenario()/scenario_names() ran first.
from repro.scenarios import catalog as _catalog  # noqa: E402,F401

__all__ = [
    "ComparisonScenario",
    "FAULT_ALGORITHMS",
    "FaultScenario",
    "REGISTRY",
    "RunCancelled",
    "Scenario",
    "ScenarioError",
    "ScenarioRecord",
    "ScenarioRegistry",
    "ScenarioReport",
    "SweepScenario",
    "ThroughputScenario",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "train_run",
    "with_overrides",
]
