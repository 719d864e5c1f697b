"""The scenario-suite gates, on hand-made summaries and on real runner output.

The nightly suite (``benchmarks/scenario_suite.py --run-scenarios``) checks
the paper-scale δ-sweeps at N = 64–256 and every fault scenario.  Tier-1
runs the same two checks on the N=64 sweeps at reduced size and on every
fault scenario at its registered size, and shows that a report breaking
the contract fails them.
"""

import copy

import pytest

from benchmarks import scenario_suite
from repro.scenarios import run_scenario, scenario_names


def summary(lssrs, bsp_ok=True, local_ok=True, name="s"):
    deltas = [0.0, 0.1, 1e9][: len(lssrs)]
    return {
        "name": name,
        "records": [
            {"params": {"delta": d}, "metrics": {"lssr": lssr}}
            for d, lssr in zip(deltas, lssrs)
        ],
        "endpoints": {
            "bsp": {"matches_sweep_endpoint": bsp_ok},
            "local_sgd": {"matches_sweep_endpoint": local_ok},
        },
    }


class TestSweepContract:
    def test_passing_sweep(self):
        scenario_suite.check_sweep_contract(summary([0.0, 0.5, 1.0]))

    def test_non_monotone_rejected(self):
        with pytest.raises(AssertionError, match="monotone"):
            scenario_suite.check_sweep_contract(summary([0.0, 1.0, 0.5]))

    def test_nonzero_start_rejected(self):
        with pytest.raises(AssertionError, match="δ=0"):
            scenario_suite.check_sweep_contract(summary([0.1, 0.5, 1.0]))

    def test_partial_local_end_rejected(self):
        with pytest.raises(AssertionError, match="δ=max"):
            scenario_suite.check_sweep_contract(summary([0.0, 0.5, 0.9]))

    def test_endpoint_divergence_rejected(self):
        with pytest.raises(AssertionError, match="BSPTrainer"):
            scenario_suite.check_sweep_contract(summary([0.0, 0.5, 1.0], bsp_ok=False))
        with pytest.raises(AssertionError, match="LocalSGDTrainer"):
            scenario_suite.check_sweep_contract(summary([0.0, 0.5, 1.0], local_ok=False))


def test_suite_tags_select_the_paper_scale_sweeps():
    assert scenario_names(tag=scenario_suite.SUITE_TAG) == sorted(
        f"{family}-delta-n{n}"
        for family in ("deep-mlp", "transformer")
        for n in (64, 128, 256)
    )
    faults = scenario_names(tag=scenario_suite.FAULT_TAG)
    assert faults and not set(faults) & set(scenario_names(tag=scenario_suite.SUITE_TAG))


#: The N=64 sweeps shrunk to tier-1 size: (scenario, num_workers, iterations).
REDUCED_SWEEPS = [
    ("deep-mlp-delta-n64", 4, 8),
    ("transformer-delta-n64", 2, 6),
]


@pytest.fixture(scope="module", params=REDUCED_SWEEPS, ids=[s[0] for s in REDUCED_SWEEPS])
def sweep_summary(request):
    name, num_workers, iterations = request.param
    return run_scenario(name, num_workers=num_workers, iterations=iterations).to_dict()


def _set_lssrs(report, values):
    for record, value in zip(report["records"], values):
        record["metrics"]["lssr"] = value


def _reverse_lssrs(report):
    lssrs = [r["metrics"]["lssr"] for r in report["records"]]
    _set_lssrs(report, lssrs[::-1])


def _reverse_grid(report):
    report["records"].reverse()


def _always_local(report):
    _set_lssrs(report, [1.0] * len(report["records"]))


def _always_sync(report):
    _set_lssrs(report, [0.0] * len(report["records"]))


def _bsp_diverged(report):
    report["endpoints"]["bsp"]["matches_sweep_endpoint"] = False


def _local_sgd_diverged(report):
    report["endpoints"]["local_sgd"]["matches_sweep_endpoint"] = False


#: (mutation, the message check_sweep_contract must fail with).
SWEEP_MUTATIONS = [
    (_reverse_lssrs, "not monotone"),
    (_reverse_grid, "grid order"),
    (_always_local, "δ=0"),
    (_always_sync, "δ=max"),
    (_bsp_diverged, "BSPTrainer"),
    (_local_sgd_diverged, "LocalSGDTrainer"),
]


class TestSweepContractOnRunnerOutput:
    def test_reduced_sweep_meets_the_contract(self, sweep_summary):
        scenario_suite.check_sweep_contract(sweep_summary)
        lssrs = [r["metrics"]["lssr"] for r in sweep_summary["records"]]
        assert lssrs[0] == 0.0 and lssrs[-1] == 1.0

    @pytest.mark.parametrize(
        "mutate, message", SWEEP_MUTATIONS, ids=[m.__name__.lstrip("_") for m, _ in SWEEP_MUTATIONS]
    )
    def test_mutated_report_fails_the_contract(self, sweep_summary, mutate, message):
        report = copy.deepcopy(sweep_summary)
        mutate(report)
        with pytest.raises(AssertionError, match=message):
            scenario_suite.check_sweep_contract(report)


FAULT_SCENARIOS = scenario_names(tag=scenario_suite.FAULT_TAG)


@pytest.fixture(scope="module", params=FAULT_SCENARIOS)
def fault_section(request):
    return scenario_suite.run_fault_replay([request.param])


@pytest.mark.faults
class TestFaultReplayOnRunnerOutput:
    def test_registered_scenario_passes_its_gates(self, fault_section):
        scenario_suite.check_fault_replay(fault_section)

    def test_faults_actually_fire(self, fault_section):
        (row,) = fault_section["scenarios"].values()
        assert row["fault_events"] > 0
        assert row["metrics"]["fault_crashes"] > 0

    @pytest.mark.parametrize(
        "gate, message",
        [("deterministic_replay", "diverged"), ("loss_continuity", "loss continuity")],
    )
    def test_failed_gate_is_reported(self, fault_section, gate, message):
        section = copy.deepcopy(fault_section)
        (row,) = section["scenarios"].values()
        row["gates"][gate] = False
        with pytest.raises(AssertionError, match=message):
            scenario_suite.check_fault_replay(section)
