"""The paper-scale scenario contract (δ-sweeps at N = 64–256, fault replay).

Runs every ``paper-scale``-tagged scenario from the declarative registry —
the deep-MLP and transformer δ-sweeps at N ∈ {64, 128, 256} — through the
single scenario runner and gates each sweep on the contract that makes it
trustworthy: LSSR is monotone non-decreasing in δ, spans 0 → 1, and the
δ=0 / δ=max runs reproduce the existing BSP and (never-syncing) local-SGD
trainers exactly.

It also runs the *fault replay*: every ``faults``-tagged scenario from
:mod:`repro.faults` (crash / straggler-burst / rejoin schedules), gated on
deterministic replay and loss continuity.

The suite is heavier than tier-1, so it is gated behind ``--run-scenarios``
(the nightly workflow runs it):

    PYTHONPATH=src python -m pytest benchmarks/scenario_suite.py --run-scenarios -q -s

Under ``--write-results`` every scenario's table and full report are
persisted to ``benchmarks/results/scenarios/<name>.{txt,json}`` like the
figure benchmarks.  Tier-1 runs the same two checks on real scenario output
at reduced size (``tests/scenarios/test_suite_contract.py``).  Wall-clock
is not measured here: the perf ledger (``benchmarks/ledger/``) is the repo's
one benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from benchmarks._helpers import save_report

SCENARIO_RESULTS_DIR = Path(__file__).resolve().parent / "results" / "scenarios"

#: Registry tag selecting the suite's scenarios.
SUITE_TAG = "paper-scale"

#: Registry tag selecting the fault-replay scenarios (repro.faults).
FAULT_TAG = "faults"


def _persist(name: str, report, write_results: bool) -> None:
    save_report(f"scenarios/{name}", report.table(), write=write_results)
    if write_results:
        SCENARIO_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = SCENARIO_RESULTS_DIR / f"{name}.json"
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def run_suite(names: List[str], write_results: bool = False) -> Dict[str, dict]:
    """Run the named scenarios; persist reports and return their summaries."""
    from repro.scenarios import run_scenario

    summaries: Dict[str, dict] = {}
    for name in names:
        report = run_scenario(name)
        summaries[name] = report.to_dict()
        _persist(name, report, write_results)
    return summaries


def run_fault_replay(names: List[str], write_results: bool = False) -> dict:
    """Run the named fault scenarios; return their gate verdicts per name.

    Each fault scenario already runs twice inside the runner (deterministic
    replay, loss continuity); this collects the verdicts with the fault
    count and the replayable metrics as ``{"scenarios": {name: row}}``.
    """
    from repro.scenarios import run_scenario

    scenarios: Dict[str, dict] = {}
    for name in names:
        report = run_scenario(name)
        _persist(name, report, write_results)
        summary = report.to_dict()
        meta = summary["meta"]
        scenarios[name] = {
            "fault_events": len(meta["fault_events"]),
            "gates": meta["gates"],
            "metrics": summary["records"][0]["metrics"],
        }
    return {"scenarios": scenarios}


def check_fault_replay(section: dict) -> None:
    """Assert every fault scenario's reliability gates passed."""
    for name, row in section["scenarios"].items():
        gates = row["gates"]
        assert gates["deterministic_replay"], (
            f"{name}: two runs with the same fault seed diverged"
        )
        assert gates["loss_continuity"], (
            f"{name}: loss continuity broken — {gates['continuity_detail']}"
        )


def check_sweep_contract(summary: dict) -> None:
    """Assert one δ-sweep's gates: monotone LSSR, full span, exact endpoints."""
    records = summary["records"]
    deltas = [r["params"]["delta"] for r in records]
    assert deltas == sorted(deltas), "runner must emit grid order"
    lssrs = [r["metrics"]["lssr"] for r in records]
    # LSSR is monotone non-decreasing in δ and spans the full [0, 1] range.
    assert all(b >= a - 1e-9 for a, b in zip(lssrs, lssrs[1:])), (
        f"{summary['name']}: LSSR not monotone in δ: {lssrs}"
    )
    assert lssrs[0] == 0.0, f"{summary['name']}: δ=0 must synchronize every step"
    assert lssrs[-1] == 1.0, f"{summary['name']}: δ=max must never synchronize"
    # The extremes reproduce the existing trainers exactly (final loss,
    # final metric and every evaluation point; see runner._exact_match).
    endpoints = summary["endpoints"]
    assert endpoints["bsp"]["matches_sweep_endpoint"], (
        f"{summary['name']}: δ=0 diverged from BSPTrainer"
    )
    assert endpoints["local_sgd"]["matches_sweep_endpoint"], (
        f"{summary['name']}: δ=max diverged from LocalSGDTrainer"
    )



def test_scenario_sweep_suite(request):
    if not request.config.getoption("--run-scenarios"):
        pytest.skip("scenario sweeps run only with --run-scenarios")
    from repro.scenarios import scenario_names

    write = request.config.getoption("--write-results")
    summaries = run_suite(scenario_names(tag=SUITE_TAG), write_results=write)
    assert summaries, "no paper-scale scenarios registered"
    for summary in summaries.values():
        check_sweep_contract(summary)


@pytest.mark.faults
def test_fault_replay_smoke(request):
    if not request.config.getoption("--run-scenarios"):
        pytest.skip("scenario sweeps run only with --run-scenarios")
    from repro.scenarios import scenario_names

    write = request.config.getoption("--write-results")
    section = run_fault_replay(scenario_names(tag=FAULT_TAG), write_results=write)
    assert section["scenarios"], "no fault scenarios registered"
    check_fault_replay(section)
