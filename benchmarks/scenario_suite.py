"""The paper-scale scenario sweep suite (δ-sweeps at N = 64–256).

Runs every ``paper-scale``-tagged scenario from the declarative registry —
the deep-MLP and transformer δ-sweeps at N ∈ {64, 128, 256} — through the
single scenario runner, and records the outputs next to
``BENCH_engine.json``:

* ``BENCH_scenarios.json`` (repo root) — every scenario's per-run records
  and endpoint-parity verdicts, the artifact nightly CI uploads so the
  δ-vs-LSSR/accuracy curves are tracked over time;
* ``benchmarks/results/scenarios/<name>.{txt,json}`` — human-readable
  tables and full reports, persisted only under ``--write-results`` like
  the figure benchmarks.

Each sweep is gated on the contract that makes it trustworthy: LSSR is
monotone non-decreasing in δ, spans 0 → 1, and the δ=0 / δ=max runs
reproduce the existing BSP and (never-syncing) local-SGD trainers exactly.
The suite is heavier than tier-1, so it is gated behind ``--run-scenarios``:

    PYTHONPATH=src python -m pytest benchmarks/scenario_suite.py --run-scenarios -q -s

The suite also runs the *fault-replay smoke*: every ``faults``-tagged
scenario from :mod:`repro.faults` (crash / straggler-burst / rejoin
schedules with deterministic-replay and loss-continuity gates), recorded as
the ``fault_replay`` section of ``BENCH_scenarios.json``.  Those records
deliberately omit wall-clock, so they are tracked but never feed the
steps/sec regression gate.

Standalone (also reachable via ``python -m benchmarks.perf_smoke
--run-scenarios``):

    PYTHONPATH=src python -m benchmarks.scenario_suite
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from benchmarks._helpers import save_report

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"
SCENARIO_RESULTS_DIR = Path(__file__).resolve().parent / "results" / "scenarios"

#: Registry tag selecting the suite's scenarios.
SUITE_TAG = "paper-scale"

#: Registry tag selecting the fault-replay smoke scenarios (repro.faults).
FAULT_TAG = "faults"


def run_suite(names: List[str], write_results: bool = False) -> Dict[str, dict]:
    """Run the named scenarios; persist reports and return their summaries."""
    from repro.scenarios import run_scenario

    summaries: Dict[str, dict] = {}
    for name in names:
        report = run_scenario(name)
        summaries[name] = report.to_dict()
        save_report(f"scenarios/{name}", report.table(), write=write_results)
        if write_results:
            SCENARIO_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            path = SCENARIO_RESULTS_DIR / f"{name}.json"
            path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return summaries


def merge_into_result_file(summaries: Dict[str, dict]) -> None:
    """Merge scenario summaries into ``BENCH_scenarios.json`` (keep others)."""
    report = {}
    if RESULT_PATH.exists():
        try:
            report = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            report = {}
    report.update(summaries)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def run_fault_replay_smoke(write_results: bool = False) -> dict:
    """Run every ``faults``-tagged scenario; return the ``fault_replay`` section.

    Each fault scenario already runs twice inside the runner and raises on a
    gate violation (deterministic replay, loss continuity) — this smoke
    records the verdicts and the replayable metrics in
    ``BENCH_scenarios.json`` so nightly CI tracks the reliability surface
    alongside the δ-sweeps.  Records deliberately omit wall-clock, so these
    rows never feed the steps/sec regression gate.
    """
    from repro.scenarios import run_scenario, scenario_names

    scenarios: Dict[str, dict] = {}
    for name in scenario_names(tag=FAULT_TAG):
        report = run_scenario(name)
        summary = report.to_dict()
        save_report(f"scenarios/{name}", report.table(), write=write_results)
        if write_results:
            SCENARIO_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            path = SCENARIO_RESULTS_DIR / f"{name}.json"
            path.write_text(json.dumps(summary, indent=2) + "\n")
        meta = summary["meta"]
        scenarios[name] = {
            "workload": meta["workload"],
            "algorithm": meta["algorithm"],
            "num_workers": meta["num_workers"],
            "iterations": meta["iterations"],
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


@pytest.mark.perf
def test_scenario_sweep_suite(request):
    if not request.config.getoption("--run-scenarios"):
        pytest.skip("scenario sweeps run only with --run-scenarios")
    from repro.scenarios import scenario_names

    write = request.config.getoption("--write-results")
    summaries = run_suite(scenario_names(tag=SUITE_TAG), write_results=write)
    merge_into_result_file(summaries)
    print(f"\n[{len(summaries)} scenario reports merged into {RESULT_PATH}]")
    assert summaries, "no paper-scale scenarios registered"
    for summary in summaries.values():
        check_sweep_contract(summary)


@pytest.mark.perf
@pytest.mark.faults
def test_fault_replay_smoke(request):
    if not request.config.getoption("--run-scenarios"):
        pytest.skip("scenario sweeps run only with --run-scenarios")
    write = request.config.getoption("--write-results")
    section = run_fault_replay_smoke(write_results=write)
    merge_into_result_file({"fault_replay": section})
    print(
        f"\n[{len(section['scenarios'])} fault-replay rows merged into {RESULT_PATH}]"
    )
    assert section["scenarios"], "no fault scenarios registered"
    check_fault_replay(section)


def main(write_results: bool = True) -> Dict[str, dict]:
    """Standalone entry: run every paper-scale sweep and persist everything."""
    from repro.scenarios import scenario_names

    summaries = run_suite(scenario_names(tag=SUITE_TAG), write_results=write_results)
    merge_into_result_file(summaries)
    for summary in summaries.values():
        check_sweep_contract(summary)
    print(f"[{len(summaries)} scenario reports merged into {RESULT_PATH}]")
    fault_section = run_fault_replay_smoke(write_results=write_results)
    merge_into_result_file({"fault_replay": fault_section})
    check_fault_replay(fault_section)
    print(
        f"[{len(fault_section['scenarios'])} fault-replay rows merged into "
        f"{RESULT_PATH}]"
    )
    return summaries


if __name__ == "__main__":  # standalone: python -m benchmarks.scenario_suite
    main()
