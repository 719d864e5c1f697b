"""Tier-1 smoke test of the perf ledger.

Checks ``BENCHMARK.json`` against the benchmark contract, then runs
``--smoke`` once (one untraced and one traced pass per workload at a tenth of
the sizes) and checks that every named metric comes back, that outputs pass
their checks, and that the untraced path installs no wrappers.  Timings are
not asserted: this is not a perf gate.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchmarks.ledger import compare, ledger, trace
from benchmarks.ledger.__main__ import run_smoke

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return ledger.spec()


@pytest.fixture(scope="module")
def smoke():
    return run_smoke(seed=3)


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_reports_every_metric_and_passes_its_checks(spec, smoke):
    assert list(smoke) == [w["name"] for w in spec["workloads"]]
    for name, summary in smoke.items():
        assert summary["correct"], (name, summary["failures"])
        assert summary["failed"] == 0 and summary["attempted"] >= 2
        assert len(summary["digest"]) == 64
        for key in ("end_to_end", "per_layer"):
            assert list(summary[key]) == [metric["name"] for metric in spec[key]]
            assert all(math.isfinite(value) for value in summary[key].values())
        # End-to-end metrics are chosen so that they are never 0.
        assert all(value > 0 for value in summary["end_to_end"].values())


def test_untraced_path_installs_no_wrappers(smoke):
    for summary in smoke.values():
        assert summary["wrappers"] == {"untraced": 0, "traced": len(trace.TARGETS)}


def test_layers_show_up_where_the_readme_says(smoke):
    layers = {name: summary["per_layer"] for name, summary in smoke.items()}
    assert layers["resnet-bsp"]["engine.replica_exec_calls"] == 0
    assert layers["resnet-bsp"]["nn.loop_calls"] > 0
    assert layers["resnet-bsp"]["comm.allreduce_share"] > 0
    for name in ("lm-fused", "mlp-sweep"):
        assert layers[name]["nn.loop_calls"] == 0
        assert layers[name]["engine.replica_exec_calls"] > 0
    assert layers["svc-mixed"]["service.polls_per_job"] >= 1
    assert layers["svc-mixed"]["results.append_ms_q1"] > 0
    for name, values in layers.items():
        assert 0.85 <= values["ledger.attributed_share"] < 1.0, name


def test_attributed_share_counts_only_time_that_reached_a_layer():
    # (id, parent, name, start, end, thread): one 10 s op around one 8 s step.
    containers = [(1, 0, "op", 0.0, 10.0, 1), (2, 1, "trainer.step", 1.0, 9.0, 1)]
    assert trace.layer_stats(containers, 0.0)["attributed_share"] == 0.0
    leaf = (3, 2, "engine.replica_exec", 2.0, 8.0, 1)
    assert trace.layer_stats(containers + [leaf], 0.0)["attributed_share"] == pytest.approx(0.6)
    # A client's sleep between polls is idle, not unattributed: what counts is
    # the worker thread's root span, here 4 s of which 3 s reached a layer.
    service = [
        (1, 0, "op", 0.0, 10.0, 1), (2, 1, "service.wait", 0.0, 10.0, 1),
        (3, 2, "service.poll", 5.0, 6.0, 1),
        (4, 0, "api.run", 1.0, 5.0, 2), (5, 4, "trainer.eval", 1.0, 4.0, 2),
    ]
    assert trace.layer_stats(service, 0.0)["attributed_share"] == pytest.approx(4.0 / 5.0)


def test_compare_accepts_a_result_against_itself(smoke):
    document = ledger.results_document(smoke)
    json.dumps(document)  # the results file must be plain JSON
    rows = compare.compare(document, document)
    assert rows and not [row for row in rows if row.startswith("FAIL")]
    worse = compare.verdict(10.0, 12.0, [10.0, 10.1], [12.0, 12.1], bound=0.1, better="lower")
    noisy = compare.verdict(10.0, 12.0, [8.0, 10.0, 13.0], [9.0, 12.0, 14.0], bound=0.1, better="lower")
    ahead = compare.verdict(10.0, 7.0, [8.0, 10.0, 13.0], [6.0, 7.0, 7.5], bound=0.1, better="lower")
    assert (worse, noisy, ahead) == ("worse", "unresolved", "no-worse")
