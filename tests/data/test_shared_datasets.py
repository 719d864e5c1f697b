"""One dataset build per scenario run: the runs of a scenario share read-only bundles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import datasets
from repro.data.datasets import build_dataset
from repro.faults.schedule import crash, rejoin
from repro.harness import experiment
from repro.scenarios import ComparisonScenario, FaultScenario, SweepScenario, run_scenario

SMALL = dict(train_samples=256, test_samples=64)
SIZING = dict(num_workers=2, iterations=4, batch_size=4)


@pytest.fixture
def builds(monkeypatch):
    """Every ``build_dataset`` call made through the harness, as (name, seed)."""
    calls = []
    build = experiment.build_dataset

    def counting_build(name, seed=0, **kwargs):
        calls.append((name, seed))
        return build(name, seed=seed, **kwargs)

    monkeypatch.setattr(experiment, "build_dataset", counting_build)
    return calls


def test_a_sweep_and_its_anchors_build_the_dataset_once(builds):
    sweep = SweepScenario(
        name="shared-sweep", title="t", workload="deep_mlp", grid={"delta": (0.0, 0.3, 1e9)},
        params={"aggregation": "grad", "sync_on_first_step": False}, verify_endpoints=True,
        **SIZING,
    )
    report = run_scenario(sweep)
    assert len(report.records) == 3 and len(report.endpoints) == 2
    assert all(anchor["matches_sweep_endpoint"] for anchor in report.endpoints.values())
    assert builds == [("cifar10", 0)]


def test_a_comparison_builds_each_workload_once(builds):
    comparison = ComparisonScenario(
        name="shared-comparison", title="t",
        methods={"bsp": ("bsp", {}), "selsync": ("selsync", {"delta": 0.3})},
        workloads=("deep_mlp", "resnet101"), use_convergence=False, num_workers=2, iterations=4,
    )
    assert len(run_scenario(comparison).records) == 4
    assert builds == [("cifar10", 0), ("cifar10", 0)]   # two presets, two dataset specs


def test_both_fault_attempts_train_on_one_build(builds):
    scenario = FaultScenario(
        name="shared-fault", title="t", workload="deep_mlp", algorithm="selsync",
        events=(crash(1, 2), rejoin(1, 6)), checkpoint_every=4,
        num_workers=3, iterations=8, batch_size=4,
    )
    report = run_scenario(scenario)
    assert report.meta["gates"]["deterministic_replay"]
    assert len(builds) == 1


def test_each_scenario_run_builds_its_own(builds):
    sweep = SweepScenario(name="twice", title="t", workload="deep_mlp", grid={"delta": (0.3,)},
                          **SIZING)
    first, second = run_scenario(sweep), run_scenario(sweep)
    assert len(builds) == 2
    assert first.records[0].metrics["final_loss"] == second.records[0].metrics["final_loss"]


def test_build_dataset_keeps_nothing():
    assert build_dataset("cifar10", seed=3, **SMALL) is not build_dataset(
        "cifar10", seed=3, **SMALL
    )


@pytest.mark.parametrize("name", ["cifar10", "wikitext103"])
def test_every_dataset_array_is_read_only(name):
    kwargs = SMALL if name == "cifar10" else dict(num_tokens=4000, bptt=8)
    bundle = build_dataset(name, seed=0, **kwargs)
    for split in (bundle.train, bundle.test):
        arrays = [value for value in vars(split).values() if isinstance(value, np.ndarray)]
        assert arrays
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # Batches are copies the caller may write to.
        inputs, targets = split[np.array([[0, 1], [2, 3]])]
        inputs[...] = 0
        targets[...] = 0


def test_the_callers_array_stays_writable():
    inputs = np.zeros((4, 2))
    dataset = datasets.ClassificationDataset(inputs, np.arange(4) % 2, num_classes=2)
    inputs[0, 0] = 1.0
    assert dataset.inputs[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        dataset.inputs[0, 0] = 2.0
