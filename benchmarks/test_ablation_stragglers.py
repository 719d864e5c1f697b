"""Ablation — sensitivity to stragglers (systems heterogeneity).

§II-A: BSP is gated by its slowest worker on every step.  SelSync still
barriers on synchronous steps but skips the barrier on local steps, and SSP
avoids per-step barriers entirely; under a straggler model the simulated
wall-clock should reflect exactly that ordering.
"""

import pytest

from benchmarks._helpers import full_scale, save_report

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.heterogeneity import StragglerModel
from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.algorithms.bsp import BSPTrainer
from repro.algorithms.ssp import SSPTrainer
from repro.data.datasets import build_dataset
from repro.data.partition import SelSyncPartitioner
from repro.harness.experiment import build_workload
from repro.harness.reporting import format_table


def _cluster_with_stragglers(preset, seed=0, straggler_prob=0.2, slowdown=4.0):
    bundle = build_dataset(preset.dataset_name, seed=seed, **preset.dataset_kwargs)
    config = ClusterConfig(
        num_workers=4, batch_size=preset.batch_size, seed=seed, task=preset.task,
        workload=preset.workload_spec, top_k=preset.top_k,
        speed_model=StragglerModel(straggler_prob=straggler_prob, slowdown=slowdown, seed=seed),
    )
    return SimulatedCluster(
        model_factory=preset.model_factory,
        optimizer_factory=preset.optimizer_factory,
        train_dataset=bundle.train,
        test_dataset=bundle.test,
        config=config,
        partitioner=SelSyncPartitioner(seed=seed),
    )


def _experiment():
    iterations = 120 if full_scale() else 60
    preset = build_workload("resnet101")
    runs = {}
    cluster = _cluster_with_stragglers(preset)
    runs["bsp"] = BSPTrainer(cluster, eval_every=iterations).run(iterations)
    cluster = _cluster_with_stragglers(preset)
    runs["selsync(0.5)"] = SelSyncTrainer(
        cluster, SelSyncConfig(delta=0.5), eval_every=iterations
    ).run(iterations)
    cluster = _cluster_with_stragglers(preset)
    runs["ssp(s=100)"] = SSPTrainer(cluster, staleness=100, eval_every=iterations).run(iterations)
    return runs


@pytest.mark.benchmark(group="ablation_stragglers")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ablation_straggler_sensitivity(benchmark):
    runs = benchmark.pedantic(_experiment, rounds=1, iterations=1)

    rows = [
        [label, round(r.sim_time_seconds, 1), round(r.sim_time_seconds / r.iterations, 3),
         round(r.best_metric, 4)]
        for label, r in runs.items()
    ]
    report = format_table(
        ["method", "simulated time (s)", "time per iteration (s)", "best accuracy"], rows,
        title="Ablation — wall-clock under a 20% straggler probability (4x slowdown)",
    )
    save_report("ablation_stragglers", report)

    per_iter = {label: r.sim_time_seconds / r.iterations for label, r in runs.items()}
    # BSP pays the straggler penalty plus a full synchronization every step,
    # so it has the highest per-iteration cost; SSP's asynchronous pushes are
    # the cheapest.
    assert per_iter["bsp"] > per_iter["selsync(0.5)"]
    assert per_iter["bsp"] > per_iter["ssp(s=100)"]
