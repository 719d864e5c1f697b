"""Fig. 5 — correlation between Δ(gᵢ) and model convergence in BSP.

Paper: the relative gradient change is high while the test metric is moving
(early phase, LR-decay jumps) and flattens once convergence plateaus, which
is what makes it a usable significance signal.

The reproduction uses a harder synthetic mixture (lower class separation,
more noise) so the accuracy curve keeps moving for a substantial fraction of
the run instead of saturating within a few steps.
"""

import numpy as np
import pytest

from benchmarks._helpers import full_scale, save_report

from repro.algorithms.bsp import BSPTrainer
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.core.gradient_tracker import TrackerBank
from repro.data.datasets import make_classification_splits
from repro.data.partition import SelSyncPartitioner
from repro.harness.reporting import format_table
from repro.nn.models import ResNetLike
from repro.optim.sgd import SGD
from repro.stats.variance import gradient_variance


class _TrackedBSP(BSPTrainer):
    """BSP trainer that additionally tracks Δ(gᵢ) of worker 0 (analysis only)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bank = TrackerBank(1, alpha=0.16)
        self.deltas = []

    def train_step(self):
        info = super().train_step()
        raw = gradient_variance(self.cluster.workers[0].model.gradient_dict())
        self.deltas.append(float(self.bank.update([raw], [True])[0]))
        return info


def _experiment():
    iterations = 300 if full_scale() else 150
    train, test = make_classification_splits(
        4096, 512, 10, 64, class_sep=2.0, noise=1.3, seed=0
    )
    config = ClusterConfig(num_workers=4, batch_size=32, seed=0)
    cluster = SimulatedCluster(
        model_factory=lambda rng: ResNetLike(64, 10, width=96, depth=6, rng=rng),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9, weight_decay=4e-4),
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=SelSyncPartitioner(seed=0),
    )
    trainer = _TrackedBSP(cluster, eval_every=max(iterations // 10, 1))
    result = trainer.run(iterations)
    return result, np.array(trainer.deltas)


@pytest.mark.benchmark(group="fig5")
def test_fig5_delta_correlates_with_convergence(benchmark):
    result, deltas = benchmark.pedantic(_experiment, rounds=1, iterations=1)

    history = result.history
    rows = []
    for point in history:
        window = deltas[max(point.step - 15, 0): point.step]
        rows.append([point.step, round(float(np.mean(window)), 4), round(point.metric, 4)])
    report = format_table(
        ["step", "mean Δ(g) (trailing window)", "test accuracy"], rows,
        title="Fig. 5 — relative gradient change vs test-metric progression (BSP, ResNet analog)",
    )
    save_report("fig5_gradchange_convergence", report)

    # Shape: the early phase (metric still climbing) has larger Δ(gᵢ) than the
    # converged tail, where both the metric and the gradient statistic flatten.
    early_delta = float(np.mean(deltas[2:40]))
    late_delta = float(np.mean(deltas[-40:]))
    assert early_delta > late_delta
    # The accuracy gained in the first half of the run exceeds the gain in the
    # second half — the convergence curve really does flatten out.
    mid = len(history) // 2
    early_gain = history[mid].metric - history[0].metric
    late_gain = history[-1].metric - history[mid].metric
    assert early_gain > late_gain
