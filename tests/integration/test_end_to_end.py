"""End-to-end integration tests across the whole stack.

These reproduce, at tiny scale, the qualitative claims the paper's evaluation
rests on: SelSync reaches BSP-level accuracy with far less communication,
SelDP beats DefDP in semi-synchronous training, and data injection rescues
non-IID training.
"""

import numpy as np
import pytest

from tests.conftest import make_small_cluster

from repro.algorithms.bsp import BSPTrainer
from repro.algorithms.fedavg import FedAvgTrainer
from repro.algorithms.localsgd import LocalSGDTrainer
from repro.algorithms.ssp import SSPTrainer
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.data.datasets import make_classification_splits
from repro.data.injection import adjusted_batch_size
from repro.data.noniid import LabelSkewPartitioner
from repro.data.partition import DefaultPartitioner, SelSyncPartitioner
from repro.harness.experiment import RunConfig, run_experiment
from repro.nn.models import MLP
from repro.optim.sgd import SGD


ITERATIONS = 90


class TestAccuracyParity:
    def test_selsync_reaches_bsp_level_accuracy_with_less_communication(self):
        """The paper's headline claim at miniature scale."""
        bsp_cluster = make_small_cluster(train_samples=512, seed=21)
        sel_cluster = make_small_cluster(train_samples=512, seed=21)
        bsp = BSPTrainer(bsp_cluster, eval_every=30).run(ITERATIONS)
        sel = SelSyncTrainer(
            sel_cluster, SelSyncConfig(delta=0.08), eval_every=30
        ).run(ITERATIONS)
        assert sel.best_metric >= bsp.best_metric - 0.08
        assert sel.lssr > 0.3
        assert sel.sim_time_seconds < bsp.sim_time_seconds

    def test_all_algorithms_learn_something(self):
        results = {}
        for name, builder in {
            "bsp": lambda c: BSPTrainer(c, eval_every=30),
            "selsync": lambda c: SelSyncTrainer(c, SelSyncConfig(delta=0.1), eval_every=30),
            "fedavg": lambda c: FedAvgTrainer(c, participation=1.0, sync_factor=0.5, eval_every=30),
            "localsgd": lambda c: LocalSGDTrainer(c, sync_period=8, eval_every=30),
            "ssp": lambda c: SSPTrainer(c, staleness=50, eval_every=30),
        }.items():
            cluster = make_small_cluster(train_samples=512, seed=33)
            results[name] = builder(cluster).run(ITERATIONS)
        for name, result in results.items():
            assert result.best_metric > 0.4, f"{name} failed to learn"

    def test_speedup_ordering_bsp_is_slowest(self):
        """Per-iteration simulated cost: BSP > SelSync(high δ); SSP avoids barriers."""
        times = {}
        for name, builder in {
            "bsp": lambda c: BSPTrainer(c, eval_every=100),
            "selsync": lambda c: SelSyncTrainer(c, SelSyncConfig(delta=1e9), eval_every=100),
            "fedavg": lambda c: FedAvgTrainer(
                c, participation=1.0, sync_factor=1.0, eval_every=100
            ),
        }.items():
            cluster = make_small_cluster(seed=5)
            builder(cluster).run(20)
            times[name] = cluster.clock.elapsed
        assert times["bsp"] > times["selsync"]
        assert times["bsp"] > times["fedavg"]


class TestPartitioningClaim:
    def _train_with(self, partitioner, seed=17):
        cluster = make_small_cluster(
            train_samples=512, seed=seed, partitioner=partitioner, num_classes=8
        )
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.5), eval_every=30)
        return trainer.run(ITERATIONS)

    def test_seldp_beats_defdp_under_mostly_local_training(self):
        """§IV-C / Fig. 9: with most steps local, DefDP starves workers of data."""
        seldp = self._train_with(SelSyncPartitioner(seed=17))
        defdp = self._train_with(DefaultPartitioner(seed=17))
        assert seldp.best_metric >= defdp.best_metric - 0.02


class TestNonIIDInjection:
    def _noniid_cluster(self, batch_size, seed=11):
        train, test = make_classification_splits(640, 320, 8, 16, class_sep=4.0,
                                                 noise=0.6, seed=seed)
        partitioner = LabelSkewPartitioner(train.targets, labels_per_worker=1, seed=seed)
        config = ClusterConfig(num_workers=4, batch_size=batch_size, seed=seed)
        return SimulatedCluster(
            model_factory=lambda rng: MLP((16, 24, 8), rng=rng),
            optimizer_factory=lambda m: SGD(m, lr=0.1),
            train_dataset=train,
            test_dataset=test,
            config=config,
            partitioner=partitioner,
        )

    def test_injection_improves_noniid_accuracy(self):
        """Fig. 12: data injection rescues label-skewed training."""
        plain_cluster = self._noniid_cluster(batch_size=16)
        plain = SelSyncTrainer(
            plain_cluster, SelSyncConfig(delta=0.3), eval_every=30
        ).run(ITERATIONS)

        b_prime = adjusted_batch_size(16, 0.75, 0.75, 4)
        injected_cluster = self._noniid_cluster(batch_size=b_prime)
        injected = SelSyncTrainer(
            injected_cluster,
            SelSyncConfig(delta=0.3, injection_alpha=0.75, injection_beta=0.75),
            eval_every=30,
        ).run(ITERATIONS)
        assert injected.best_metric > plain.best_metric

    def test_injection_bytes_are_negligible_vs_model_sync(self):
        cluster = self._noniid_cluster(batch_size=8)
        trainer = SelSyncTrainer(
            cluster, SelSyncConfig(delta=0.0, injection_alpha=0.5, injection_beta=0.5),
            eval_every=100,
        )
        trainer.run(10)
        # §III-E: injection ships a few hundred KB per step, negligible next to
        # the hundreds of MB a model synchronization moves at paper scale.
        injected_bytes_per_step = trainer.injection.total_bytes / 10
        paper_sync_bytes = cluster.workload_spec.model_bytes * cluster.num_workers
        assert injected_bytes_per_step < paper_sync_bytes / 100


class TestHarnessPresets:
    @pytest.mark.parametrize("workload", ["resnet101", "vgg11", "alexnet", "transformer"])
    def test_every_paper_workload_trains_under_selsync(self, workload):
        result = run_experiment(RunConfig(workload, "selsync", {"delta": 0.3}, num_workers=2,
                                          iterations=10, eval_every=5, seed=0))
        assert result.iterations == 10
        assert np.isfinite(result.final_metric)

    def test_transformer_perplexity_improves(self):
        short = run_experiment(RunConfig("transformer", "bsp", num_workers=2, iterations=5,
                                         eval_every=5, seed=1))
        longer = run_experiment(RunConfig("transformer", "bsp", num_workers=2, iterations=60,
                                          eval_every=30, seed=1))
        assert longer.best_metric < short.best_metric
