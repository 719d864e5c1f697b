"""FusedAdamUpdate: (N, D) moment matrices vs per-worker Adam steps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import FusedAdamUpdate, FusedSGDUpdate, build_fused_update
from repro.nn.models import MLP

DTYPES = ["float32", "float64"]


def make_adam_cluster(dtype="float64", num_workers=4, lr=1e-3, weight_decay=0.0, seed=0):
    from repro.cluster.cluster import ClusterConfig, SimulatedCluster
    from repro.data.datasets import make_classification_splits
    from repro.data.partition import SelSyncPartitioner
    from repro.optim.adam import Adam

    train, test = make_classification_splits(
        256, 64, 4, 12, class_sep=3.0, noise=0.6, seed=seed
    )
    config = ClusterConfig(num_workers=num_workers, batch_size=8, seed=seed, dtype=dtype)
    return SimulatedCluster(
        model_factory=lambda rng: MLP((12, 16, 4), rng=rng),
        optimizer_factory=lambda m: Adam(m, lr=lr, weight_decay=weight_decay),
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=SelSyncPartitioner(seed=seed),
    )


class TestBuild:
    def test_cluster_wires_fused_adam(self):
        cluster = make_adam_cluster()
        assert isinstance(cluster.fused_update, FusedAdamUpdate)

    def test_sgd_cluster_still_gets_fused_sgd(self, small_cluster_builder):
        cluster = small_cluster_builder(momentum=0.9)
        assert isinstance(cluster.fused_update, FusedSGDUpdate)

    def test_non_uniform_hyperparams_fall_back(self):
        cluster = make_adam_cluster()
        cluster.workers[1].optimizer.beta1 = 0.5
        assert FusedAdamUpdate.build(cluster.workers, cluster.matrix) is None
        assert build_fused_update(cluster.workers, cluster.matrix) is None

    def test_moments_rebound_onto_matrix_rows(self):
        cluster = make_adam_cluster()
        fused = cluster.fused_update
        for row, opt in zip(fused.m, [w.optimizer for w in cluster.workers]):
            assert opt._m_vector.base is fused.m or opt._m_vector is row
            # mutating the fused matrix must be visible through the optimizer
            row[0] = 3.25
            assert opt._m_vector[0] == 3.25
            row[0] = 0.0


class TestEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fused_step_matches_per_worker_loop(self, dtype, weight_decay):
        fused_cluster = make_adam_cluster(dtype=dtype, weight_decay=weight_decay)
        loop_cluster = make_adam_cluster(dtype=dtype, weight_decay=weight_decay)
        # Disabling the fused updater forces apply_local_updates through the
        # sequential per-worker optimizer.step() path.
        loop_cluster.fused_update = None

        for _ in range(5):
            batches = [w.next_batch() for w in fused_cluster.workers]
            fused_cluster.compute_gradients_all(batches)
            loop_batches = [w.next_batch() for w in loop_cluster.workers]
            loop_cluster.compute_gradients_all(loop_batches)
            fused_cluster.apply_local_updates(lr=2e-3)
            loop_cluster.apply_local_updates(lr=2e-3)

        # The fused (N, D) arithmetic mirrors Adam._update_flat operation for
        # operation, so the trajectories agree bit for bit.
        np.testing.assert_array_equal(
            fused_cluster.matrix.params, loop_cluster.matrix.params
        )
        for fw, lw in zip(fused_cluster.workers, loop_cluster.workers):
            np.testing.assert_array_equal(
                fw.optimizer._m_vector, lw.optimizer._m_vector
            )
            np.testing.assert_array_equal(
                fw.optimizer._v_vector, lw.optimizer._v_vector
            )
            assert fw.optimizer._t == lw.optimizer._t
            assert fw.steps_taken == lw.steps_taken

    def test_aggregated_gradient_broadcast(self):
        """A flat (D,) gradient applies one identical Adam step everywhere."""
        cluster = make_adam_cluster()
        grads = np.random.default_rng(3).standard_normal(
            cluster.matrix.spec.total_size
        )
        cluster.broadcast_state(cluster.ps.pull_vector())
        assert cluster.fused_update.apply(lr=1e-3, grads=grads)
        # all replicas started identical and saw the same gradient
        assert np.ptp(cluster.matrix.params, axis=0).max() == 0.0

    def test_diverged_timesteps_force_fallback(self):
        cluster = make_adam_cluster()
        batches = [w.next_batch() for w in cluster.workers]
        cluster.compute_gradients_all(batches)
        # SSP-style individual stepping desynchronizes bias correction.
        cluster.workers[0].optimizer.step()
        assert cluster.fused_update.apply(lr=1e-3) is False

    def test_diverged_lrs_force_fallback(self):
        cluster = make_adam_cluster()
        cluster.workers[2].optimizer.set_lr(5e-2)
        assert cluster.fused_update.apply() is False


class TestTraining:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bsp_with_adam_converges(self, dtype):
        from repro.algorithms.bsp import BSPTrainer

        cluster = make_adam_cluster(dtype=dtype, lr=5e-3)
        trainer = BSPTrainer(cluster, eval_every=10_000)
        first = None
        for _ in range(40):
            metrics = trainer.train_step()
            trainer.global_step += 1
            cluster.global_step = trainer.global_step
            if first is None:
                first = metrics["loss"]
        assert metrics["loss"] < first
