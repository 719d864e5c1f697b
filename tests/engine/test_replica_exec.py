"""Equivalence tests for the fused batched-replica executor and fused SGD."""

import numpy as np
import pytest

from tests.conftest import make_small_cluster

from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer


def _paired_clusters(**kwargs):
    """Two identically seeded clusters: one batched, one on the per-worker nn loop."""
    fused = make_small_cluster(**kwargs)
    loop = make_small_cluster(**kwargs)
    assert fused.replica_exec is not None
    loop.replica_exec = None
    return fused, loop


class TestBatchedExecutorEquivalence:
    def test_gradients_match_per_worker_loop(self):
        fused, loop = _paired_clusters()
        batches = [w.next_batch() for w in fused.workers]
        loop_batches = [w.next_batch() for w in loop.workers]
        losses_fused = fused.compute_gradients_all(batches)
        losses_loop = loop.compute_gradients_all(loop_batches)
        np.testing.assert_allclose(losses_fused, losses_loop, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(fused.matrix.grads, loop.matrix.grads, atol=1e-12)

    def test_worker_stats_populated(self):
        fused, _ = _paired_clusters()
        batches = [w.next_batch() for w in fused.workers]
        losses = fused.compute_gradients_all(batches)
        for worker, loss in zip(fused.workers, losses):
            assert worker.last_loss is not None and np.isfinite(worker.last_loss)
            assert worker.last_loss == loss

    def test_full_training_trajectory_matches(self):
        fused, loop = _paired_clusters(momentum=0.9)
        t_fused = SelSyncTrainer(fused, SelSyncConfig(delta=0.05), eval_every=100)
        t_loop = SelSyncTrainer(loop, SelSyncConfig(delta=0.05), eval_every=100)
        t_fused.run(15)
        t_loop.run(15)
        assert t_fused.sync_steps == t_loop.sync_steps
        np.testing.assert_allclose(fused.matrix.params, loop.matrix.params, atol=1e-10)

    def test_mlp_subclass_is_refused(self):
        from repro.engine import BatchedReplicaExecutor
        from repro.nn.models import MLP

        class ResidualMLP(MLP):
            def forward(self, x):
                return super().forward(x) + 0.0  # overridden forward

        cluster = make_small_cluster()
        model = ResidualMLP((16, 8, 4), rng=np.random.default_rng(0))
        model.flatten_parameters()
        from repro.engine import WorkerMatrix

        matrix = WorkerMatrix(1, model.flat_spec)
        matrix.adopt(0, model)
        assert BatchedReplicaExecutor.build(matrix, model) is None

    def test_optimizer_survives_adoption_after_construction(self):
        from repro.engine import WorkerMatrix
        from repro.nn.models import MLP
        from repro.optim.sgd import SGD

        model = MLP((4, 6, 2), rng=np.random.default_rng(0))
        opt = SGD(model, lr=0.5)  # built BEFORE the matrix adopts the model
        matrix = WorkerMatrix(1, model.flat_spec)
        matrix.adopt(0, model)
        model.grad_vector[:] = 1.0
        before = matrix.params[0].copy()
        opt.step()
        np.testing.assert_allclose(matrix.params[0], before - 0.5)

    def test_fallback_path_works_without_executor(self):
        cluster = make_small_cluster()
        cluster.replica_exec = None
        batches = [w.next_batch() for w in cluster.workers]
        losses = cluster.compute_gradients_all(batches)
        assert len(losses) == cluster.num_workers

    def test_mismatched_batch_shapes_fall_back(self):
        fused, _ = _paired_clusters()
        batches = [w.next_batch() for w in fused.workers]
        short = (batches[0][0][:-1], batches[0][1][:-1])
        assert fused.replica_exec.step([short] + batches[1:]) is None


class TestFusedSGDEquivalence:
    """The cluster's fused update against one standalone ``SGD`` per worker."""

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_local_updates_match_per_module_sgd(self, shared):
        from repro.optim.sgd import SGD

        fused, loop = _paired_clusters(momentum=0.9)
        oracles = [SGD(w.model, lr=0.05, momentum=0.9) for w in loop.workers]
        for _ in range(3):
            grads = []
            for cluster in (fused, loop):
                cluster.compute_gradients_all(cluster.next_batches())
                grads.append(cluster.matrix.grads.mean(axis=0) if shared else None)
            fused.apply_local_updates(lr=0.05, grads=grads[0])
            for optimizer in oracles:
                optimizer.step(grads[1])
        np.testing.assert_array_equal(fused.matrix.params, loop.matrix.params)
        np.testing.assert_array_equal(
            fused.fused_update.velocity, np.stack([o._velocity_vector for o in oracles])
        )

    def test_lr_is_one_shared_scalar(self):
        cluster = make_small_cluster(momentum=0.9, lr=0.1)
        update = cluster.fused_update
        assert update.lr == 0.1
        update.apply(lr=0.25)
        update.apply(lr=None)  # keeps the last lr
        assert update.lr == 0.25
        with pytest.raises(ValueError, match="learning rate must be positive"):
            update.apply(lr=0.0)
