"""FusedAdamUpdate: (N, D) moment matrices vs standalone per-module Adam steps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import FusedAdamUpdate, FusedSGDUpdate, build_fused_update
from repro.nn.models import MLP
from repro.optim.adam import Adam
from repro.optim.optimizer import Optimizer

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

    def test_hyperparameters_and_lr_come_from_the_factory_optimizer(self):
        cluster = make_adam_cluster(lr=2e-3, weight_decay=0.01)
        fused = cluster.fused_update
        assert (fused.lr, fused.beta1, fused.beta2, fused.eps, fused.weight_decay) == (
            2e-3, 0.9, 0.999, 1e-8, 0.01
        )
        assert fused.m.shape == fused.v.shape == cluster.matrix.params.shape
        assert fused.t.tolist() == [0] * cluster.num_workers

    def test_unsupported_optimizer_raises_type_error(self):
        class Plain(Optimizer):
            def _update_flat(self, grad_vector):
                return self.lr * grad_vector

        class SubclassedAdam(Adam):
            pass

        cluster = make_adam_cluster()
        model = cluster.workers[0].model
        for optimizer in (Plain(model, lr=0.1), SubclassedAdam(model)):
            with pytest.raises(TypeError, match="runs SGD or Adam, got"):
                build_fused_update(optimizer, cluster.matrix, cluster.active_mask)


def _oracles(cluster, weight_decay=0.0):
    """One standalone ``Adam`` per worker, stepping that worker's matrix row."""
    return [Adam(w.model, lr=1e-3, weight_decay=weight_decay) for w in cluster.workers]


def _oracle_step(oracles, lr, rows):
    for worker_id, optimizer in enumerate(oracles):
        if rows[worker_id]:
            optimizer.lr = lr
            optimizer.step()


class TestEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fused_step_matches_per_module_adam(self, dtype, weight_decay):
        fused_cluster = make_adam_cluster(dtype=dtype, weight_decay=weight_decay)
        oracle_cluster = make_adam_cluster(dtype=dtype, weight_decay=weight_decay)
        oracles = _oracles(oracle_cluster, weight_decay)
        everyone = np.ones(fused_cluster.num_workers, dtype=bool)

        for _ in range(5):
            fused_cluster.compute_gradients_all(fused_cluster.next_batches())
            oracle_cluster.compute_gradients_all(oracle_cluster.next_batches())
            fused_cluster.apply_local_updates(2.0)
            _oracle_step(oracles, 1e-3 * 2.0, everyone)

        # The fused (N, D) arithmetic mirrors Adam._update_flat operation for
        # operation, so the trajectories agree bit for bit.
        fused = fused_cluster.fused_update
        np.testing.assert_array_equal(fused_cluster.matrix.params, oracle_cluster.matrix.params)
        np.testing.assert_array_equal(fused.m, np.stack([o._m_vector for o in oracles]))
        np.testing.assert_array_equal(fused.v, np.stack([o._v_vector for o in oracles]))
        assert fused.t.tolist() == [o._t for o in oracles] == [5] * 4

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_masked_steps_with_diverged_timesteps_match_per_module_adam(self, dtype):
        """Crashed rows keep params, moments and ``t``; each active row's own ``t``
        drives its bias correction, as a standalone Adam's does."""
        fused_cluster = make_adam_cluster(dtype=dtype)
        oracle_cluster = make_adam_cluster(dtype=dtype)
        oracles = _oracles(oracle_cluster)
        fused = fused_cluster.fused_update
        rows = (fused_cluster.matrix.params, fused.m, fused.v, fused.t)
        # Worker 1 sits out steps 2-9, worker 3 steps 4-6 and 10-13 (as a
        # crash / rejoin schedule would), so up to three distinct t coexist.
        for step in range(14):
            down = {1} if 2 <= step < 10 else set()
            if 4 <= step < 7 or 10 <= step < 14:
                down.add(3)
            mask = np.array([w not in down for w in range(4)])
            fused_cluster.active_mask[:] = mask
            oracle_cluster.active_mask[:] = mask
            fused_cluster.compute_gradients_all(fused_cluster.next_batches())
            oracle_cluster.compute_gradients_all(oracle_cluster.next_batches())
            frozen = [array[~mask].copy() for array in rows]
            factor = float(1 + step % 3)
            fused_cluster.apply_local_updates(factor)
            _oracle_step(oracles, 1e-3 * factor, mask)
            for array, before in zip(rows, frozen):
                np.testing.assert_array_equal(array[~mask], before)
            np.testing.assert_array_equal(
                fused_cluster.matrix.params, oracle_cluster.matrix.params
            )
        assert fused.t.tolist() == [o._t for o in oracles] == [14, 6, 14, 7]
        np.testing.assert_array_equal(fused.m, np.stack([o._m_vector for o in oracles]))
        np.testing.assert_array_equal(fused.v, np.stack([o._v_vector for o in oracles]))

    def test_bias_correction_takes_python_scalar_powers(self):
        # At t = 7 and 23, NumPy's vectorised 0.999**t differs from Python's
        # pow in the last bit; the column must hold Python's.
        fused = make_adam_cluster().fused_update
        steps = [7, 23, 23, 1]
        fused.t[:] = steps
        assert (np.float64(0.999) ** fused.t != [0.999**t for t in steps]).any()
        column = fused._bias_correction(0.999)
        assert column.shape == (4, 1)
        assert column.ravel().tolist() == [1.0 - 0.999**t for t in steps]

    def test_aggregated_gradient_broadcast(self):
        """A flat (D,) gradient applies one identical Adam step everywhere."""
        cluster = make_adam_cluster()
        grads = np.random.default_rng(3).standard_normal(
            cluster.matrix.spec.total_size
        )
        cluster.broadcast_state(cluster.ps.pull_vector())
        cluster.fused_update.apply(grads=grads)
        # all replicas started identical and saw the same gradient
        assert np.ptp(cluster.matrix.params, axis=0).max() == 0.0


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
