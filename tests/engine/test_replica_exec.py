"""Equivalence tests for the fused batched-replica executor and fused SGD."""

import numpy as np
import pytest

from tests.conftest import make_small_cluster
from tests.engine.test_activation_lifetime import _assert_holds_no_activation

from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.engine import BatchedReplicaExecutor, WorkerMatrix
from repro.harness.experiment import build_cluster, build_workload
from repro.nn.layers import ReLU
from repro.nn.models import MLP, TransformerLM
from repro.nn.module import Parameter


def _paired_clusters(**kwargs):
    """Two identically seeded clusters: one batched, one on the per-worker nn loop."""
    fused = make_small_cluster(**kwargs)
    loop = make_small_cluster(**kwargs)
    assert fused.replica_exec is not None
    loop.replica_exec = None
    return fused, loop


class ResidualMLP(MLP):
    def forward(self, x):
        return super().forward(x) + 0.0  # overridden forward


def _adopted(model):
    """A one-row matrix over a hand-built model, and its one replica."""
    model.flatten_parameters()
    matrix = WorkerMatrix(1, model.flat_spec)
    matrix.adopt(0, model)
    return matrix, [model]


#: Model -> whether the executor's table batches it.
EXECUTOR_CASES = {
    "deep_mlp": True,
    "transformer": True,
    "resnet101": False,
    "vgg11": True,
    "alexnet": True,
    "mlp_subclass": False,
    "private_rng_dropout": True,
    # The two checks on a chain the table did build.
    "parameter_outside_the_chain": False,
    "activation_head": False,
}


def _executor_case(name):
    rng = np.random.default_rng(0)
    if name == "mlp_subclass":
        return _adopted(ResidualMLP((16, 8, 4), rng=rng))
    if name == "parameter_outside_the_chain":
        model = MLP((16, 8, 4), rng=rng)
        model.temperature = Parameter(np.ones(1))
        return _adopted(model)
    if name == "activation_head":
        model = MLP((16, 8, 4), rng=rng)
        model.net.append(ReLU())
        return _adopted(model)
    if name == "private_rng_dropout":
        return _adopted(TransformerLM(
            vocab_size=20, d_model=16, num_heads=2, num_layers=1, dim_feedforward=24,
            dropout=0.2, rng=rng,
        ))
    cluster = build_cluster(build_workload(name), num_workers=2, seed=0)
    cluster.close()
    assert (cluster.replica_exec is not None) == EXECUTOR_CASES[name]
    return cluster.matrix, [w.model for w in cluster.workers]


@pytest.mark.parametrize("name", sorted(EXECUTOR_CASES))
def test_which_models_get_an_executor(name):
    matrix, replicas = _executor_case(name)
    active = np.ones(matrix.num_workers, dtype=bool)
    built = BatchedReplicaExecutor.build(matrix, replicas, active)
    assert (built is not None) == EXECUTOR_CASES[name]


#: Ways a step's batch block can miss the chain -> the error it raises.
BAD_BATCHES = {
    "count": "expected an",
    "rank": "expected an",
    "float_targets": "cannot batch",
    "target_shape": "cannot batch",
    "target_rows": "cannot batch",
}


def _bad(kind, batches):
    x, y = batches
    if kind == "count":
        return x[1:], y[1:]
    if kind == "rank":
        return x[..., None], y
    if kind == "float_targets":
        return x, y.astype(np.float64)
    if kind == "target_shape":
        return x, y[:, :-1]
    return x, y[1:]


class TestBatchedExecutorEquivalence:
    def test_gradients_match_per_worker_loop(self):
        fused, loop = _paired_clusters()
        losses_fused = fused.compute_gradients_all(fused.next_batches())
        losses_loop = loop.compute_gradients_all(loop.next_batches())
        np.testing.assert_allclose(losses_fused, losses_loop, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(fused.matrix.grads, loop.matrix.grads, atol=1e-12)

    def test_worker_stats_populated(self):
        fused, _ = _paired_clusters()
        losses = fused.compute_gradients_all(fused.next_batches())
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

    def test_optimizer_survives_adoption_after_construction(self):
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
        losses = cluster.compute_gradients_all(cluster.next_batches())
        assert len(losses) == cluster.num_workers

    @pytest.mark.parametrize("kind,match", sorted(BAD_BATCHES.items()))
    def test_a_batch_the_chain_cannot_take_raises(self, kind, match):
        fused, _ = _paired_clusters()
        batches = fused.next_batches()
        with pytest.raises(ValueError, match=match):
            fused.replica_exec.step(_bad(kind, batches))
        _assert_holds_no_activation(fused.replica_exec, fused.matrix)
        assert fused.replica_exec.step(batches).shape == (fused.num_workers,)


class TestFusedSGDEquivalence:
    """The cluster's fused update against one standalone ``SGD`` per worker."""

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_local_updates_match_per_module_sgd(self, shared):
        from repro.optim.sgd import SGD

        fused, loop = _paired_clusters(momentum=0.9, lr=0.05)
        oracles = [SGD(w.model, lr=0.05, momentum=0.9) for w in loop.workers]
        for _ in range(3):
            grads = []
            for cluster in (fused, loop):
                cluster.compute_gradients_all(cluster.next_batches())
                grads.append(cluster.matrix.grads.mean(axis=0) if shared else None)
            fused.apply_local_updates(grads=grads[0])
            for optimizer in oracles:
                optimizer.step(grads[1])
        np.testing.assert_array_equal(fused.matrix.params, loop.matrix.params)
        np.testing.assert_array_equal(
            fused.fused_update.velocity, np.stack([o._velocity_vector for o in oracles])
        )

    def test_a_step_runs_at_the_constant_lr_times_its_factor(self):
        cluster = make_small_cluster(lr=0.1)
        update = cluster.fused_update
        grads = np.ones(cluster.matrix.spec.total_size)
        before = cluster.matrix.params.copy()
        update.apply(2.5, grads=grads)
        np.testing.assert_array_equal(cluster.matrix.params, before - (0.1 * 2.5) * grads)
        assert update.lr == 0.1
