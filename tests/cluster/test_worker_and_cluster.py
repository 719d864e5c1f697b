"""Tests for the Worker abstraction and the SimulatedCluster wiring."""

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.worker import Worker
from repro.data.datasets import make_classification_dataset
from repro.data.loader import DataLoader
from repro.data.partition import DefaultPartitioner, SelSyncPartitioner
from repro.nn.models import MLP
from repro.optim.sgd import SGD


@pytest.fixture
def dataset():
    return make_classification_dataset(256, 4, 16, class_sep=4.0, seed=0)


@pytest.fixture
def test_dataset():
    return make_classification_dataset(128, 4, 16, class_sep=4.0, seed=1)


def _make_worker(dataset, worker_id=0, batch_size=16, seed=0):
    model = MLP((16, 24, 4), rng=np.random.default_rng(seed))
    loader = DataLoader(dataset, batch_size=batch_size, seed=seed)
    return Worker(worker_id, model, loader)


def _own_batch(worker, dataset):
    """The worker's next mini-batch, gathered from its loader's index row."""
    return dataset[worker.loader.next_indices()]


def _make_cluster(dataset, test_dataset, num_workers=4, partitioner=None, **config_kwargs):
    config = ClusterConfig(num_workers=num_workers, batch_size=16, seed=0, **config_kwargs)
    return SimulatedCluster(
        model_factory=lambda rng: MLP((16, 24, 4), rng=rng),
        optimizer_factory=lambda m: SGD(m, lr=0.1),
        train_dataset=dataset,
        test_dataset=test_dataset,
        config=config,
        partitioner=partitioner,
    )


def _local_step(cluster):
    """Every worker computes its gradients and applies its own update."""
    cluster.compute_gradients_all(cluster.next_batches())
    cluster.apply_local_updates()


class TestWorker:
    def test_compute_gradients_returns_loss_and_grads(self, dataset):
        worker = _make_worker(dataset)
        loss, _ = worker.compute_gradients_flat(_own_batch(worker, dataset))
        grads = worker.model.gradient_dict()
        assert np.isfinite(loss)
        assert set(grads) == set(worker.model.named_parameters())

    def test_gradients_left_on_module(self, dataset):
        worker = _make_worker(dataset)
        worker.compute_gradients_flat(_own_batch(worker, dataset))
        assert any(np.abs(p.grad).sum() > 0 for p in worker.model.parameters())

    def test_gradients_train_a_standalone_sgd(self, dataset):
        worker = _make_worker(dataset)
        optimizer = SGD(worker.model, lr=0.1)
        first, _ = worker.compute_gradients_flat(_own_batch(worker, dataset))
        for _ in range(40):
            last, _ = worker.compute_gradients_flat(_own_batch(worker, dataset))
            optimizer.step()
        assert last < first

    def test_invalid_args(self, dataset):
        with pytest.raises(ValueError):
            _make_worker(dataset, worker_id=-1)
        with pytest.raises(ValueError, match="unknown task 'segmentation'"):
            ClusterConfig(num_workers=1, batch_size=8, task="segmentation")


class TestClusterConstruction:
    def test_one_optimizer_is_built_for_the_whole_cluster(self, dataset, test_dataset):
        built = []

        def factory(module):
            built.append(module)
            return SGD(module, lr=0.3, momentum=0.5)

        cluster = SimulatedCluster(
            model_factory=lambda rng: MLP((16, 24, 4), rng=rng),
            optimizer_factory=factory,
            train_dataset=dataset,
            test_dataset=test_dataset,
            config=ClusterConfig(num_workers=3, batch_size=16, seed=0),
        )
        assert len(built) == 1
        assert all(w.model is not built[0] for w in cluster.workers)
        update = cluster.fused_update
        assert (update.lr, update.momentum) == (0.3, 0.5)
        assert update.velocity.shape == cluster.matrix.params.shape

    def test_all_replicas_start_identical(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        reference = cluster.workers[0].get_state()
        for worker in cluster.workers[1:]:
            for name, value in worker.get_state().items():
                np.testing.assert_array_equal(value, reference[name])

    def test_ps_matches_initial_replicas(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        ps_state = cluster.ps.pull()
        for name, value in cluster.workers[0].get_state().items():
            np.testing.assert_array_equal(value, ps_state[name])

    def test_partition_respected(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset, partitioner=DefaultPartitioner(seed=0))
        sizes = [w.loader.indices.size for w in cluster.workers]
        assert sum(sizes) == len(dataset)

    def test_seldp_gives_every_worker_full_dataset(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset, partitioner=SelSyncPartitioner(seed=0))
        for worker in cluster.workers:
            assert worker.loader.indices.size == len(dataset)

    def test_workers_draw_different_batches(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        _, targets = cluster.next_batches()
        assert any(not np.array_equal(targets[0], row) for row in targets[1:])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ValueError):
            ClusterConfig(batch_size=0)
        with pytest.raises(ValueError):
            ClusterConfig(task="regression")
        with pytest.raises(ValueError):
            ClusterConfig(workload="bert")

    @pytest.mark.parametrize("knob, value", [("pool_workers", 2), ("pool_start_method", "fork")])
    def test_removed_pool_knobs_are_type_errors(self, knob, value):
        # The process pool is gone; a config naming it must not build an
        # in-process cluster as if the knob had been honoured.
        with pytest.raises(TypeError, match=knob):
            ClusterConfig(**{knob: value})


class TestClusterTimeCharging:
    def test_compute_step_advances_clock(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        before = cluster.clock.elapsed
        cluster.charge_compute_step()
        assert cluster.clock.elapsed > before

    def test_sync_more_expensive_than_flags(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        sync_cost = cluster.charge_sync()
        flags_cost = cluster.charge_flags_allgather()
        assert sync_cost > flags_cost * 10

    def test_p2p_charge(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        assert cluster.charge_p2p(1e6) > 0


class TestClusterEvaluation:
    def test_evaluate_state_restores_replica(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        before = cluster.workers[0].get_state()
        random_state = {k: np.random.default_rng(1).standard_normal(v.shape)
                        for k, v in before.items()}
        cluster.evaluate_state(random_state)
        after = cluster.workers[0].get_state()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_evaluate_returns_accuracy_in_range(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        result = cluster.evaluate_state(cluster.ps.pull())
        assert 0.0 <= result.metric <= 1.0
        assert result.metric_name == "accuracy"

    def test_average_worker_states(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        _local_step(cluster)
        avg = cluster.average_worker_states()
        name = next(iter(avg))
        manual = np.mean([w.get_state()[name] for w in cluster.workers], axis=0)
        np.testing.assert_allclose(avg[name], manual)

    def test_replica_divergence_zero_when_identical(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        assert cluster.replica_divergence() == pytest.approx(0.0, abs=1e-12)

    def test_replica_divergence_positive_after_local_steps(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        _local_step(cluster)
        assert cluster.replica_divergence() > 0.0

    def test_broadcast_state_makes_replicas_identical(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset)
        _local_step(cluster)
        cluster.broadcast_state(cluster.average_worker_states())
        assert cluster.replica_divergence() == pytest.approx(0.0, abs=1e-12)


class TestTransportDtypeWiring:
    def test_transport_dtype_reaches_cost_model_and_backend(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset, transport_dtype="float16")
        assert cluster.comm_model.wire_scale == 0.5
        assert cluster.backend.dtype_bytes == 2

    def test_float16_transport_halves_sync_payload_time(self, dataset, test_dataset):
        fp32 = _make_cluster(dataset, test_dataset)
        fp16 = _make_cluster(dataset, test_dataset, transport_dtype="float16")
        s32 = fp32.charge_sync()
        s16 = fp16.charge_sync()
        # Half the payload bytes on the wire; latency terms are unchanged,
        # so the saving is strictly between 0 and 2x.
        assert s16 < s32
        expected = fp32.comm_model.sync_seconds(
            fp32.workload_spec.model_bytes * 0.5, fp32.num_workers
        )
        assert s16 == pytest.approx(expected)

    def test_compute_dtype_unchanged_by_transport(self, dataset, test_dataset):
        cluster = _make_cluster(dataset, test_dataset, transport_dtype="float16")
        assert cluster.matrix.params.dtype == np.float64
        losses = cluster.compute_gradients_all(cluster.next_batches())
        assert all(np.isfinite(losses))

    def test_invalid_transport_dtype_rejected(self):
        with pytest.raises(TypeError):
            ClusterConfig(num_workers=2, transport_dtype="float8")

    def test_ps_bytes_follow_transport_dtype(self, dataset, test_dataset):
        # communication_bytes sums backend records and PS push/pull bytes;
        # both must price the same wire format.
        fp32 = _make_cluster(dataset, test_dataset)
        fp16 = _make_cluster(dataset, test_dataset, transport_dtype="float16")
        assert fp16.ps.state_bytes() == fp32.ps.state_bytes() // 2
