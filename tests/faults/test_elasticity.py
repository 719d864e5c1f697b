"""Elastic worker masking: crashed rows vanish from compute and aggregation."""

from __future__ import annotations

import numpy as np
import pytest

pytestmark = pytest.mark.faults


class TestActiveSet:
    def test_deactivate_and_reactivate_roundtrip(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=4)
        cluster.deactivate_worker(2)
        assert cluster.num_active == 3
        assert list(cluster.active_indices) == [0, 1, 3]
        cluster.reactivate_worker(2)
        assert cluster.active_mask.all()

    def test_double_deactivate_and_double_reactivate_rejected(
        self, small_cluster_builder
    ):
        cluster = small_cluster_builder(num_workers=3)
        cluster.deactivate_worker(1)
        with pytest.raises(ValueError, match="already inactive"):
            cluster.deactivate_worker(1)
        cluster.reactivate_worker(1)
        with pytest.raises(ValueError, match="already active"):
            cluster.reactivate_worker(1)

    def test_last_active_worker_protected(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        cluster.deactivate_worker(0)
        with pytest.raises(ValueError, match="last active worker"):
            cluster.deactivate_worker(1)

    def test_out_of_range_worker_rejected(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        with pytest.raises(ValueError, match="worker_id"):
            cluster.deactivate_worker(5)

    def test_primary_worker_skips_crashed_worker_zero(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3)
        assert cluster.primary_worker.worker_id == 0
        cluster.deactivate_worker(0)
        assert cluster.primary_worker.worker_id == 1


def _with_placeholder(batches, crashed):
    """``batches`` as the cluster hands them over with worker ``crashed`` down:
    its row holds the first live row's data."""
    x, y = (block.copy() for block in batches)
    first = 1 if crashed == 0 else 0
    x[crashed], y[crashed] = x[first], y[first]
    return x, y


class TestMaskedBatchesAndCompute:
    def test_a_crashed_row_holds_the_first_live_rows_data(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3)
        cluster.deactivate_worker(0)
        x, y = cluster.next_batches()
        assert x.shape[0] == y.shape[0] == 3
        np.testing.assert_array_equal(x[0], x[1])
        np.testing.assert_array_equal(y[0], y[1])
        assert not np.array_equal(x[1], x[2])

    def test_crashed_loader_does_not_advance(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        reference = small_cluster_builder(num_workers=2)
        cluster.deactivate_worker(1)
        cluster.next_batches()
        cluster.reactivate_worker(1)
        # The crashed worker's stream resumes exactly where it stopped: its
        # first post-rejoin batch is the reference worker's *first* batch.
        resumed, expected = cluster.next_batches(), reference.next_batches()
        np.testing.assert_array_equal(resumed[0][1], expected[0][1])
        np.testing.assert_array_equal(resumed[1][1], expected[1][1])

    def test_a_crashed_row_keeps_its_loader_position_and_a_zero_gradient(
        self, small_cluster_builder
    ):
        cluster = small_cluster_builder(num_workers=3, seed=2)
        cluster.compute_gradients_all(cluster.next_batches())
        loader = cluster.workers[2].loader
        position = (loader._cursor, loader._epoch, loader.indices.copy())
        cluster.deactivate_worker(2)
        for _ in range(3):
            cluster.compute_gradients_all(cluster.next_batches())
            assert not cluster.matrix.grads[2].any()
        assert (loader._cursor, loader._epoch) == position[:2]
        np.testing.assert_array_equal(loader.indices, position[2])

    def test_masked_compute_matches_unmasked_active_rows(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=4, seed=3)
        reference = small_cluster_builder(num_workers=4, seed=3)
        ref_batches = reference.next_batches()
        ref_losses = reference.compute_gradients_all(ref_batches)

        cluster.deactivate_worker(1)
        losses = cluster.compute_gradients_all(_with_placeholder(ref_batches, 1))

        # Only active losses come back, bit-equal to the unmasked run's rows.
        assert losses == [ref_losses[0], ref_losses[2], ref_losses[3]]
        for row in (0, 2, 3):
            np.testing.assert_array_equal(
                cluster.matrix.grads[row], reference.matrix.grads[row]
            )
        assert not cluster.matrix.grads[1].any()

    def test_masked_update_freezes_crashed_rows(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3, seed=1)
        cluster.deactivate_worker(2)
        frozen = cluster.matrix.params[2].copy()
        batches = cluster.next_batches()
        cluster.compute_gradients_all(batches)
        cluster.apply_local_updates()
        np.testing.assert_array_equal(cluster.matrix.params[2], frozen)
        assert not np.array_equal(
            cluster.matrix.params[0], frozen
        )  # live rows did step

    def test_masked_aggregation_ignores_crashed_rows(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3)
        cluster.matrix.params[0] = 1.0
        cluster.matrix.params[1] = 5.0
        cluster.matrix.params[2] = 3.0
        cluster.deactivate_worker(1)
        mean_state = cluster.average_worker_states()
        flat = np.concatenate([v.ravel() for v in mean_state.values()])
        np.testing.assert_allclose(flat, 2.0)

    def test_broadcast_skips_crashed_rows(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3)
        cluster.deactivate_worker(1)
        stale = cluster.matrix.params[1].copy()
        cluster.broadcast_state(
            np.full(cluster.matrix.spec.total_size, 9.0)
        )
        np.testing.assert_array_equal(cluster.matrix.params[1], stale)
        np.testing.assert_allclose(cluster.matrix.params[0], 9.0)
        np.testing.assert_allclose(cluster.matrix.params[2], 9.0)


def _tanh_cluster(num_workers=4, seed=3):
    from tests.engine.test_replica_shards import make_tanh_cluster

    return make_tanh_cluster(num_workers=num_workers, seed=seed)


def _dropout_lm_cluster(num_workers=4, seed=3):
    # Active dropout on the batched path: row r's masks come from replica r's
    # own generators, which a crashed row leaves untouched.
    from repro.cluster.cluster import ClusterConfig, SimulatedCluster
    from repro.data.datasets import make_sequence_splits
    from repro.data.partition import SelSyncPartitioner
    from repro.nn.models import TransformerLM
    from repro.optim.sgd import SGD

    train, test = make_sequence_splits(2048, 256, 32, bptt=8, seed=seed)
    return SimulatedCluster(
        model_factory=lambda rng: TransformerLM(
            vocab_size=32, d_model=16, num_heads=2, num_layers=1,
            dim_feedforward=32, dropout=0.2, rng=rng,
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.1),
        train_dataset=train,
        test_dataset=test,
        config=ClusterConfig(num_workers=num_workers, batch_size=4, seed=seed,
                             task="language_modeling", workload="transformer"),
        partitioner=SelSyncPartitioner(seed=seed),
    )


FAMILIES = ["tanh_mlp", "mlp", "transformer-dropout"]


@pytest.fixture
def family_cluster(small_cluster_builder):
    """``family_cluster(name)``: a fresh 4-worker cluster of a batched family."""
    builders = {
        "mlp": lambda: small_cluster_builder(num_workers=4, seed=3),
        "tanh_mlp": _tanh_cluster,
        "transformer-dropout": _dropout_lm_cluster,
    }
    return lambda family: builders[family]()


class TestMaskedBatchedFamilies:
    # The MLP case is TestMaskedBatchesAndCompute's.
    @pytest.mark.parametrize("family", ["tanh_mlp", "transformer-dropout"])
    def test_masked_step_matches_the_unmasked_active_rows(self, family_cluster, family):
        cluster, reference = family_cluster(family), family_cluster(family)
        assert cluster.replica_exec is not None
        ref_batches = reference.next_batches()
        ref_losses = reference.compute_gradients_all(ref_batches)
        cluster.deactivate_worker(2)
        losses = cluster.compute_gradients_all(_with_placeholder(ref_batches, 2))
        assert losses == [ref_losses[0], ref_losses[1], ref_losses[3]]
        for row in (0, 1, 3):
            np.testing.assert_array_equal(cluster.matrix.grads[row], reference.matrix.grads[row])
        assert not cluster.matrix.grads[2].any()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_reactivating_restores_the_full_step(self, family_cluster, family):
        cluster = family_cluster(family)
        cluster.deactivate_worker(1)
        cluster.compute_gradients_all(cluster.next_batches())
        assert not cluster.matrix.grads[1].any()
        cluster.reactivate_worker(1)
        losses = cluster.compute_gradients_all(cluster.next_batches())
        assert len(losses) == 4 and all(loss > 0.0 for loss in losses)
        assert all(cluster.matrix.grads[row].any() for row in range(4))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_placeholder_row_leaves_the_crashed_worker_untouched(self, family_cluster, family):
        # A crashed slot computes against a stand-in batch to keep the fused
        # shapes; none of that may show up on the crashed worker.
        cluster = family_cluster(family)
        crashed = cluster.workers[3]
        crashed.last_loss = -1.0
        cluster.deactivate_worker(3)
        cluster.compute_gradients_all(cluster.next_batches())
        assert crashed.last_loss == -1.0
        assert all(cluster.workers[i].last_loss > 0.0 for i in range(3))


class TestFaultClockCharging:
    def test_crashed_workers_charge_no_compute_time(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=3)
        cluster.deactivate_worker(1)
        durations = cluster.charge_compute_step()
        assert durations[1] == 0.0
        assert durations[0] > 0.0 and durations[2] > 0.0
        assert cluster.clock.worker_elapsed(1) == 0.0

    def test_fault_speed_scale_slows_compute(self, small_cluster_builder):
        cluster = small_cluster_builder(num_workers=2)
        baseline = cluster.charge_compute_step()
        cluster.fault_speed_scale[1] = 1.0 / 3.0
        slowed = cluster.charge_compute_step()
        assert slowed[0] == pytest.approx(baseline[0])
        assert slowed[1] == pytest.approx(3.0 * baseline[1])
