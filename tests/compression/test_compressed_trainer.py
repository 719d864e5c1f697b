"""Tests for BSP with gradient compression and error feedback."""

import pytest

from tests.conftest import make_small_cluster

from repro.algorithms.bsp import BSPTrainer
from repro.compression import SignSGDCompressor, TopKCompressor
from repro.compression.trainer import CompressedBSPTrainer


class TestCompressedBSP:
    def test_runs_and_reports_ratio(self):
        cluster = make_small_cluster()
        trainer = CompressedBSPTrainer(cluster, TopKCompressor(ratio=0.1), eval_every=100)
        result = trainer.run(10)
        assert result.extras["mean_compression_ratio"] > 1.0

    def test_replicas_stay_identical(self):
        cluster = make_small_cluster()
        trainer = CompressedBSPTrainer(cluster, SignSGDCompressor(), eval_every=100)
        trainer.run(6)
        assert cluster.replica_divergence() == pytest.approx(0.0, abs=1e-12)

    def test_crashed_worker_is_left_out_of_the_reduction(self):
        from repro.faults import FaultController, FaultSchedule, crash

        cluster = make_small_cluster(num_workers=3)
        trainer = CompressedBSPTrainer(cluster, TopKCompressor(ratio=0.1), eval_every=100)
        trainer.attach_fault_controller(FaultController(cluster, FaultSchedule([crash(1, 0)])))
        trainer.run(2)
        assert trainer._residuals[1] is None
        assert all(trainer._residuals[w] is not None for w in (0, 2))

    def test_cheaper_communication_than_plain_bsp(self):
        plain = make_small_cluster(seed=1)
        compressed = make_small_cluster(seed=1)
        BSPTrainer(plain, eval_every=100).run(10)
        CompressedBSPTrainer(compressed, TopKCompressor(ratio=0.01), eval_every=100).run(10)
        assert compressed.clock.elapsed < plain.clock.elapsed

    def test_compressed_sync_not_discounted_again_by_transport_dtype(self):
        # A compressor prices its own payload; a float16 transport dtype on
        # the same cluster must not halve the simulated sync time again.
        default_wire = make_small_cluster(seed=2)
        fp16_wire = make_small_cluster(seed=2, transport_dtype="float16")
        CompressedBSPTrainer(default_wire, TopKCompressor(ratio=0.1), eval_every=100).run(5)
        CompressedBSPTrainer(fp16_wire, TopKCompressor(ratio=0.1), eval_every=100).run(5)
        assert fp16_wire.clock.elapsed == pytest.approx(default_wire.clock.elapsed)

    def test_still_learns_with_error_feedback(self):
        cluster = make_small_cluster(train_samples=512)
        trainer = CompressedBSPTrainer(
            cluster, TopKCompressor(ratio=0.25), eval_every=20, error_feedback=True
        )
        result = trainer.run(80)
        assert result.final_metric > 0.5

    def test_error_feedback_residuals_stored(self):
        cluster = make_small_cluster()
        trainer = CompressedBSPTrainer(cluster, TopKCompressor(ratio=0.05), eval_every=100)
        trainer.run(3)
        assert all(res is not None for res in trainer._residuals)

    def test_no_error_feedback_keeps_residuals_empty(self):
        cluster = make_small_cluster()
        trainer = CompressedBSPTrainer(
            cluster, TopKCompressor(ratio=0.05), eval_every=100, error_feedback=False
        )
        trainer.run(3)
        assert all(res is None for res in trainer._residuals)

    def test_describe_includes_compressor_name(self):
        trainer = CompressedBSPTrainer(make_small_cluster(), SignSGDCompressor())
        assert trainer.describe() == "bsp+signsgd"

    def test_lssr_zero_like_bsp(self):
        cluster = make_small_cluster()
        result = CompressedBSPTrainer(cluster, SignSGDCompressor(), eval_every=100).run(5)
        assert result.lssr == 0.0
