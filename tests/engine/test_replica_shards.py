"""Row shards of the batched executor (ARCHITECTURE.md, "Replica shards").

The shard count is computed, never set, so the tests steer what it is computed
*from*: ``threads.usable_cores`` and the ``MIN_SHARD_ELEMENTS`` size rule.
Every trajectory must be exactly the one-shard trajectory, in both dtypes.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.data.datasets import make_classification_splits, make_sequence_splits
from repro.data.partition import SelSyncPartitioner
from repro.engine import replica_exec as rx
from repro.engine import threads
from repro.harness.experiment import build_cluster, build_workload, make_trainer
from repro.nn.models import MLP, TransformerLM
from repro.optim.sgd import SGD

STEPS = 3


def make_tanh_cluster(num_workers=4, seed=0, **config_kwargs):
    """An MLP on Tanh activations: the MLP family's other activation kernel."""
    train, test = make_classification_splits(256, 64, 4, 12, seed=seed)
    return SimulatedCluster(
        model_factory=lambda rng: MLP([12, 16, 16, 4], activation="tanh", rng=rng),
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9),
        train_dataset=train,
        test_dataset=test,
        config=ClusterConfig(num_workers=num_workers, batch_size=8, seed=seed, **config_kwargs),
        partitioner=SelSyncPartitioner(seed=seed),
    )


def make_lm_cluster(num_workers=4, seed=0, dropout=0.3, **config_kwargs):
    train, test = make_sequence_splits(4096, 512, 32, bptt=8, seed=seed)
    config = ClusterConfig(
        num_workers=num_workers, batch_size=4, seed=seed, task="language_modeling",
        workload="transformer", **config_kwargs,
    )
    return SimulatedCluster(
        model_factory=lambda rng: TransformerLM(
            vocab_size=32, d_model=16, num_heads=2, num_layers=2,
            dim_feedforward=32, dropout=dropout, rng=rng,
        ),
        optimizer_factory=lambda m: SGD(m, lr=0.1),
        train_dataset=train,
        test_dataset=test,
        config=config,
        partitioner=SelSyncPartitioner(seed=seed),
    )


@pytest.fixture
def pinned_blas():
    """Sharding needs the BLAS at one thread; skip where none can be pinned."""
    if threads.pin_blas() is None:
        pytest.skip("no OpenBLAS this process can pin to one thread")


def _deep_mlp_cluster(num_workers, dtype):
    return build_cluster(build_workload("deep_mlp"), num_workers=num_workers, seed=3, dtype=dtype)


FAMILIES = {
    # Active dropout: a shard draws rows [lo, hi)'s masks from those replicas'
    # generators, so a shard holding the wrong rows' generators shows up here.
    "transformer": lambda n, dtype: make_lm_cluster(num_workers=n, dropout=0.1, dtype=dtype),
    "alexnet": lambda n, dtype: build_cluster(
        build_workload("alexnet"), num_workers=n, seed=3, dtype=dtype
    ),
    "deep_mlp": _deep_mlp_cluster,
    "tanh_mlp": lambda n, dtype: make_tanh_cluster(num_workers=n, dtype=dtype),
}


@pytest.fixture
def cores(monkeypatch, pinned_blas):
    """Set what ``usable_cores()`` reports; the size rule lets any step shard."""
    monkeypatch.setattr(rx, "MIN_SHARD_ELEMENTS", 1)

    def set_cores(count):
        monkeypatch.setattr(threads, "usable_cores", lambda: count)

    return set_cores


def _trajectory(cluster, crash=None):
    """(losses, params, grads, shard counts used) after STEPS SelSync steps."""
    try:
        if crash is not None:
            cluster.deactivate_worker(crash)
        trainer = SelSyncTrainer(cluster, SelSyncConfig(delta=0.05), eval_every=10_000)
        losses = []
        for _ in range(STEPS):
            losses.append(trainer.train_step()["loss"])
            trainer.global_step += 1
            cluster.global_step = trainer.global_step
        return (
            np.asarray(losses),
            cluster.matrix.params.copy(),
            cluster.matrix.grads.copy(),
            sorted(cluster.replica_exec._chains),
        )
    finally:
        cluster.close()


def _assert_same(one, other):
    for a, b in zip(one[:3], other[:3]):
        np.testing.assert_array_equal(a, b)


class TestShardCountNeverChangesTheBits:
    @pytest.mark.parametrize("num_workers", [1, 2, 5, 8])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_trajectory_equal_for_one_two_three_shards(self, cores, family, dtype, num_workers):
        cores(1)
        reference = _trajectory(FAMILIES[family](num_workers, dtype))
        assert reference[3] == [1]
        for count in (2, 3):
            cores(count)
            sharded = _trajectory(FAMILIES[family](num_workers, dtype))
            # Uneven splits included: 5 rows run as 3+2 and as 2+2+1.
            assert sharded[3] == sorted({1, min(count, num_workers)})
            _assert_same(reference, sharded)

    @pytest.mark.parametrize("family", ["transformer", "deep_mlp"])
    def test_equal_under_an_elastic_mask(self, cores, family):
        cores(1)
        reference = _trajectory(FAMILIES[family](5, "float64"), crash=3)
        cores(3)
        sharded = _trajectory(FAMILIES[family](5, "float64"), crash=3)
        assert sharded[3] == [1, 3]
        _assert_same(reference, sharded)
        assert not sharded[2][3].any()   # the crashed row's gradients stay zeroed

    def test_shard_chains_are_views_of_the_one_matrix(self, cores):
        cores(2)
        cluster = make_lm_cluster(num_workers=5, dropout=0.1)
        try:
            exe = cluster.replica_exec
            assert exe.step(cluster.next_batches()) is not None
            (lo0, hi0, first), (lo1, hi1, second) = exe._chains[2]
            assert (lo0, hi0, lo1, hi1) == (0, 3, 3, 5)
            head = second[-1]
            assert head.weight.shape[0] == 2
            assert np.shares_memory(head.weight, cluster.matrix.params[3:5])
            assert np.shares_memory(head.weight_grad, cluster.matrix.grads[3:5])
            # The second shard's dropout draws from replicas 3 and 4 alone.
            drop1 = second[2].drop1
            assert drop1.rngs == [w.model._layers[0].drop1._rng for w in cluster.workers[3:5]]
            assert np.shares_memory(drop1.live, cluster.active_mask[3:5])
        finally:
            cluster.close()


#: Every trainer whose step goes through the batched executor.
BATCHED_TRAINERS = {
    "bsp": {},
    "selsync": {"delta": 0.05},
    "local_sgd": {"sync_period": 2},
    "fedavg": {"participation": 0.5},
    "compressed_bsp": {},
}


class TestShardsUnderEveryTrainer:
    def _run(self, algorithm, dtype):
        from repro.compression import TopKCompressor

        kwargs = dict(BATCHED_TRAINERS[algorithm])
        if algorithm == "compressed_bsp":
            kwargs["compressor"] = TopKCompressor(ratio=0.1)
        preset = build_workload("deep_mlp")
        cluster = build_cluster(preset, num_workers=5, seed=3, dtype=dtype)
        try:
            trainer = make_trainer(algorithm, cluster, preset, total_iterations=6,
                                   eval_every=3, **kwargs)
            result = trainer.run(6)
            return result, cluster.matrix.params.copy(), sorted(cluster.replica_exec._chains)
        finally:
            cluster.close()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("algorithm", sorted(BATCHED_TRAINERS))
    def test_run_equal_for_one_and_two_shards(self, cores, algorithm, dtype):
        # Sync decisions, evaluations and the simulated clock all come out of
        # the gradients, so the whole result must match, not only the params.
        cores(1)
        reference = self._run(algorithm, dtype)
        cores(2)
        sharded = self._run(algorithm, dtype)
        assert reference[2] == [1] and sharded[2] == [1, 2]
        assert sharded[0] == reference[0]
        np.testing.assert_array_equal(sharded[1], reference[1])


class TestShardsUnderTracing:
    @pytest.mark.parametrize("count", [1, 2])
    def test_one_forward_and_one_backward_span_per_step(self, cores, count):
        from repro import telemetry

        cores(count)
        cluster = make_lm_cluster(num_workers=4, dropout=0.0)
        telemetry.configure(tracing=True)
        try:
            for _ in range(2):
                assert cluster.replica_exec.step(cluster.next_batches()) is not None
            spans = [s for s in telemetry.get_tracer().drain() if s["name"].startswith("engine.")]
        finally:
            telemetry.reset()
            cluster.close()
        assert [s["name"] for s in spans] == ["engine.forward", "engine.backward"] * 2
        # The shard threads open no spans of their own.
        assert {s["thread"] for s in spans} == {threading.current_thread().name}


class TestTheSizeRule:
    def _no_pool(self, monkeypatch):
        def boom():
            raise AssertionError("a below-threshold step reached the shard pool")

        monkeypatch.setattr(threads, "_shard_pool", boom)

    def test_small_step_submits_nothing_and_builds_no_chains(self, monkeypatch):
        # deep_mlp N=16 at its preset batch of 4: 16 x 4 x 48 = 3 k elements.
        monkeypatch.setattr(threads, "usable_cores", lambda: 2)
        self._no_pool(monkeypatch)
        cluster = _deep_mlp_cluster(16, "float64")
        try:
            exe = cluster.replica_exec
            assert exe.step(cluster.next_batches()) is not None
            assert list(exe._chains) == [1]
        finally:
            cluster.close()

    def test_shards_never_outnumber_what_the_step_can_feed(self, monkeypatch, pinned_blas):
        # transformer preset N=8: 8 x 16 x 16 x 32 = 64 k elements feed two
        # shards of >= 24 k, however many cores there are.
        monkeypatch.setattr(threads, "usable_cores", lambda: 8)
        cluster = build_cluster(build_workload("transformer"), num_workers=8, seed=3)
        try:
            x = np.zeros((8, 16, 16), dtype=np.int64)
            assert cluster.replica_exec._shard_count(x) == 2
            assert cluster.replica_exec._shard_count(x[:, :4]) == 1
        finally:
            cluster.close()

    def test_one_shard_without_a_blas_to_pin(self, monkeypatch):
        monkeypatch.setattr(rx, "MIN_SHARD_ELEMENTS", 1)
        monkeypatch.setattr(threads, "usable_cores", lambda: 2)
        monkeypatch.setattr(threads, "pin_blas", lambda: None)
        self._no_pool(monkeypatch)
        cluster = _deep_mlp_cluster(4, "float64")
        try:
            assert cluster.replica_exec.step(cluster.next_batches()) is not None
        finally:
            cluster.close()


def test_one_usable_core_never_pins_blas_or_starts_the_pool():
    code = (
        "import json, os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.engine import threads\n"
        "from repro.harness.experiment import build_cluster, build_workload\n"
        "cluster = build_cluster(build_workload('transformer'), num_workers=8, seed=3)\n"
        "assert cluster.replica_exec.step(cluster.next_batches()) is not None\n"
        "print(json.dumps({'cores': threads.usable_cores(),\n"
        "    'chains': sorted(cluster.replica_exec._chains),\n"
        "    'pool': threads._pool is not None,\n"
        "    'blas_looked_at': threads._blas_before is not threads._UNKNOWN}))\n"
    )
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity masks on this platform")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=120
    )
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "cores": 1, "chains": [1], "pool": False, "blas_looked_at": False,
    }


# Python >= 3.12 warns on any fork of a multi-threaded process; forking one is
# the point here.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestForkAfterShards:
    def test_a_forked_child_starts_without_the_parents_threads(self, cores):
        cores(2)
        cluster = make_lm_cluster(num_workers=4, dropout=0.0)
        try:
            assert cluster.replica_exec.step(cluster.next_batches()) is not None
        finally:
            cluster.close()
        assert threads._pool is not None and threads._blas_before is not threads._UNKNOWN
        answer = threads.pin_blas()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:   # child: report and leave without running pytest's teardown
            # The pin is inherited: asking again touches no OpenBLAS, which
            # would start a spin-waiting worker after its at-fork shutdown.
            fresh = threads._pool is None and threads.pin_blas() == answer
            np.ones((64, 64)) @ np.ones((64, 64))
            with open("/proc/self/status", encoding="ascii") as status:
                alone = "Threads:\t1\n" in status.read()
            os.write(write_end, b"1" if fresh and alone else b"0")
            os._exit(0)
        os.close(write_end)
        try:
            assert os.read(read_end, 1) == b"1"
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)


class TestLogging:
    def test_first_sharded_dispatch_logs_one_line(self, cores, caplog):
        cores(2)
        cluster = make_lm_cluster(num_workers=4, dropout=0.0)
        # The package logger does not propagate to the root logger caplog
        # listens on, so listen on the module's logger itself.
        logger = logging.getLogger("repro.engine.replica_exec")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level("INFO", logger=logger.name):
                for _ in range(3):
                    assert cluster.replica_exec.step(cluster.next_batches()) is not None
        finally:
            logger.removeHandler(caplog.handler)
            cluster.close()
        lines = [r.getMessage() for r in caplog.records if "replica shards" in r.getMessage()]
        assert len(lines) == 1
        assert "4 rows in 2 shards" in lines[0] and "BLAS threads" in lines[0]
