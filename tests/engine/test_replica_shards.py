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

import numpy as np
import pytest

from repro.core.config import SelSyncConfig
from repro.core.selsync import SelSyncTrainer
from repro.engine import replica_exec as rx
from repro.engine import threads
from repro.harness.experiment import build_cluster, build_workload
from tests.parallel.test_pool_trainers import make_conv_cluster, make_lm_cluster

STEPS = 3


@pytest.fixture
def pinned_blas():
    """Sharding needs the BLAS at one thread; skip where none can be pinned."""
    if threads.pin_blas() is None:
        pytest.skip("no OpenBLAS this process can pin to one thread")


def _deep_mlp_cluster(num_workers, dtype):
    return build_cluster(build_workload("deep_mlp"), num_workers=num_workers, seed=3, dtype=dtype)


FAMILIES = {
    # Shared-stream dropout: the masks of a shard are rows [lo, hi) of the
    # cluster-wide block, so a wrong row offset shows up here.
    "transformer": lambda n, dtype: make_lm_cluster(num_workers=n, dropout=0.1, dtype=dtype),
    "deep_mlp": _deep_mlp_cluster,
    "convnet": lambda n, dtype: make_conv_cluster(num_workers=n, dtype=dtype),
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
            assert second[2].drop1.row_offset == 3
        finally:
            cluster.close()


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

    def test_donated_rows_keep_one_shard(self, monkeypatch):
        # A stacked-sweep slab, a pool child's group and a shard's own
        # sub-matrix are units of a wider plan already.
        monkeypatch.setattr(threads, "usable_cores", lambda: 2)
        self_owned = _deep_mlp_cluster(4, "float64")
        try:
            matrix = self_owned.matrix
            donated = rx.WorkerMatrix(4, matrix.spec, params=matrix.params, grads=matrix.grads)
            exe = rx.BatchedReplicaExecutor.build(donated, self_owned.workers[0].model)
            assert exe._shard_source is None
            assert exe._shard_count(np.zeros((4, 64, 32))) == 1
        finally:
            self_owned.close()


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


@pytest.mark.pool
# Python >= 3.12 warns on any fork of a multi-threaded process; forking one is
# the point here.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestForkAfterShards:
    def test_fork_pool_cluster_steps_after_the_parent_sharded(self, cores):
        cores(2)
        parent = make_lm_cluster(num_workers=4, dropout=0.1)
        try:
            assert parent.replica_exec.step(parent.next_batches()) is not None
            assert threads._pool is not None      # the parent now has a shard thread
        finally:
            parent.close()
        reference = _trajectory(make_lm_cluster(num_workers=4, dropout=0.1))
        # Children fork from a process with a live shard thread and a pinned
        # BLAS; their group executors keep one shard and must not wait on a
        # pool whose threads stayed behind in the parent.
        pooled = make_lm_cluster(
            num_workers=4, dropout=0.1, pool_workers=2, pool_start_method="fork"
        )
        pooled.pool.step_timeout = 60.0
        _assert_same(reference, _trajectory(pooled))

    def test_a_forked_child_starts_without_the_parents_threads(self, cores):
        cores(2)
        cluster = make_lm_cluster(num_workers=4, dropout=0.0)
        try:
            assert cluster.replica_exec.step(cluster.next_batches()) is not None
        finally:
            cluster.close()
        assert threads._pool is not None and threads._blas_before is not threads._UNKNOWN
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:   # child: report and leave without running pytest's teardown
            fresh = threads._pool is None and threads._blas_before is threads._UNKNOWN
            os.write(write_end, b"1" if fresh else b"0")
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
