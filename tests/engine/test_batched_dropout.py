"""Active dropout on the batched executor: row r draws from replica r's own generator.

The executor and the per-worker loop share one dropout discipline — every
mask comes from the private generator of the ``Dropout`` layer that applies
it — so both paths draw the same masks in the same order and agree bit for
bit, for any row-shard count and under crashed workers.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import replica_exec as rx
from repro.faults.checkpoint import _dropout_rngs
from repro.harness.experiment import build_cluster, build_workload
from repro.nn.models import TransformerLM

N = 4


def _preset(name):
    if name != "lm_dropout":
        return build_workload(name)
    return dataclasses.replace(
        build_workload("transformer"),
        model_factory=lambda rng: TransformerLM(
            vocab_size=200, d_model=16, num_heads=2, num_layers=2, dim_feedforward=24,
            dropout=0.2, rng=rng,
        ),
    )


def _cluster(name, batched=True, dtype="float64"):
    cluster = build_cluster(_preset(name), num_workers=N, seed=3, dtype=dtype)
    assert cluster.replica_exec is not None
    if not batched:
        cluster.replica_exec = None
    return cluster


def _rng_states(cluster, worker_id):
    return [rng.bit_generator.state for rng in _dropout_rngs(cluster.workers[worker_id].model)]


def _dropouts(chain):
    for layer in chain:
        if type(layer) is rx._BatchedDropout:
            yield layer
        elif type(layer) is rx._BatchedEncoderLayer:
            yield from (drop for drop in (layer.drop1, layer.drop2) if drop is not None)


def _run(cluster, steps=3, crash=None):
    """``steps`` gradient + local-update steps; ``crash = (worker, down, up)``
    takes a worker out before step ``down`` and back before step ``up``."""
    losses = []
    for step in range(steps):
        if crash is not None and step == crash[1]:
            cluster.deactivate_worker(crash[0])
        if crash is not None and step == crash[2]:
            cluster.reactivate_worker(crash[0])
        losses.append(cluster.compute_gradients_all(cluster.next_batches()))
        cluster.apply_local_updates()
    return losses


def _assert_same_run(a, b, losses_a, losses_b):
    assert losses_a == losses_b
    np.testing.assert_array_equal(a.matrix.grads, b.matrix.grads)
    np.testing.assert_array_equal(a.matrix.params, b.matrix.params)
    for worker_id in range(N):
        assert _rng_states(a, worker_id) == _rng_states(b, worker_id)


#: The transformer's float32 attention is not bit-equal across the paths even
#: without dropout (tests/engine/test_transformer_exec.py holds it to a
#: tolerance), so it is held to exactness at float64 only.
PARITY_CASES = [
    ("alexnet", "float64"),
    ("alexnet", "float32"),
    ("vgg11", "float64"),
    ("vgg11", "float32"),
    ("lm_dropout", "float64"),
]


@pytest.mark.parametrize("name,dtype", PARITY_CASES)
def test_batched_equals_per_worker_loop(name, dtype):
    batched, loop = _cluster(name, dtype=dtype), _cluster(name, batched=False, dtype=dtype)
    _assert_same_run(batched, loop, _run(batched), _run(loop))
    if name != "vgg11":   # the vgg11 preset has no dropout
        assert _rng_states(batched, 0) != _rng_states(_cluster(name), 0)


@pytest.mark.parametrize("name", ["alexnet", "lm_dropout"])
def test_shard_chains_give_the_same_bits(name, monkeypatch):
    one = _cluster(name)
    losses_one = _run(one)
    sharded = _cluster(name)
    monkeypatch.setattr(sharded.replica_exec, "_shard_count", lambda x: 3)
    losses_sharded = _run(sharded)
    assert sorted(sharded.replica_exec._chains) == [1, 3]
    _assert_same_run(one, sharded, losses_one, losses_sharded)
    # Each shard's dropout layers hold the generators of its own rows only.
    for lo, hi, chain in sharded.replica_exec._chains[3]:
        own = [rng for w in sharded.workers[lo:hi] for rng in _dropout_rngs(w.model)]
        drops = list(_dropouts(chain))
        assert drops
        for layer in drops:
            assert len(layer.rngs) == hi - lo and all(rng in own for rng in layer.rngs)


@pytest.mark.parametrize("name", ["alexnet", "lm_dropout"])
def test_a_crashed_row_draws_nothing_and_its_rejoin_replays(name):
    batched = _cluster(name)
    _run(batched, steps=1)
    frozen, live = _rng_states(batched, 2), _rng_states(batched, 1)
    batched.deactivate_worker(2)
    _run(batched, steps=2)
    assert _rng_states(batched, 2) == frozen
    assert _rng_states(batched, 1) != live

    # Crash at step 1, rejoin at step 3: both paths give the same bits.
    a, b = _cluster(name), _cluster(name, batched=False)
    _assert_same_run(a, b, _run(a, steps=5, crash=(2, 1, 3)), _run(b, steps=5, crash=(2, 1, 3)))
