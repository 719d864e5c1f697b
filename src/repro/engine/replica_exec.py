"""Vectorized multi-replica execution over the worker matrix.

Because every replica's parameters are rows of one ``(N, D)`` matrix with an
identical layout, the per-layer weights of *all* workers are zero-copy
``(N, ...)`` views into that matrix.  :class:`BatchedReplicaExecutor`
exploits this to run the forward pass, loss and backward pass of the entire
cluster as batched NumPy calls — one fused call per layer instead of one
Python call per layer *per worker* — writing gradients straight into the
gradient matrix rows.

One table decides what batches: it maps each exact ``repro.nn`` type —
``Sequential``, ``MLP``, ``VGGLike``, ``AlexNetLike``, ``Linear``, ``ReLU``,
``Tanh``, ``LayerNorm``, ``Dropout``, ``Embedding``, ``PositionalEncoding``,
``MultiHeadSelfAttention``, ``TransformerEncoderLayer``, ``TransformerLM`` —
to the ``_Batched*`` layers that run it, and one recursive walk over the
model builds the chain.  That covers the **feed-forward family** (MLP, VGG
and AlexNet analogs: Linear / ReLU / Tanh / Dropout stacks on a
classification head) and the **transformer family**
(:class:`~repro.nn.models.transformer.TransformerLM`: token batches flow as
``(N, batch, seq)`` integer blocks and every contraction runs once for all
replicas via ``(N, ...)`` GEMM calls over the weight views).

A model with a module outside the table (the ResNet analog, a subclass that
overrides ``forward``) gets no executor, and its cluster runs the per-worker
loop.  Active dropout draws row *r*'s mask from the private generator of the
matching ``Dropout`` in replica *r*, skipping the rows the cluster's live
mask marks as crashed, so every generator advances exactly as in the
per-worker loop.  All arithmetic runs in the worker matrix's compute dtype
(float64 default, float32 in the reduced-precision mode).  Each row shard's
chain is the same walk over row views ``params[lo:hi]`` / ``grads[lo:hi]``
of the one matrix and over the replicas of those rows.

A step takes the cluster's batch block as gathered: one ``(inputs, targets)``
pair with leading axis N, row shards are slices of it.  Where a kernel has a
``repro.nn`` twin it runs the same arithmetic (ReLU calls
:func:`repro.nn.layers.relu` / ``relu_grad`` themselves), so executor and
per-worker loop agree bit for bit.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.engine import threads
from repro.engine.worker_matrix import WorkerMatrix, group_bounds
from repro.utils.logging import get_logger

_log = get_logger(__name__)

#: Activation elements a row shard must carry — shard rows × positions per
#: replica (batch, × sequence positions) × the width entering the head —
#: before another thread pays for its GIL hand-offs.  Measured, see
#: ARCHITECTURE.md "Replica shards": every point at or above wins, every
#: point from 21 k down loses or ties.
MIN_SHARD_ELEMENTS = 24576


def _take_cache(layer):
    """Hand ``layer``'s backward cache to the ``backward`` that consumes it.

    The cache is dropped here, so nothing activation-sized outlives the step;
    a second ``backward`` (or one without a ``forward``) fails like its
    ``repro.nn`` twin instead of unpacking ``None``.
    """
    cache = layer._cache
    if cache is None:
        raise RuntimeError(f"{type(layer).__name__}.backward called before forward")
    layer._cache = None
    return cache


class _BatchedLinear:
    """All workers' copies of one Linear layer as (N, out, in) views.

    Accepts ``(N, batch, in)`` blocks (the MLP case) and
    ``(N, batch, seq, in)`` sequence blocks (the transformer case).  The
    4-D path folds the sequence axis into the batch axis — one
    ``(batch*seq, in) @ (in, out)`` GEMM per replica, exactly the collapsed
    GEMM the per-worker ``Linear`` issues — keeping the two paths
    bit-identical in float64.
    """

    def __init__(
        self,
        weight: np.ndarray,
        weight_grad: np.ndarray,
        bias: Optional[np.ndarray],
        bias_grad: Optional[np.ndarray],
    ) -> None:
        self.weight = weight          # (N, out, in) view into params matrix
        self.weight_grad = weight_grad
        self.bias = bias              # (N, out) view or None
        self.bias_grad = bias_grad
        self._cache: Optional[Tuple[np.ndarray, Optional[Tuple[int, ...]]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        seq_shape = None
        if x.ndim == 4:
            seq_shape = x.shape[:3]
            x = np.ascontiguousarray(x).reshape(x.shape[0], -1, x.shape[-1])
        self._cache = (x, seq_shape)
        out = np.matmul(x, self.weight.transpose(0, 2, 1))
        if self.bias is not None:
            out += self.bias[:, None, :]
        if seq_shape is not None:
            return out.reshape(seq_shape + (out.shape[-1],))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, seq_shape = _take_cache(self)
        if grad_out.ndim == 4:
            grad_out = np.ascontiguousarray(grad_out).reshape(
                grad_out.shape[0], -1, grad_out.shape[-1]
            )
        # Accumulate-from-zero semantics: one batched write per tensor.
        np.matmul(grad_out.transpose(0, 2, 1), x, out=self.weight_grad)
        if self.bias_grad is not None:
            self.bias_grad[...] = grad_out.sum(axis=1)
        grad_in = np.matmul(grad_out, self.weight)
        if seq_shape is not None:
            return grad_in.reshape(seq_shape + (grad_in.shape[-1],))
        return grad_in


class _BatchedReLU:
    """ReLU over ``(N, ...)`` blocks in the ``repro.nn`` layer's own arithmetic.

    It calls :func:`repro.nn.layers.relu` / :func:`~repro.nn.layers.relu_grad`
    (imported on use, like :func:`_table`'s nn types), so the executor and
    the per-worker loop share one ReLU.
    """

    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None   # the bool mask x > 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        from repro.nn.layers import relu

        self._cache = x > 0
        return relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        from repro.nn.layers import relu_grad

        return relu_grad(_take_cache(self), grad_out)


class _BatchedTanh:
    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._cache = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - _take_cache(self) ** 2)


class _BatchedDropout:
    """All replicas' masks of one Dropout layer, each from its replica's generator.

    ``rngs`` are the private generators of the matching ``Dropout`` in the
    chain's replicas, one per row; ``live`` is the view of the cluster's live
    worker mask over the same rows.  A crashed row draws nothing (its output
    is never aggregated), so its generator stands still as in the per-worker
    loop.  The mask arithmetic is :func:`repro.nn.layers.dropout_mask`'s.
    """

    def __init__(self, rngs: List[np.random.Generator], live: np.ndarray, p: float) -> None:
        self.rngs = rngs
        self.live = live
        self.p = p
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        from repro.nn.layers import dropout_mask

        uniform = np.zeros(x.shape)
        for row, (rng, up) in enumerate(zip(self.rngs, self.live.tolist())):
            if up:
                rng.random(out=uniform[row])
        mask = dropout_mask(uniform, self.p, x.dtype)
        self._cache = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * _take_cache(self)


class _BatchedEmbedding:
    """All workers' token-embedding tables as (N, vocab, dim) views."""

    def __init__(self, weight: np.ndarray, weight_grad: np.ndarray) -> None:
        self.weight = weight            # (N, vocab, dim) view into params matrix
        self.weight_grad = weight_grad
        self._rows = np.arange(weight.shape[0])[:, None, None]
        self._cache: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._cache = ids                # (N, B, T) integer token ids
        return self.weight[self._rows, ids]

    def backward(self, grad_out: np.ndarray) -> None:
        ids = _take_cache(self)
        # Scatter-add per replica; the embedding rows are the only gradient
        # entries not produced by an overwriting matmul, so zero them first
        # (accumulate-from-zero semantics, matching Module.zero_grad()).
        self.weight_grad[...] = 0.0
        np.add.at(self.weight_grad, (self._rows, ids), grad_out)
        # Token ids carry no gradient.
        return None


class _BatchedPositionalEncoding:
    """Worker-independent sinusoidal table added to all replicas at once."""

    def __init__(self, pe: np.ndarray) -> None:
        self.pe = pe                    # (max_len, d_model), float64 master copy
        self._pe_cast: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[2]
        if seq_len > self.pe.shape[0]:
            # Same explicit failure as the per-worker PositionalEncoding
            # (slicing past the table would otherwise mis-broadcast).
            raise ValueError(
                f"sequence length {seq_len} exceeds positional table {self.pe.shape[0]}"
            )
        pe = self.pe[:seq_len]
        if pe.dtype != x.dtype:
            if self._pe_cast is None or self._pe_cast.dtype != x.dtype:
                self._pe_cast = self.pe.astype(x.dtype)
            pe = self._pe_cast[:seq_len]
        return x + pe

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class _BatchedLayerNorm:
    """All workers' LayerNorm over (N, B, T, d) activations in one pass."""

    def __init__(
        self,
        gamma: np.ndarray,
        gamma_grad: np.ndarray,
        beta: np.ndarray,
        beta_grad: np.ndarray,
        eps: float,
    ) -> None:
        self.gamma = gamma              # (N, d) view into params matrix
        self.gamma_grad = gamma_grad
        self.beta = beta                # (N, d) view
        self.beta_grad = beta_grad
        self.eps = eps
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        d = x.shape[-1]
        # Centre once: ``x - mean`` feeds both the variance and x_hat.  These
        # are the reductions and divides ``x.var`` runs internally, minus its
        # second mean / subtract pass.
        x_hat = x - x.mean(axis=-1, keepdims=True)
        out = x_hat * x_hat        # the squares now, the output block below
        var = out.sum(axis=-1, keepdims=True) / d
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        self._cache = (x_hat, inv_std)
        np.multiply(self.gamma[:, None, None, :], x_hat, out=out)
        out += self.beta[:, None, None, :]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std = _take_cache(self)
        d = x_hat.shape[-1]
        tmp = grad_out * x_hat
        self.gamma_grad[...] = tmp.sum(axis=(1, 2))
        self.beta_grad[...] = grad_out.sum(axis=(1, 2))
        dxhat = grad_out * self.gamma[:, None, None, :]
        # inv_std / d * (d*dxhat - sum(dxhat) - x_hat * sum(dxhat*x_hat)),
        # folded into dxhat; x_hat is consumed as the last term's buffer.
        sum_dxhat = dxhat.sum(axis=-1, keepdims=True)
        np.multiply(dxhat, x_hat, out=tmp)
        x_hat *= tmp.sum(axis=-1, keepdims=True)
        dxhat *= d
        dxhat -= sum_dxhat
        dxhat -= x_hat
        inv_std /= d
        dxhat *= inv_std
        return dxhat


class _BatchedSelfAttention:
    """Multi-head causal self-attention for every replica in one einsum chain.

    The score / context contractions use the same einsum index patterns as
    the per-worker :class:`~repro.nn.attention.MultiHeadSelfAttention` with a
    leading replica axis, so the float64 arithmetic (including the softmax
    backward across replicas) is bit-identical to the fallback loop.
    """

    def __init__(
        self,
        q_proj: _BatchedLinear,
        k_proj: _BatchedLinear,
        v_proj: _BatchedLinear,
        out_proj: _BatchedLinear,
        num_heads: int,
        d_head: int,
        causal: bool,
    ) -> None:
        self.q_proj = q_proj
        self.k_proj = k_proj
        self.v_proj = v_proj
        self.out_proj = out_proj
        self.num_heads = num_heads
        self.d_head = d_head
        self.causal = causal
        self._causal_mask: Optional[np.ndarray] = None   # (T, T) bool, built once per T
        self._cache = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        n, b, t, _ = x.shape
        return x.reshape(n, b, t, self.num_heads, self.d_head).transpose(0, 1, 3, 2, 4)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n, b, h, t, d = x.shape
        return np.ascontiguousarray(x.transpose(0, 1, 3, 2, 4)).reshape(n, b, t, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split_heads(self.q_proj.forward(x))
        k = self._split_heads(self.k_proj.forward(x))
        v = self._split_heads(self.v_proj.forward(x))
        scale = 1.0 / np.sqrt(self.d_head)
        # Stacked GEMMs over (N, B, H) slices: identical per-slice shapes to
        # the per-worker attention's matmuls, so float64 results are
        # bit-identical to the fallback loop.
        # Scale, mask and softmax all happen in the scores buffer.
        attn = np.matmul(q, k.swapaxes(-1, -2))
        attn *= scale
        if self.causal:
            t = x.shape[2]
            if self._causal_mask is None or self._causal_mask.shape[0] != t:
                self._causal_mask = np.triu(np.ones((t, t), dtype=bool), k=1)
            np.copyto(attn, -1e30, where=self._causal_mask)
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        context = np.matmul(attn, v)
        out = self.out_proj.forward(self._merge_heads(context))
        self._cache = (q, k, v, attn, scale)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        q, k, v, attn, scale = _take_cache(self)
        d_merged = self.out_proj.backward(grad_out)
        n, b, t, _ = d_merged.shape
        d_context = d_merged.reshape(n, b, t, self.num_heads, self.d_head).transpose(
            0, 1, 3, 2, 4
        )
        d_scores = np.matmul(d_context, v.swapaxes(-1, -2))   # d_attn so far
        d_v = np.matmul(attn.swapaxes(-1, -2), d_context)
        # Softmax backward over the last axis, for all replicas at once:
        # attn * (d_attn - sum(d_attn * attn)) * scale, folded into d_attn.
        d_scores -= (d_scores * attn).sum(axis=-1, keepdims=True)
        d_scores *= attn
        d_scores *= scale
        d_q = np.matmul(d_scores, k)
        d_k = np.matmul(d_scores.swapaxes(-1, -2), q)
        dx = self.q_proj.backward(self._merge_heads(d_q))
        dx += self.k_proj.backward(self._merge_heads(d_k))
        dx += self.v_proj.backward(self._merge_heads(d_v))
        return dx


class _BatchedEncoderLayer:
    """Pre-norm encoder block (attention + FFN, both residual), batched.

    Mirrors :class:`~repro.nn.attention.TransformerEncoderLayer` exactly.
    Dropout layers are omitted when inactive (p == 0).
    """

    def __init__(
        self,
        norm1: _BatchedLayerNorm,
        attn: _BatchedSelfAttention,
        norm2: _BatchedLayerNorm,
        ff1: _BatchedLinear,
        act: _BatchedReLU,
        ff2: _BatchedLinear,
        drop1: Optional[_BatchedDropout] = None,
        drop2: Optional[_BatchedDropout] = None,
    ) -> None:
        self.norm1 = norm1
        self.attn = attn
        self.norm2 = norm2
        self.ff1 = ff1
        self.act = act
        self.ff2 = ff2
        self.drop1 = drop1
        self.drop2 = drop2

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = self.norm1.forward(x)
        a = self.attn.forward(a)
        if self.drop1 is not None:
            a = self.drop1.forward(a)
        x = x + a
        f = self.norm2.forward(x)
        f = self.ff1.forward(f)
        f = self.act.forward(f)
        f = self.ff2.forward(f)
        if self.drop2 is not None:
            f = self.drop2.forward(f)
        return x + f

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g_ff = grad_out if self.drop2 is None else self.drop2.backward(grad_out)
        g_ff = self.ff2.backward(g_ff)
        g_ff = self.act.backward(g_ff)
        g_ff = self.ff1.backward(g_ff)
        g_ff = self.norm2.backward(g_ff)
        g_mid = grad_out + g_ff
        g_attn = g_mid if self.drop1 is None else self.drop1.backward(g_mid)
        g_attn = self.attn.backward(g_attn)
        g_attn = self.norm1.backward(g_attn)
        return g_mid + g_attn


_INDEX_CACHE: dict = {}


def _index_grids(n_workers: int, batch: int) -> Tuple[np.ndarray, np.ndarray]:
    key = (n_workers, batch)
    grids = _INDEX_CACHE.get(key)
    if grids is None:
        grids = (np.arange(n_workers)[:, None], np.arange(batch)[None, :])
        _INDEX_CACHE[key] = grids
    return grids


def _batched_cross_entropy(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-replica mean cross-entropy and logits gradient.

    Same arithmetic as :func:`repro.nn.losses.cross_entropy_with_logits`
    (stable log-softmax, mean over the local batch), evaluated for all
    replicas in one pass over the ``(N, B, C)`` logits block and in the
    logits' own dtype.  ``logits`` is consumed: it must be the head's fresh
    output block, and it holds the log-probabilities on return.
    """
    n_workers, batch, _ = logits.shape
    logits -= logits.max(axis=2, keepdims=True)
    grad = np.exp(logits)
    logits -= np.log(grad.sum(axis=2, keepdims=True))
    rows, cols = _index_grids(n_workers, batch)
    losses = -logits[rows, cols, targets].mean(axis=1)
    np.exp(logits, out=grad)
    grad[rows, cols, targets] -= 1.0
    grad /= batch
    return losses, grad


def _drop_caches(layers: Iterable[object]) -> None:
    """Forget every backward cache under ``layers`` (a step that did not finish)."""
    for layer in layers:
        if type(layer).__name__.startswith("_Batched"):
            if hasattr(layer, "_cache"):
                layer._cache = None
            _drop_caches(vars(layer).values())


def _forward_shard(shard: Tuple[List[object], np.ndarray]) -> np.ndarray:
    chain, x = shard
    for layer in chain:
        x = layer.forward(x)
    return x


def _backward_shard(shard: Tuple[List[object], np.ndarray, np.ndarray]) -> np.ndarray:
    chain, logits, targets = shard
    if logits.ndim == 4:
        # Language-model logits (N, B, T, V): fold time into the batch
        # axis, exactly as the per-worker cross-entropy flattens it.
        n, b, t, v = logits.shape
        losses, grad = _batched_cross_entropy(
            logits.reshape(n, b * t, v), targets.reshape(n, b * t)
        )
        grad = grad.reshape(n, b, t, v)
    else:
        losses, grad = _batched_cross_entropy(logits, targets)
    for layer in reversed(chain):
        grad = layer.backward(grad)
    return losses


class _Unsupported(Exception):
    """The walk met a module it has no batched kernel for."""


class _RowViews:
    """``(N, *shape)`` parameter and gradient views of matrix rows, by name.

    ``params`` / ``grads`` are the rows a chain runs on — the whole matrix,
    or one row shard's ``[lo:hi]`` slice of it — ``replicas`` the modules
    adopted into those rows, and ``live`` the view of the cluster's live
    worker mask over them.  Every entry handed out is counted, so the walk
    can tell whether its chain covers the whole layout.
    """

    def __init__(
        self, spec, params: np.ndarray, grads: np.ndarray, replicas, live: np.ndarray
    ) -> None:
        self.spec = spec
        self.params = params
        self.grads = grads
        self.replicas = replicas
        self.live = live
        self.covered = 0

    def __call__(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        if name not in self.spec:
            raise _Unsupported(f"{name} is not in the layout")
        sl = self.spec.slice_of(name)
        shape = (self.params.shape[0],) + self.spec.shape_of(name)
        self.covered += sl.stop - sl.start
        return self.params[:, sl].reshape(shape), self.grads[:, sl].reshape(shape)


def _children(module, prefix: str, views: _RowViews) -> List[object]:
    """A container whose forward runs its children in registration order."""
    return [
        layer
        for name, child in module._modules.items()
        for layer in _walk(child, f"{prefix}{name}.", views)
    ]


def _linear(layer, prefix: str, views: _RowViews) -> List[object]:
    bias = views(prefix + "bias") if layer.use_bias else (None, None)
    return [_BatchedLinear(*views(prefix + "weight"), *bias)]


def _dropout(layer, prefix: str, views: _RowViews) -> List[object]:
    if layer.p == 0.0:
        return []
    path = prefix.rstrip(".")
    rngs = [dict(replica.named_modules())[path]._rng for replica in views.replicas]
    return [_BatchedDropout(rngs, views.live, layer.p)]


def _self_attention(attn, prefix: str, views: _RowViews) -> List[object]:
    (q,), (k,), (v,), (o,) = (
        _walk(getattr(attn, name), f"{prefix}{name}.", views)
        for name in ("q_proj", "k_proj", "v_proj", "out_proj")
    )
    return [_BatchedSelfAttention(q, k, v, o, attn.num_heads, attn.d_head, attn.causal)]


def _encoder_layer(enc, prefix: str, views: _RowViews) -> List[object]:
    def one(name: str) -> List[object]:
        return _walk(getattr(enc, name), f"{prefix}{name}.", views)

    (norm1,), (attn,), (norm2,), (ff1,), (act,), (ff2,) = map(
        one, ("norm1", "attn", "norm2", "ff1", "act", "ff2")
    )
    drop1, drop2 = ((one(name) or [None])[0] for name in ("drop1", "drop2"))
    return [_BatchedEncoderLayer(norm1, attn, norm2, ff1, act, ff2, drop1, drop2)]


@functools.lru_cache(maxsize=None)
def _table() -> Dict[type, object]:
    """Exact nn type -> ``entry(module, prefix, views)`` returning its batched layers.

    Exact types: a subclass may override forward (skip connections, extra
    parameters), which a batched chain would silently ignore.
    """
    # Imported here: the engine stays importable without the nn layer stack,
    # and nn itself only lazily imports the engine.
    from repro.nn.attention import (
        MultiHeadSelfAttention,
        PositionalEncoding,
        TransformerEncoderLayer,
    )
    from repro.nn.layers import Dropout, Embedding, LayerNorm, Linear, ReLU, Tanh
    from repro.nn.models.alexnet import AlexNetLike
    from repro.nn.models.mlp import MLP
    from repro.nn.models.transformer import TransformerLM
    from repro.nn.models.vgg import VGGLike
    from repro.nn.module import Sequential

    return {
        Sequential: _children,
        MLP: _children,
        VGGLike: _children,
        AlexNetLike: _children,
        TransformerLM: _children,
        TransformerEncoderLayer: _encoder_layer,
        MultiHeadSelfAttention: _self_attention,
        Embedding: lambda layer, prefix, views: [_BatchedEmbedding(*views(prefix + "weight"))],
        PositionalEncoding: lambda layer, prefix, views: [_BatchedPositionalEncoding(layer.pe)],
        Linear: _linear,
        LayerNorm: lambda layer, prefix, views: [
            _BatchedLayerNorm(*views(prefix + "gamma"), *views(prefix + "beta"), eps=layer.eps)
        ],
        ReLU: lambda layer, prefix, views: [_BatchedReLU()],
        Tanh: lambda layer, prefix, views: [_BatchedTanh()],
        Dropout: _dropout,
    }


def _walk(module, prefix: str, views: _RowViews) -> List[object]:
    entry = _table().get(type(module))
    if entry is None:
        raise _Unsupported(f"no batched kernel for {type(module).__name__}")
    return entry(module, prefix, views)


def _build_chain(
    matrix: WorkerMatrix, replicas, active: np.ndarray, lo: int, hi: int
) -> List[object]:
    """The batched layer chain of matrix rows ``[lo, hi)`` and their ``replicas``."""
    views = _RowViews(
        matrix.spec, matrix.params[lo:hi], matrix.grads[lo:hi], replicas[lo:hi], active[lo:hi]
    )
    chain = _walk(views.replicas[0], "", views)
    # The loss works in the last layer's output block, so that block must be
    # a fresh array no layer caches: a Linear head, not an activation.
    if not chain or type(chain[-1]) is not _BatchedLinear:
        raise _Unsupported("the chain does not end in a Linear head")
    # Every parameter in the layout must belong to the chain we walk;
    # anything left over would silently never receive gradients.
    if views.covered != matrix.spec.total_size:
        raise _Unsupported("parameters outside the chain")
    return chain


class BatchedReplicaExecutor:
    """Fused forward/backward for every replica of a worker matrix at once.

    The layer chain runs as K contiguous **row shards** of the matrix, one
    thread each (:func:`repro.engine.threads.run_shards`).  No arithmetic
    crosses the replica axis — batched ``matmul`` is one GEMM per replica,
    every reduction is over non-replica axes, each row's dropout masks come
    from its own replica's generator — so any K gives the same bits.  K is
    worked out per step (:meth:`_shard_count`); K = 1 is the same loop over a
    one-element list.
    """

    def __init__(
        self, matrix: WorkerMatrix, replicas, active_mask: np.ndarray, chain: List[object]
    ) -> None:
        self._matrix = matrix
        self._replicas = replicas
        self._active = active_mask
        # Shard chains by shard count: (lo, hi, chain over rows [lo, hi)).
        self._chains: Dict[int, List[Tuple[int, int, List[object]]]] = {
            1: [(0, matrix.num_workers, chain)]
        }
        # Token inputs stay integer (embedding lookup) instead of being cast
        # to the compute dtype.
        self._token_input = type(chain[0]) is _BatchedEmbedding
        self._head_width = chain[-1].weight.shape[2]

    @classmethod
    def build(
        cls, matrix: WorkerMatrix, replicas, active_mask: np.ndarray
    ) -> Optional["BatchedReplicaExecutor"]:
        """An executor for ``replicas``, or None when the table cannot batch them.

        ``replicas`` are the modules adopted into the matrix rows, in row
        order; their architecture (shared by all workers) defines the layer
        chain.  ``active_mask`` is the cluster's live worker mask: a crashed
        row draws no dropout mask.
        """
        try:
            chain = _build_chain(matrix, replicas, active_mask, 0, matrix.num_workers)
        except _Unsupported:
            return None
        return cls(matrix, replicas, active_mask, chain)

    # ------------------------------------------------------------------ #
    def step(self, batch: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """One fused gradient computation for all replicas.

        ``batch`` is one ``(inputs, targets)`` block with one leading row per
        replica: ``(N, B, F)`` features or ``(N, B, T)`` tokens, and one
        integer target per sample or per token.  Inputs are cast to the
        matrix's compute dtype (token inputs stay integer); gradients are
        written directly into the matrix gradient rows (replacing the
        previous step's contents, i.e. zero-then-accumulate semantics) and
        the per-replica mean losses are returned.  A block the chain cannot
        take raises ``ValueError`` before any layer runs.
        """
        x, targets = self._check(batch)
        shards = self._shards(x)
        losses = None
        try:
            with telemetry.span("engine.forward"):
                logits = threads.run_shards(
                    _forward_shard, [(chain, x[lo:hi]) for lo, hi, chain in shards]
                )
            with telemetry.span("engine.backward"):
                losses = threads.run_shards(
                    _backward_shard,
                    [(chain, out, targets[lo:hi]) for (lo, hi, chain), out in zip(shards, logits)],
                )
        finally:
            if losses is None:
                # A shard raised: backward never took these caches.
                for _, _, chain in shards:
                    _drop_caches(chain)
        return np.concatenate(losses)

    def _check(self, batch) -> Tuple[np.ndarray, np.ndarray]:
        """The step's ``(N, B, F)`` feature or ``(N, B, T)`` token block, and targets."""
        x, targets = np.asarray(batch[0]), np.asarray(batch[1])
        n = self._matrix.num_workers
        if x.ndim != 3 or x.shape[0] != n:
            raise ValueError(f"expected an ({n}, batch, ...) input block, got {x.shape}")
        if self._token_input:
            if not np.issubdtype(x.dtype, np.integer):
                raise ValueError(f"token inputs must be integers, got {x.dtype}")
        else:
            x = x.astype(self._matrix.dtype, copy=False)
        # One integer target per sample, or per token.
        want = x.shape if self._token_input else x.shape[:2]
        if targets.shape != want or not np.issubdtype(targets.dtype, np.integer):
            raise ValueError(
                f"cannot batch inputs {x.shape} with {targets.dtype} targets {targets.shape}"
            )
        return x, targets

    # ------------------------------------------------------------------ #
    # row shards
    # ------------------------------------------------------------------ #
    def _shard_count(self, x: np.ndarray) -> int:
        """How many row shards this step runs as — computed, never set.

        As many as there are usable cores and rows, but no more than leave
        every shard :data:`MIN_SHARD_ELEMENTS` activation elements, and one
        unless the BLAS has been pinned to a single thread (its idle workers
        would otherwise spin on the cores the shard threads need).

        A step whose activation block reaches glibc's default mmap threshold
        also holds the allocator's thresholds (on any core count), so its
        blocks stay on the heap instead of being mapped afresh every step.
        """
        # Plain arithmetic first; the small steps the size rules turn away
        # are the ones that cannot afford a syscall per step.  Axis 2 is the
        # feature axis of an (N, B, F) block; a token block (N, B, T) is all
        # positions.
        positions = x.size if self._token_input else x.size // x.shape[2]
        elements = positions * self._head_width
        if elements * self._matrix.dtype.itemsize >= threads.MMAP_THRESHOLD_DEFAULT:
            threads.hold_malloc_thresholds()
        k = min(self._matrix.num_workers, elements // MIN_SHARD_ELEMENTS)
        if k < 2:
            return 1
        k = min(k, threads.usable_cores())
        if k < 2 or threads.pin_blas() is None:
            return 1
        return k

    def _shards(self, x: np.ndarray) -> List[Tuple[int, int, List[object]]]:
        """``(lo, hi, layer chain)`` per row shard of this step."""
        k = self._shard_count(x)
        chains = self._chains.get(k)
        if chains is None:
            # Built on the first step that qualifies, so clusters that never
            # shard (small models, one core) never pay for shard chains.
            matrix = self._matrix
            chains = [
                (lo, hi, _build_chain(matrix, self._replicas, self._active, lo, hi))
                for lo, hi in group_bounds(matrix.num_workers, k)
            ]
            self._chains[k] = chains
            _log.info(
                "replica shards: %d rows in %d shards on %d cores, BLAS threads %d -> 1",
                matrix.num_workers, k, threads.usable_cores(), threads.pin_blas(),
            )
        return chains
