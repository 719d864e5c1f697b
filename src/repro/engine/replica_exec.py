"""Vectorized multi-replica execution over the worker matrix.

Because every replica's parameters are rows of one ``(N, D)`` matrix with an
identical layout, the per-layer weights of *all* workers are zero-copy
``(N, ...)`` views into that matrix.  :class:`BatchedReplicaExecutor`
exploits this to run the forward pass, loss and backward pass of the entire
cluster as batched NumPy calls — one fused call per layer instead of one
Python call per layer *per worker* — writing gradients straight into the
gradient matrix rows.

Three model families are supported:

* the **MLP family** (chains of Linear / ReLU / Tanh on a classification
  head), which covers the simulator's hot benchmarks,
* the **conv family** (:class:`~repro.nn.models.convnet.ConvNet`: Conv2d /
  ReLU / MaxPool2d / GlobalAvgPool2d features plus a Linear head), the
  non-MLP workload used to measure dtype-mode speedups on spatially
  structured inputs, and
* the **transformer family**
  (:class:`~repro.nn.models.transformer.TransformerLM`: embedding +
  positional encoding, pre-norm encoder blocks with multi-head causal
  self-attention and a ReLU feed-forward, final norm and LM head).  Token
  batches flow as ``(N, batch, seq)`` integer blocks; every contraction —
  projections, attention scores, softmax backward — runs once for all
  replicas via ``(N, ...)`` einsum/GEMM calls over the weight views.

All arithmetic runs in the worker matrix's compute dtype (float64 default,
float32 in the reduced-precision mode).  Clusters with unsupported models
fall back to the per-worker loop transparently.  Transformers with active
dropout batch when their layers draw from a
:class:`~repro.engine.dropout_stream.SharedDropoutStream` (one deterministic
``(N, ...)`` mask block per step and layer); dropout on private per-layer
RNG streams still falls back.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.engine import threads
from repro.engine.worker_matrix import WorkerMatrix, group_bounds
from repro.utils.logging import get_logger

_log = get_logger(__name__)

#: Activation elements a row shard must carry — shard rows × positions per
#: replica (batch, × sequence or image positions) × the width entering the
#: head — before another thread pays for its GIL hand-offs.  Measured, see
#: ARCHITECTURE.md "Replica shards": every point at or above wins in all
#: three families, every point from 21 k down loses or ties.
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

    Accepts ``(N, batch, in)`` blocks (the MLP / conv-head case) and
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
    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._cache = mask
        # np.where on purpose: fill + copyto measured 2.4x slower, and
        # ``x * mask`` turns -0.0 into +0.0.
        return np.where(mask, x, x.dtype.type(0))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(_take_cache(self), grad_out, grad_out.dtype.type(0))


class _BatchedTanh:
    def __init__(self) -> None:
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._cache = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - _take_cache(self) ** 2)


class _BatchedConv2d:
    """All workers' copies of one Conv2d layer batched over the replica axis.

    Inputs flow as ``(N, B, C, H, W)`` blocks.  The im2col patches of all
    replicas are extracted in one pass over the collapsed ``(N*B, ...)``
    volume (the patch geometry is weight independent), then the per-replica
    convolutions reduce to one batched matmul against the ``(N, out_c, ckk)``
    weight views — exactly the _BatchedLinear trick lifted to patches.
    """

    def __init__(
        self,
        w_flat: np.ndarray,
        w_flat_grad: np.ndarray,
        bias: Optional[np.ndarray],
        bias_grad: Optional[np.ndarray],
        kernel_size: int,
        stride: int,
        padding: int,
    ) -> None:
        self.w_flat = w_flat            # (N, out_c, C*k*k) view into params matrix
        self.w_flat_grad = w_flat_grad
        self.bias = bias                # (N, out_c) view or None
        self.bias_grad = bias_grad
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], Tuple[int, int]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        from repro.nn.layers import _im2col

        n, b = x.shape[:2]
        k = self.kernel_size
        flat = np.ascontiguousarray(x).reshape((n * b,) + x.shape[2:])
        cols, out_h, out_w = _im2col(flat, k, k, self.stride, self.padding)
        cols = cols.reshape(n, b * out_h * out_w, -1)
        self._cache = (cols, x.shape, (out_h, out_w))
        out = np.matmul(cols, self.w_flat.transpose(0, 2, 1))
        if self.bias is not None:
            out += self.bias[:, None, :]
        out_c = self.w_flat.shape[1]
        return out.reshape(n, b, out_h, out_w, out_c).transpose(0, 1, 4, 2, 3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        from repro.nn.layers import _col2im

        cols, (n, b, c, h, w), (out_h, out_w) = _take_cache(self)
        out_c = self.w_flat.shape[1]
        g = np.ascontiguousarray(grad_out.transpose(0, 1, 3, 4, 2)).reshape(
            n, b * out_h * out_w, out_c
        )
        # Accumulate-from-zero semantics: one batched write per tensor.
        np.matmul(g.transpose(0, 2, 1), cols, out=self.w_flat_grad)
        if self.bias_grad is not None:
            self.bias_grad[...] = g.sum(axis=1)
        dcols = np.matmul(g, self.w_flat)
        k = self.kernel_size
        dx = _col2im(
            dcols.reshape(n * b, out_h, out_w, -1),
            (n * b, c, h, w),
            k,
            k,
            self.stride,
            self.padding,
        )
        return dx.reshape(n, b, c, h, w)


class _BatchedMaxPool2d:
    """Max pooling over (N, B, C, H, W): worker-independent, one fused pass."""

    def __init__(self, kernel_size: int, stride: int) -> None:
        self.kernel_size = kernel_size
        self.stride = stride
        self._cache: Optional[Tuple[Tuple[int, ...], np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, b, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        flat = np.ascontiguousarray(x).reshape(n * b, c, h, w)
        shape = (n * b, c, out_h, out_w, k, k)
        strides = (
            flat.strides[0],
            flat.strides[1],
            flat.strides[2] * s,
            flat.strides[3] * s,
            flat.strides[2],
            flat.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(flat, shape=shape, strides=strides)
        windows = windows.reshape(n * b, c, out_h, out_w, k * k)
        idx = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx)
        return out.reshape(n, b, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (n, b, c, h, w), idx = _take_cache(self)
        k, s = self.kernel_size, self.stride
        out_h, out_w = idx.shape[2], idx.shape[3]
        grad_flat = np.ascontiguousarray(grad_out).reshape(n * b, c, out_h, out_w)
        grad_input = np.zeros((n * b, c, h, w), dtype=grad_flat.dtype)
        rows = idx // k
        cols = idx % k
        bb, ch = np.meshgrid(np.arange(n * b), np.arange(c), indexing="ij")
        for i in range(out_h):
            for j in range(out_w):
                r = i * s + rows[:, :, i, j]
                cc = j * s + cols[:, :, i, j]
                grad_input[bb, ch, r, cc] += grad_flat[:, :, i, j]
        return grad_input.reshape(n, b, c, h, w)


class _BatchedGlobalAvgPool2d:
    """Spatial mean over (N, B, C, H, W) -> (N, B, C)."""

    def __init__(self) -> None:
        self._cache: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.mean(axis=(3, 4))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape = _take_cache(self)
        h, w = x_shape[3:]
        return np.broadcast_to(grad_out[:, :, :, None, None] / (h * w), x_shape).copy()


class _BatchedDropout:
    """All replicas' masks of one Dropout layer, drawn from the shared stream.

    The stream derives one deterministic mask per (step, layer, replica row);
    this class stacks rows ``[row_offset, row_offset + N)``, so a full-matrix
    executor and a pool child's group executor (and the per-worker fallback,
    which draws single rows) all see the exact same masks.
    """

    def __init__(self, stream, layer_id: int, p: float, row_offset: int) -> None:
        self.stream = stream
        self.layer_id = int(layer_id)
        self.p = float(p)
        self.row_offset = int(row_offset)
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = self.stream.mask_block(
            self.layer_id, x.shape[1:], self.p,
            lo=self.row_offset, hi=self.row_offset + x.shape[0],
        )
        if mask.dtype != x.dtype:
            mask = mask.astype(x.dtype)
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
    Dropout layers are omitted when inactive (p == 0); active dropout is
    supported through :class:`_BatchedDropout` when the module's layers are
    attached to a shared dropout stream (models with private per-layer
    dropout RNGs still fall back to the per-worker loop).
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


class BatchedReplicaExecutor:
    """Fused forward/backward for every replica of a worker matrix at once.

    The layer chain runs as K contiguous **row shards** of the matrix, one
    thread each (:func:`repro.engine.threads.run_shards`).  No arithmetic
    crosses the replica axis — batched ``matmul`` is one GEMM per replica,
    every reduction is over non-replica axes, dropout masks are functions of
    the global row — so any K gives the same bits.  K is worked out per step
    (:meth:`_shard_count`); K = 1 is the same loop over a one-element list.
    """

    def __init__(
        self,
        layers: Sequence[object],
        matrix: WorkerMatrix,
        input_ndim: int = 3,
        token_input: bool = False,
    ) -> None:
        self._layers = list(layers)
        self._matrix = matrix
        # Shard chains by shard count; more than one shard needs the model to
        # build sub-matrix chains from, which :meth:`build` records.
        self._chains: Dict[int, List[Tuple[int, int, List[object]]]] = {
            1: [(0, matrix.num_workers, self._layers)]
        }
        self._shard_source: Optional[Tuple[object, int]] = None
        # Expected stacked-input rank: 3 for (N, B, F) MLP batches and
        # (N, B, T) token batches, 5 for (N, B, C, H, W) conv batches.
        self._input_ndim = int(input_ndim)
        # Token inputs stay integer (embedding lookup) instead of being cast
        # to the compute dtype.
        self._token_input = bool(token_input)

    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, matrix: WorkerMatrix, module, row_offset: int = 0
    ) -> Optional["BatchedReplicaExecutor"]:
        """Build an executor for ``module`` or return None if unsupported.

        ``module`` must be the already-adopted replica of the matrix's first
        row; its architecture (shared by all workers) defines the layer
        chain.  Exact-type checks: a subclass may override forward (skip
        connections, extra parameters), which the batched chains below would
        silently ignore — such models must use the fallback loop.

        ``row_offset`` is the matrix's first row's *global* replica index —
        nonzero when ``matrix`` is a replica-pool child's group sub-matrix —
        and only affects shared-stream dropout, whose mask blocks span the
        full cluster.
        """
        # Imported here: the engine stays importable without the nn layer
        # stack, and nn itself only lazily imports the engine.
        from repro.nn.models.convnet import ConvNet
        from repro.nn.models.mlp import MLP
        from repro.nn.models.transformer import TransformerLM

        executor = None
        if type(module) is MLP:
            executor = cls._build_mlp(matrix, module)
        elif type(module) is ConvNet:
            executor = cls._build_convnet(matrix, module)
        elif type(module) is TransformerLM:
            executor = cls._build_transformer(matrix, module, row_offset)
        # Donated rows are already one unit of a wider plan (a pool child's
        # group, a stacked-sweep slab, a shard of another executor): only an
        # executor over a matrix that owns its storage splits further.
        if executor is not None and matrix.owns_storage:
            executor._shard_source = (module, row_offset)
        return executor

    # ------------------------------------------------------------------ #
    @classmethod
    def _batched_linear(cls, matrix: WorkerMatrix, spec, prefix: str, layer):
        """(layer, covered_entries) for one Linear, or None if layout-mismatched."""
        n = matrix.num_workers
        w_name = prefix + "weight"
        if w_name not in spec:
            return None
        w_shape = spec.shape_of(w_name)
        w_sl = spec.slice_of(w_name)
        weight = matrix.params[:, w_sl].reshape((n,) + w_shape)
        weight_grad = matrix.grads[:, w_sl].reshape((n,) + w_shape)
        covered = w_sl.stop - w_sl.start
        bias = bias_grad = None
        if layer.use_bias:
            b_name = prefix + "bias"
            if b_name not in spec:
                return None
            b_sl = spec.slice_of(b_name)
            bias = matrix.params[:, b_sl]
            bias_grad = matrix.grads[:, b_sl]
            covered += b_sl.stop - b_sl.start
        return _BatchedLinear(weight, weight_grad, bias, bias_grad), covered

    @classmethod
    def _batched_conv(cls, matrix: WorkerMatrix, spec, prefix: str, layer):
        """(layer, covered_entries) for one Conv2d, or None if layout-mismatched."""
        n = matrix.num_workers
        w_name = prefix + "weight"
        if w_name not in spec:
            return None
        out_c, in_c, kh, kw = spec.shape_of(w_name)
        w_sl = spec.slice_of(w_name)
        w_flat = matrix.params[:, w_sl].reshape(n, out_c, in_c * kh * kw)
        w_flat_grad = matrix.grads[:, w_sl].reshape(n, out_c, in_c * kh * kw)
        covered = w_sl.stop - w_sl.start
        bias = bias_grad = None
        if layer.use_bias:
            b_name = prefix + "bias"
            if b_name not in spec:
                return None
            b_sl = spec.slice_of(b_name)
            bias = matrix.params[:, b_sl]
            bias_grad = matrix.grads[:, b_sl]
            covered += b_sl.stop - b_sl.start
        batched = _BatchedConv2d(
            w_flat,
            w_flat_grad,
            bias,
            bias_grad,
            kernel_size=layer.kernel_size,
            stride=layer.stride,
            padding=layer.padding,
        )
        return batched, covered

    @classmethod
    def _build_mlp(cls, matrix: WorkerMatrix, module) -> Optional["BatchedReplicaExecutor"]:
        from repro.nn.layers import Linear, ReLU, Tanh

        spec = matrix.spec
        covered = 0
        layers: List[object] = []
        for idx, layer in enumerate(module.net):
            prefix = f"net.{idx}."
            if isinstance(layer, Linear):
                built = cls._batched_linear(matrix, spec, prefix, layer)
                if built is None:
                    return None
                layers.append(built[0])
                covered += built[1]
            elif isinstance(layer, ReLU):
                layers.append(_BatchedReLU())
            elif isinstance(layer, Tanh):
                layers.append(_BatchedTanh())
            else:
                return None
        # The loss works in the last layer's output block, so that block must
        # be a fresh array no layer caches: a Linear head, not an activation.
        if not layers or not isinstance(layers[-1], _BatchedLinear):
            return None
        # Every parameter in the layout must belong to the chain we walk;
        # anything left over would silently never receive gradients.
        if covered != spec.total_size:
            return None
        return cls(layers, matrix, input_ndim=3)

    @classmethod
    def _build_convnet(
        cls, matrix: WorkerMatrix, module
    ) -> Optional["BatchedReplicaExecutor"]:
        from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, MaxPool2d, ReLU

        spec = matrix.spec
        covered = 0
        layers: List[object] = []
        for idx, layer in enumerate(module.features):
            prefix = f"features.{idx}."
            if isinstance(layer, Conv2d):
                built = cls._batched_conv(matrix, spec, prefix, layer)
                if built is None:
                    return None
                layers.append(built[0])
                covered += built[1]
            elif isinstance(layer, ReLU):
                layers.append(_BatchedReLU())
            elif isinstance(layer, MaxPool2d):
                layers.append(_BatchedMaxPool2d(layer.kernel_size, layer.stride))
            elif isinstance(layer, GlobalAvgPool2d):
                layers.append(_BatchedGlobalAvgPool2d())
            else:
                return None
        if not isinstance(module.head, Linear):
            return None
        built = cls._batched_linear(matrix, spec, "head.", module.head)
        if built is None:
            return None
        layers.append(built[0])
        covered += built[1]
        if covered != spec.total_size:
            return None
        return cls(layers, matrix, input_ndim=5)

    @classmethod
    def _batched_layernorm(cls, matrix: WorkerMatrix, spec, prefix: str, layer):
        """(layer, covered_entries) for one LayerNorm, or None if layout-mismatched."""
        g_name, b_name = prefix + "gamma", prefix + "beta"
        if g_name not in spec or b_name not in spec:
            return None
        g_sl = spec.slice_of(g_name)
        b_sl = spec.slice_of(b_name)
        batched = _BatchedLayerNorm(
            matrix.params[:, g_sl],
            matrix.grads[:, g_sl],
            matrix.params[:, b_sl],
            matrix.grads[:, b_sl],
            eps=layer.eps,
        )
        covered = (g_sl.stop - g_sl.start) + (b_sl.stop - b_sl.start)
        return batched, covered

    @classmethod
    def _build_transformer(
        cls, matrix: WorkerMatrix, module, row_offset: int = 0
    ) -> Optional["BatchedReplicaExecutor"]:
        from repro.nn.attention import (
            MultiHeadSelfAttention,
            PositionalEncoding,
            TransformerEncoderLayer,
        )
        from repro.nn.layers import Embedding, LayerNorm, Linear, ReLU

        spec = matrix.spec
        n = matrix.num_workers
        covered = 0
        layers: List[object] = []

        if type(module.embedding) is not Embedding or "embedding.weight" not in spec:
            return None
        e_shape = spec.shape_of("embedding.weight")
        e_sl = spec.slice_of("embedding.weight")
        layers.append(
            _BatchedEmbedding(
                matrix.params[:, e_sl].reshape((n,) + e_shape),
                matrix.grads[:, e_sl].reshape((n,) + e_shape),
            )
        )
        covered += e_sl.stop - e_sl.start

        if type(module.pos_encoding) is not PositionalEncoding:
            return None
        layers.append(_BatchedPositionalEncoding(module.pos_encoding.pe))

        def seq_linear(prefix: str, layer):
            nonlocal covered
            if not isinstance(layer, Linear):
                return None
            built = cls._batched_linear(matrix, spec, prefix, layer)
            if built is None:
                return None
            covered += built[1]
            return built[0]

        def layer_norm(prefix: str, layer):
            nonlocal covered
            if type(layer) is not LayerNorm:
                return None
            built = cls._batched_layernorm(matrix, spec, prefix, layer)
            if built is None:
                return None
            covered += built[1]
            return built[0]

        for i, enc in enumerate(module._layers):
            if type(enc) is not TransformerEncoderLayer:
                return None
            attn = enc.attn
            if type(attn) is not MultiHeadSelfAttention:
                return None
            if not isinstance(enc.act, ReLU):
                return None
            # Active dropout batches only when its masks come from a shared
            # per-step stream; private per-layer RNG streams cannot be
            # replayed batched, so such models use the fallback loop.
            def batched_dropout(layer) -> Optional[_BatchedDropout]:
                if layer.p == 0.0:
                    return None
                return _BatchedDropout(
                    layer._shared_stream, layer._stream_layer_id, layer.p, row_offset
                )

            for drop in (enc.drop1, enc.drop2):
                if drop.p != 0.0 and drop._shared_stream is None:
                    return None
            prefix = f"layer{i}."
            norm1 = layer_norm(prefix + "norm1.", enc.norm1)
            q = seq_linear(prefix + "attn.q_proj.", attn.q_proj)
            k = seq_linear(prefix + "attn.k_proj.", attn.k_proj)
            v = seq_linear(prefix + "attn.v_proj.", attn.v_proj)
            o = seq_linear(prefix + "attn.out_proj.", attn.out_proj)
            norm2 = layer_norm(prefix + "norm2.", enc.norm2)
            ff1 = seq_linear(prefix + "ff1.", enc.ff1)
            ff2 = seq_linear(prefix + "ff2.", enc.ff2)
            if any(x is None for x in (norm1, q, k, v, o, norm2, ff1, ff2)):
                return None
            batched_attn = _BatchedSelfAttention(
                q,
                k,
                v,
                o,
                num_heads=attn.num_heads,
                d_head=attn.d_head,
                causal=attn.causal,
            )
            layers.append(
                _BatchedEncoderLayer(
                    norm1,
                    batched_attn,
                    norm2,
                    ff1,
                    _BatchedReLU(),
                    ff2,
                    drop1=batched_dropout(enc.drop1),
                    drop2=batched_dropout(enc.drop2),
                )
            )

        final_norm = layer_norm("final_norm.", module.final_norm)
        head = seq_linear("lm_head.", module.lm_head)
        if final_norm is None or head is None:
            return None
        layers.append(final_norm)
        layers.append(head)
        if covered != spec.total_size:
            return None
        return cls(layers, matrix, input_ndim=3, token_input=True)

    # ------------------------------------------------------------------ #
    def step(
        self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Optional[np.ndarray]:
        """One fused gradient computation for all replicas.

        ``batches`` holds one ``(inputs, targets)`` pair per worker; all
        batches must share one shape (the lockstep cluster guarantees this —
        if not, the caller falls back to the per-worker loop).  Inputs are
        cast to the matrix's compute dtype (token inputs stay integer);
        gradients are written directly into the matrix gradient rows
        (replacing the previous step's contents, i.e. zero-then-accumulate
        semantics) and the per-replica mean losses are returned.
        """
        if len(batches) != self._matrix.num_workers:
            return None
        first_x, first_y = batches[0]
        if any(b[0].shape != first_x.shape or b[1].shape != first_y.shape for b in batches):
            return None
        if self._token_input:
            x = np.stack([np.asarray(b[0]) for b in batches])
            if not np.issubdtype(x.dtype, np.integer):
                return None
        else:
            x = np.stack([np.asarray(b[0], dtype=self._matrix.dtype) for b in batches])
        targets = np.stack([b[1] for b in batches])
        return self.step_stacked(x, targets)

    def step_stacked(
        self, x: np.ndarray, targets: np.ndarray
    ) -> Optional[np.ndarray]:
        """One fused gradient computation from pre-stacked input blocks.

        ``x`` / ``targets`` carry the replica axis already stacked —
        ``(N, batch, ...)`` — so callers that assemble the block themselves
        (:meth:`step`, and the stacked sweep executor which tiles one
        N-worker batch block across S grid slices) skip the per-row
        ``np.stack``.  Same contract as :meth:`step` otherwise: gradients
        land in the matrix rows, per-replica mean losses are returned,
        ``None`` flags an unsupported shape/dtype combination.
        """
        if x.shape[0] != self._matrix.num_workers:
            return None
        if self._token_input:
            if not np.issubdtype(x.dtype, np.integer):
                return None
        else:
            x = np.asarray(x, dtype=self._matrix.dtype)
        if x.ndim != self._input_ndim or not np.issubdtype(targets.dtype, np.integer):
            return None
        shards = self._shards(x)
        losses = None
        try:
            with telemetry.span("engine.forward"):
                logits = threads.run_shards(
                    _forward_shard, [(chain, x[lo:hi]) for lo, hi, chain in shards]
                )
            if targets.shape == x.shape[:1] + logits[0].shape[1:-1]:
                with telemetry.span("engine.backward"):
                    losses = threads.run_shards(
                        _backward_shard,
                        [
                            (chain, out, targets[lo:hi])
                            for (lo, hi, chain), out in zip(shards, logits)
                        ],
                    )
        finally:
            if losses is None:
                # Rejected targets, or a shard raised: backward never took
                # these caches, so drop them here.
                for _, _, chain in shards:
                    _drop_caches(chain)
        return None if losses is None else np.concatenate(losses)

    # ------------------------------------------------------------------ #
    # row shards
    # ------------------------------------------------------------------ #
    def _shard_count(self, x: np.ndarray) -> int:
        """How many row shards this step runs as — computed, never set.

        As many as there are usable cores and rows, but no more than leave
        every shard :data:`MIN_SHARD_ELEMENTS` activation elements, and one
        unless the BLAS has been pinned to a single thread (its idle workers
        would otherwise spin on the cores the shard threads need).
        """
        if self._shard_source is None:
            return 1
        # The size rule first: it is plain arithmetic, and the small steps it
        # turns away are the ones that cannot afford a syscall per step.
        # Axis 2 is the feature axis of both float layouts, (N, B, F) and
        # (N, B, C, H, W); a token block (N, B, T) is all positions.
        positions = x.size if self._token_input else x.size // x.shape[2]
        elements = positions * self._layers[-1].weight.shape[2]
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
            # shard (small models, one core) never pay for sub-matrix chains.
            module, row_offset = self._shard_source
            matrix = self._matrix
            chains = []
            for lo, hi in group_bounds(matrix.num_workers, k):
                sub = WorkerMatrix(
                    hi - lo, matrix.spec, params=matrix.params[lo:hi], grads=matrix.grads[lo:hi]
                )
                chains.append((lo, hi, type(self).build(sub, module, row_offset + lo)._layers))
            self._chains[k] = chains
            _log.info(
                "replica shards: %d rows in %d shards on %d cores, BLAS threads %d -> 1",
                matrix.num_workers, k, threads.usable_cores(), threads.pin_blas(),
            )
        return chains

    def grad_norms(self) -> np.ndarray:
        """Per-replica gradient L2 norms in one pass over the gradient matrix."""
        g = self._matrix.grads
        return np.sqrt(np.einsum("ij,ij->i", g, g))

    @property
    def token_input(self) -> bool:
        """Whether inputs are integer token blocks (stay uncast) or features."""
        return self._token_input
