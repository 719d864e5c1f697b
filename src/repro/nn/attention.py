"""Transformer building blocks: multi-head self-attention and encoder layers.

The paper's fourth workload is a small Transformer encoder language model
trained on WikiText-103 (2 layers, 2 heads, d_model = 200, bptt = 35).  The
reproduction keeps the same architecture shape, scaled to a synthetic token
stream, with fully manual backpropagation through attention.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Dropout, LayerNorm, Linear, ReLU
from repro.nn.module import Module


class PositionalEncoding(Module):
    """Sinusoidal positional encoding added to token embeddings."""

    def __init__(self, d_model: int, max_len: int = 2048) -> None:
        super().__init__()
        self.d_model = int(d_model)
        position = np.arange(max_len)[:, None].astype(np.float64)
        div_term = np.exp(np.arange(0, d_model, 2) * (-np.log(10000.0) / d_model))
        pe = np.zeros((max_len, d_model), dtype=np.float64)
        pe[:, 0::2] = np.sin(position * div_term)
        pe[:, 1::2] = np.cos(position * div_term[: (d_model + 1) // 2][: pe[:, 1::2].shape[1]])
        self.pe = pe

    def forward(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[1]
        if seq_len > self.pe.shape[0]:
            raise ValueError(
                f"sequence length {seq_len} exceeds positional table {self.pe.shape[0]}"
            )
        pe = self.pe[:seq_len]
        if x.dtype != pe.dtype and np.issubdtype(x.dtype, np.floating):
            # Stay in the engine compute dtype (float32 mode) instead of
            # promoting the whole activation stream to float64.
            pe = pe.astype(x.dtype)
        return x + pe

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads.

    Supports an optional causal mask (used by the language model so position
    ``t`` only attends to positions ``<= t``).
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        causal: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        self.d_model = int(d_model)
        self.num_heads = int(num_heads)
        self.d_head = d_model // num_heads
        self.causal = bool(causal)
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self._causal_mask: Optional[np.ndarray] = None   # (T, T) bool, built once per T
        self._cache = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        b, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Compute in the projection weights' dtype (the engine compute dtype).
        x = np.asarray(x, dtype=self.q_proj.weight.data.dtype)
        if x.ndim != 3 or x.shape[-1] != self.d_model:
            raise ValueError(f"expected (batch, seq, {self.d_model}), got {x.shape}")
        q = self._split_heads(self.q_proj.forward(x))
        k = self._split_heads(self.k_proj.forward(x))
        v = self._split_heads(self.v_proj.forward(x))
        scale = 1.0 / np.sqrt(self.d_head)
        # Stacked GEMMs (BLAS) instead of einsum: same contractions, one
        # matmul per (batch, head) slice.  Scale, mask and softmax all happen
        # in the scores buffer.
        attn = np.matmul(q, k.swapaxes(-1, -2))
        attn *= scale
        if self.causal:
            t = x.shape[1]
            if self._causal_mask is None or self._causal_mask.shape[0] != t:
                self._causal_mask = np.triu(np.ones((t, t), dtype=bool), k=1)
            np.copyto(attn, -1e30, where=self._causal_mask)
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        context = np.matmul(attn, v)
        merged = self._merge_heads(context)
        out = self.out_proj.forward(merged)
        self._cache = None if self._inference else (q, k, v, attn, scale)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("MultiHeadSelfAttention.backward called before forward")
        q, k, v, attn, scale = self._cache
        d_merged = self.out_proj.backward(grad_output)
        b, t, _ = d_merged.shape
        d_context = d_merged.reshape(b, t, self.num_heads, self.d_head).transpose(0, 2, 1, 3)
        # context = attn @ v
        d_attn = np.matmul(d_context, v.swapaxes(-1, -2))
        d_v = np.matmul(attn.swapaxes(-1, -2), d_context)
        # softmax backward over the last axis
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores = d_scores * scale
        d_q = np.matmul(d_scores, k)
        d_k = np.matmul(d_scores.swapaxes(-1, -2), q)
        dx = self.q_proj.backward(self._merge_heads(d_q))
        dx = dx + self.k_proj.backward(self._merge_heads(d_k))
        dx = dx + self.v_proj.backward(self._merge_heads(d_v))
        return dx


class TransformerEncoderLayer(Module):
    """Pre-norm Transformer encoder block: attention + feed-forward, both residual."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dim_feedforward: int,
        dropout: float = 0.0,
        causal: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(d_model)
        self.attn = MultiHeadSelfAttention(d_model, num_heads, causal=causal, rng=rng)
        self.drop1 = Dropout(dropout, rng=rng)
        self.norm2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, dim_feedforward, rng=rng)
        self.act = ReLU()
        self.ff2 = Linear(dim_feedforward, d_model, rng=rng)
        self.drop2 = Dropout(dropout, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = self.norm1.forward(x)
        a = self.attn.forward(a)
        a = self.drop1.forward(a)
        x = x + a
        f = self.norm2.forward(x)
        f = self.ff1.forward(f)
        f = self.act.forward(f)
        f = self.ff2.forward(f)
        f = self.drop2.forward(f)
        return x + f

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        g_ff = self.drop2.backward(grad_output)
        g_ff = self.ff2.backward(g_ff)
        g_ff = self.act.backward(g_ff)
        g_ff = self.ff1.backward(g_ff)
        g_ff = self.norm2.backward(g_ff)
        g_mid = grad_output + g_ff
        g_attn = self.drop1.backward(g_mid)
        g_attn = self.attn.backward(g_attn)
        g_attn = self.norm1.backward(g_attn)
        return g_mid + g_attn
