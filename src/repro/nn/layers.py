"""Core layers with vectorized NumPy forward and manual backward passes.

Gradient correctness of every layer is verified against central finite
differences in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine transform ``y = x W^T + b`` for inputs of shape (..., in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng))
        self.use_bias = bool(bias)
        if bias:
            self.bias = Parameter(init.zeros((out_features,)))
        self._cache_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weight.data.dtype)
        self._cache_x = None if self._inference else x
        # Collapse leading dimensions into one GEMM (a no-op view for 2-D
        # inputs); (batch, seq, features) sequences hit a single BLAS call
        # instead of one per batch row.
        x2 = x.reshape(-1, self.in_features)
        out = x2 @ self.weight.data.T
        if self.use_bias:
            out += self.bias.data
        return out.reshape(x.shape[:-1] + (self.out_features,))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError("Linear.backward called before forward")
        x = self._cache_x
        grad_output = np.asarray(grad_output, dtype=self.weight.data.dtype)
        # Collapse leading dimensions so the same code path handles both
        # (batch, features) and (batch, seq, features) inputs.
        x2 = x.reshape(-1, self.in_features)
        g2 = grad_output.reshape(-1, self.out_features)
        self.weight.grad += g2.T @ x2
        if self.use_bias:
            self.bias.grad += g2.sum(axis=0)
        grad_input = g2 @ self.weight.data
        return grad_input.reshape(x.shape)


def relu(x: np.ndarray) -> np.ndarray:
    """``max(x, 0)``, branch-free, with the bits of the select ``x if x > 0 else 0``.

    ``fmax`` maps NaN to 0 as the ``x > 0`` select does; the ``+ 0`` turns
    the -0.0 that ``fmax`` may return for ``x = -0.0`` (NumPy's scalar loop
    does, its SIMD loop does not) into +0.0.  A select on a data-dependent
    mask mispredicts about one branch per element; this takes no branch.
    """
    out = np.fmax(x, 0)
    out += 0
    return out


def relu_grad(mask: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``grad if mask else 0`` per element, bit for bit, as an AND with an all-ones/zero mask.

    Exact for every float input (±0, ±inf, NaN, subnormals): where ``mask``
    holds, the gradient's bits pass through; elsewhere they are all zero,
    which is +0.0.
    """
    uint = np.dtype(f"u{grad.dtype.itemsize}")
    keep = mask.astype(uint)
    np.negative(keep, out=keep)
    keep &= grad.view(uint)
    return keep.view(grad.dtype)


class ReLU(Module):
    """Rectifier; the batched replica executor runs the same :func:`relu` /
    :func:`relu_grad` arithmetic, and caches the same bool mask."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = None if self._inference else x > 0
        return relu(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("ReLU.backward called before forward")
        return relu_grad(self._mask, np.asarray(grad_output))


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self._out = None if self._inference else out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("Tanh.backward called before forward")
        return grad_output * (1.0 - self._out**2)


def dropout_mask(uniform: np.ndarray, p: float, dtype) -> np.ndarray:
    """Inverted-dropout mask from uniform draws: ``1/(1-p)`` where kept, else 0.

    Computed in float64 and rounded once to ``dtype`` (the activation
    dtype), so float64 masks are exact and float32 activations stay float32.
    """
    keep = 1.0 - p
    return ((uniform < keep) / keep).astype(dtype, copy=False)


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    Masks come from the layer's private generator, on both paths: the
    batched replica executor draws each replica's row from that replica's
    layer generator, with the same :func:`dropout_mask` arithmetic.
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = rng or np.random.default_rng()
        self._mask: Optional[np.ndarray] = None
        # A None mask means identity here, so "forward kept nothing" (an
        # inference forward) needs its own flag for backward to refuse.
        self._no_backward = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._no_backward = self._inference
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        mask = dropout_mask(self._rng.random(x.shape), self.p, x.dtype)
        self._mask = None if self._inference else mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._no_backward:
            raise RuntimeError("Dropout.backward called before forward")
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.normalized_shape = int(normalized_shape)
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((normalized_shape,)))
        self.beta = Parameter(init.zeros((normalized_shape,)))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.gamma.data.dtype)
        # Centre once: ``x - mean`` feeds both the variance and x_hat.  These
        # are the reductions and divides ``x.var`` runs internally, minus its
        # second mean / subtract pass.
        x_hat = x - x.mean(axis=-1, keepdims=True)
        out = x_hat * x_hat        # the squares now, the output block below
        var = out.sum(axis=-1, keepdims=True) / x.shape[-1]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        self._cache = None if self._inference else (x_hat, inv_std)
        np.multiply(self.gamma.data, x_hat, out=out)
        out += self.beta.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("LayerNorm.backward called before forward")
        x_hat, inv_std = self._cache
        d = x_hat.shape[-1]
        reduce_axes = tuple(range(grad_output.ndim - 1))
        self.gamma.grad += (grad_output * x_hat).sum(axis=reduce_axes)
        self.beta.grad += grad_output.sum(axis=reduce_axes)
        dxhat = grad_output * self.gamma.data
        grad_input = (
            inv_std
            / d
            * (
                d * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - x_hat * (dxhat * x_hat).sum(axis=-1, keepdims=True)
            )
        )
        return grad_input


class Embedding(Module):
    """Token-id lookup table mapping int arrays (..., ) -> (..., dim)."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = int(num_embeddings)
        self.embedding_dim = int(embedding_dim)
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=0.02, rng=rng))
        self._ids: Optional[np.ndarray] = None

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        token_ids = np.asarray(token_ids)
        if not np.issubdtype(token_ids.dtype, np.integer):
            raise TypeError("Embedding expects integer token ids")
        if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= self.num_embeddings:
            raise IndexError("token id out of range for Embedding")
        self._ids = None if self._inference else token_ids
        return self.weight.data[token_ids]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._ids is None:
            raise RuntimeError("Embedding.backward called before forward")
        flat_ids = self._ids.reshape(-1)
        flat_grad = grad_output.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, flat_ids, flat_grad)
        # Token ids carry no gradient; return zeros with the input's shape so
        # callers composing embeddings with other inputs stay shape-correct.
        return np.zeros(self._ids.shape, dtype=np.float64)


class ResidualMLPBlock(Module):
    """Two-layer MLP block with a skip connection and layer norm.

    This is the structural analog of a ResNet basic block: the skip
    connection is what distinguishes the ``ResNetLike`` workload from the
    plain ``VGGLike`` stack in the reproduction (the paper attributes
    ResNet101's robustness to its skip connections, §IV-C).
    """

    def __init__(
        self,
        dim: int,
        hidden_dim: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        zero_init_residual: bool = True,
    ) -> None:
        super().__init__()
        hidden_dim = hidden_dim or dim
        self.norm = LayerNorm(dim)
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.act = ReLU()
        self.fc2 = Linear(hidden_dim, dim, rng=rng)
        if zero_init_residual:
            # Zero-initializing the residual branch's output projection makes
            # every block start as the identity, which keeps activation
            # variance bounded with depth and lets the deep analog train
            # stably at the paper's learning rates.
            self.fc2.weight.data[...] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.norm.forward(x)
        h = self.fc1.forward(h)
        h = self.act.forward(h)
        h = self.fc2.forward(h)
        return x + h

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        g = self.fc2.backward(grad_output)
        g = self.act.backward(g)
        g = self.fc1.backward(g)
        g = self.norm.backward(g)
        return grad_output + g
