"""Core layers with vectorized NumPy forward and manual backward passes.

Gradient correctness of every layer is verified against central finite
differences in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter


def _as_float(x: np.ndarray, dtype=None) -> np.ndarray:
    """Coerce to the given float dtype; without one, promote non-float input.

    Layers with parameters pass their weight dtype so the whole forward /
    backward chain runs in the engine's compute dtype (float32 or float64);
    parameter-free layers preserve whatever float dtype flows through them.
    """
    if dtype is not None:
        return np.asarray(x, dtype=dtype)
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        return x.astype(np.float64)
    return x


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
        x = _as_float(x, self.weight.data.dtype)
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
        grad_output = _as_float(grad_output, self.weight.data.dtype)
        # Collapse leading dimensions so the same code path handles both
        # (batch, features) and (batch, seq, features) inputs.
        x2 = x.reshape(-1, self.in_features)
        g2 = grad_output.reshape(-1, self.out_features)
        self.weight.grad += g2.T @ x2
        if self.use_bias:
            self.bias.grad += g2.sum(axis=0)
        grad_input = g2 @ self.weight.data
        return grad_input.reshape(x.shape)


class Identity(Module):
    """Pass-through layer (useful in ablations that remove a block)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = None if self._inference else mask
        return np.where(mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("ReLU.backward called before forward")
        return np.where(self._mask, grad_output, 0.0)


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


class Sigmoid(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-x))
        self._out = None if self._inference else out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("Sigmoid.backward called before forward")
        return grad_output * self._out * (1.0 - self._out)


class GELU(Module):
    """Gaussian error linear unit using the tanh approximation."""

    _C = np.sqrt(2.0 / np.pi)

    def __init__(self) -> None:
        super().__init__()
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x)
        self._x = None if self._inference else x
        inner = self._C * (x + 0.044715 * x**3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("GELU.backward called before forward")
        x = self._x
        inner = self._C * (x + 0.044715 * x**3)
        tanh_inner = np.tanh(inner)
        sech2 = 1.0 - tanh_inner**2
        d_inner = self._C * (1.0 + 3 * 0.044715 * x**2)
        grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
        return grad_output * grad


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    Masks come from a private per-layer generator by default.  When a
    :class:`~repro.engine.dropout_stream.SharedDropoutStream` is attached
    (:meth:`use_shared_stream`), the layer instead takes its worker's row of
    the stream's deterministic per-(step, layer) mask block — the mode the
    batched replica executor and its row shards rely on for exact parity
    with the per-worker path.
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
        self._shared_stream = None
        self._stream_layer_id = 0
        self._stream_slot = 0

    def use_shared_stream(self, stream, layer_id: int, worker_slot: int) -> None:
        """Draw future masks from ``stream`` (row ``worker_slot`` of layer blocks)."""
        self._shared_stream = stream
        self._stream_layer_id = int(layer_id)
        self._stream_slot = int(worker_slot)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._no_backward = self._inference
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        if self._shared_stream is not None:
            mask = self._shared_stream.worker_mask(
                self._stream_layer_id, x.shape, self.p, self._stream_slot
            )
            # Stay in the activation dtype (float32 mode); float64 masks keep
            # the default path's arithmetic bit-identical.
            if mask.dtype != x.dtype and np.issubdtype(x.dtype, np.floating):
                mask = mask.astype(x.dtype)
        else:
            mask = (self._rng.random(x.shape) < keep) / keep
        self._mask = None if self._inference else mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._no_backward:
            raise RuntimeError("Dropout.backward called before forward")
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = None if self._inference else x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("Flatten.backward called before forward")
        return grad_output.reshape(self._shape)


class BatchNorm1d(Module):
    """Batch normalization over the feature dimension of (batch, features)."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        # Running statistics are buffers, not parameters: they follow the
        # local replica and are not synchronized (matching DDP defaults).
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x, self.gamma.data.dtype)
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expects (batch, {self.num_features}), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            # Running statistics stay float64 for numerically stable EWMAs
            # regardless of the compute dtype.
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)
        x_hat = (x - mean) / np.sqrt(var + self.eps)
        self._cache = None if self._inference else (x_hat, var)
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("BatchNorm1d.backward called before forward")
        x_hat, var = self._cache
        n = x_hat.shape[0]
        self.gamma.grad += (grad_output * x_hat).sum(axis=0)
        self.beta.grad += grad_output.sum(axis=0)
        if not self.training:
            return grad_output * self.gamma.data / np.sqrt(var + self.eps)
        dxhat = grad_output * self.gamma.data
        inv_std = 1.0 / np.sqrt(var + self.eps)
        grad_input = (
            inv_std
            / n
            * (n * dxhat - dxhat.sum(axis=0) - x_hat * (dxhat * x_hat).sum(axis=0))
        )
        return grad_input


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
        x = _as_float(x, self.gamma.data.dtype)
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


# --------------------------------------------------------------------------- #
# Convolutional layers (im2col based)
# --------------------------------------------------------------------------- #
def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Convert (B, C, H, W) into (B, out_h, out_w, C*kh*kw) patches."""
    b, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    shape = (b, c, out_h, out_w, kh, kw)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(b, out_h, out_w, c * kh * kw)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`_im2col`, scattering patch gradients back to the image."""
    b, c, h, w = x_shape
    h_p, w_p = h + 2 * padding, w + 2 * padding
    out_h = (h_p - kh) // stride + 1
    out_w = (w_p - kw) // stride + 1
    x_grad = np.zeros((b, c, h_p, w_p), dtype=cols.dtype)
    cols = cols.reshape(b, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            x_grad[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if padding:
        return x_grad[:, :, padding:-padding, padding:-padding]
    return x_grad


class Conv2d(Module):
    """2-D convolution over (batch, channels, height, width) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng=rng))
        self.use_bias = bool(bias)
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x, self.weight.data.dtype)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        k = self.kernel_size
        cols, out_h, out_w = _im2col(x, k, k, self.stride, self.padding)
        w_flat = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w_flat.T  # (B, out_h, out_w, out_channels)
        if self.use_bias:
            out = out + self.bias.data
        self._cache = None if self._inference else (x.shape, cols)
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("Conv2d.backward called before forward")
        x_shape, cols = self._cache
        k = self.kernel_size
        g = grad_output.transpose(0, 2, 3, 1)  # (B, out_h, out_w, out_c)
        g2 = g.reshape(-1, self.out_channels)
        cols2 = cols.reshape(-1, cols.shape[-1])
        self.weight.grad += (g2.T @ cols2).reshape(self.weight.data.shape)
        if self.use_bias:
            self.bias.grad += g2.sum(axis=0)
        w_flat = self.weight.data.reshape(self.out_channels, -1)
        dcols = g @ w_flat  # (B, out_h, out_w, C*k*k)
        return _col2im(dcols, x_shape, k, k, self.stride, self.padding)


class MaxPool2d(Module):
    """Max pooling with square window and equal stride."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_float(x)
        b, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        shape = (b, c, out_h, out_w, k, k)
        strides = (
            x.strides[0],
            x.strides[1],
            x.strides[2] * s,
            x.strides[3] * s,
            x.strides[2],
            x.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
        windows = windows.reshape(b, c, out_h, out_w, k * k)
        idx = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        self._cache = None if self._inference else (x.shape, idx)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("MaxPool2d.backward called before forward")
        x_shape, idx = self._cache
        b, c, h, w = x_shape
        k, s = self.kernel_size, self.stride
        out_h, out_w = idx.shape[2], idx.shape[3]
        grad_input = np.zeros(x_shape, dtype=np.asarray(grad_output).dtype)
        # Scatter each output gradient back to its argmax location.
        rows = idx // k
        cols = idx % k
        for i in range(out_h):
            for j in range(out_w):
                r = i * s + rows[:, :, i, j]
                cc = j * s + cols[:, :, i, j]
                bb, ch = np.meshgrid(np.arange(b), np.arange(c), indexing="ij")
                grad_input[bb, ch, r, cc] += grad_output[:, :, i, j]
        return grad_input


class GlobalAvgPool2d(Module):
    """Average over spatial dimensions: (B, C, H, W) -> (B, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = None if self._inference else x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("GlobalAvgPool2d.backward called before forward")
        b, c, h, w = self._shape
        return np.broadcast_to(
            grad_output[:, :, None, None] / (h * w), self._shape
        ).copy()


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
