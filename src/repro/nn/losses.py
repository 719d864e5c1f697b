"""Loss functions with analytic gradients.

Both losses return ``(loss_value, grad_wrt_logits)`` from ``forward_backward``
so trainers can run a single fused call per step, and also expose separate
``forward`` / ``backward`` to match the layer interface used in tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


#: Rows per evaluation slab of :func:`cross_entropy_loss`: the log-softmax
#: temporaries are ``_LOSS_BLOCK × classes`` (1.6 MB at 200 classes) however
#: many rows the logits block has.
_LOSS_BLOCK = 1024


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _flat_logits_and_targets(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Validated ``(n, classes)`` logits and ``(n,)`` integer targets.

    Logits stay in the dtype they arrive in (the engine's compute dtype);
    non-float inputs are promoted to float64.
    """
    logits = np.asarray(logits)
    if not np.issubdtype(logits.dtype, np.floating):
        logits = logits.astype(np.float64)
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise TypeError("targets must be integer class ids")
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    if flat_targets.min(initial=0) < 0 or flat_targets.max(initial=0) >= num_classes:
        raise IndexError("target class id out of range")
    return flat_logits, flat_targets


def cross_entropy_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy without its gradient (evaluation).

    Exactly the loss value of :func:`cross_entropy_with_logits` (same
    ``log_softmax`` arithmetic, same reduction) without building the
    probabilities and the logits gradient.  The log-softmax is row-wise, so
    it runs one ``_LOSS_BLOCK``-row slab at a time and keeps only each row's
    target log-probability; ``logits`` is left untouched.
    """
    flat_logits, flat_targets = _flat_logits_and_targets(logits, targets)
    n = flat_logits.shape[0]
    picked = np.empty(n, dtype=flat_logits.dtype)
    for start in range(0, n, _LOSS_BLOCK):
        stop = min(start + _LOSS_BLOCK, n)
        block = flat_logits[start:stop]
        shifted = block - block.max(axis=-1, keepdims=True)
        picked[start:stop] = shifted[np.arange(stop - start), flat_targets[start:stop]]
        np.exp(shifted, out=shifted)
        picked[start:stop] -= np.log(shifted.sum(axis=-1))
    return float(-picked.mean())


def cross_entropy_with_logits(
    logits: np.ndarray, targets: np.ndarray, label_smoothing: float = 0.0
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    ``logits`` may be (batch, classes) or (batch, seq, classes); ``targets``
    holds integer class ids with the matching leading shape.
    """
    flat_logits, flat_targets = _flat_logits_and_targets(logits, targets)
    n, num_classes = flat_logits.shape
    logp = log_softmax(flat_logits, axis=-1)
    probs = np.exp(logp)
    rows = np.arange(n)
    if label_smoothing > 0.0:
        smooth = label_smoothing / num_classes
        target_dist = np.full_like(logp, smooth)
        target_dist[rows, flat_targets] += 1.0 - label_smoothing
        loss = -(target_dist * logp).sum(axis=-1).mean()
        grad = (probs - target_dist) / n
    else:
        loss = -logp[rows, flat_targets].mean()
        # probs is a fresh array; mutate it in place instead of copying.
        grad = probs
        grad[rows, flat_targets] -= 1.0
        grad /= n
    return float(loss), grad.reshape(np.shape(logits))


class CrossEntropyLoss:
    """Softmax cross-entropy on integer targets (optionally label-smoothed)."""

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
        self.label_smoothing = float(label_smoothing)
        self._cached_grad: Optional[np.ndarray] = None

    def forward_backward(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        loss, grad = cross_entropy_with_logits(
            logits, targets, label_smoothing=self.label_smoothing
        )
        self._cached_grad = grad
        return loss, grad

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        loss, _ = self.forward_backward(logits, targets)
        return loss

    def backward(self) -> np.ndarray:
        if self._cached_grad is None:
            raise RuntimeError("CrossEntropyLoss.backward called before forward")
        return self._cached_grad

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(logits, targets)


class MSELoss:
    """Mean squared error for regression heads and unit tests."""

    def __init__(self) -> None:
        self._cached_grad: Optional[np.ndarray] = None

    def forward_backward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
            )
        diff = predictions - targets
        loss = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
        self._cached_grad = grad
        return loss, grad

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        loss, _ = self.forward_backward(predictions, targets)
        return loss

    def backward(self) -> np.ndarray:
        if self._cached_grad is None:
            raise RuntimeError("MSELoss.backward called before forward")
        return self._cached_grad

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


def perplexity_from_loss(mean_cross_entropy: float) -> float:
    """Test perplexity = exp(loss), as reported for the Transformer workload."""
    return float(np.exp(min(mean_cross_entropy, 700.0)))
