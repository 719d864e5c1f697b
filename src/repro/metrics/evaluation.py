"""Model evaluation on held-out data for both task types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.metrics.accuracy import accuracy, top_k_accuracy
from repro.nn.losses import cross_entropy_loss, perplexity_from_loss
from repro.nn.module import Module


@dataclass
class EvalResult:
    """Evaluation summary for one checkpoint."""

    loss: float
    metric: float            # accuracy (higher better) or perplexity (lower better)
    metric_name: str          # "accuracy", "top5_accuracy" or "perplexity"
    num_samples: int

    @property
    def higher_is_better(self) -> bool:
        return self.metric_name != "perplexity"


def evaluate_model(
    model: Module,
    dataset,
    task: str = "classification",
    batch_size: int = 256,
    max_batches: Optional[int] = None,
    top_k: Optional[int] = None,
) -> EvalResult:
    """Evaluate ``model`` on ``dataset`` and return loss plus the task metric.

    ``task`` is ``"classification"`` (accuracy, or top-k accuracy when
    ``top_k`` is set) or ``"language_modeling"`` (perplexity).  Evaluation
    runs in ``eval()`` mode inside ``model.inference()`` — forward only, no
    layer keeps a backward cache and no loss gradient is built — and restores
    the previous training and inference flags.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if task not in ("classification", "language_modeling"):
        raise ValueError(f"unknown task {task!r}")
    was_training = model.training
    model.eval()
    total_loss = 0.0
    total_correct = 0.0
    total_samples = 0
    n = len(dataset)
    num_batches = int(np.ceil(n / batch_size))
    if max_batches is not None:
        num_batches = min(num_batches, max_batches)
    try:
        with model.inference():
            for b in range(num_batches):
                idx = np.arange(b * batch_size, min((b + 1) * batch_size, n))
                inputs, targets = dataset[idx]
                logits = model.forward(inputs)
                loss = cross_entropy_loss(logits, targets)
                count = idx.size
                total_loss += loss * count
                if task == "classification":
                    if top_k is not None and top_k > 1:
                        total_correct += top_k_accuracy(logits, targets, k=top_k) * count
                    else:
                        total_correct += accuracy(logits, targets) * count
                total_samples += count
    finally:
        if was_training:
            model.train()
    if total_samples == 0:
        raise ValueError("dataset produced no evaluation samples")
    mean_loss = total_loss / total_samples
    if task == "language_modeling":
        return EvalResult(
            loss=mean_loss,
            metric=perplexity_from_loss(mean_loss),
            metric_name="perplexity",
            num_samples=total_samples,
        )
    metric_name = f"top{top_k}_accuracy" if (top_k is not None and top_k > 1) else "accuracy"
    return EvalResult(
        loss=mean_loss,
        metric=total_correct / total_samples,
        metric_name=metric_name,
        num_samples=total_samples,
    )
