"""Learning-rate schedules as shapes: a factor on the optimizer's lr per step.

A run's lr is stated once, on the optimizer; a schedule only shapes it.
``schedule(step)`` returns the factor the optimizer's lr is multiplied by at
that global step (``1.0`` at step 0 for every decay), and the cluster's fused
update steps at ``lr * schedule(step)``.  No schedule means the identity
shape, :class:`ConstantLR`.

The paper's recipes use multi-step decay by epoch (ResNet101: x0.1 after
epochs 110 and 150; VGG11: after 50 and 75), a fixed LR (AlexNet) and an
interval decay every 2000 iterations by 0.8 (Transformer).  All of those are
expressible with the classes below; schedules are queried per *iteration* and
convert epochs to iterations through ``steps_per_epoch``.
"""

from __future__ import annotations

import math
from typing import Sequence


class LRSchedule:
    """Base class: maps a global step index to a factor on the optimizer's lr."""

    def factor_at(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        return self.factor_at(step)


class ConstantLR(LRSchedule):
    """The identity shape: the optimizer's lr at every step (AlexNet workload)."""

    def factor_at(self, step: int) -> float:
        return 1.0


class MultiStepDecay(LRSchedule):
    """Multiply the LR by ``gamma`` at each milestone step.

    Milestones given in epochs can be converted with ``steps_per_epoch``.
    """

    def __init__(
        self,
        milestones: Sequence[int],
        gamma: float = 0.1,
        steps_per_epoch: int = 1,
    ) -> None:
        if not 0 < gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        if steps_per_epoch <= 0:
            raise ValueError(f"steps_per_epoch must be positive, got {steps_per_epoch}")
        converted = sorted(int(m) * int(steps_per_epoch) for m in milestones)
        if any(m < 0 for m in converted):
            raise ValueError("milestones must be non-negative")
        self.milestones = converted
        self.gamma = float(gamma)

    def factor_at(self, step: int) -> float:
        passed = sum(1 for m in self.milestones if step >= m)
        return self.gamma**passed


class IntervalDecay(LRSchedule):
    """Decay by ``gamma`` every ``interval`` steps (Transformer recipe: 0.8 / 2000)."""

    def __init__(self, interval: int, gamma: float) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not 0 < gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.interval = int(interval)
        self.gamma = float(gamma)

    def factor_at(self, step: int) -> float:
        return self.gamma ** (step // self.interval)


class ExponentialDecay(LRSchedule):
    """Smooth exponential decay, ``decay_rate ** (step / decay_steps)``."""

    def __init__(self, decay_rate: float, decay_steps: int) -> None:
        if not 0 < decay_rate <= 1:
            raise ValueError(f"decay_rate must be in (0, 1], got {decay_rate}")
        if decay_steps <= 0:
            raise ValueError(f"decay_steps must be positive, got {decay_steps}")
        self.decay_rate = float(decay_rate)
        self.decay_steps = int(decay_steps)

    def factor_at(self, step: int) -> float:
        return self.decay_rate ** (step / self.decay_steps)


class WarmupCosine(LRSchedule):
    """Linear warmup followed by cosine decay to ``min_factor`` over ``total_steps``."""

    def __init__(self, warmup_steps: int, total_steps: int, min_factor: float = 0.0) -> None:
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {warmup_steps}")
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        if not 0 <= min_factor <= 1:
            raise ValueError(f"min_factor must be in [0, 1], got {min_factor}")
        self.warmup_steps = int(warmup_steps)
        self.total_steps = int(total_steps)
        self.min_factor = float(min_factor)

    def factor_at(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return (step + 1) / self.warmup_steps
        progress = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        progress = min(max(progress, 0.0), 1.0)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_factor + (1.0 - self.min_factor) * cosine
