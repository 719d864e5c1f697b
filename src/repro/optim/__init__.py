"""Optimizers and learning-rate schedules.

Matches the hyperparameter setups in §IV-A of the paper: SGD with momentum
and weight decay (ResNet/VGG/Transformer workloads) and Adam with a fixed
learning rate (AlexNet workload), plus the step-decay schedules the paper
uses ("decay lr by 10x after epoch 110 and 150", etc.).  The lr is stated
once, on the optimizer; a schedule is its shape, a factor per step.
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.schedules import (
    LRSchedule,
    ConstantLR,
    MultiStepDecay,
    ExponentialDecay,
    WarmupCosine,
    IntervalDecay,
)

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRSchedule",
    "ConstantLR",
    "MultiStepDecay",
    "ExponentialDecay",
    "WarmupCosine",
    "IntervalDecay",
]
