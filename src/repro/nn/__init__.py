"""Pure-NumPy neural-network substrate.

This subpackage stands in for PyTorch in the original SelSync implementation.
It provides a :class:`Module`/:class:`Parameter` system with explicit manual
backpropagation, the layers needed by the paper's four workloads
(ResNet-like, VGG-like, AlexNet-like and a Transformer language model), and
the loss functions used in the evaluation.

The design goal is *correct gradients* (verified by finite differences in the
test suite) with vectorized NumPy forward/backward passes so the simulated
16-worker cluster trains in seconds on a CPU.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    Linear,
    ReLU,
    Tanh,
    Dropout,
    LayerNorm,
    Embedding,
    ResidualMLPBlock,
)
from repro.nn.attention import MultiHeadSelfAttention, PositionalEncoding, TransformerEncoderLayer
from repro.nn.losses import (
    log_softmax,
    cross_entropy_loss,
    cross_entropy_with_logits,
)
from repro.nn import init
from repro.nn.models import (
    MLP,
    ResNetLike,
    VGGLike,
    AlexNetLike,
    TransformerLM,
)

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "ReLU",
    "Tanh",
    "Dropout",
    "LayerNorm",
    "Embedding",
    "ResidualMLPBlock",
    "MultiHeadSelfAttention",
    "PositionalEncoding",
    "TransformerEncoderLayer",
    "log_softmax",
    "cross_entropy_loss",
    "cross_entropy_with_logits",
    "init",
    "MLP",
    "ResNetLike",
    "VGGLike",
    "AlexNetLike",
    "TransformerLM",
]
