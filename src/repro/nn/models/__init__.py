"""Workload models mirroring the four DNNs evaluated in the paper.

Each model is a down-scaled structural analog:

* :class:`ResNetLike`  — deep residual MLP (skip connections, like ResNet101)
* :class:`VGGLike`     — plain deep stack with a large dense head (like VGG11)
* :class:`AlexNetLike` — shallow network with dropout (like AlexNet)
* :class:`TransformerLM` — 2-layer, 2-head encoder language model
* :class:`MLP`         — plain multi-layer perceptron (the ``deep_mlp`` preset)
"""

from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import ResNetLike
from repro.nn.models.vgg import VGGLike
from repro.nn.models.alexnet import AlexNetLike
from repro.nn.models.transformer import TransformerLM

__all__ = [
    "MLP",
    "ResNetLike",
    "VGGLike",
    "AlexNetLike",
    "TransformerLM",
]
