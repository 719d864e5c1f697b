"""Gradient compression baselines surveyed in §II-D of the paper.

SelSync reduces *when* workers communicate; these methods reduce *how much*
is communicated on every step.  They are implemented so the compression
ablation bench can compare communication volume and accuracy against
SelSync's selective synchronization:

* sparsification — :class:`TopKCompressor` (DGC / Top-k style),
* quantization — :class:`SignSGDCompressor`,
* low-rank — :class:`PowerSGDCompressor`.
"""

from repro.compression.base import Compressor, CompressedPayload, compression_error
from repro.compression.topk import TopKCompressor
from repro.compression.signsgd import SignSGDCompressor
from repro.compression.powersgd import PowerSGDCompressor
from repro.compression.trainer import CompressedBSPTrainer

__all__ = [
    "Compressor",
    "CompressedPayload",
    "compression_error",
    "TopKCompressor",
    "SignSGDCompressor",
    "PowerSGDCompressor",
    "CompressedBSPTrainer",
]
