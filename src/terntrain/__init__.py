"""Ternary-weight network training with trainable per-layer thresholds.

Weights are quantized to {-1, 0, +1} codes times a per-layer scale derived
in closed form from truncated-Gaussian statistics; both the weights and the
ternarization thresholds are optimized by back-propagation. Trained models
export to a 2-bit packed binary format.
"""

__version__ = "0.1.0"

from .autograd import Tensor, backward
from .network import Model, build_from_config
from .ternarize import QuantizerState

__all__ = [
    "Tensor",
    "backward",
    "Model",
    "build_from_config",
    "QuantizerState",
    "__version__",
]
