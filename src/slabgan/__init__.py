"""slabgan: memory-amortized volumetric GAN library.

Training generates a low-resolution full volume plus one randomly chosen
high-resolution depth slab per step, so activation and gradient memory
scales with the slab rather than the full volume; inference generates and
encodes whole volumes directly. Includes the class-conditional variant,
a slab-trained super-resolution model, distribution/image metrics, and an
analytic + instrumented memory cost model. Pure numpy/scipy.
Re-exported here: the Tensor and its heavy ops, the depth-window
selectors and partition, and the network scale configuration.
"""

from .tensor import (Tensor, backward, no_grad, conv3d, dense, group_norm,
                     interp_plan, resize3d, spectral_norm, activation)
from .geometry import SliceWindow, sample_r, select_low, select_high, split_volume
from .networks import NetConfig, reference_config, desk_config

__all__ = [
    "Tensor", "backward", "no_grad", "conv3d", "dense", "group_norm",
    "interp_plan", "resize3d", "spectral_norm", "activation",
    "SliceWindow", "sample_r", "select_low", "select_high", "split_volume",
    "NetConfig", "reference_config", "desk_config",
]

__version__ = "0.1.0"
