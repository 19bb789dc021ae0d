"""The network family at reference and desk scales.

Prints the layer tables, checks the slab/full consistency of the
high-res decoder, and shows that parameter count barely grows with
output resolution (activations, not parameters, carry the memory cost).
"""

import numpy as np
from dataclasses import replace

from slabgan.geometry import SliceWindow, select_low
from slabgan.networks import (CONSISTENCY_MARGIN, build_g_h, build_model_set,
                              desk_config, parameter_count, reference_config,
                              summary, symbolic_model_set)
from slabgan.tensor import Tensor, no_grad

ref = reference_config()
print("=== high-res decoder, reference scale (symbolic; nothing allocated) ===")
print(summary(build_g_h(ref)))
print()

desk = desk_config()
nets_sym = symbolic_model_set(desk)
print("=== desk-scale output shapes ===")
for name, net in nets_sym.items():
    print(f"{name:5s} {str(net.in_shape):>20s} -> {net.out_shape()}")

print("\n=== parameter counts by output resolution (reference channels) ===")
for res in (32, 64, 128, 256):
    cfg = replace(ref, full_resolution=res).validate()
    n = parameter_count(symbolic_model_set(cfg))
    print(f"{res:>4}^3: {n / 1e6:7.2f}M")

print("\n=== slab/full consistency of the decoder ===")
cfg = desk_config(subvol_multiplier=0.5)
nets = build_model_set(cfg, np.random.default_rng(2))
a = Tensor(np.random.default_rng(3).standard_normal(
    (cfg.base_channels,) + (cfg.low_resolution,) * 3).astype(np.float32))
with no_grad():
    full = nets.g_h(a, training=False).data
w = SliceWindow(3, cfg.subvol_depth_low, resolution_scale=4)
with no_grad():
    sub = nets.g_h(select_low(a, w), training=False).data
crop = full[:, 4 * w.start:4 * (w.start + w.length)]
m = 4 * CONSISTENCY_MARGIN
interior = np.abs(sub[:, m:-m] - crop[:, m:-m]).max()
border = np.abs(sub - crop).max()
print(f"interior max |difference|: {interior} (exact); border max: {border:.3f} "
      f"(zero padding, inside the {CONSISTENCY_MARGIN}-slice margin)")
