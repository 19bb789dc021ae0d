"""Where the memory goes: slab amortization in numbers.

Compares the analytic model (the real step run on priced stand-in
networks) against instrumented measurements of real steps, shows that
the slab step's peak stays flat as the batch grows, shows the linear law
of the slab branch, and sweeps the configured resolution.
"""

from dataclasses import replace

from slabgan.memory import (analytic_memory, high_res_branch_bytes, measured_peak,
                            resolution_sweep)
from slabgan.networks import desk_config

cfg = desk_config()
MB = 1e6

print("=== analytic vs measured, one desk step ===")
for mode in ("train_amortized", "train_full", "inference"):
    a = analytic_memory(cfg, mode)
    m = measured_peak(cfg, mode)
    print(f"{mode:16s} analytic {a.peak_total / MB:7.2f} MB   "
          f"measured {m.peak_total / MB:7.2f} MB   "
          f"ratio {a.peak_total / m.peak_total:5.3f}")

m_am = measured_peak(cfg, "train_amortized", seed=1).peak_total
m_full = measured_peak(cfg, "train_full", seed=1).peak_total
print(f"\nslab training peak / full-volume training peak = {m_am / m_full:.3f}")

print("\n=== the slab step's peak does not grow with the batch ===")
# each sample's backward runs before the next sample's forward
for b in (1, 2, 4):
    m = measured_peak(cfg, "train_amortized", batch_size=b)
    print(f"batch {b}: measured {m.peak_total / MB:7.2f} MB")

print("\n=== slab-branch activation bytes are linear in the multiplier ===")
for m in (0.125, 0.25, 0.5):
    b = high_res_branch_bytes(replace(cfg, subvol_multiplier=m).validate())
    print(f"multiplier {m:5.3f}: {b / MB:7.3f} MB   (x{b / high_res_branch_bytes(cfg):.1f})")

print("\n=== resolution sweep (desk channel scale) ===")
_, table = resolution_sweep(cfg, [32, 64, 128, 256])
print(table)
print("\nparameters stay nearly flat while training peaks grow with volume:")
rows, _ = resolution_sweep(cfg, [32, 256])
print(f"  parameter growth 32->256: "
      f"{rows[1]['parameters'] / rows[0]['parameters'] - 1:.1%}")
print(f"  train-peak growth 32->256: "
      f"{rows[1]['train_peak_bytes'] / rows[0]['train_peak_bytes']:.0f}x")
