"""Depth-window geometry: synchronized selectors and the depth partition.

One uniform draw picks the slab for a training step; the low-resolution
feature window and the high-resolution image window cover the same
percentile of slices. Encoding uses a disjoint partition instead.
"""

import numpy as np

from slabgan.geometry import sample_r, select_high, select_low, split_volume
from slabgan.tensor import Tensor, concat

rng = np.random.default_rng(1)

depth_low, scale = 16, 4
w = sample_r(depth_low, 2, rng, resolution_scale=scale)
print(f"drawn window: low [{w.start}, {w.start + w.length}) "
      f"-> high [{w.high_start}, {w.high_start + w.high_length})")

a = Tensor(np.arange(16, dtype=np.float32)[None, :, None, None]
           * np.ones((1, 16, 2, 2), np.float32))
vol = np.arange(64, dtype=np.float32)[:, None, None] * np.ones((64, 2, 2), np.float32)
low = select_low(a, w)
high = select_high(vol, w)          # a (1, d, H, W) view of the raw volume
print(f"low slab depth indices:  {low.data[0, :, 0, 0].astype(int)}")
print(f"high slab depth range:   {int(high[0, 0, 0, 0])}..{int(high[0, -1, 0, 0])}")
assert high[0, 0, 0, 0] == scale * low.data[0, 0, 0, 0]

# empirical uniformity of the window start
starts = [sample_r(64, 8, rng).start for _ in range(10000)]
counts = np.bincount(starts, minlength=57)
print(f"start uniformity over 10k draws: min {counts.min()}, max {counts.max()} "
      f"(ideal {10000 // 57})")

# non-overlapping partition covers the depth exactly and concat inverts it
x = Tensor(vol[None])
parts = split_volume(x, 8)
print(f"partition of depth 64 into 8: starts "
      f"{[int(p.data[0, 0, 0, 0]) for p in parts]}, length {parts[0].shape[1]}")
rebuilt = concat(parts, axis=1)
assert np.array_equal(rebuilt.data, x.data)
print("split -> concat round trip: exact")
