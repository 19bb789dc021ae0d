"""Depth-axis window selection, synchronized across resolutions.

Training never touches the full high-resolution volume: it draws one
window per batch on the low-resolution feature grid and maps it to the
high-resolution grid by an integer scale. Windows are always slabs along
the depth (first spatial) axis; H and W are never cropped. Encoding uses
a disjoint partition of the depth range into equal windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, slice_axis


@dataclass(frozen=True)
class SliceWindow:
    """A depth slab: ``start``/``length`` on the low-resolution grid.

    ``resolution_scale`` relates the low-resolution grid to the
    high-resolution one; the high-resolution window is
    ``(scale * start, scale * length)``.
    """
    start: int
    length: int
    resolution_scale: int = 1

    def __post_init__(self):
        if self.start < 0 or self.length <= 0 or self.resolution_scale < 1:
            raise ValueError(f"invalid window {self}")

    @property
    def high_start(self) -> int:
        return self.start * self.resolution_scale

    @property
    def high_length(self) -> int:
        return self.length * self.resolution_scale


def select_low(a: Tensor, w: SliceWindow) -> Tensor:
    """Window of a (C, D, H, W) tensor along depth, at low resolution."""
    if w.start + w.length > a.shape[1]:
        raise ShapeError(f"window {w} out of bounds for depth {a.shape[1]}")
    return slice_axis(a, axis=1, start=w.start, length=w.length)


def select_high(vol: np.ndarray, w: SliceWindow) -> np.ndarray:
    """High-resolution window of a raw (D, H, W) volume, as a (1, d, H, W)
    view: indices scaled by ``w.resolution_scale``."""
    s, l = w.high_start, w.high_length
    if s + l > vol.shape[0]:
        raise ShapeError(f"high window {w} out of bounds for depth {vol.shape[0]}")
    return vol[None, s:s + l]


def sample_r(depth_low: int, length_low: int, rng: np.random.Generator,
             resolution_scale: int = 1) -> SliceWindow:
    """Uniform window start over {0, ..., depth_low - length_low}.

    One draw governs both the low- and high-resolution selector within a
    training step (same percentile of slices at both resolutions).
    """
    if length_low > depth_low:
        raise ValueError(f"window length {length_low} exceeds depth {depth_low}")
    start = int(rng.integers(0, depth_low - length_low + 1))
    return SliceWindow(start=start, length=length_low, resolution_scale=resolution_scale)


def deterministic_windows(depth_low: int, length_low: int,
                          resolution_scale: int = 1) -> list[SliceWindow]:
    """Equally spaced cycle of windows (the non-random ablation variant).

    The cycle advances one window per training step, wrapping around.
    """
    if depth_low % length_low:
        raise ValueError("deterministic windows need depth divisible by length")
    return [SliceWindow(s, length_low, resolution_scale)
            for s in range(0, depth_low - length_low + 1, length_low)]


def split_volume(x: Tensor, count: int) -> list[Tensor]:
    """Split along depth into ``count`` equal sub-volumes, ascending.

    A depth that ``count`` does not divide raises ShapeError.
    """
    depth = x.shape[1]
    if depth % count:
        raise ShapeError(f"depth {depth} not divisible into {count} windows")
    length = depth // count
    return [slice_axis(x, 1, s, length) for s in range(0, depth, length)]


def check_volume(vol, shape) -> np.ndarray:
    """A volume as an array of exactly ``shape``, finite, in [-1, 1].

    A leading unit channel axis is dropped. A wrong shape raises
    ShapeError; a non-finite value or one outside [-1, 1] raises
    ValueError. Both are ValueErrors, raised before any work is done.
    """
    arr = np.asarray(vol)
    if arr.ndim == len(shape) + 1 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.shape != tuple(shape):
        raise ShapeError(f"volume of shape {arr.shape}, expected {tuple(shape)}")
    lo, hi = arr.min(), arr.max()          # NaN compares false below
    if not (-1.0 <= lo and hi <= 1.0):
        raise ValueError(f"volume values must be finite and in [-1, 1], got [{lo}, {hi}]")
    return arr
