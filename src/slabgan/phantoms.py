"""Synthetic phantom volumes with known structure and labels.

Each phantom is a smooth-textured body ellipsoid containing a brighter
organ ellipsoid (whose size follows a continuous factor recorded with the
phantom) and a number of dark lesions that grows with the 5-level class
label. Ground-truth voxel counts are recorded with every phantom, so latent
probes and the augmentation study have exact targets; the masks themselves
(``Phantom.masks``) are filled only by ``phantom_generate``. Everything is
deterministic in the seed.

Workspace is bounded: each ellipsoid is summed only over its bounding box
from three 1-D terms, and a phantom is composed in float32 straight into
its output. One phantom costs about one float64 volume (the texture) plus
three boolean masks, whatever the number of phantoms a dataset holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import resample

N_CLASSES = 5
MIN_EXTENT = 16


@dataclass
class Phantom:
    seed: int
    class_label: int
    masks: dict = field(repr=False, default_factory=dict)
    volumes: dict = field(default_factory=dict)
    organ_factor: float = 0.0
    lesion_count: int = 0


def _ellipsoid_box(extents, center, semi_axes):
    """The ellipsoid ``sum(((x - c) / a) ** 2) <= 1`` on the [-1, 1] grid.

    Returns (box, inside): ``box`` is a tuple of slices covering every voxel
    whose per-axis term is at most 1 (empty when an axis has none), and
    ``inside`` the boolean mask over that box. The terms add up in axis
    order, so each voxel's sum has the bits of a whole-grid sum; a voxel
    outside the box has one term above 1 and, the terms being non-negative,
    a sum above 1.
    """
    box, terms = [], []
    for e, c, a in zip(extents, center, semi_axes):
        t = ((np.linspace(-1.0, 1.0, e) - c) / a) ** 2
        idx = np.flatnonzero(t <= 1.0)
        lo, hi = (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)
        box.append(slice(lo, hi))
        terms.append(t[lo:hi])
    tz, ty, tx = terms
    return tuple(box), (tz[:, None, None] + ty[None, :, None]) + tx[None, None, :] <= 1.0


def _ellipsoid_mask(extents, center, semi_axes) -> np.ndarray:
    box, inside = _ellipsoid_box(extents, center, semi_axes)
    mask = np.zeros(extents, dtype=bool)
    mask[box] = inside
    return mask


def _smooth_noise(rng: np.random.Generator, extents, cells: int = 4) -> np.ndarray:
    coarse = rng.standard_normal((cells, cells, cells))
    return resample(coarse, extents, align_corners=True)


def _checked_extents(extents) -> tuple:
    extents = tuple(int(e) for e in extents)
    if min(extents) < MIN_EXTENT:
        raise ValueError(f"extents {extents} too small for phantom structures")
    return extents


def _phantom_into(seed: int, class_label: int, extents: tuple, out: np.ndarray):
    """Compose one phantom into the float32 array ``out`` (shape ``extents``).

    Returns (Phantom without masks, masks). The body's values are formed
    and clipped to [-1, 1] in float64 and rounded to float32 once, on the
    write; the clip bounds are exact in float32 and rounding is monotone,
    so this gives the bits of a float64 volume clipped and cast as a whole.
    """
    if not 0 <= class_label < N_CLASSES:
        raise ValueError(f"class label {class_label} out of range 0..{N_CLASSES - 1}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, class_label]))

    body_axes = rng.uniform(0.58, 0.68, size=3)
    body_center = rng.uniform(-0.06, 0.06, size=3)
    body = _ellipsoid_mask(extents, body_center, body_axes)

    # organ size is an independent factor (absolute scale, not a fraction of
    # the body) with strong contrast and no texture, so probes of structure
    # volumes have a clean target
    organ_factor = float(rng.uniform(0.25, 0.50))
    organ_axes = organ_factor * rng.uniform(0.9, 1.1, size=3)
    organ_center = body_center + rng.uniform(-0.08, 0.08, size=3)

    out[...] = -1.0
    texture = _smooth_noise(rng, extents)
    texture *= 0.06
    values = -0.10 + texture[body]
    del texture
    out[body] = np.clip(values, -1.0, 1.0, out=values)
    del values
    organ = _ellipsoid_mask(extents, organ_center, organ_axes)
    organ &= body
    out[organ] = 0.70

    lesion_count = 2 * class_label + int(rng.integers(0, 2))
    lesions = np.zeros(extents, dtype=bool)
    for _ in range(lesion_count):
        center = body_center + rng.uniform(-0.5, 0.5, size=3) * body_axes
        radius = rng.uniform(0.05, 0.07 + 0.015 * class_label)
        box, inside = _ellipsoid_box(extents, center, (radius,) * 3)
        lesions[box] |= inside
    lesions &= body
    out[lesions] = -0.85

    masks = {"body": body, "organ": organ, "lesions": lesions}
    volumes = {k: int(m.sum()) for k, m in masks.items()}
    ph = Phantom(seed=seed, class_label=class_label, volumes=volumes,
                 organ_factor=organ_factor, lesion_count=lesion_count)
    return ph, masks


def phantom_generate(seed: int, class_label: int, extents=(64, 64, 64)):
    """Build one phantom; returns (Phantom with masks, volume in [-1, 1], float32)."""
    extents = _checked_extents(extents)
    vol = np.empty(extents, dtype=np.float32)
    ph, masks = _phantom_into(seed, class_label, extents, vol)
    ph.masks = masks
    return ph, vol


def phantom_dataset(n: int, extents=(64, 64, 64), base_seed: int = 0):
    """n phantoms with cycled (balanced) class labels.

    Phantom ``i`` has seed ``base_seed + i`` and class ``i % N_CLASSES``, as
    ``phantom_generate`` builds it. Returns (volumes float32 array
    (n, D, H, W), labels, phantom records). The records carry the voxel
    counts, organ factor and lesion count, not the masks.
    """
    if n < 1:
        raise ValueError(f"a dataset needs at least one phantom, got n={n}")
    extents = _checked_extents(extents)
    vols = np.empty((n,) + extents, dtype=np.float32)
    labels = np.arange(n) % N_CLASSES
    records = [_phantom_into(base_seed + i, int(labels[i]), extents, vols[i])[0]
               for i in range(n)]
    return vols, labels, records
