"""Synthetic phantom volumes with known structure and labels.

Each phantom is a smooth-textured body ellipsoid containing a brighter
organ ellipsoid (whose size follows a continuous factor recorded with the
phantom) and a number of dark lesions that grows with the 5-level class
label. Ground-truth masks and their voxel-count volumes are recorded, so
latent probes and the augmentation study have exact targets. Everything
is deterministic in the seed.
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


def _ellipsoid_mask(extents, center, semi_axes) -> np.ndarray:
    grids = np.meshgrid(*[np.linspace(-1.0, 1.0, e) for e in extents], indexing="ij")
    acc = np.zeros(extents, dtype=np.float64)
    for g, c, a in zip(grids, center, semi_axes):
        acc += ((g - c) / a) ** 2
    return acc <= 1.0


def _smooth_noise(rng: np.random.Generator, extents, cells: int = 4) -> np.ndarray:
    coarse = rng.standard_normal((cells, cells, cells))
    return resample(coarse, extents, align_corners=True)


def phantom_generate(seed: int, class_label: int, extents=(64, 64, 64)):
    """Build one phantom; returns (Phantom, volume in [-1, 1], float32)."""
    extents = tuple(int(e) for e in extents)
    if min(extents) < MIN_EXTENT:
        raise ValueError(f"extents {extents} too small for phantom structures")
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
    organ = _ellipsoid_mask(extents, organ_center, organ_axes) & body

    vol = np.full(extents, -1.0, dtype=np.float64)
    texture = _smooth_noise(rng, extents) * 0.06
    vol[body] = -0.10 + texture[body]
    vol[organ] = 0.70

    lesion_count = 2 * class_label + int(rng.integers(0, 2))
    lesions = np.zeros(extents, dtype=bool)
    for _ in range(lesion_count):
        center = body_center + rng.uniform(-0.5, 0.5, size=3) * body_axes
        radius = rng.uniform(0.05, 0.07 + 0.015 * class_label)
        lesions |= _ellipsoid_mask(extents, center, (radius,) * 3)
    lesions &= body
    vol[lesions] = -0.85

    vol = np.clip(vol, -1.0, 1.0).astype(np.float32)
    masks = {"body": body, "organ": organ, "lesions": lesions}
    volumes = {k: int(m.sum()) for k, m in masks.items()}
    ph = Phantom(seed=seed, class_label=class_label, masks=masks, volumes=volumes,
                 organ_factor=organ_factor, lesion_count=lesion_count)
    return ph, vol


def phantom_dataset(n: int, extents=(64, 64, 64), base_seed: int = 0):
    """n phantoms with cycled (balanced) class labels.

    Returns (volumes float32 array (n, D, H, W), labels, phantom records).
    """
    vols, labels, records = [], [], []
    for i in range(n):
        label = i % N_CLASSES
        ph, v = phantom_generate(base_seed + i, label, extents)
        vols.append(v)
        labels.append(label)
        records.append(ph)
    return np.stack(vols), np.asarray(labels), records
