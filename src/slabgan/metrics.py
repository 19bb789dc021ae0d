"""Distribution, paired-image and overlap metrics, plus the fixed feature
extractor.

The feature extractor is a frozen random-weight strided conv stack with a
seed/architecture fingerprint. Feature sets carry that fingerprint and
comparisons between mismatched fingerprints are refused, since distances
computed under different extractors are not comparable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import correlate1d

from . import tensor as T
from .layers import Act, Conv3d, Flatten, MeanPool, Sequential
from .optim import ParamStore
from .tensor import Tensor, no_grad

# paired metrics on [-1, 1] volumes use this dynamic range
DYNAMIC_RANGE = 2.0
# cap reported when the reference and image are numerically identical
PSNR_MAX_DB = 200.0
# the feature extractor: channels of its first stage, and its stride-2 stages
_EXTRACTOR_WIDTH = 8
_EXTRACTOR_STAGES = 4


class FingerprintMismatch(ValueError):
    """Feature sets from different extractors were compared."""


@dataclass
class FeatureSet:
    features: np.ndarray            # (N, F)
    fingerprint: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite features")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass
class MetricReport:
    metric: str
    value: float
    n_a: int
    n_b: int
    fingerprint: str = ""
    config: dict = field(default_factory=dict)

    def line(self) -> str:
        return (f"{self.metric}\t{self.value:.6g}\tn_a={self.n_a}\tn_b={self.n_b}"
                + (f"\textractor={self.fingerprint}" if self.fingerprint else ""))


def _check_pair(a: FeatureSet, b: FeatureSet) -> None:
    if a.fingerprint != b.fingerprint:
        raise FingerprintMismatch(
            f"extractor fingerprints differ: {a.fingerprint} vs {b.fingerprint}")


class FixedExtractor:
    """Seed-deterministic random conv stack ending in global average pooling.

    Channels double every stride-2 stage starting at ``_EXTRACTOR_WIDTH``;
    weights are drawn once from the seed and never trained. The fingerprint
    hashes the seed together with the layer shape listing, so any change
    to either yields a different fingerprint.
    """

    def __init__(self, input_res: int, seed: int = 0):
        if input_res % (2 ** _EXTRACTOR_STAGES):
            raise ValueError(f"input resolution {input_res} not divisible by "
                             f"2^{_EXTRACTOR_STAGES}")
        self.input_res = input_res
        self.seed = seed
        layers = []
        c_prev = 1
        for i in range(_EXTRACTOR_STAGES):
            c = _EXTRACTOR_WIDTH * 2 ** i
            layers.append((f"conv{i}", Conv3d(c_prev, c, 4, 2, 1)))
            layers.append((f"act{i}", Act("leaky_relu", alpha=0.2)))
            c_prev = c
        layers += [("pool", MeanPool(axes=(1, 2, 3))), ("flat", Flatten())]
        self.net = Sequential("extractor", layers, in_shape=(1, input_res, input_res, input_res))
        self.store = ParamStore()
        self.net.build(self.store, np.random.default_rng(seed), dtype=np.float32)
        self.n_features = self.net.out_shape()[0]
        arch = ";".join(f"{n}:{d}:{s}" for n, d, s in self.net.shapes())
        digest = hashlib.sha256(f"{seed}|{arch}".encode()).hexdigest()[:12]
        self.fingerprint = f"rx{seed}-{digest}"

    def extract_one(self, vol: np.ndarray) -> np.ndarray:
        arr = np.asarray(vol, dtype=np.float32)
        if arr.ndim == 3:
            arr = arr[None]
        if arr.shape != (1,) + (self.input_res,) * 3:
            raise T.ShapeError(
                f"extractor built for {(1,) + (self.input_res,) * 3}, got {arr.shape}")
        with no_grad():
            return self.net(Tensor(arr), training=False).data.astype(np.float64)

    def extract(self, volumes) -> FeatureSet:
        feats = np.stack([self.extract_one(v) for v in volumes])
        return FeatureSet(features=feats, fingerprint=self.fingerprint)


# ---------------------------------------------------------------------------
# distribution metrics


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.where(vals < 0, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a, b) -> float:
    """Gaussian-moment distance between two feature sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken through symmetric eigendecompositions; small negative
    eigenvalues are clamped to zero.
    """
    if isinstance(a, FeatureSet) and isinstance(b, FeatureSet):
        _check_pair(a, b)
        fa, fb = a.features, b.features
    else:
        fa, fb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if fa.shape[0] < 2 or fb.shape[0] < 2:
        raise ValueError("need at least two samples per set")
    mu_a, mu_b = fa.mean(axis=0), fb.mean(axis=0)
    ca = np.cov(fa, rowvar=False).reshape(fa.shape[1], fa.shape[1])
    cb = np.cov(fb, rowvar=False).reshape(fb.shape[1], fb.shape[1])
    if not (np.all(np.isfinite(ca)) and np.all(np.isfinite(cb))):
        raise ValueError("non-finite covariance")
    sa = _sym_sqrt(ca)
    cross = sa @ cb @ sa
    vals = np.linalg.eigvalsh((cross + cross.T) / 2.0)
    vals = np.where(vals < 0, 0.0, vals)
    tr_cross = float(np.sqrt(vals).sum())
    d2 = float(((mu_a - mu_b) ** 2).sum() + np.trace(ca) + np.trace(cb) - 2.0 * tr_cross)
    return max(d2, 0.0)


def median_bandwidth(fa: np.ndarray, fb: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample."""
    x = np.concatenate([fa, fb], axis=0)
    d2 = np.maximum(_sqdist(x, x)[np.triu_indices(x.shape[0], k=1)], 0.0)
    med = float(np.median(np.sqrt(d2)))
    return med if med > 0 else 1.0


def _sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xx = (x * x).sum(axis=1)[:, None]
    yy = (y * y).sum(axis=1)[None, :]
    return xx + yy - 2.0 * (x @ y.T)


def mmd_rbf(a, b, bandwidth: float | None = None) -> float:
    """MMD^2 with a Gaussian kernel (the unbiased U-statistic).

    The bandwidth defaults to the median pairwise distance heuristic over
    the pooled samples.
    """
    if isinstance(a, FeatureSet) and isinstance(b, FeatureSet):
        _check_pair(a, b)
        fa, fb = a.features, b.features
    else:
        fa, fb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    m, n = fa.shape[0], fb.shape[0]
    if m < 2 or n < 2:
        raise ValueError("need at least two samples per set")
    h = bandwidth if bandwidth is not None else median_bandwidth(fa, fb)
    gamma = 1.0 / (2.0 * h * h)
    kaa = np.exp(-gamma * np.maximum(_sqdist(fa, fa), 0.0))
    kbb = np.exp(-gamma * np.maximum(_sqdist(fb, fb), 0.0))
    kab = np.exp(-gamma * np.maximum(_sqdist(fa, fb), 0.0))
    saa = (kaa.sum() - np.trace(kaa)) / (m * (m - 1))
    sbb = (kbb.sum() - np.trace(kbb)) / (n * (n - 1))
    return float(saa + sbb - 2.0 * kab.mean())


# ---------------------------------------------------------------------------
# paired image metrics


def _gaussian_kernel(sigma: float = 1.5, radius: int = 5) -> np.ndarray:
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _gauss_filter(vol: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    out = vol.astype(np.float64)
    for ax in range(vol.ndim):
        out = correlate1d(out, kernel, axis=ax, mode="reflect")
    return out


def ssim(a: np.ndarray, b: np.ndarray, sigma: float = 1.5,
         dynamic_range: float = DYNAMIC_RANGE, k1: float = 0.01,
         k2: float = 0.03) -> float:
    """Mean structural similarity with a separable 3D Gaussian window."""
    a = np.asarray(a, dtype=np.float64).squeeze()
    b = np.asarray(b, dtype=np.float64).squeeze()
    if a.shape != b.shape:
        raise T.ShapeError(f"ssim shape mismatch {a.shape} vs {b.shape}")
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    k = _gaussian_kernel(sigma)
    mu_a = _gauss_filter(a, k)
    mu_b = _gauss_filter(b, k)
    var_a = _gauss_filter(a * a, k) - mu_a * mu_a
    var_b = _gauss_filter(b * b, k) - mu_b * mu_b
    cov = _gauss_filter(a * b, k) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def psnr(a: np.ndarray, b: np.ndarray, max_value: float = DYNAMIC_RANGE) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise T.ShapeError(f"psnr shape mismatch {a.shape} vs {b.shape}")
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return PSNR_MAX_DB
    return min(10.0 * np.log10(max_value * max_value / mse), PSNR_MAX_DB)


def nmse(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mean squared error ||a - b||^2 / ||a||^2 (a is reference)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise T.ShapeError(f"nmse shape mismatch {a.shape} vs {b.shape}")
    ref = float((a * a).sum())
    if ref == 0.0:
        raise ValueError("zero-energy reference: NMSE undefined")
    return float(((a - b) ** 2).sum()) / ref


def dice(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Overlap score 2|A&B| / (|A| + |B|); two empty masks count as 1."""
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    if a.shape != b.shape:
        raise T.ShapeError(f"dice shape mismatch {a.shape} vs {b.shape}")
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / denom


# ---------------------------------------------------------------------------
# distribution tests and intensity calibration


def ks_test(samples_a, samples_b):
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    a = np.sort(np.asarray(samples_a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(samples_b, dtype=np.float64).ravel())
    m, n = a.size, b.size
    if m == 0 or n == 0:
        raise ValueError("empty sample")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / m
    cdf_b = np.searchsorted(b, pooled, side="right") / n
    stat = float(np.abs(cdf_a - cdf_b).max())
    en = np.sqrt(m * n / (m + n))
    lam = max((en + 0.12 + 0.11 / en) * stat, 0.0)
    if lam < 1e-3:
        return stat, 1.0          # the alternating series only converges for lam > 0
    p = 2.0 * sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2) for k in range(1, 101))
    return stat, float(min(max(p, 0.0), 1.0))


HU_WINDOW = (-1024.0, 600.0)


def hu_window_map(raw_hu: np.ndarray, window=HU_WINDOW) -> np.ndarray:
    """Clip to the HU window and map it affinely onto [-1, 1]."""
    lo, hi = window
    arr = np.clip(np.asarray(raw_hu, dtype=np.float64), lo, hi)
    return (2.0 * (arr - lo) / (hi - lo) - 1.0).astype(np.float32)


def pca_2d(features: np.ndarray) -> np.ndarray:
    """Two-component PCA embedding (for external plots of feature sets)."""
    x = np.asarray(features, dtype=np.float64)
    x = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    return x @ vt[:2].T
