"""Full-volume generation and encoding, latent analysis, ridge probing.

Inference never records a gradient tape: the whole feature volume flows
through the high-res decoder in one pass (no window selection), and the
encoder runs over the fixed depth partition. Latent utilities cover
linear interpolation, least-squares latent directions, and ridge
regression probes of encoded features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import tensor as T
from .geometry import check_volume
from .networks import ModelSet
from .tensor import Tensor, no_grad


@dataclass
class LatentCode:
    z: np.ndarray
    class_onehot: np.ndarray | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.z)):
            raise ValueError("latent code has non-finite entries")
        if self.class_onehot is not None and abs(self.class_onehot.sum() - 1.0) > 1e-6:
            raise ValueError("class code must be one-hot")


@dataclass
class LatentDirection:
    """A linear probe of latent space: predict(z) = coef . z + bias.

    ``w`` is the unit-normalized coefficient vector used for traversal.
    """
    w: np.ndarray
    coef: np.ndarray
    bias: float
    target_name: str = ""

    def predict(self, z: np.ndarray) -> float | np.ndarray:
        return z @ self.coef + self.bias


def _check_latent(nets: ModelSet, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float32).reshape(-1)
    if z.shape[0] != nets.cfg.latent_dim:
        raise T.ShapeError(f"latent length {z.shape[0]} != {nets.cfg.latent_dim}")
    if not np.all(np.isfinite(z)):
        raise ValueError("latent code has non-finite entries")
    return z


def generate_full(nets: ModelSet, z: np.ndarray, c: int | None = None) -> np.ndarray:
    """Decode a latent to the full high-resolution (1, D, H, W) volume (no
    gradients). A non-finite latent or a class ``c`` outside the model's
    range raises ValueError."""
    z = _check_latent(nets, z)
    with no_grad():
        a = nets.g_a(nets.latent_input(Tensor(z), c), training=False)
        return nets.g_h(a, training=False).data


def encode_full(nets: ModelSet, vol: np.ndarray, c: int | None = None) -> LatentCode:
    """Hierarchical encode (``ModelSet.encode``) of a whole volume, without
    gradients; ``c`` is recorded as the code's one-hot class. The volume,
    (D, H, W) or (1, D, H, W), must be finite, in [-1, 1] and of the
    model's full resolution, and ``c`` in the model's class range
    (ValueError otherwise)."""
    cfg = nets.cfg
    arr = check_volume(vol, (cfg.full_resolution,) * 3).astype(np.float32, copy=False)
    onehot = nets.class_code(c) if cfg.num_classes and c is not None else None
    with no_grad():
        zhat = nets.encode(Tensor(arr[None]), training=False).data
    return LatentCode(z=zhat.copy(), class_onehot=onehot)


def reconstruct(nets: ModelSet, vol: np.ndarray, c: int | None = None) -> np.ndarray:
    """Encode then decode: the round trip the global encoder is trained for."""
    code = encode_full(nets, vol, c=c)
    return generate_full(nets, code.z, c=c)


def interpolate(nets: ModelSet, z_a: np.ndarray, z_b: np.ndarray, steps: int,
                c: int | None = None) -> list:
    """Volumes along the straight latent path z_a + t (z_b - z_a)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z_a = _check_latent(nets, z_a).astype(np.float64)
    z_b = _check_latent(nets, z_b).astype(np.float64)
    ts = np.linspace(0.0, 1.0, steps)
    # two-coefficient form keeps the endpoints bitwise exact
    return [generate_full(nets, ((1.0 - t) * z_a + t * z_b).astype(np.float32), c=c)
            for t in ts]


# ---------------------------------------------------------------------------
# linear latent analysis


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("constant target: R^2 undefined")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def ridge_fit(features: np.ndarray, targets: np.ndarray, lam: float = 1e-4,
              center: bool = False):
    """Closed-form ridge: solve (X^T X + lam I) beta = X^T y via Cholesky.

    Returns ``(coef, bias)``; bias is zero unless ``center`` is set, in
    which case X and y are mean-centered first and the bias restores the
    offset.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"bad shapes: X {x.shape}, y {y.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty feature matrix")
    bias = 0.0
    if center:
        xm, ym = x.mean(axis=0), y.mean()
        x = x - xm
        y = y - ym
    gram = x.T @ x + lam * np.eye(x.shape[1])
    rhs = x.T @ y
    cf = scipy.linalg.cho_factor(gram)
    coef = scipy.linalg.cho_solve(cf, rhs)
    if center:
        bias = float(ym - xm @ coef)
    return coef, bias


def ridge_predict(features: np.ndarray, coef: np.ndarray, bias: float = 0.0) -> np.ndarray:
    return np.asarray(features, dtype=np.float64) @ coef + bias


def fit_direction(latents: np.ndarray, targets: np.ndarray, target_name: str = "",
                  ridge_lambda: float | None = None) -> LatentDirection:
    """Least-squares latent direction for a scalar target (with intercept).

    Without regularization the design matrix must have full column rank
    (in particular N > latent_dim); pass ``ridge_lambda`` otherwise.
    """
    x = np.asarray(latents, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError("latents and targets disagree on N")
    if ridge_lambda is not None:
        coef, bias = ridge_fit(x, y, lam=ridge_lambda, center=True)
    else:
        xm, ym = x.mean(axis=0), y.mean()
        coef, _, rank, _ = np.linalg.lstsq(x - xm, y - ym, rcond=None)
        if rank < x.shape[1]:
            raise np.linalg.LinAlgError(
                f"rank-deficient design (rank {rank} < {x.shape[1]}); "
                "enable ridge regularization")
        bias = float(ym - xm @ coef)
    norm = np.linalg.norm(coef)
    if norm == 0.0:
        raise ValueError("degenerate direction: zero coefficients")
    return LatentDirection(w=coef / norm, coef=coef, bias=bias, target_name=target_name)


def traverse(nets: ModelSet, z0: np.ndarray, direction: LatentDirection,
             offsets, c: int | None = None):
    """Volumes generated while walking z0 + t * w for each t in offsets.

    Returns (volumes, predicted target values along the walk).
    """
    z0 = _check_latent(nets, z0)
    vols, preds = [], []
    for t in offsets:
        z = z0 + float(t) * direction.w.astype(np.float32)
        vols.append(generate_full(nets, z, c=c))
        preds.append(float(direction.predict(z.astype(np.float64))))
    return vols, preds

