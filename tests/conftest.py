import numpy as np
import pytest

from slabgan import tensor as T


@pytest.fixture(autouse=True)
def _clean_tape():
    """Every test starts with an empty gradient tape."""
    T.active_tape().clear()
    T.active_tape().enabled = True
    yield
    T.active_tape().clear()


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise relative error with an absolute floor.

    The floor keeps near-zero gradients (where central differences return
    pure roundoff noise) checked in absolute terms at 64-bit FD precision.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    return float((np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3)).max())


def gradcheck(op, arrays, h: float = 1e-5, tol: float = 1e-4) -> float:
    """FD-check gradients of ``op(*tensors) -> scalar Tensor`` w.r.t. every
    input array (float64). Returns the worst relative error."""
    tens = [T.Tensor(a.copy().astype(np.float64), requires_grad=True) for a in arrays]
    loss = op(*tens)
    T.backward(loss)
    worst = 0.0
    for k, (a, t) in enumerate(zip(arrays, tens)):
        def f(x, k=k):
            args = [T.Tensor(b.copy().astype(np.float64)) for b in arrays]
            args[k] = T.Tensor(x.astype(np.float64))
            return float(op(*args).data)
        assert t.grad is not None, f"no gradient on input {k}"
        worst = max(worst, rel_err(t.grad, finite_difference(f, a.astype(np.float64), h)))
    assert worst < tol, f"gradient mismatch: rel err {worst:.3g}"
    return worst


def conv3d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride=1, pad=0) -> np.ndarray:
    """Nested-loop direct convolution; the correctness oracle for conv3d."""
    stride = tuple(np.broadcast_to(stride, 3))
    pad = tuple(np.broadcast_to(pad, 3))
    cin, d, h, wdt = x.shape
    cout, _, kd, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1]), (pad[2], pad[2])))
    od = (d + 2 * pad[0] - kd) // stride[0] + 1
    oh = (h + 2 * pad[1] - kh) // stride[1] + 1
    ow = (wdt + 2 * pad[2] - kw) // stride[2] + 1
    out = np.zeros((cout, od, oh, ow), dtype=np.float64)
    for co in range(cout):
        for z in range(od):
            for y in range(oh):
                for xx in range(ow):
                    z0, y0, x0 = z * stride[0], y * stride[1], xx * stride[2]
                    patch = xp[:, z0:z0 + kd, y0:y0 + kh, x0:x0 + kw]
                    out[co, z, y, xx] = float((patch * w[co]).sum()) + float(b[co])
    return out.astype(x.dtype)


def interp_matrix(n_in: int, n_out: int, align_corners: bool, dtype=np.float64) -> np.ndarray:
    """Row-stochastic dense 1D linear interpolation matrix (n_out x n_in);
    the correctness oracle for the two-tap resampling plans."""
    m = np.zeros((n_out, n_in), dtype=np.float64)
    for v in range(n_out):
        if n_out == 1:
            src = 0.5 * (n_in - 1)
        elif align_corners:
            src = v * (n_in - 1) / (n_out - 1)
        else:
            src = (v + 0.5) * n_in / n_out - 0.5
        src = min(max(src, 0.0), n_in - 1)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        t = src - i0
        m[v, i0] += 1.0 - t
        m[v, i1] += t
    return m.astype(dtype)


def resample_dense(arr: np.ndarray, extents, align_corners: bool = False) -> np.ndarray:
    """Resample the last three axes by dense ``interp_matrix`` products."""
    out = arr
    for ax, n in zip(range(arr.ndim - 3, arr.ndim), extents):
        m = interp_matrix(out.shape[ax], n, align_corners, dtype=arr.dtype)
        out = np.moveaxis(np.tensordot(m, out, axes=(1, ax)), 0, ax)
    return out


def upconv3d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x2 half-pixel upsample, then a 3^3 stride-1 pad-1 conv, both by
    the dense oracles in float64: what ``Interp(2.0)`` then ``Conv3d``
    computes, and the oracle for ``conv3d(..., upsample=True)``."""
    x = np.asarray(x, np.float64)
    up = resample_dense(x, [2 * n for n in x.shape[1:]])
    return conv3d_direct(up, np.asarray(w, np.float64), np.asarray(b, np.float64), 1, 1)


def ellipsoid_mask_direct(extents, center, semi_axes) -> np.ndarray:
    """Whole-grid ellipsoid mask from three meshgrid copies; the oracle for
    the box-clipped masks of ``slabgan.phantoms``."""
    grids = np.meshgrid(*[np.linspace(-1.0, 1.0, e) for e in extents], indexing="ij")
    acc = np.zeros(extents, dtype=np.float64)
    for g, c, a in zip(grids, center, semi_axes):
        acc += ((g - c) / a) ** 2
    return acc <= 1.0


def phantom_direct(seed: int, class_label: int, extents):
    """One phantom composed in float64 over whole-grid masks, then clipped
    and cast as a whole; the oracle for ``phantom_generate``.

    Returns (masks, voxel counts, organ factor, lesion count, volume).
    """
    from slabgan.phantoms import _smooth_noise
    rng = np.random.default_rng(np.random.SeedSequence([seed, class_label]))
    body_axes = rng.uniform(0.58, 0.68, size=3)
    body_center = rng.uniform(-0.06, 0.06, size=3)
    body = ellipsoid_mask_direct(extents, body_center, body_axes)
    organ_factor = float(rng.uniform(0.25, 0.50))
    organ_axes = organ_factor * rng.uniform(0.9, 1.1, size=3)
    organ_center = body_center + rng.uniform(-0.08, 0.08, size=3)
    organ = ellipsoid_mask_direct(extents, organ_center, organ_axes) & body

    vol = np.full(extents, -1.0, dtype=np.float64)
    texture = _smooth_noise(rng, extents) * 0.06
    vol[body] = -0.10 + texture[body]
    vol[organ] = 0.70

    lesion_count = 2 * class_label + int(rng.integers(0, 2))
    lesions = np.zeros(extents, dtype=bool)
    for _ in range(lesion_count):
        center = body_center + rng.uniform(-0.5, 0.5, size=3) * body_axes
        radius = rng.uniform(0.05, 0.07 + 0.015 * class_label)
        lesions |= ellipsoid_mask_direct(extents, center, (radius,) * 3)
    lesions &= body
    vol[lesions] = -0.85

    masks = {"body": body, "organ": organ, "lesions": lesions}
    counts = {k: int(m.sum()) for k, m in masks.items()}
    return masks, counts, organ_factor, lesion_count, np.clip(vol, -1.0, 1.0).astype(np.float32)
