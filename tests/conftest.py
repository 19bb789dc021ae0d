import struct
import zlib

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


class HalfWrite:
    """A file that fails half-way through its second write. Patched over
    ``open`` in ``slabgan.volio``, it models a crash during a file write."""

    def __init__(self, name, mode):
        self.f, self.writes = open(name, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        self.writes += 1
        if self.writes == 2:
            self.f.write(b[:len(b) // 2])
            raise OSError("disk full")
        return self.f.write(b)


def container_parts(raw: bytes):
    """Split the bytes of a ``volio`` container file into its JSON header
    bytes and its entry bytes, by hand."""
    (hlen,) = struct.unpack_from("<I", raw, 6)
    return raw[10:10 + hlen], raw[10 + hlen:-4]


def pack_container(header: bytes, entries: bytes) -> bytes:
    """A ``volio`` container file packed by hand, with a valid CRC."""
    body = struct.pack("<HI", 2, len(header)) + header + entries
    return b"SGCK" + body + struct.pack("<I", zlib.crc32(body))


def pack_entry(name: str, code: int, shape, payload: bytes) -> bytes:
    """One container entry packed by hand: name, dtype code, extents, payload."""
    nb = name.encode()
    return (struct.pack("<H", len(nb)) + nb
            + struct.pack(f"<BB{len(shape)}I", code, len(shape), *shape) + payload)


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


def upconv3d_padded_fold(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The no-grad folded x2 upsample-conv built from whole arrays: an
    edge-padded copy of x, the whole ``(8*C_out, D, H, W)`` phase array
    with its depth-edge terms added, then one interleave; the oracle that
    ``tensor._upconv3d``'s edge-bordered slab and per-chunk interleave
    must match bit for bit."""
    cout = w.shape[0]
    _, d, h, wdt = x.shape
    ext = (d, h, wdt)
    xq = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    we = T._up2_kernels(w, depth_edge=True)
    y = T._correlate((xq,), (1, 0, 0), T._up2_kernels(w), (1, 1, 1), ext)
    y[:, :1] += T._correlate((xq[:, :1],), (0, 0, 0), we[:8 * cout], (1, 1, 1), (1, h, wdt))
    y[:, -1:] += T._correlate((xq[:, -1:],), (0, 0, 0), we[8 * cout:], (1, 1, 1), (1, h, wdt))
    out = np.empty((cout, 2 * d, 2 * h, 2 * wdt), y.dtype)
    T._interleave(out, y.reshape((8, cout) + ext))
    for face_plans, stride, shape, sel in T._up2_faces(ext, x.dtype):
        u = T._interp(x, face_plans, (1, 2, 3))
        out[sel] = T._correlate((u,), (1, 1, 1), w, stride, shape)
    out += b[:, None, None, None]
    return np.ascontiguousarray(out, dtype=x.dtype)


def group_norm_direct(x, groups, gamma, beta, g, eps=1e-5, per_depth_slice=False):
    """Group norm and its backward written as whole-array expressions, each
    making fresh temporaries; the oracle that ``tensor.group_norm``'s
    in-place buffers must match bit for bit. ``g`` is the output gradient;
    returns (out, grad x, grad gamma, grad beta)."""
    c, d, h, w = x.shape
    if per_depth_slice:
        xg, gshape, axes = x.reshape(groups, c // groups, d, h * w), (groups, c // groups, d, h * w), (1, 3)
    else:
        xg, gshape, axes = x.reshape(groups, -1), (groups, -1), (1,)
    mu = xg.mean(axis=axes, keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mu) * inv).reshape(c, d, h, w)
    out = gamma[:, None, None, None] * xhat + beta[:, None, None, None]
    n_stat = int(np.prod([xg.shape[ax] for ax in axes]))
    gh = (g * gamma[:, None, None, None]).reshape(gshape)
    xhg = xhat.reshape(gshape)
    s1 = gh.sum(axis=axes, keepdims=True)
    s2 = (gh * xhg).sum(axis=axes, keepdims=True)
    gx = inv / n_stat * (n_stat * gh - s1 - xhg * s2)
    return (out, gx.reshape(c, d, h, w), (g * xhat).sum(axis=(1, 2, 3)),
            g.sum(axis=(1, 2, 3)))


def leaky_relu_direct(x, alpha, g):
    """Leaky ReLU and its input gradient as two selects; the oracle for
    ``tensor.leaky_relu``. Returns (out, grad x) for output gradient ``g``."""
    return (np.where(x > 0, x, alpha * x),
            g * np.where(x > 0, 1.0, alpha).astype(x.dtype))


def elu_direct(x, alpha, g):
    """ELU and its input gradient as selects over a separately built
    negative branch; the oracle for ``tensor.elu``. Returns (out, grad x)
    for output gradient ``g``."""
    neg = alpha * np.expm1(np.minimum(x, 0))
    return (np.where(x > 0, x, neg),
            g * np.where(x > 0, 1.0, neg + alpha).astype(x.dtype))


def batch_norm_direct(x, gamma, beta, running_mean, running_var, training, g,
                      momentum=0.1, eps=1e-5):
    """Batch norm by running statistics and its backward as whole-array
    float64 expressions; the oracle for ``tensor.batch_norm``. Updates the
    running buffers in place as the op does, and returns (out, grad x,
    grad gamma, grad beta) for output gradient ``g``, gamma's float64 sum
    in gamma's dtype."""
    mu = running_mean.copy()
    var = running_var.copy()
    if training:
        running_mean *= (1.0 - momentum)
        running_mean += momentum * x.mean(axis=(1, 2, 3))
        running_var *= (1.0 - momentum)
        running_var += momentum * x.var(axis=(1, 2, 3))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[:, None, None, None]) * inv[:, None, None, None]
    out = gamma[:, None, None, None] * xhat + beta[:, None, None, None]
    gx = g * (gamma * inv)[:, None, None, None]
    return (np.ascontiguousarray(out, dtype=x.dtype), np.ascontiguousarray(gx, dtype=x.dtype),
            (g * xhat).sum(axis=(1, 2, 3)).astype(gamma.dtype), g.sum(axis=(1, 2, 3)))


def sr_forward_concat(gen, lr, training=True):
    """``SRGenerator.forward`` with the decoder and its skip input joined
    by ``tensor.concat``; the oracle for the decoder conv that reads the
    pair without building it."""
    h = gen.head(lr, training)
    e = gen.enc(h, training)
    d = gen.dec(T.concat([gen.up_dec.forward(e, training), h], axis=0), training)
    return T.add(gen.up_res.forward(lr, training), gen.residual_head(d, training))


def sr_disc_input_concat(lr_sub, hr_sub, training):
    """The SR discriminator's input as one ``tensor.concat`` of the
    upsampled LR window and the HR candidate; the oracle for
    ``sr._disc_input``'s pair."""
    from slabgan.layers import Interp
    return T.concat([Interp(2.0).forward(lr_sub, training), hr_sub], axis=0)


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
