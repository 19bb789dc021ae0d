"""Dense tensors with reverse-mode automatic differentiation.

Everything in this library runs on top of a single Tensor type: a numpy
array plus an optional gradient buffer, linked into a global gradient
tape. Ops record a backward closure on the tape; ``backward(loss)`` walks
the tape in reverse creation order (which is a reverse topological order)
and accumulates gradients into every reachable leaf with
``requires_grad=True``.

Volumetric data is channels-first ``(C, D, H, W)``. Training runs in
float32; gradient tests switch to float64 where finite-difference
tolerances are actually reachable.

Memory accounting: one counter, ``LiveSet``, counts live payload bytes.
Each Tensor adds its payload bytes to ``METER`` when it is made and its
gradient buffer bytes when backward allocates one, and subtracts exactly
those bytes when the gradient is zeroed or the Tensor dies. The meter
keeps a running peak and the activation/gradient split at that peak; the
analytic model in ``memory.py`` replays a step into a ``LiveSet`` of its
own, so measured and analytic reports mean the same thing. ``METER``
does not tell a parameter from an activation, and it does not count Adam
moments; memory reports take both as static bytes from the ParamStore.
Raw numpy temporaries inside ops (op workspace) are intentionally not
counted. Some are payload-sized (an output gradient, conv3d's input
gradient before its stride phases are interleaved). conv3d never pads
its input (or, for the input gradient, its output gradient) whole: it
copies the padded input planes of a run of output slices into one reused
slab, and unfolds a chunk of output slices or rows at a time from that
slab into one reused buffer of at most ``CONV_WORKSPACE_BYTES``; the
buffer holds the depth and width taps only, and the row taps are offset
views of it.
Resampling runs through its axis passes one chunk of channels
(``INTERP_CHUNK_BYTES`` of output) at a time.
"""

from __future__ import annotations

import contextlib
import functools
import warnings
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes violate an op contract."""


class GraphError(RuntimeError):
    """Backward called on a detached or non-scalar node."""


DEFAULT_DTYPE = np.float32


# ---------------------------------------------------------------------------
# live payload meter


class LiveSet:
    """Running count of live activation and gradient bytes over a fixed
    ``static_bytes`` floor (parameters, optimizer moments).

    Every allocation and every free of a counted buffer goes through
    ``add`` (frees with negative sizes). ``peak_total`` is the highest
    total seen since the last ``reset_peak``, and ``peak_act_bytes`` /
    ``peak_grad_bytes`` are the split at that moment.
    """

    def __init__(self, static_bytes: int = 0):
        self.static_bytes = static_bytes
        self.act_bytes = 0
        self.grad_bytes = 0
        self.reset_peak()

    def current_total(self) -> int:
        return self.static_bytes + self.act_bytes + self.grad_bytes

    def reset_peak(self) -> None:
        self.peak_total = self.current_total()
        self.peak_act_bytes = self.act_bytes
        self.peak_grad_bytes = self.grad_bytes

    def add(self, act: int = 0, grad: int = 0) -> int:
        """Count ``act`` activation and ``grad`` gradient bytes; returns
        ``act + grad``. A free lowers the total, so only an allocation can
        raise the peak."""
        self.act_bytes += act
        self.grad_bytes += grad
        total = self.static_bytes + self.act_bytes + self.grad_bytes
        if total > self.peak_total:
            self.peak_total = total
            self.peak_act_bytes = self.act_bytes
            self.peak_grad_bytes = self.grad_bytes
        return act + grad


# the payload and gradient bytes of every live Tensor
METER = LiveSet()


# ---------------------------------------------------------------------------
# tape


class GradientTape:
    """Ordered record of op outputs for one backward pass.

    Reverse creation order is a reverse topological order, so one sweep
    visits every node exactly once. ``clear`` drops parent references and
    backward closures, releasing all retained activations.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.enabled = True

    def record(self, t: "Tensor") -> None:
        self.nodes.append(t)

    def clear(self) -> None:
        for t in self.nodes:
            t._parents = ()
            t._bwd = None
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)


_tape = GradientTape()


def active_tape() -> GradientTape:
    return _tape


@contextlib.contextmanager
def no_grad():
    """Disable taping: ops produce plain tensors, nothing is retained."""
    prev = _tape.enabled
    _tape.enabled = False
    try:
        yield
    finally:
        _tape.enabled = prev


# ---------------------------------------------------------------------------
# tensor


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd",
                 "_nbytes", "_grad_nbytes")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        # set first, so that a constructor that raises leaves nothing to release
        self._nbytes = self._grad_nbytes = 0
        if isinstance(data, Tensor):
            raise TypeError("wrap ndarray or scalar, not Tensor")
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._bwd = None
        self._nbytes = METER.add(arr.nbytes)

    def __del__(self, _meter=METER):
        # releases exactly the bytes this Tensor counted; ``_meter`` is bound
        # here so that the release still works at interpreter shutdown
        _meter.add(-self._nbytes, -self._grad_nbytes)

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------------
    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            if g.base is not None or not g.flags.owndata:
                g = g.copy()
            self.grad = g
            self._grad_nbytes += METER.add(grad=g.nbytes)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        # a gradient assigned to ``grad`` directly was never counted
        if self.grad is not None:
            METER.add(grad=-self._grad_nbytes)
            self._grad_nbytes = 0
            self.grad = None

    # -- operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _make(data: np.ndarray, parents, bwd) -> Tensor:
    """Create an op output, recording it on the tape when gradients flow."""
    need = _tape.enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=need)
    if need:
        out._parents = tuple(parents)
        out._bwd = bwd
        _tape.record(out)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    The tape is consumed: after the sweep all retained activations are
    released, and only leaf gradients survive.
    """
    if loss.data.size != 1:
        raise GraphError("backward needs a scalar loss")
    if loss._bwd is None:
        raise GraphError("loss is detached from the gradient tape")
    loss.accumulate_grad(np.ones_like(loss.data))
    try:
        for node in reversed(_tape.nodes):
            if node.grad is None or node._bwd is None:
                continue
            node._bwd(node.grad)
            # interior grads are complete here (reverse topological order);
            # free them eagerly so backward's live set stays small
            node.zero_grad()
    finally:
        _tape.clear()


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops


def _coerce(a, like: Tensor):
    if isinstance(a, Tensor):
        return a
    return Tensor(np.asarray(a, dtype=like.dtype))


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    if b.data.shape not in ((), a.data.shape):
        raise ShapeError(f"add shape mismatch {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g if b.data.shape == g.shape else g.sum())
    return _make(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    if b.data.shape not in ((), a.data.shape):
        raise ShapeError(f"sub shape mismatch {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g if b.data.shape == g.shape else -g.sum())
    return _make(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        if b.data.shape not in ((), a.data.shape):
            raise ShapeError(f"mul shape mismatch {a.shape} vs {b.shape}")
        ad, bd = a.data, b.data

        def bwd(g):
            if a.requires_grad:
                a.accumulate_grad(g * bd)
            if b.requires_grad:
                gb = g * ad
                b.accumulate_grad(gb if b.data.shape == g.shape else gb.sum())
        return _make(ad * bd, (a, b), bwd)
    s = float(b)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)
    return _make(a.data * s, (a,), bwd)


def square(a: Tensor) -> Tensor:
    ad = a.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(2.0 * g * ad)
    return _make(ad * ad, (a,), bwd)


def tabs(a: Tensor) -> Tensor:
    ad = a.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * np.sign(ad))
    return _make(np.abs(ad), (a,), bwd)


def tsum(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))
    return _make(np.asarray(a.data.sum(), dtype=a.dtype), (a,), bwd)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g) / n))
    return _make(np.asarray(a.data.mean(), dtype=a.dtype), (a,), bwd)


def mean_axes(a: Tensor, axes, keepdims: bool = True) -> Tensor:
    axes = tuple(axes)
    n = int(np.prod([a.data.shape[ax] for ax in axes]))
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bwd(g):
        if a.requires_grad:
            gg = g if keepdims else np.expand_dims(g, axes)
            a.accumulate_grad(np.broadcast_to(gg / n, a.data.shape).copy())
    return _make(out, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.data.shape))
    return _make(a.data.reshape(shape), (a,), bwd)


def concat(parts, axis: int = 0) -> Tensor:
    parts = list(parts)
    shapes = [p.data.shape for p in parts]
    ref = list(shapes[0])
    for s in shapes[1:]:
        t = list(s)
        t[axis] = ref[axis]
        if t != ref:
            raise ShapeError(f"concat shape mismatch: {shapes}")
    sizes = [s[axis] for s in shapes]
    offs = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offs[:-1], offs[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                p.accumulate_grad(g[tuple(idx)])
    return _make(np.concatenate([p.data for p in parts], axis=axis),
                 tuple(parts), bwd)


def slice_axis(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous window along one axis; gradient is zero outside it."""
    n = a.data.shape[axis]
    if start < 0 or start + length > n:
        raise ShapeError(f"window [{start}, {start + length}) out of bounds for extent {n}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g):
        if a.requires_grad:
            gx = np.zeros_like(a.data)
            gx[idx] = g
            a.accumulate_grad(gx)
    return _make(a.data[idx].copy(), (a,), bwd)


# ---------------------------------------------------------------------------
# activations


def relu(a: Tensor) -> Tensor:
    ad = a.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * (ad > 0))
    return _make(np.maximum(ad, 0), (a,), bwd)


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    ad = a.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * np.where(ad > 0, 1.0, alpha).astype(ad.dtype))
    return _make(np.where(ad > 0, ad, alpha * ad), (a,), bwd)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    ad = a.data
    neg = alpha * np.expm1(np.minimum(ad, 0))
    out = np.where(ad > 0, ad, neg)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * np.where(ad > 0, 1.0, neg + alpha).astype(ad.dtype))
    return _make(out, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - out * out))
    return _make(out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * out * (1.0 - out))
    return _make(out, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow."""
    ad = a.data
    out = np.maximum(ad, 0) + np.log1p(np.exp(-np.abs(ad)))

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g / (1.0 + np.exp(-ad)))
    return _make(out, (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            a.accumulate_grad((g - dot) * out)
    return _make(out, (a,), bwd)


ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "elu": elu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "softplus": softplus,
}


def activation(a: Tensor, kind: str, **kw) -> Tensor:
    if kind == "softmax":
        return softmax(a, **kw)
    try:
        return ACTIVATIONS[kind](a, **kw)
    except KeyError:
        raise ValueError(f"unknown activation '{kind}'") from None


def cross_entropy_logits(logits: Tensor, target: int) -> Tensor:
    """Cross-entropy of a single-sample logit vector against a class index."""
    x = logits.data.reshape(-1)
    k = x.size
    if not 0 <= target < k:
        raise IndexError(f"class index {target} out of range for {k} classes")
    m = x.max()
    lse = m + np.log(np.exp(x - m).sum())
    out = np.asarray(lse - x[target], dtype=x.dtype)

    def bwd(g):
        if logits.requires_grad:
            p = np.exp(x - lse)
            p[target] -= 1.0
            logits.accumulate_grad((float(g) * p).reshape(logits.data.shape))
    return _make(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# dense / conv / norm / interp primitives


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map. x: (N, F_in) or (F_in,), w: (F_out, F_in), b: (F_out,)."""
    xd = x.data
    vec = xd.ndim == 1
    x2 = xd[None, :] if vec else xd
    if x2.ndim != 2 or w.data.ndim != 2 or x2.shape[1] != w.data.shape[1]:
        raise ShapeError(f"dense: x {xd.shape} w {w.data.shape}")
    if b.data.shape != (w.data.shape[0],):
        raise ShapeError(f"dense: bias {b.data.shape} vs F_out {w.data.shape[0]}")
    out = x2 @ w.data.T + b.data

    def bwd(g):
        g2 = g[None, :] if vec else g
        if w.requires_grad:
            w.accumulate_grad(g2.T @ x2)
        if b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))
        if x.requires_grad:
            gx = g2 @ w.data
            x.accumulate_grad(gx[0] if vec else gx)
    return _make(out[0] if vec else out, (x, w, b), bwd)


def _triple(v):
    if isinstance(v, (int, np.integer)):
        return (int(v),) * 3
    t = tuple(int(i) for i in v)
    if len(t) != 3:
        raise ValueError(f"expected int triple, got {v}")
    return t


# Upper bound, in bytes, on the unfolded input conv3d materializes at once.
# Only speed depends on it. A chunk that stays in cache matters most for the
# memory-bound C_out=1 products: on a 2-core box with 2 MB of L2 per core,
# 0.5-1 MB ran a 128^3 training step about 20% faster than 2-8 MB.
CONV_WORKSPACE_BYTES = 1 << 20


def _conv_chunks(k: int, out_shape, itemsize: int, halo: int = 0):
    """Split a conv output ``(od, oh, ow)`` into chunks whose unfolded input
    fits the workspace: ``k`` matrix rows per output row, each ``ow``
    columns wide, over a chunk's output rows plus ``halo`` more rows.

    Yields ``(zs, ys)`` slices of output depth and rows. A chunk holds whole
    depth slices when one slice fits, otherwise rows of a single slice; a
    single output row (with its halo) is the smallest chunk. The count of
    slices (or rows) per chunk is a power of two, so a power-of-two volume
    splits into equal chunks, and no GEMM is narrower than the rest: BLAS
    kernels may round narrow products, or the columns past the last full
    register panel, differently from the wide ones.
    """
    od, oh, ow = out_shape
    rows = max(1, CONV_WORKSPACE_BYTES // (k * ow * itemsize))
    if rows >= oh + halo:
        nz, ny = 1 << ((rows // (oh + halo)).bit_length() - 1), oh
    else:
        nz, ny = 1, 1 << (max(1, rows - halo).bit_length() - 1)
    for z0 in range(0, od, nz):
        for y0 in range(0, oh, ny):
            yield slice(z0, min(z0 + nz, od)), slice(y0, min(y0 + ny, oh))


def _row_groups(kh: int, sh: int) -> list[int]:
    """Row residues per row-shift group: row tap ``j = sh*q + r`` is residue
    ``r < min(sh, kh)`` shifted by ``q`` output rows, so group ``q`` holds
    residues ``0 .. n_q - 1``."""
    return [min(sh, kh - sh * q) for q in range(-(-kh // sh))]


def _unfold_rows(cin: int, ksize, stride) -> tuple[int, int]:
    """Rows per output row of ``_unfold_chunks``' matrix, and its halo
    (extra input rows per chunk): what ``_conv_chunks`` sizes chunks by."""
    kd, kh, kw = ksize
    groups = _row_groups(kh, stride[1])
    return groups[0] * cin * kd * kw, len(groups) - 1


def _slab_slices(nz: int, kd: int, sd: int) -> int:
    """Output slices per slab of ``_unfold_chunks``: a whole number of
    ``nz``-slice chunks, enough that the ``kd - sd`` planes consecutive
    slabs share add at most a quarter to the ``ns*sd`` planes a slab
    advances by, so each input plane is copied at most 1.25 times."""
    return nz * max(1, -(-4 * (kd - sd) // (sd * nz)))


def _unfold_chunks(x: np.ndarray, pad, ksize, stride, out_shape):
    """Row-shifted im2col of a ``(C, D, H, W)`` array zero-padded by ``pad``,
    a chunk at a time.

    The padded input is never built whole. The input planes of a run of
    output slices (``_slab_slices`` of them) are copied into one reused
    slab of ``(C, planes, max(H + ph, (oh - 1)*sh + kh), ...)`` (likewise
    along W) whose border is zero: the leading border is the pad, the
    trailing one reaches as far as the output's windows, so a correlation
    may read more zeros past the input's end than before its start (a
    forward conv's slab is ``H + 2*ph`` rows or fewer). Planes outside
    ``[0, D)`` are zeroed. The chunks' sliding windows are views of
    that slab, so a plane is copied about once, plus the ``kd - sd``
    planes that consecutive slabs share.

    A chunk of ``nz`` output slices and ``ny`` output rows is then copied
    once into a ``(nz, nr*C*kd*kw, (ny + nq - 1) * ow)`` buffer: per output
    slice, rows ordered (row residue r, C, kd, kw) and columns (row, x) over
    the chunk's rows and ``nq - 1`` halo rows, where ``nr = min(sh, kh)``
    and ``nq = ceil(kh / sh)``. Row tap ``sh*q + r`` of output row ``y`` is
    then residue ``r`` at buffer row ``y + q``, so group ``q`` is an offset
    view.

    Yields ``(zs, ys, views)`` with one ``(nz, C*kd*kw*n_q, ny*ow)`` view per
    group ``q`` (its residues ``r < n_q``, see ``_row_groups``), columns in
    output raster order. The views share one reused buffer of at most
    ``CONV_WORKSPACE_BYTES`` (or one output row and its halo, if larger):
    they are valid only until the next chunk. Buffer rows that no group
    reads (past the input's last row) are left unset.
    """
    od, oh, ow = out_shape
    cin, d, h, wdt = x.shape
    pd, ph, pw = pad
    kd, kh, kw = ksize
    sd, sh, sw = stride
    groups = _row_groups(kh, sh)
    k, halo = _unfold_rows(cin, ksize, stride)
    ck = cin * kd * kw
    buf = None
    s_end = 0
    for zs, ys in _conv_chunks(k, out_shape, x.itemsize, halo):
        nz, ny = zs.stop - zs.start, ys.stop - ys.start
        t = ny + halo
        if buf is None:
            buf = np.empty(nz * k * t * ow, x.dtype)
            ns = min(od, _slab_slices(nz, kd, sd))
            slab = np.zeros((cin, (ns - 1) * sd + kd, max(h + ph, (oh - 1) * sh + kh),
                             max(wdt + pw, (ow - 1) * sw + kw)), x.dtype)
            inner = slab[:, :, ph:ph + h, pw:pw + wdt]
            win = sliding_window_view(slab, (kd, kw), axis=(1, 3))[:, ::sd, :, ::sw][:, :, :, :ow]
            win = win.transpose(1, 0, 4, 5, 2, 3)    # (ns, C, kd, kw, Hp, ow)
        if zs.start >= s_end:
            # planes z0 .. z0 + planes - 1 of x feed output slices s0 .. s_end - 1
            s0, s_end = zs.start, min(zs.start + ns, od)
            z0, planes = s0 * sd - pd, (s_end - 1 - s0) * sd + kd
            lo = min(planes, max(0, -z0))
            hi = max(lo, min(planes, d - z0))
            inner[:, :lo] = 0
            np.copyto(inner[:, lo:hi], x[:, z0 + lo:z0 + hi])
            inner[:, hi:planes] = 0
        cols = buf[:nz * k * t * ow].reshape(nz, groups[0], cin, kd, kw, t, ow)
        for r in range(groups[0]):
            src = win[zs.start - s0:zs.stop - s0, ..., ys.start * sh + r::sh, :][..., :t, :]
            np.copyto(cols[:, r, ..., :src.shape[-2], :], src)
        flat = cols.reshape(nz, k, t * ow)
        yield zs, ys, [flat[:, :n * ck, q * ow:(q + ny) * ow] for q, n in enumerate(groups)]


def _group_weights(w: np.ndarray, sh: int) -> list[np.ndarray]:
    """The ``(C_out, C_in*kd*kw*n_q)`` weight matrix of each row-shift group,
    columns in ``_unfold_chunks``' row order (r, C_in, kd, kw)."""
    return [np.ascontiguousarray(w[:, :, :, sh * q:sh * q + n].transpose(0, 3, 1, 2, 4))
            .reshape(w.shape[0], -1) for q, n in enumerate(_row_groups(w.shape[3], sh))]


def _phase_weights(w: np.ndarray, stride, pad):
    """The input gradient of a conv as one stride-1 correlation of its
    output gradient ``g``, with one output channel per input channel and
    stride phase.

    Along an axis of kernel ``k``, stride ``s`` and pad ``p``, input
    position ``s*m + r`` (phase ``r``) receives
    ``sum_t g[m + lo + t] * v_r[t]`` over ``t < kk``, where
    ``lo = (p + s - k) // s``, ``start = p + s - k - s*lo`` (in ``[0, s)``)
    and ``kk = ceil((start + k) / s)``: the flipped kernel, padded with
    zeros to ``s*kk`` taps starting at ``start`` and reshaped to ``(kk, s)``,
    holds ``v_r`` in column ``s - 1 - r``. At ``s = 1`` this is the flipped
    kernel with ``lo = p + 1 - k``. The correlation runs over ``ceil(n / s)``
    positions of ``g`` padded with ``-lo`` leading zeros (a positive ``lo``
    crops ``g`` instead).

    Returns ``lo`` per axis and the ``(C_in*sd*sh*sw, C_out, kkd, kkh, kkw)``
    kernel of ``w`` (``(C_out, C_in, kd, kh, kw)``), output channels ordered
    (C_in, rd, rh, rw). The phases are views of the padded flipped kernel,
    copied once, straight into the memory order
    (kkh, C_in*sd*sh*sw, C_out, kkd, kkw) in which ``_group_weights(., 1)``
    takes each row tap's matrix as a view.
    """
    cout, cin, *ks = w.shape
    lo, start = zip(*(divmod(p + s - k, s) for k, s, p in zip(ks, stride, pad)))
    kkd, kkh, kkw = (-(-(a + k) // s) for a, k, s in zip(start, ks, stride))
    sd, sh, sw = stride
    wp = np.zeros((cout, cin, sd * kkd, sh * kkh, sw * kkw), w.dtype)
    wp[(...,) + tuple(slice(a, a + k) for a, k in zip(start, ks))] = w[..., ::-1, ::-1, ::-1]
    phases = wp.reshape(cout, cin, kkd, sd, kkh, sh, kkw, sw)[..., ::-1, :, ::-1, :, ::-1]
    stacked = np.ascontiguousarray(phases.transpose(4, 1, 3, 5, 7, 0, 2, 6))
    return lo, stacked.reshape(kkh, -1, cout, kkd, kkw).transpose(1, 2, 3, 0, 4)


def _chunk_view(a: np.ndarray, zs: slice, ys: slice) -> np.ndarray:
    """``a[:, zs, ys]`` of a C-contiguous ``(C, od, oh, ow)`` array as an
    ``(nz, C, ny*ow)`` view, the layout of a batch of per-slice GEMMs."""
    c, od, oh, ow = a.shape
    return a.reshape(c, od, oh * ow)[:, zs, ys.start * ow:ys.stop * ow].transpose(1, 0, 2)


def _correlate(x: np.ndarray, pad, w: np.ndarray, stride, out_shape) -> np.ndarray:
    """Unbiased cross-correlation of an input zero-padded by ``pad`` in
    front, and behind as far as ``out_shape``'s windows reach: per chunk,
    the sum over row-shift groups of ``W_q @ view_q``, in group order."""
    wq = _group_weights(w, stride[1])
    out = np.empty((w.shape[0],) + tuple(out_shape), np.result_type(w, x))
    for zs, ys, views in _unfold_chunks(x, pad, w.shape[2:], stride, out_shape):
        dst = _chunk_view(out, zs, ys)
        np.matmul(wq[0], views[0], out=dst)
        for wm, v in zip(wq[1:], views[1:]):
            dst += wm @ v
    return out


def conv3d(x: Tensor, w: Tensor, b: Tensor, stride=1, pad=0, upsample: bool = False) -> Tensor:
    """3D cross-correlation with zero padding.

    x: (C_in, D, H, W), w: (C_out, C_in, kd, kh, kw), b: (C_out,).
    Output extent per axis: floor((n + 2*pad - k) / stride) + 1.

    With ``upsample`` the correlation reads the half-pixel trilinear x2
    upsample of x (``Interp(2.0)``) without building it: a 3^3 kernel at
    stride 1 and pad 1 only, output ``(C_out, 2D, 2H, 2W)``; see
    ``_upconv3d``.

    The padded input is never built. ``_unfold_chunks`` copies the input
    planes of a run of output slices into one reused zero-bordered slab
    (zero planes stand for the depth padding), and unfolds the slab a chunk
    of output slices or rows at a time: one copy of the depth and width
    taps over the chunk's rows plus a halo, in a buffer of at most
    ``CONV_WORKSPACE_BYTES`` (or one output row and its halo, if that is
    larger) whatever the volume's extent. Row tap ``j = sh*q + r`` is
    residue ``r`` shifted by ``q`` rows, so each row-shift group ``q`` is
    one GEMM per output slice on an offset view of that buffer, with inner
    dimension C_in*kd*kw times the group's residues:

    * forward: ``out[:, chunk] = sum_q W_q @ view_q``, in group order;
    * weight gradient: ``gW_q += g[:, chunk] @ view_q.T``;
    * input gradient: one stride-1 correlation of the output gradient with
      the phase-stacked flipped kernel of ``_phase_weights`` (C_in*sd*sh*sw
      output channels over ``ceil(n / s)`` positions per axis, one channel
      per input channel and stride phase), whose phases are then
      interleaved into the input's shape. At stride 1 it is the correlation
      with the flipped, channel-swapped kernel, padded by ``k - 1 - pad``.

    The arithmetic of an output voxel must not depend on the volume's
    extent or on where the chunks fall: a decoder run on a depth window
    reproduces the full volume's interior bit for bit, and the tests
    check that with ``np.array_equal``. The tap groups and their order are
    the same for every chunk, and each output slice is its own GEMM, so a
    slice's product does not depend on the volume's depth: depth windows
    agree at any extent. Row chunks of one slice rest on the BLAS rounding
    a column of a GEMM the same way whatever the GEMM's width. OpenBLAS
    does so for widths that are multiples of 16 columns and not tiny,
    which power-of-two extents and chunk sizes provide; row-chunked at odd
    widths, the last bit can differ.
    """
    stride = _triple(stride)
    pad = _triple(pad)
    if upsample:
        if stride != (1, 1, 1) or pad != (1, 1, 1):
            raise ValueError(f"upsample needs stride 1 and pad 1, got {stride}, {pad}")
        return _upconv3d(x, w, b)
    return _conv3d(x, w, b, stride, pad)


def _conv3d(x: Tensor, w: Tensor, b: Tensor, stride, pad) -> Tensor:
    """``conv3d`` without ``upsample``; ``stride`` and ``pad`` are triples.
    The upsample path calls it directly, so a traced ``conv3d`` call stays
    one call."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 5:
        raise ShapeError(f"conv3d: x {xd.shape}, w {wd.shape}")
    cin, d, h, wdt = xd.shape
    cout, cin_w, kd, kh, kw = wd.shape
    if cin != cin_w:
        raise ShapeError(f"conv3d channel mismatch: input {cin}, weight {cin_w}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv3d bias shape {b.data.shape}")
    outs = []
    for n, k, s, p in zip((d, h, wdt), (kd, kh, kw), stride, pad):
        o = (n + 2 * p - k) // s + 1
        if o <= 0:
            raise ShapeError(f"conv3d non-positive output extent: n={n} k={k} s={s} p={p}")
        outs.append(o)

    out = _correlate(xd, pad, wd, stride, outs)
    out += b.data[:, None, None, None]
    out = np.ascontiguousarray(out, dtype=xd.dtype)

    def bwd(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(1, 2, 3)))
        if w.requires_grad:
            groups = _row_groups(kh, stride[1])
            gq = [np.zeros((cout, n * cin * kd * kw), np.result_type(g, xd)) for n in groups]
            gcont = np.ascontiguousarray(g)
            for zs, ys, views in _unfold_chunks(xd, pad, (kd, kh, kw), stride, outs):
                gc = _chunk_view(gcont, zs, ys)
                for acc, v in zip(gq, views):
                    acc += (gc @ v.transpose(0, 2, 1)).sum(axis=0)
            # the groups hold row taps 0..kh-1 in order
            gw = np.concatenate([acc.reshape(cout, n, cin, kd, kw).transpose(0, 2, 3, 1, 4)
                                 for n, acc in zip(groups, gq)], axis=3)
            w.accumulate_grad(gw.astype(wd.dtype, copy=False))
        if x.requires_grad:
            lo, wg = _phase_weights(wd, stride, pad)
            ext = tuple(-(-n // s) for n, s in zip((d, h, wdt), stride))
            gc = g[:, max(lo[0], 0):, max(lo[1], 0):, max(lo[2], 0):]
            gp = _correlate(gc, [max(-n, 0) for n in lo], wg, (1, 1, 1), ext)
            gp = gp.reshape((cin,) + stride + ext)
            # interleave the phases: gx[:, s*m + r] = gp[:, r, m]
            gx = np.empty(xd.shape, xd.dtype)
            for r in np.ndindex(*stride):
                dst = gx[:, r[0]::stride[0], r[1]::stride[1], r[2]::stride[2]]
                np.copyto(dst, gp[(slice(None),) + r + tuple(map(slice, dst.shape[1:]))])
            x.accumulate_grad(gx)
    return _make(out, (x, w, b), bwd)


def group_norm(x: Tensor, groups: int, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5, per_depth_slice: bool = False) -> Tensor:
    """Group normalization over (C/groups, D, H, W) plus per-channel affine.

    With ``per_depth_slice`` the statistics are computed per (group, depth
    slice) over (C/groups, H, W) only. That variant is translation
    covariant along depth, which is what lets a decoder trained on depth
    windows run on the full volume with identical interior output.
    """
    xd = x.data
    c, d, h, w = xd.shape
    if c % groups:
        raise ShapeError(f"channels {c} not divisible by {groups} groups")
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError("group_norm affine parameters must have shape (C,)")
    if per_depth_slice:
        xg = xd.reshape(groups, c // groups, d, h * w)
        axes = (1, 3)          # stats over (channels-in-group, H*W) per slice
    else:
        xg = xd.reshape(groups, -1)
        axes = (1,)
    mu = xg.mean(axis=axes, keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mu) * inv).reshape(c, d, h, w)
    out = gamma.data[:, None, None, None] * xhat + beta.data[:, None, None, None]
    n_stat = int(np.prod([xg.shape[ax] for ax in axes]))

    def bwd(g):
        xh = ((xg - mu) * inv).reshape(c, d, h, w)
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xh).sum(axis=(1, 2, 3)))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=(1, 2, 3)))
        if x.requires_grad:
            gh = (g * gamma.data[:, None, None, None])
            if per_depth_slice:
                gh = gh.reshape(groups, c // groups, d, h * w)
                xhg = xh.reshape(groups, c // groups, d, h * w)
            else:
                gh = gh.reshape(groups, -1)
                xhg = xh.reshape(groups, -1)
            s1 = gh.sum(axis=axes, keepdims=True)
            s2 = (gh * xhg).sum(axis=axes, keepdims=True)
            gx = inv / n_stat * (n_stat * gh - s1 - xhg * s2)
            x.accumulate_grad(np.ascontiguousarray(gx.reshape(c, d, h, w), dtype=xd.dtype))
    return _make(np.ascontiguousarray(out, dtype=xd.dtype), (x, gamma, beta), bwd)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Per-channel normalization by running statistics.

    Samples pass through one at a time here, so there are no mini-batch
    statistics: normalization always uses the running estimates (treated
    as constants by the gradient), and training mode folds the current
    sample's spatial statistics into the running buffers afterwards.
    """
    xd = x.data
    mu = running_mean.copy()
    var = running_var.copy()
    if training:
        running_mean *= (1.0 - momentum)
        running_mean += momentum * xd.mean(axis=(1, 2, 3))
        running_var *= (1.0 - momentum)
        running_var += momentum * xd.var(axis=(1, 2, 3))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu[:, None, None, None]) * inv[:, None, None, None]
    out = gamma.data[:, None, None, None] * xhat + beta.data[:, None, None, None]

    def bwd(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=(1, 2, 3)))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=(1, 2, 3)))
        if x.requires_grad:
            gx = g * (gamma.data * inv)[:, None, None, None]
            x.accumulate_grad(np.ascontiguousarray(gx, dtype=xd.dtype))
    return _make(np.ascontiguousarray(out, dtype=xd.dtype), (x, gamma, beta), bwd)


# -- trilinear interpolation -------------------------------------------------

# Output bytes resampled per chunk of leading (channel) slices: one chunk
# runs through every axis pass while its temporaries are still in cache.
INTERP_CHUNK_BYTES = 8 << 20


class InterpPlan(NamedTuple):
    """Linear resampling of one axis as a two-tap stencil.

    Output ``v`` is ``w0[v] * x[i0[v]] + w1[v] * x[i1[v]]``, with both
    products rounded in the data dtype before the add, so a voxel's value
    depends only on its two source values, never on the extent of the
    volume. ``runs`` are strided slices ``(out, in0, in1, w0, w1)`` with
    constant weights; they cover the periodic interior of an integer up-
    or down-factor on the half-pixel grid. ``points`` are the other
    outputs ``(v, i0, i1, w0, w1)``, one at a time: clamped edges,
    ``align_corners`` grids and other ratios.
    """
    n_in: int
    n_out: int
    runs: tuple
    points: tuple


@functools.lru_cache(maxsize=256)
def interp_plan(n_in: int, n_out: int, align_corners: bool, dtype=np.float64) -> InterpPlan:
    """The (cached) plan resampling ``n_in`` samples to ``n_out``.

    Source positions are computed in float64, either on half-pixel centres
    or corner-aligned, and clamped to the input; the taps are
    ``i0 = floor(src)`` and ``min(i0 + 1, n_in - 1)`` with weights
    ``1 - t`` and ``t``, each rounded once to ``dtype``. Equal extents give
    the identity, which has no runs and no points.
    """
    if n_in == n_out:
        return InterpPlan(n_in, n_out, (), ())
    v = np.arange(n_out)
    if n_out == 1:
        src = np.full(1, 0.5 * (n_in - 1))
    elif align_corners:
        src = v * (n_in - 1) / (n_out - 1)
    else:
        src = (v + 0.5) * n_in / n_out - 0.5
    src = np.clip(src, 0.0, n_in - 1)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    t = src - i0
    w0, w1 = (1.0 - t).astype(dtype), t.astype(dtype)

    runs, single = [], np.ones(n_out, dtype=bool)
    if not align_corners and (n_out % n_in == 0 or n_in % n_out == 0):
        period, step = max(n_out // n_in, 1), max(n_in // n_out, 1)
        for p in range(period):
            vs = np.arange(p, n_out, period)
            m = vs.size // 2
            base = i0[vs] - step * np.arange(vs.size)
            same = ((base == base[m]) & (i1[vs] == i0[vs] + 1)
                    & (w0[vs] == w0[vs[m]]) & (w1[vs] == w1[vs[m]]))
            if not same[m]:
                continue
            bad = np.flatnonzero(~same)
            lo = int(bad[bad < m].max()) + 1 if (bad < m).any() else 0
            hi = int(bad[bad > m].min()) if (bad > m).any() else vs.size
            if hi - lo < 2:
                continue
            a, span = int(i0[vs[lo]]), step * (hi - lo - 1) + 1
            runs.append((slice(int(vs[lo]), int(vs[hi - 1]) + 1, period),
                         slice(a, a + span, step), slice(a + 1, a + 1 + span, step),
                         w0[vs[m]], w1[vs[m]]))
            single[vs[lo:hi]] = False
    points = tuple((int(o), int(i0[o]), int(i1[o]), w0[o], w1[o]) for o in np.flatnonzero(single))
    return InterpPlan(n_in, n_out, tuple(runs), points)


def _interp_axis(arr: np.ndarray, plan: InterpPlan, ax: int, transpose: bool,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Apply one axis of a plan, or its transpose, writing a new array once.

    Runs read ``arr`` times each distinct weight, formed once per call,
    through strided slices of axis ``ax``. A point tap of weight 0 is
    skipped, which changes no finite result.
    """
    lead = (slice(None),) * ax
    if out is None:
        out = np.empty(arr.shape[:ax] + (plan.n_in if transpose else plan.n_out,)
                       + arr.shape[ax + 1:], arr.dtype)
    if transpose:
        out[...] = 0
        for o, s0, s1, w0, w1 in plan.runs:
            g = arr[lead + (o,)]
            out[lead + (s0,)] += g * w0
            out[lead + (s1,)] += g * w1
        for v, i0, i1, w0, w1 in plan.points:
            g = arr[lead + (v,)]
            out[lead + (i0,)] += g if w0 == 1 else g * w0
            if w1:
                out[lead + (i1,)] += g * w1
        return out
    prods = {}

    def tap(w, s):
        if w not in prods:
            prods[w] = arr * w
        return prods[w][lead + (s,)]

    for o, s0, s1, w0, w1 in plan.runs:
        np.add(tap(w0, s0), tap(w1, s1), out=out[lead + (o,)])
    for v, i0, i1, w0, w1 in plan.points:
        if w1:
            np.add(arr[lead + (i0,)] * w0, arr[lead + (i1,)] * w1, out=out[lead + (v,)])
        else:
            np.multiply(arr[lead + (i0,)], w0, out=out[lead + (v,)])
    return out


def _interp(arr: np.ndarray, plans, axes, transpose: bool = False) -> np.ndarray:
    """Apply per-axis plans (or their transposes) to ``axes`` of ``arr``.

    Contracting axes (and plans of equal extents that pick or mix
    samples) run first, outermost first; expanding axes run innermost
    first, so the strided pass along the last axis sees the smallest
    array. Transposes run in the reverse order. Identity axes (no runs and
    no points) are skipped; the result is always a new array.
    """
    moving = [(ax, p) for ax, p in zip(axes, plans) if p.runs or p.points]
    steps = [(ax, p) for ax, p in moving if p.n_out <= p.n_in]
    steps += [(ax, p) for ax, p in moving if p.n_out > p.n_in][::-1]
    if transpose:
        steps = steps[::-1]
    if not steps:
        return arr.copy()
    shape = list(arr.shape)
    for ax, p in zip(axes, plans):
        shape[ax] = p.n_in if transpose else p.n_out
    out = np.empty(shape, arr.dtype)
    if 0 in axes:
        chunks = [slice(None)]
    else:
        per = max(1, INTERP_CHUNK_BYTES // max(out[:1].nbytes, 1))
        chunks = [slice(c, c + per) for c in range(0, len(arr), per)]
    for c in chunks:
        part = arr[c]
        for ax, plan in steps[:-1]:
            part = _interp_axis(part, plan, ax, transpose)
        _interp_axis(part, steps[-1][1], steps[-1][0], transpose, out[c])
    return out


def resample(arr: np.ndarray, extents, align_corners: bool = False) -> np.ndarray:
    """Linear resampling of the last three axes of a numpy array to ``extents``.

    Separable: one cached ``interp_plan`` per axis, in ``arr.dtype``,
    applied in the order ``_interp`` gives. Each voxel's arithmetic is two
    products and one add, whatever the extent. Plain numpy, no tape;
    ``resize3d`` is the differentiable counterpart and gives the same bits.
    """
    axes = range(arr.ndim - 3, arr.ndim)
    plans = [interp_plan(arr.shape[ax], n, align_corners, arr.dtype)
             for ax, n in zip(axes, extents)]
    return _interp(arr, plans, axes)


def resize3d(x: Tensor, plans) -> Tensor:
    """Resample the D, H, W axes of ``x`` with one ``InterpPlan`` each.

    Each axis is a two-tap stencil: strided slices over the periodic
    interior of an integer factor on the half-pixel grid, one output at a
    time elsewhere. Contracting axes run first (D, H, W), expanding ones
    after (W, H, D); backward applies the transposed stencils in the
    reverse order. Each output voxel's arithmetic depends only on its
    source values, not on the extent, so a depth window and the whole
    volume agree bitwise wherever their sources agree.
    """
    if x.data.ndim != 4 or tuple(p.n_in for p in plans) != x.shape[1:]:
        raise ShapeError(f"resize3d plans for {tuple(p.n_in for p in plans)} "
                         f"do not fit {x.shape}")
    out = _interp(x.data, plans, (1, 2, 3))

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(_interp(g, plans, (1, 2, 3), transpose=True))
    return _make(out.astype(x.dtype, copy=False), (x,), bwd)


# -- x2 upsample folded into the 3^3 conv that follows it ----------------------

# Along one axis, output 2m + p of a 3-tap, pad-1 correlation of the x2
# half-pixel upsample reads, through conv tap t, the input at m - 1 + a with
# weight _UP2_TAPS[t, p, a], the input edge-replicated by one sample: that
# replicate is the upsample's clamped edge. The first output's tap 0 and the
# last output's tap 2 read the conv's zero padding instead, which no padding
# of the input reproduces.
_UP2_TAPS = np.array([[[0.75, 0.25, 0.0], [0.25, 0.75, 0.0]],
                      [[0.25, 0.75, 0.0], [0.0, 0.75, 0.25]],
                      [[0.0, 0.75, 0.25], [0.0, 0.25, 0.75]]])

# Along depth the correlation pads the input with zeros instead.
# _UP2_DEPTH_EDGE[t, 2*s + p, 0] is what output 2m + p, for m the first
# (s = 0) or last (s = 1) input slice, then lacks through tap t of that
# slice: its edge replicate's share, less the tap that reads the conv's zero
# padding.
_UP2_DEPTH_EDGE = np.array([[[-0.25], [0.25], [0.0], [0.0]],
                            [[0.25], [0.0], [0.0], [0.25]],
                            [[0.0], [0.0], [0.25], [-0.25]]])


@functools.lru_cache(maxsize=8)
def _up2_stencil(depth_edge: bool, dtype) -> np.ndarray:
    """The map from a 3^3 kernel's 27 taps (td, th, tw) to its phase
    kernels (pd, ph, pw, ad, ah, aw): the per-axis tap tables,
    Kronecker-multiplied; ``_UP2_DEPTH_EDGE`` along depth if
    ``depth_edge``, else ``_UP2_TAPS``."""
    kd = _UP2_DEPTH_EDGE if depth_edge else _UP2_TAPS
    k = _UP2_TAPS
    return np.einsum("xpa,yqb,zrc->xyzpqrabc", kd, k, k).reshape(27, -1).astype(dtype)


def _up2_kernels(wd: np.ndarray, depth_edge: bool = False) -> np.ndarray:
    """``(C_out, C_in, 3, 3, 3)`` -> the ``(P*C_out, C_in, kd, 3, 3)`` phase
    kernels of ``_up2_stencil`` (one GEMM), output channels ordered
    (phases, C_out): eight phases of depth 3, or the four depth-edge rows
    times four (ph, pw) phases, of depth 1."""
    cout, cin = wd.shape[:2]
    kd = 1 if depth_edge else 3
    wp = (wd.reshape(cout * cin, 27) @ _up2_stencil(depth_edge, wd.dtype))
    wp = wp.reshape(cout, cin, -1, kd, 3, 3).transpose(2, 0, 1, 3, 4, 5)
    return np.ascontiguousarray(wp).reshape(-1, cin, kd, 3, 3)


def _interleave(out: np.ndarray, y: np.ndarray) -> None:
    """Write the ``(8, C, D, H, W)`` phases ``y`` (ordered pd, ph, pw) into
    ``out[c, 2m+pd, 2n+ph, 2k+pw]`` of the ``(C, 2D, 2H, 2W)`` output, one
    strided copy per phase."""
    for i, (pd, ph, pw) in enumerate(np.ndindex(2, 2, 2)):
        out[:, pd::2, ph::2, pw::2] = y[i]


def _up2_faces(ext, dtype):
    """Per H and W axis: the first and last output plane of a folded
    upsample-conv, computed unfused. Yields the resample plans that give
    the upsample's first two and last two planes along the axis (whole
    along the others), the stride (3 along the axis) and output shape of
    the 3^3 pad-1 correlation that turns ``[0, u0, u1 | u_{2n-2},
    u_{2n-1}, 0]`` into the two planes, and the two planes' basic slice of
    the output."""
    for ax in (1, 2):
        n = ext[ax]
        taps = ([(0, 0, 1, 0), (0, 1, 0.75, 0.25), (n - 2, n - 1, 0.25, 0.75), (n - 1, n - 1, 1, 0)]
                if n > 1 else [(0, 0, 1, 0)] * 4)
        plans = [interp_plan(e, 2 * e, False, dtype) for e in ext]
        plans[ax] = InterpPlan(n, 4, (), tuple((v, i0, i1, dtype.type(w0), dtype.type(w1))
                                               for v, (i0, i1, w0, w1) in enumerate(taps)))
        yield (plans, tuple(3 if a == ax else 1 for a in range(3)),
               tuple(2 if a == ax else 2 * e for a, e in enumerate(ext)),
               (slice(None),) * (ax + 1) + (slice(0, 2 * n, 2 * n - 1),))


# The phase correlation is used when a low-resolution slice holds at least
# this many voxels per output channel; smaller slices run the pair unfused,
# their upsampled tensor being small. Both cost the same MACs, but the folded
# form adds work on the 8x larger phase kernels and on the borders, which
# only activations well above the kernel's size repay. No-grad forward at
# one BLAS thread, unfused -> folded: 64 -> 32 channels at 4^3, 1.9 -> 8.7
# ms; 32 -> 16 at 8^3, 3.9 -> 5.0 ms; 16 -> 8 at 16^3, 13.3 -> 7.2 ms;
# 8 -> 4 at 16^3, 3.0 -> 3.2 ms; 4 -> 1 at 64^3, 88 -> 34 ms. The rule
# ignores the depth, so a depth window takes the same path as its volume.
UP2_FOLD_MIN_SLICE_PER_COUT = 27


def _upconv3d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``conv3d(x, w, b, stride=1, pad=1, upsample=True)``: the 3^3 conv of
    the half-pixel trilinear x2 upsample of x (``Interp(2.0)``).

    Without a gradient tape, the pair runs on x's own grid and the 8x
    larger upsampled tensor is never built. Along an axis, upsampled
    sample ``2m`` is ``0.25 x[m-1] + 0.75 x[m]`` and ``2m + 1`` is
    ``0.75 x[m] + 0.25 x[m+1]``, the edges clamped, so output ``2m + p``
    reads x at ``m - 1 .. m + 1`` through ``_UP2_TAPS``. The pair is then
    one stride-1 correlation of x with ``8*C_out`` phase kernels
    (``_up2_kernels``: one GEMM of the kernel with a constant stencil),
    whose GEMM reads the low-resolution unfold once for eight outputs, and
    an interleave of the phases into the ``(C_out, 2D, 2H, 2W)`` output.

    The clamp is an edge-replicate pad of x by one sample. That is exact
    except on the first and last output plane of each axis, where the
    conv reads its zero padding instead; the axes are made exact in two
    ways:

    * depth: x is zero-padded along D, and what the first and last two
      output slices then lack (``_UP2_DEPTH_EDGE``) is added by one small
      correlation of x's first and one of its last slice: O(face) work
      that does not grow with the depth, so thin depth windows stay cheap;
    * H and W: x is edge-padded, and the two boundary planes of each axis
      are recomputed unfused from the four upsampled planes they read
      (``_up2_faces``), H then W, edges and corners included.

    Each output voxel's arithmetic depends only on its sources, so a depth
    window reproduces the whole volume's output bit for bit outside its
    first two and last two output slices, as the unfused pair does. The
    result agrees with the unfused pair within rounding, not bit for bit.

    Under a gradient tape, and for slices small against the output
    channels (``UP2_FOLD_MIN_SLICE_PER_COUT``), the pair runs unfused:
    resample, then correlate. Taped, the upsampled tensor stays on the
    tape for backward, as an ``Interp`` layer's output does.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 5 or wd.shape[2:] != (3, 3, 3):
        raise ShapeError(f"x2 upsample-conv needs a 3^3 kernel: x {xd.shape}, w {wd.shape}")
    cin, d, h, wdt = xd.shape
    cout = wd.shape[0]
    if wd.shape[1] != cin:
        raise ShapeError(f"conv3d channel mismatch: input {cin}, weight {wd.shape[1]}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv3d bias shape {b.data.shape}")
    ext = (d, h, wdt)
    plans = [interp_plan(n, 2 * n, False, xd.dtype) for n in ext]
    if _tape.enabled and (x.requires_grad or w.requires_grad or b.requires_grad):
        return _conv3d(resize3d(x, plans), w, b, (1, 1, 1), (1, 1, 1))
    if h * wdt < UP2_FOLD_MIN_SLICE_PER_COUT * cout:
        u = _interp(xd, plans, (1, 2, 3))
        out = _correlate(u, (1, 1, 1), wd, (1, 1, 1), u.shape[1:])
    else:
        xq = np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
        we = _up2_kernels(wd, depth_edge=True)
        y = _correlate(xq, (1, 0, 0), _up2_kernels(wd), (1, 1, 1), ext)
        y[:, :1] += _correlate(xq[:, :1], (0, 0, 0), we[:8 * cout], (1, 1, 1), (1, h, wdt))
        y[:, -1:] += _correlate(xq[:, -1:], (0, 0, 0), we[8 * cout:], (1, 1, 1), (1, h, wdt))
        del xq
        out = np.empty((cout, 2 * d, 2 * h, 2 * wdt), y.dtype)
        _interleave(out, y.reshape((8, cout) + ext))
        del y
        for face_plans, stride, shape, sel in _up2_faces(ext, xd.dtype):
            u = _interp(xd, face_plans, (1, 2, 3))
            out[sel] = _correlate(u, (1, 1, 1), wd, stride, shape)
    out += b.data[:, None, None, None]
    return Tensor(np.ascontiguousarray(out, dtype=xd.dtype))

# -- spectral normalization ---------------------------------------------------


def power_iterate(wmat: np.ndarray, u: np.ndarray, iters: int):
    """Run power iteration; returns (u, v, sigma). Degenerate -> sigma 0."""
    eps = 1e-12
    v = None
    for _ in range(max(1, iters)):
        wv = wmat.T @ u
        nv = np.linalg.norm(wv)
        if nv < eps:
            return u, None, 0.0
        v = wv / nv
        wu = wmat @ v
        nu = np.linalg.norm(wu)
        if nu < eps:
            return u, v, 0.0
        u = wu / nu
    sigma = float(u @ wmat @ v)
    return u, v, abs(sigma)


def spectral_norm(w: Tensor, u: np.ndarray, power_iters: int = 1, update: bool = True):
    """Divide a weight by its estimated top singular value.

    The weight is viewed as a matrix (first axis = output channels, rest
    flattened). ``u`` is the persisted left singular vector estimate and is
    updated in place across steps; with ``update=False`` (eval mode) sigma
    is estimated from the stored ``u`` without touching it. Returns
    ``(w_normalized, u)``. A zero weight is returned unchanged with a
    warning.

    Gradient treats u, v as constants: d(W/sigma) with sigma = u^T W v.
    """
    wmat = w.data.reshape(w.data.shape[0], -1)
    if update:
        u_new, v, sigma = power_iterate(wmat, u, power_iters)
        u[:] = u_new
    else:
        u_new = u
        wv = wmat.T @ u
        nv = np.linalg.norm(wv)
        if nv < 1e-12:
            v, sigma = None, 0.0
        else:
            v = wv / nv
            sigma = abs(float(u @ wmat @ v))
    if sigma == 0.0:
        warnings.warn("spectral_norm: degenerate (zero) weight, returned unchanged")

        def bwd_id(g):
            if w.requires_grad:
                w.accumulate_grad(g)
        return _make(w.data.copy(), (w,), bwd_id), u
    inv = 1.0 / sigma
    out = w.data * inv
    uv = np.outer(u_new, v).reshape(w.data.shape).astype(w.dtype)
    wbar = out

    def bwd(g):
        if w.requires_grad:
            coef = float((g * wbar).sum())
            w.accumulate_grad((g - coef * uv) * inv)
    return _make(out.astype(w.dtype), (w,), bwd), u
