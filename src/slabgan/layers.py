"""Neural layers with symbolic shape propagation.

Every layer can do three things: report its output shape for a given
input shape (without allocating anything), report its parameter shapes,
and run a forward pass once its parameters have been built into a
ParamStore. Symbolic mode is what lets architecture checks run at the
reference scale without ever touching a 256^3 tensor.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .optim import ParamStore
from .tensor import Tensor


GN_MAX_GROUPS = 8
GN_MIN_GROUP_SIZE = 8


def gn_groups(channels: int) -> int:
    """Group count for group norm: the largest power of two up to
    ``GN_MAX_GROUPS`` that keeps at least ``GN_MIN_GROUP_SIZE`` channels
    per group.

    Keeping groups wide preserves inter-channel structure when channel
    counts shrink at small scales; one-channel groups would reduce to
    instance norm and erase global intensity variation per channel.
    """
    g = 1
    while (g * 2 <= GN_MAX_GROUPS and channels % (g * 2) == 0
           and channels // (g * 2) >= GN_MIN_GROUP_SIZE):
        g *= 2
    return g


def _he_normal(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


class Layer:
    """Base layer: subclasses fill in shape logic and forward."""

    def param_shapes(self) -> dict:
        return {}

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def describe(self) -> str:
        return type(self).__name__

    def build(self, store: ParamStore, rng: np.random.Generator, name: str, dtype) -> None:
        pass

    def forward(self, x: Tensor, training: bool) -> Tensor:
        raise NotImplementedError

    def n_params(self) -> int:
        return int(sum(np.prod(s) for s in self.param_shapes().values()))


class Dense(Layer):
    def __init__(self, f_in: int, f_out: int, spectral: bool = False):
        self.f_in, self.f_out = f_in, f_out
        self.spectral = spectral
        self.w = self.b = None
        self.u = None

    def param_shapes(self):
        return {"weight": (self.f_out, self.f_in), "bias": (self.f_out,)}

    def out_shape(self, in_shape):
        if in_shape[-1] != self.f_in:
            raise T.ShapeError(f"dense expects {self.f_in} features, got {in_shape}")
        return tuple(in_shape[:-1]) + (self.f_out,)

    def describe(self):
        return "Dense" + ("+SN" if self.spectral else "")

    def build(self, store, rng, name, dtype):
        self.w = store.register(f"{name}/weight",
                                Tensor(_he_normal(rng, (self.f_out, self.f_in), self.f_in, dtype)))
        self.b = store.register(f"{name}/bias", Tensor(np.zeros(self.f_out, dtype=dtype)))
        if self.spectral:
            u = rng.standard_normal(self.f_out)
            self.u = store.register_buffer(f"{name}/u", (u / np.linalg.norm(u)).astype(np.float64))

    def forward(self, x, training):
        w = self.w
        if self.spectral:
            w = T.spectral_norm(self.w, self.u, update=training)
        return T.dense(x, w, self.b)


class Conv3d(Layer):
    def __init__(self, c_in: int, c_out: int, kernel, stride=1, pad=0,
                 spectral: bool = False, zero_init: bool = False):
        self.c_in, self.c_out = c_in, c_out
        self.kernel = T._triple(kernel)
        self.stride = T._triple(stride)
        self.pad = T._triple(pad)
        self.spectral = spectral
        self.zero_init = zero_init
        self.w = self.b = None
        self.u = None

    def param_shapes(self):
        return {"weight": (self.c_out, self.c_in) + self.kernel, "bias": (self.c_out,)}

    def out_shape(self, in_shape):
        c, d, h, w = in_shape
        if c != self.c_in:
            raise T.ShapeError(f"conv expects {self.c_in} channels, got {in_shape}")
        dims = []
        for n, k, s, p in zip((d, h, w), self.kernel, self.stride, self.pad):
            o = (n + 2 * p - k) // s + 1
            if o <= 0:
                raise T.ShapeError(f"conv output extent <= 0 for input {in_shape}")
            dims.append(o)
        return (self.c_out, *dims)

    def describe(self):
        k = "x".join(str(i) for i in self.kernel)
        s = self.stride[0] if len(set(self.stride)) == 1 else self.stride
        return f"Conv3D {k}, {s}" + ("+SN" if self.spectral else "")

    def build(self, store, rng, name, dtype):
        fan_in = self.c_in * int(np.prod(self.kernel))
        shape = (self.c_out, self.c_in) + self.kernel
        w0 = np.zeros(shape, dtype=dtype) if self.zero_init else _he_normal(rng, shape, fan_in, dtype)
        self.w = store.register(f"{name}/weight", Tensor(w0))
        self.b = store.register(f"{name}/bias", Tensor(np.zeros(self.c_out, dtype=dtype)))
        if self.spectral:
            u = rng.standard_normal(self.c_out)
            self.u = store.register_buffer(f"{name}/u", (u / np.linalg.norm(u)).astype(np.float64))

    def forward(self, x, training):
        w = self.w
        if self.spectral:
            w = T.spectral_norm(self.w, self.u, update=training)
        return T.conv3d(x, w, self.b, stride=self.stride, pad=self.pad)


class UpConv3d(Conv3d):
    """``Interp(2.0)`` then a 3^3, stride-1, pad-1 ``Conv3d``, as one layer.

    Without a gradient tape the upsampled input is never built:
    ``conv3d(..., upsample=True)`` correlates the input with the kernel's
    eight phase kernels on its own grid. Taped, it builds the upsample and
    keeps it for backward. The parameters are the conv's, under the conv's
    name, so swapping the two layers for this one keeps parameter names
    and checkpoints.
    """

    def __init__(self, c_in: int, c_out: int, zero_init: bool = False):
        super().__init__(c_in, c_out, 3, stride=1, pad=1, zero_init=zero_init)

    @staticmethod
    def up_shape(in_shape):
        """The shape of the x2 upsampled input the conv reads."""
        c, d, h, w = in_shape
        return (c, 2 * d, 2 * h, 2 * w)

    def out_shape(self, in_shape):
        return super().out_shape(self.up_shape(in_shape))

    def describe(self):
        return super().describe() + " after x2 Interpolation"

    def forward(self, x, training):
        return T.conv3d(x, self.w, self.b, stride=1, pad=1, upsample=True)


class GroupNorm(Layer):
    def __init__(self, channels: int, per_depth_slice: bool = False):
        self.channels = channels
        self.groups = gn_groups(channels)
        self.per_depth_slice = per_depth_slice
        self.gamma = self.beta = None

    def param_shapes(self):
        return {"gamma": (self.channels,), "beta": (self.channels,)}

    def describe(self):
        return "GroupNorm"

    def build(self, store, rng, name, dtype):
        self.gamma = store.register(f"{name}/gamma", Tensor(np.ones(self.channels, dtype=dtype)))
        self.beta = store.register(f"{name}/beta", Tensor(np.zeros(self.channels, dtype=dtype)))

    def forward(self, x, training):
        return T.group_norm(x, self.groups, self.gamma, self.beta,
                            per_depth_slice=self.per_depth_slice)


class BatchNorm(Layer):
    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = self.beta = None
        self.rmean = self.rvar = None

    def param_shapes(self):
        return {"gamma": (self.channels,), "beta": (self.channels,)}

    def describe(self):
        return "BatchNorm"

    def build(self, store, rng, name, dtype):
        self.gamma = store.register(f"{name}/gamma", Tensor(np.ones(self.channels, dtype=dtype)))
        self.beta = store.register(f"{name}/beta", Tensor(np.zeros(self.channels, dtype=dtype)))
        self.rmean = store.register_buffer(f"{name}/running_mean", np.zeros(self.channels, dtype=np.float64))
        self.rvar = store.register_buffer(f"{name}/running_var", np.ones(self.channels, dtype=np.float64))

    def forward(self, x, training):
        return T.batch_norm(x, self.gamma, self.beta, self.rmean, self.rvar,
                            training=training)


class Act(Layer):
    def __init__(self, kind: str, **kw):
        self.kind = kind
        self.kw = kw

    def describe(self):
        return {"relu": "ReLU", "leaky_relu": "LeakyReLU", "elu": "ELU",
                "tanh": "Tanh"}.get(self.kind, self.kind)

    def forward(self, x, training):
        return T.activation(x, self.kind, **self.kw)


class Interp(Layer):
    """Trilinear resampling by per-axis rational scales (half-pixel grid)."""

    def __init__(self, scale):
        if isinstance(scale, (int, float)):
            scale = (scale,) * 3
        self.scale = tuple(float(s) for s in scale)

    def out_shape(self, in_shape):
        c, d, h, w = in_shape
        dims = []
        for n, s in zip((d, h, w), self.scale):
            o = n * s
            if abs(o - round(o)) > 1e-9 or round(o) < 1:
                raise T.ShapeError(f"interp scale {s} not integral for extent {n}")
            dims.append(int(round(o)))
        return (c, *dims)

    def describe(self):
        return "Interpolation"

    def plans(self, in_shape, dtype) -> list:
        """The ``InterpPlan`` per D, H and W axis that resamples an input of
        ``in_shape`` and ``dtype``: what ``forward`` applies, and what a
        ``conv3d`` part ``(x, plans)`` reads without building it."""
        out = self.out_shape(in_shape)
        return [T.interp_plan(n_in, n_out, False, dtype)
                for n_in, n_out in zip(in_shape[1:], out[1:])]

    def forward(self, x, training):
        return T.resize3d(x, self.plans(x.shape, x.dtype))


class Reshape(Layer):
    def __init__(self, target):
        self.target = tuple(target)

    def out_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.target)):
            raise T.ShapeError(f"cannot reshape {in_shape} to {self.target}")
        return self.target

    def describe(self):
        return "Reshape"

    def forward(self, x, training):
        return T.reshape(x, self.target)


class Flatten(Layer):
    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def describe(self):
        return "Reshape"

    def forward(self, x, training):
        return T.reshape(x, (x.size,))


class MeanPool(Layer):
    """Mean over the given spatial axes (keepdims)."""

    def __init__(self, axes=(1, 2, 3)):
        self.axes = tuple(axes)

    def out_shape(self, in_shape):
        return tuple(1 if i in self.axes else n for i, n in enumerate(in_shape))

    def describe(self):
        return "AvgPool"

    def forward(self, x, training):
        return T.mean_axes(x, self.axes)


class Sequential:
    """Ordered layer list under one parameter namespace."""

    def __init__(self, prefix: str, layers, in_shape):
        self.prefix = prefix
        self.layers = list(layers)          # (name, Layer) pairs
        self.in_shape = tuple(in_shape)
        self.built = False

    def shapes(self, in_shape=None):
        shape = tuple(in_shape) if in_shape is not None else self.in_shape
        rows = []
        for name, layer in self.layers:
            shape = layer.out_shape(shape)
            rows.append((name, layer.describe(), shape))
        return rows

    def out_shape(self, in_shape=None):
        rows = self.shapes(in_shape)
        return rows[-1][2] if rows else tuple(in_shape or self.in_shape)

    def n_params(self) -> int:
        return sum(layer.n_params() for _, layer in self.layers)

    def build(self, store: ParamStore, rng: np.random.Generator, dtype=np.float32):
        for name, layer in self.layers:
            layer.build(store, rng, f"{self.prefix}/{name}", dtype)
        self.built = True
        return self

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        if not self.built:
            raise RuntimeError(f"network '{self.prefix}' used before build()")
        for _, layer in self.layers:
            x = layer.forward(x, training)
        return x

    __call__ = forward
