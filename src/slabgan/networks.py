"""Builders for the volumetric generator / discriminator / encoder family.

One scale configuration describes the whole family. At the reference
scale (full 256^3, latent 1024, 64 base channels) the builders reproduce
the canonical layer tables exactly; smaller scales shrink resolutions
and channel counts while keeping the trunk depth constant, so the total
parameter count barely moves across resolutions (the memory savings of
slab training come from activations, not from removing layers).

Key structural facts the rest of the library relies on:

* the high-res decoder ``g_h`` is translation covariant along depth
  (half-pixel interpolation, zero-padded convs, per-depth-slice group
  statistics), so running it on a depth window of the feature volume
  matches the corresponding window of the full-volume output everywhere
  except a fixed boundary margin (CONSISTENCY_MARGIN, in feature-grid
  slices);
* the high-res discriminator ``d_h`` chooses its depth kernel schedule
  from the canonical 1/8 window, never from the configured multiplier,
  and mean-pools leftover depth before its dense head — parameter counts
  are therefore invariant to the window multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import split_volume
from .layers import (Act, BatchNorm, Conv3d, Dense, Flatten, GroupNorm, MeanPool,
                     Reshape, Sequential, UpConv3d)
from .optim import ParamStore
from .tensor import ShapeError, Tensor, concat, no_grad

# Interior agreement margin between windowed and full-volume decoding, in
# feature-grid (low-resolution) slices. Derived from the receptive field
# of g_h: two 3^3 convs across two x2 interpolations reach less than two
# feature slices from a window edge.
CONSISTENCY_MARGIN = 2

_TRUNK_STAGES = 5        # conv ladder length of g_a at every scale
_ENC_STAGES = 4          # stride-flexible conv count of e_g / d_l


@dataclass(frozen=True)
class NetConfig:
    """Scale configuration for the whole network family.

    ``full_resolution`` is the cube edge of the real volumes; the
    low-resolution image is fixed at a quarter of it. ``base_channels``
    scales every channel count proportionally (64 reproduces the
    reference tables). ``subvol_multiplier`` is the fraction of the depth
    covered by the training window (1/8 reference).
    """
    full_resolution: int = 64
    latent_dim: int = 64
    base_channels: int = 8
    subvol_multiplier: float = 0.125
    num_classes: int | None = None

    @property
    def low_resolution(self) -> int:
        return self.full_resolution // 4

    @property
    def subvol_depth_high(self) -> int:
        return int(round(self.full_resolution * self.subvol_multiplier))

    @property
    def subvol_depth_low(self) -> int:
        return int(round(self.low_resolution * self.subvol_multiplier))

    @property
    def n_windows(self) -> int:
        return int(round(1.0 / self.subvol_multiplier))

    def validate(self) -> "NetConfig":
        fr = self.full_resolution
        if fr < 32 or fr > 256 or fr & (fr - 1):
            raise ValueError(f"full_resolution must be a power of two in [32, 256], got {fr}")
        if self.latent_dim < 1 or self.base_channels < 1:
            raise ValueError("latent_dim and base_channels must be >= 1")
        m = self.subvol_multiplier
        inv = 1.0 / m
        if abs(inv - round(inv)) > 1e-9:
            raise ValueError(f"1/subvol_multiplier must be an integer, got {m}")
        if abs(fr * m - round(fr * m)) > 1e-9 or fr * m < 4:
            raise ValueError(f"subvolume depth {fr * m} must be an integer >= 4")
        low = self.low_resolution
        if low * m < 1 or abs(low * m - round(low * m)) > 1e-9:
            raise ValueError(f"low-res window length {low * m} must be an integer >= 1")
        if self.num_classes is not None and self.num_classes < 2:
            raise ValueError("num_classes must be >= 2 when set")
        return self


def reference_config(num_classes=None) -> NetConfig:
    return NetConfig(full_resolution=256, latent_dim=1024, base_channels=64,
                     num_classes=num_classes).validate()


def desk_config(num_classes=None, **overrides) -> NetConfig:
    cfg = NetConfig(full_resolution=64, latent_dim=64, base_channels=8,
                    num_classes=num_classes)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def _c(v: float) -> int:
    return max(1, int(v))


# ---------------------------------------------------------------------------
# generator family


def build_g_a(cfg: NetConfig) -> Sequential:
    """Shared generator trunk: latent (+ one-hot class) -> feature volume A.

    Dense to a 4^3 seed, then a fixed-length conv ladder; the last
    log2(low/4) convs each read the x2 upsample of the previous block
    (``UpConv3d``, which never builds the upsampled tensor), so the trunk
    ends at the low resolution with ``base_channels`` channels.
    """
    cfg.validate()
    fc, cap = cfg.base_channels, _c(8 * cfg.base_channels)
    n_up = int(np.log2(cfg.low_resolution // 4))
    in_dim = cfg.latent_dim + (cfg.num_classes or 0)
    chans = [cap, cap, _c(cap // 2), _c(cap // 4), fc][:_TRUNK_STAGES]
    layers = [("dense", Dense(in_dim, chans[0] * 64)),
              ("seed", Reshape((chans[0], 4, 4, 4)))]
    c_prev = chans[0]
    for j in range(_TRUNK_STAGES):
        if j >= _TRUNK_STAGES - n_up:
            layers.append((f"conv{j}", UpConv3d(c_prev, chans[j])))
        else:
            layers.append((f"conv{j}", Conv3d(c_prev, chans[j], 3, stride=1, pad=1)))
        layers.append((f"norm{j}", GroupNorm(chans[j])))
        layers.append((f"act{j}", Act("relu")))
        c_prev = chans[j]
    net = Sequential("g_a", layers, in_shape=(in_dim,))
    assert net.out_shape() == (fc, cfg.low_resolution, cfg.low_resolution, cfg.low_resolution)
    return net


def build_g_l(cfg: NetConfig) -> Sequential:
    """Low-resolution decoder: A -> one-channel volume in (-1, 1)."""
    fc = cfg.base_channels
    low = cfg.low_resolution
    c1, c2 = _c(fc // 2), _c(fc // 4)
    layers = [
        ("conv0", Conv3d(fc, c1, 3, 1, 1)), ("norm0", GroupNorm(c1)), ("act0", Act("relu")),
        ("conv1", Conv3d(c1, c2, 3, 1, 1)), ("norm1", GroupNorm(c2)), ("act1", Act("relu")),
        ("conv2", Conv3d(c2, 1, 3, 1, 1)), ("tanh", Act("tanh")),
    ]
    return Sequential("g_l", layers, in_shape=(fc, low, low, low))


def build_g_h(cfg: NetConfig) -> Sequential:
    """High-resolution decoder: feature slab (or full A) -> image, spatial x4.

    Fully convolutional and translation covariant along depth: the same
    graph serves windowed training input and the full feature volume at
    inference. Normalization statistics are per depth slice so windowed
    and full runs agree outside CONSISTENCY_MARGIN. Each conv reads the x2
    upsample of its input (``UpConv3d``), so neither 8x larger upsampled
    tensor is built.
    """
    fc = cfg.base_channels
    c1 = _c(fc // 2)
    low = cfg.low_resolution
    layers = [
        ("conv0", UpConv3d(fc, c1)),
        ("norm0", GroupNorm(c1, per_depth_slice=True)), ("act0", Act("relu")),
        ("conv1", UpConv3d(c1, 1)),
        ("tanh", Act("tanh")),
    ]
    return Sequential("g_h", layers, in_shape=(fc, low, low, low))


# ---------------------------------------------------------------------------
# encoder family


def build_e_h(cfg: NetConfig) -> Sequential:
    """Slab encoder: high-res sub-volume -> matching window of A-hat (/4)."""
    fc = cfg.base_channels
    c1 = _c(fc // 2)
    d0 = cfg.subvol_depth_high
    hr = cfg.full_resolution
    layers = [
        ("conv0", Conv3d(1, c1, 4, 2, 1)), ("norm0", GroupNorm(c1)), ("act0", Act("relu")),
        ("conv1", Conv3d(c1, c1, 3, 1, 1)), ("norm1", GroupNorm(c1)), ("act1", Act("relu")),
        ("conv2", Conv3d(c1, fc, 4, 2, 1)), ("norm2", GroupNorm(fc)), ("act2", Act("relu")),
    ]
    return Sequential("e_h", layers, in_shape=(1, d0, hr, hr))


def build_e_g(cfg: NetConfig) -> Sequential:
    """Global encoder: concatenated A-hat -> latent vector.

    A fixed-length conv ladder whose first log2(low/4) convs stride by 2
    (the rest run at 4^3), closed by a valid 4^3 conv emitting the latent.
    """
    fc = cfg.base_channels
    low = cfg.low_resolution
    n_stride = int(np.log2(low // 4))
    chans = [_c(4 * fc) >> (_ENC_STAGES - 1 - i) for i in range(_ENC_STAGES)]
    chans = [max(1, c) for c in chans]
    layers = []
    c_prev = fc
    for i in range(_ENC_STAGES):
        stride = 2 if i < n_stride else 1
        pad = 1
        layers.append((f"conv{i}", Conv3d(c_prev, chans[i], 4 if stride == 2 else 3,
                                          stride, pad)))
        layers.append((f"norm{i}", GroupNorm(chans[i])))
        layers.append((f"act{i}", Act("relu")))
        c_prev = chans[i]
    layers.append(("proj", Conv3d(c_prev, cfg.latent_dim, 4, 1, 0)))
    layers.append(("flat", Flatten()))
    net = Sequential("e_g", layers, in_shape=(fc, low, low, low))
    assert net.out_shape() == (cfg.latent_dim,)
    return net


# ---------------------------------------------------------------------------
# discriminator family


class Discriminator:
    """Spectral-normalized conv trunk with a real/fake head and, in the
    class-conditional variant, an auxiliary classification head."""

    def __init__(self, prefix, trunk: Sequential, adv_head: Sequential,
                 cls_head: Sequential | None):
        self.prefix = prefix
        self.trunk = trunk
        self.adv_head = adv_head
        self.cls_head = cls_head
        self.in_shape = trunk.in_shape

    def build(self, store: ParamStore, rng, dtype=np.float32):
        self.trunk.build(store, rng, dtype)
        self.adv_head.build(store, rng, dtype)
        if self.cls_head is not None:
            self.cls_head.build(store, rng, dtype)
        return self

    def forward(self, x: Tensor, training: bool = True):
        h = self.trunk(x, training)
        logit = self.adv_head(h, training)
        cls = self.cls_head(h, training) if self.cls_head is not None else None
        return logit, cls

    __call__ = forward

    def shapes(self, in_shape=None):
        rows = self.trunk.shapes(in_shape)
        rows += [(f"adv/{n}", d, s) for n, d, s in
                 self.adv_head.shapes(rows[-1][2] if rows else self.trunk.in_shape)]
        return rows

    def out_shape(self, in_shape=None):
        return self.adv_head.out_shape(self.trunk.out_shape(in_shape))

    def n_params(self):
        n = self.trunk.n_params() + self.adv_head.n_params()
        if self.cls_head is not None:
            n += self.cls_head.n_params()
        return n


def build_d_l(cfg: NetConfig) -> Discriminator:
    """Low-resolution discriminator: full low-res image -> scalar logit."""
    fc = cfg.base_channels
    low = cfg.low_resolution
    n_stride = int(np.log2(low // 4))
    chans = [max(1, _c(4 * fc) >> (_ENC_STAGES - 1 - i)) for i in range(_ENC_STAGES)]
    layers = []
    c_prev = 1
    for i in range(_ENC_STAGES):
        stride = 2 if i < n_stride else 1
        layers.append((f"conv{i}", Conv3d(c_prev, chans[i], 4 if stride == 2 else 3,
                                          stride, 1, spectral=True)))
        layers.append((f"act{i}", Act("leaky_relu", alpha=0.2)))
        c_prev = chans[i]
    trunk = Sequential("d_l", layers, in_shape=(1, low, low, low))
    adv = Sequential("d_l/adv", [("proj", Conv3d(c_prev, 1, 4, 1, 0)),
                                 ("flat", Flatten())], in_shape=trunk.out_shape())
    cls = None
    if cfg.num_classes:
        cls = Sequential("d_l/cls", [("proj", Conv3d(c_prev, cfg.num_classes, 4, 1, 0)),
                                     ("flat", Flatten())], in_shape=trunk.out_shape())
    return Discriminator("d_l", trunk, adv, cls)


def _dh_depth_schedule(cfg: NetConfig):
    """Depth kernel/stride plan from the canonical 1/8 window.

    Using the canonical depth (full/8) rather than the configured
    multiplier keeps d_h's parameters independent of the window size;
    larger windows simply leave surplus depth for the mean-pool. Either
    stage halves the depth, so it is at least 2 until the last stage.
    """
    d = cfg.full_resolution // 8
    plan = []
    for _ in range(int(np.log2(d))):
        plan.append((4, 2, 1) if d >= 8 else (2, 2, 0))   # kernel, stride, pad along depth
        d //= 2
    return plan


def build_d_h(cfg: NetConfig, in_channels: int = 1, prefix: str = "d_h",
              depth_in: int | None = None) -> Discriminator:
    """High-resolution discriminator: depth slab -> scalar logit.

    HW halves down to 8 through spectral-normalized convs (channels
    anchored so the last halving stage emits 4*fc), then an 8->4 stage, a
    valid 4x4 collapse, a mean-pool over any leftover depth, and a small
    dense chain.
    """
    fc = cfg.base_channels
    hr = cfg.full_resolution
    d0 = depth_in if depth_in is not None else cfg.subvol_depth_high
    n_stages = int(np.log2(hr // 8))
    chans = [max(1, _c(4 * fc) >> (n_stages - 1 - i)) for i in range(n_stages)]
    plan = _dh_depth_schedule(cfg)
    layers = []
    c_prev = in_channels
    for i, ((kd, sd, pd), c_out) in enumerate(zip(plan, chans)):
        layers.append((f"conv{i}", Conv3d(c_prev, c_out, (kd, 4, 4), (sd, 2, 2),
                                          (pd, 1, 1), spectral=True)))
        layers.append((f"act{i}", Act("leaky_relu", alpha=0.2)))
        c_prev = c_out
    c_pen, c_fin = _c(8 * fc), _c(2 * fc)
    layers += [
        ("conv_pen", Conv3d(c_prev, c_pen, (1, 4, 4), (1, 2, 2), (0, 1, 1), spectral=True)),
        ("act_pen", Act("leaky_relu", alpha=0.2)),
        ("conv_fin", Conv3d(c_pen, c_fin, (1, 4, 4), 1, 0, spectral=True)),
        ("act_fin", Act("leaky_relu", alpha=0.2)),
        ("dpool", MeanPool(axes=(1, 2, 3))),
        ("flat", Flatten()),
        ("fc0", Dense(c_fin, fc, spectral=True)), ("facta", Act("leaky_relu", alpha=0.2)),
        ("fc1", Dense(fc, _c(fc // 2), spectral=True)), ("factb", Act("leaky_relu", alpha=0.2)),
    ]
    trunk = Sequential(prefix, layers, in_shape=(in_channels, d0, hr, hr))
    adv = Sequential(f"{prefix}/adv", [("out", Dense(_c(fc // 2), 1))],
                     in_shape=trunk.out_shape())
    cls = None
    if cfg.num_classes:
        cls = Sequential(f"{prefix}/cls", [("out", Dense(_c(fc // 2), cfg.num_classes))],
                         in_shape=trunk.out_shape())
    return Discriminator(prefix, trunk, adv, cls)


# ---------------------------------------------------------------------------
# supervised 3D CNN (augmentation-study classifier)


def build_classifier(cfg: NetConfig, n_classes: int = 5) -> Sequential:
    """3D CNN over half-resolution volumes -> class logits.

    Stage pattern mirrors the reference listing: first and last stages
    hold two convs, middle stages three, each ending in a stride-2 conv,
    with batch norm + ELU throughout, closed by average pooling and a
    dense head.
    """
    res = cfg.full_resolution // 2
    h = int(np.log2(res // 4))
    if h < 2:
        raise ShapeError(f"classifier input {res}^3 too small")
    cb = max(1, cfg.base_channels // 8)
    chans = [max(1, (16 * cb) >> (h - 1 - i)) for i in range(h)]
    layers = []
    c_prev = 1
    idx = 0

    def block(c_in, c_out, stride):
        nonlocal idx
        out = [(f"conv{idx}", Conv3d(c_in, c_out, 3, stride, 1)),
               (f"bn{idx}", BatchNorm(c_out)), (f"elu{idx}", Act("elu"))]
        idx += 1
        return out

    for i, c in enumerate(chans):
        n_unit = 2 if i in (0, h - 1) else 3
        for j in range(n_unit - 1):
            layers += block(c_prev, c, 1)
            c_prev = c
        layers += block(c_prev, c, 2)
        c_prev = c
    layers += [("pool", MeanPool(axes=(1, 2, 3))), ("flat", Flatten()),
               ("head", Dense(c_prev, n_classes))]
    return Sequential("cls", layers, in_shape=(1, res, res, res))


# ---------------------------------------------------------------------------
# building / introspection helpers


@dataclass
class ModelSet:
    """All networks of one model plus their shared parameter store."""
    cfg: NetConfig
    store: ParamStore
    g_a: Sequential
    g_l: Sequential
    g_h: Sequential
    d_l: Discriminator
    d_h: Discriminator
    e_h: Sequential
    e_g: Sequential

    @property
    def generator_prefixes(self):
        return ("g_a/", "g_l/", "g_h/")

    @property
    def discriminator_prefixes(self):
        return ("d_l/", "d_h/")

    def class_code(self, c: int | None, dtype=np.float32) -> np.ndarray:
        """One-hot code of class ``c`` for a class-conditional model.

        Raises ValueError when ``c`` is None or outside
        ``[0, num_classes)``.
        """
        k = self.cfg.num_classes
        if c is None:
            raise ValueError("class-conditional model needs a class index")
        if not 0 <= c < k:
            raise ValueError(f"class index {c} outside [0, {k})")
        return np.eye(k, dtype=dtype)[c]

    def latent_input(self, z: Tensor, c: int | None = None) -> Tensor:
        """Input of ``g_a``: the latent ``z``, followed by the one-hot code of
        class ``c`` when the model is class-conditional (``c`` is ignored
        otherwise).

        The code is appended with the ``concat`` op, so a ``z`` on the tape
        (the global encoder's output during training) still receives its
        gradient. Raises ValueError when a conditional model gets no class
        or one outside its range (``class_code``).
        """
        if not self.cfg.num_classes:
            return z
        return concat([z, Tensor(self.class_code(c, z.dtype))], axis=0)

    def encode(self, x: Tensor, training: bool = True) -> Tensor:
        """Hierarchical encode of a (1, D, H, W) volume to the latent.

        ``e_h`` runs on each window of the fixed depth partition
        (``split_volume``), the features are concatenated along depth into
        A-hat, and ``e_g`` maps A-hat to the latent. ``e_h`` runs under
        no_grad, so only ``e_g`` can receive a gradient.
        """
        with no_grad():
            parts = split_volume(x, self.cfg.n_windows)
            ahat = concat([self.e_h(p, training) for p in parts], axis=1)
        return self.e_g(ahat, training)


def build_model_set(cfg: NetConfig, rng: np.random.Generator,
                    dtype=np.float32) -> ModelSet:
    cfg.validate()
    store = ParamStore()
    graphs = symbolic_model_set(cfg)
    for net in graphs.values():      # fixed order: it sets the initial weights
        net.build(store, rng, dtype)
    return ModelSet(cfg=cfg, store=store, **graphs)


def symbolic_model_set(cfg: NetConfig):
    """Unbuilt networks, for shape checks and parameter counting only."""
    return {
        "g_a": build_g_a(cfg), "g_l": build_g_l(cfg), "g_h": build_g_h(cfg),
        "d_l": build_d_l(cfg), "d_h": build_d_h(cfg),
        "e_h": build_e_h(cfg), "e_g": build_e_g(cfg),
    }


def parameter_count(graphs) -> int:
    """Exact scalar parameter count of one network or a collection."""
    if hasattr(graphs, "n_params"):
        return graphs.n_params()
    if isinstance(graphs, dict):
        graphs = graphs.values()
    return sum(g.n_params() for g in graphs)


def summary(net, in_shape=None) -> str:
    """Layer table in the architecture-listing style."""
    rows = net.shapes(in_shape)
    header = f"{'Layer':16s}{'Kind':16s}{'Filter size, stride':22s}Output size (C,D,H,W)"
    lines = [header, "-" * len(header)]
    for name, desc, shape in rows:
        sn = desc.endswith("+SN")
        core = desc[:-3] if sn else desc
        if core.startswith("Conv3D "):
            kind, filt = "Conv3D" + ("+SN" if sn else ""), core[len("Conv3D "):]
        else:
            kind, filt = desc, "-"
        shape_s = "x".join(str(s) for s in shape)
        lines.append(f"{name:16s}{kind:16s}{filt:22s}{shape_s}")
    return "\n".join(lines)
