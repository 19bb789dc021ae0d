"""Slab-trained super-resolution (factor 2) with residual and skip paths.

The generator predicts a correction on top of the trilinear upsample of
its input, with an encoder-decoder body whose skip connection feeds
matched-resolution encoder features into the decoder. Inner blocks keep
their depth kernels at 1 so the depth receptive field stays inside a
two-slice margin: training on low-resolution depth slabs and inference
on the whole volume then agree everywhere but the window edges, exactly
like the main generator.

Training pairs are built by degrading clean volumes: additive Gaussian
noise, then a trilinear half-resolution downsample.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .geometry import check_volume, sample_r, select_high
from .layers import Act, Conv3d, GroupNorm, Interp, Sequential, UpConv3d
from .networks import NetConfig, build_d_h
from .optim import ParamStore
from .tensor import Tensor, no_grad
from .training import (_encode_rng, batch_update, gan_d_loss, gan_g_loss, read_checkpoint,
                       restore_store, step_guard, stored_config, write_store_checkpoint)
from .volio import parsing

# interior agreement margin between slab and full-volume SR, in input
# (low-resolution) slices
SR_CONSISTENCY_MARGIN = 2


@dataclass(frozen=True)
class SRConfig:
    hr_resolution: int = 64
    noise_sigma: float = 0.05
    subvol_len: int = 8            # depth window length on the LR grid
    lam: float = 1.0               # weight of the l1 reconstruction term
    lr_g: float = 1e-4
    lr_d: float = 4e-4
    width: int = 8                 # channels of the first SR block
    batch_size: int = 2

    @property
    def lr_resolution(self) -> int:
        return self.hr_resolution // 2

    def validate(self) -> "SRConfig":
        if self.hr_resolution % 2:
            raise ValueError("hr_resolution must be even")
        if self.subvol_len < 2 or self.subvol_len > self.lr_resolution:
            raise ValueError(f"bad subvol_len {self.subvol_len}")
        if self.lr_resolution % 4:
            raise ValueError("lr_resolution must be divisible by 4")
        if self.lam < 0 or self.noise_sigma < 0:
            raise ValueError("lam and noise_sigma must be nonnegative")
        return self


@dataclass
class PairedSample:
    hr: np.ndarray
    lr: np.ndarray


def degrade(hr: np.ndarray, noise_sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Noise then trilinear half-resolution downsample, clipped to [-1, 1]."""
    arr = np.asarray(hr, dtype=np.float32)
    if any(e % 2 for e in arr.shape[-3:]):
        raise T.ShapeError(f"degrade needs even extents, got {arr.shape[-3:]}")
    noisy = arr + rng.normal(0.0, noise_sigma, size=arr.shape).astype(np.float32)
    noisy = np.clip(noisy, -1.0, 1.0)
    return np.clip(T.resample(noisy, [e // 2 for e in arr.shape[-3:]]), -1.0, 1.0)


def make_pairs(volumes, noise_sigma: float, rng: np.random.Generator):
    return [PairedSample(hr=np.asarray(v, dtype=np.float32),
                         lr=degrade(v, noise_sigma, rng)) for v in volumes]


def upsample2(vol: np.ndarray) -> np.ndarray:
    """Trilinear x2 upsample of a (D, H, W) or (C, D, H, W) array."""
    arr = np.asarray(vol, dtype=np.float32)
    return T.resample(arr, [2 * e for e in arr.shape[-3:]])


class SRGenerator:
    """Residual encoder-decoder: output = trilinear_up(x) + branch(x).

    The decoder's conv reads the pair ``(up_dec(e), h)`` of the upsampled
    encoder output ``e`` and the head's skip features ``h`` as one
    channel concatenation. Neither the concatenation nor the upsample is
    built: ``tensor.conv3d`` takes the tuple ``((e, up_dec's plans), h)``
    and resamples the planes of ``e`` it reads into its own slab, taped
    and not, with the bits of the upsample. ``forward`` runs ``dec``'s
    layers itself, so the pair dies as soon as that conv has run, before
    the norm and activation: ``e`` and ``h`` die after the decoder conv,
    the decoder output after the residual head. ``forward`` does not call
    ``up_dec.forward``, only ``up_dec.plans``.

    The branch ends in ``residual_head``, one ``UpConv3d`` that reads the x2
    upsample of the decoder output; without a gradient tape it does not
    build it. ``forward`` does not call ``up_out``: it stays an attribute
    because the benchmark harness (``perfbench``) names it in its spans.

    Taped, ``forward`` returns ``T.add(up_res(x), res)``. Without a tape it
    adds ``up_res``'s trilinear base into the residual head's output in
    place, a run of depth slices at a time (``_add_base``), with the same
    bits: neither the whole base nor the sum is built.
    """

    def __init__(self, cfg: SRConfig):
        c = cfg.width
        self.cfg = cfg
        self.head = Sequential("sr_g/head", [
            ("conv", Conv3d(1, c, 3, 1, 1)),
            ("norm", GroupNorm(c, per_depth_slice=True)), ("act", Act("relu")),
        ], in_shape=(1, cfg.subvol_len, cfg.lr_resolution, cfg.lr_resolution))
        self.enc = Sequential("sr_g/enc", [
            ("conv", Conv3d(c, 2 * c, (1, 4, 4), (1, 2, 2), (0, 1, 1))),
            ("norm", GroupNorm(2 * c, per_depth_slice=True)), ("act", Act("relu")),
            ("bott", Conv3d(2 * c, 2 * c, (1, 3, 3), 1, (0, 1, 1))),
            ("bnorm", GroupNorm(2 * c, per_depth_slice=True)), ("bact", Act("relu")),
        ], in_shape=self.head.out_shape())
        self.up_dec = Interp((1, 2, 2))
        self.dec = Sequential("sr_g/dec", [
            ("conv", Conv3d(3 * c, c, (1, 3, 3), 1, (0, 1, 1))),
            ("norm", GroupNorm(c, per_depth_slice=True)), ("act", Act("relu")),
        ], in_shape=(3 * c,) + self.head.out_shape()[1:])
        self.up_out = Interp(2.0)
        self.residual_head = Sequential("sr_g/res", [
            ("conv", UpConv3d(c, 1, zero_init=True)),
        ], in_shape=(c,) + self.head.out_shape()[1:])
        self.up_res = Interp(2.0)

    def build(self, store: ParamStore, rng: np.random.Generator, dtype=np.float32):
        for net in (self.head, self.enc, self.dec, self.residual_head):
            net.build(store, rng, dtype)
        return self

    def n_params(self) -> int:
        return sum(n.n_params() for n in (self.head, self.enc, self.dec, self.residual_head))

    def forward(self, lr: Tensor, training: bool = True) -> Tensor:
        (_, conv), (_, norm), (_, act) = self.dec.layers
        h = self.head(lr, training)
        e = self.enc(h, training)
        d = conv.forward(((e, self.up_dec.plans(e.shape, e.dtype)), h), training)
        del e, h
        d = norm.forward(d, training)
        d = act.forward(d, training)
        res = self.residual_head(d, training)
        del d
        if T.active_tape().enabled and (lr.requires_grad or res.requires_grad):
            return T.add(self.up_res.forward(lr, training), res)
        return self._add_base(lr, res)

    def _add_base(self, lr: Tensor, res: Tensor) -> Tensor:
        """``T.add(up_res(lr), res)`` without a tape, written into ``res``.

        The trilinear base is resampled a run of low-resolution depth
        slices at a time, each run with a one-slice halo on either side
        that is not at the volume's edge. Each output slice of an
        ``InterpPlan`` reads only its two source slices, and within the
        halo neither is a clamped window edge, so every kept slice has the
        bits of the whole base; at the true edges the window clamps as the
        volume does. A run's output fills about ``CONV_WORKSPACE_BYTES``.
        """
        _, hp, wp = self.up_res.plans(lr.shape, lr.dtype)
        src, out = lr.data, res.data
        n = src.shape[1]
        per = max(1, T.CONV_WORKSPACE_BYTES // out[:, :2].nbytes)
        for z0 in range(0, n, per):
            z1 = min(z0 + per, n)
            a, b = max(z0 - 1, 0), min(z1 + 1, n)
            dp = T.interp_plan(b - a, 2 * (b - a), False, src.dtype)
            base = T._interp(src[:, a:b], (dp, hp, wp), (1, 2, 3))
            run = out[:, 2 * z0:2 * z1]
            np.add(base[:, 2 * (z0 - a):2 * (z1 - a)], run, out=run)
        return res

    __call__ = forward


@dataclass
class SRState:
    cfg: SRConfig
    gen: SRGenerator
    disc: object
    store: ParamStore
    rng: np.random.Generator
    step: int = 0


def build_sr(cfg: SRConfig, seed: int, dtype=np.float32) -> SRState:
    cfg.validate()
    rng = np.random.default_rng(seed)
    store = ParamStore()
    gen = SRGenerator(cfg).build(store, rng, dtype)
    dcfg = NetConfig(full_resolution=cfg.hr_resolution, base_channels=cfg.width)
    disc = build_d_h(dcfg, in_channels=2, prefix="sr_d",
                     depth_in=2 * cfg.subvol_len).build(store, rng, dtype)
    return SRState(cfg=cfg, gen=gen, disc=disc, store=store, rng=rng)


_UP2 = Interp(2.0)


def _disc_input(lr_sub: Tensor, hr_sub: Tensor, training: bool) -> tuple:
    """The upsampled LR window and an HR candidate, which the
    discriminator's first conv reads as the channels of one input."""
    return _UP2.forward(lr_sub, training), hr_sub


def l1_norm(a: Tensor, b: Tensor) -> Tensor:
    """Unnormalized l1 norm of the difference (sum over voxels).

    The reconstruction term is the plain l1 norm, so against the O(1)
    adversarial term it dominates early and hands over influence only as
    the fit tightens; a per-voxel mean would invert that balance.
    """
    return T.tsum(T.tabs(T.sub(a, b)))


def sr_train_step(state: SRState, pairs: list) -> dict:
    """One alternation (D step then G step) on a batch of PairedSamples.

    Volumes of the wrong shape, non-finite or outside [-1, 1] raise
    ValueError before anything runs. Each step is one
    ``training.batch_update``: it runs each pair's backward as soon as that
    pair's loss is checked, so one pair's graph is alive at a time, and
    updates once after the last pair, when the summed loss has been
    checked too (TrainingDiverged). ``training.step_guard`` advances ``step``
    only when both updates succeeded; a call that raises leaves the tape
    empty, and the rng unchanged if it raised before the D update.
    """
    cfg = state.cfg
    if not pairs:
        raise ValueError("empty batch")
    pairs = [PairedSample(hr=check_volume(p.hr, (cfg.hr_resolution,) * 3),
                          lr=check_volume(p.lr, (cfg.lr_resolution,) * 3)) for p in pairs]
    with step_guard(state):
        return _sr_alternate(state, pairs)


def _sr_alternate(state: SRState, pairs: list) -> dict:
    """The D and G updates of one ``sr_train_step`` on validated pairs."""
    cfg, store, rng = state.cfg, state.store, state.rng
    w = sample_r(cfg.lr_resolution, cfg.subvol_len, rng, resolution_scale=2)
    report = {"step": state.step, "r": w.start}

    def windows(p: PairedSample):
        return p.lr[None, w.start:w.start + w.length], select_high(p.hr, w)

    def d_term(p: PairedSample):
        lr_sub, hr_sub = windows(p)
        with no_grad():
            fake = state.gen(Tensor(lr_sub))
        logit_real, _ = state.disc(_disc_input(Tensor(lr_sub), Tensor(hr_sub), True))
        logit_fake, _ = state.disc(_disc_input(Tensor(lr_sub), fake, True))
        loss = gan_d_loss(logit_real, logit_fake)
        return loss, {"d": loss.item()}

    def g_term(p: PairedSample):
        lr_sub, hr_sub = windows(p)
        lr_t, hr_t = Tensor(lr_sub), Tensor(hr_sub)
        fake = state.gen(lr_t)
        logit_fake, _ = state.disc(_disc_input(lr_t, fake, True))
        adv = gan_g_loss(logit_fake)
        rec = l1_norm(fake, hr_t)
        loss = T.add(adv, T.mul(rec, cfg.lam))
        return loss, {"g_adv": adv.item(), "l1": rec.item() / hr_t.size}   # l1 per voxel

    store.train_only("sr_d/")
    batch_update(store, state.step, pairs, d_term, 1.0, cfg.lr_d, report)
    store.train_only("sr_g/")
    batch_update(store, state.step, pairs, g_term, 1.0, cfg.lr_g, report)
    return report


def sr_train(state: SRState, volumes, steps: int, log=None) -> list:
    """Slab-wise SR training on clean volumes; pairs are degraded once."""
    pair_rng = np.random.default_rng(state.rng.integers(2 ** 63))
    pairs = make_pairs(volumes, state.cfg.noise_sigma, pair_rng)
    reports = []
    for _ in range(steps):
        idx = state.rng.choice(len(pairs), size=min(state.cfg.batch_size, len(pairs)),
                               replace=False)
        rep = sr_train_step(state, [pairs[i] for i in idx])
        reports.append(rep)
        if log is not None:
            log.write(format_sr_report(rep) + "\n")
    return reports


def format_sr_report(report: dict) -> str:
    ordered = {k: (int(report[k]) if k in ("step", "r") else float(report[k]))
               for k in ("step", "r", "d", "g_adv", "l1") if k in report}
    return json.dumps(ordered)


def sr_infer(state: SRState, lr_full: np.ndarray) -> np.ndarray:
    """Whole-volume pass: no windowing, no gradients, one forward call.

    ``lr_full`` is checked before any work: a shape other than
    ``(lr_resolution,) * 3`` (a leading unit channel axis allowed) raises
    ShapeError, a non-finite value or one outside [-1, 1] ValueError.
    """
    arr = check_volume(lr_full, (state.cfg.lr_resolution,) * 3).astype(np.float32, copy=False)
    with no_grad():
        return state.gen(Tensor(arr[None]), training=False).data


def sr_save(state: SRState, path) -> None:
    header = {"kind": "sr", "config": asdict(state.cfg), "step": state.step,
              "rng_state": _encode_rng(state.rng)}
    write_store_checkpoint(path, state.store, header)


def sr_load(path) -> SRState:
    """Restore an SRState; any malformed file raises CheckpointError."""
    header, entries = read_checkpoint(path, "sr")
    with parsing(path):
        state = build_sr(stored_config(SRConfig, header["config"], {"sr_factor": 2}), seed=0)
        restore_store(state.store, header, entries)
        state.step = header["step"]
        state.rng.bit_generator.state = header["rng_state"]
    return state
