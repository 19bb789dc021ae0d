"""Analytic and instrumented accounting of training/inference memory.

Both reports come from one driver, ``_step_report``: it draws the step's
inputs from a seed, runs ``training.train_step`` (or, for inference,
``inference.generate_full``) under ``measured_memory`` and adds the
static bytes: the parameters and, when training, two Adam moments per
parameter. ``measured_memory`` reads one meter, ``tensor.METER`` (a
``LiveSet``): the live activation and gradient bytes of every Tensor,
with a running peak and the activation/gradient split at that peak. A
report's ``activations_bytes`` and ``grads_bytes`` are the split at the
peak, so the four components add up to ``peak_total``.

The two reports differ only in the ``ModelSet`` the step runs on.
``measured_peak`` builds the real networks. ``analytic_memory`` builds
stand-ins that price a call instead of computing it (``_PricedNet``). A
stand-in returns a zero tensor of the output shape and holds on the meter
what the real layers would hold, from the listing's symbolic shapes: the
output of each listing row (``_rows_bytes``) and, when the call is taped,
the upsampled input of each x2 upsample-conv row and the normalized
weight copy of each spectral-normalized layer (``_sn_bytes``). Everything
between network calls runs for real: the losses, the window selectors'
copies, ``split_volume``'s windows and their ``concat``, the full
high-resolution input of the global encoder, the backward sweep, the
optimizer (on one empty parameter leaf per network) and ``step_guard``.
So the step's own code decides every lifetime, and a change to the step
changes the model with it. The price is that work at full size: one
reference-width 256^3 ``train_amortized`` call takes about 0.7 s and
460 MB of max RSS on a 2-core Xeon, 130 MB of it the two drawn input
volumes (inference 0.02 s). A replay of the phases written out by hand
took 5 ms, but needed a second edit for each change to the step and
drifted from it by up to 11% per phase.

``train_step`` runs each sample's backward before the next sample's
forward, so a training step holds one sample's graph at a time: from
batch 2 on, its peak does not grow with the batch (batch 1 is lower by
the gradients accumulated from an earlier sample).

At desk widths the two reports agree to the byte, peak and split, in
every mode: at 32^3 at batch 1 and 2, with no classes and with five; at
64^3 and 128^3 at batch 2; and at 64^3 also at batch 4 and with five
classes. Phase by phase (``train_step(..., phases=(p,))`` against the
same phase of a warmed-up real state, static bytes included) every phase
is byte-exact but 32^3 phase d, at 0.994: a trained spectral-normalized
layer's backward briefly holds the gradient of its normalized weight,
which the stand-in does not price.

Both models count tensor payload bytes only (no allocator slack, no
numpy temporaries inside ops), so trends rather than absolute megabytes
are the meaningful output. What an op holds as uncounted workspace beside
its payload is written down once, where the op is: in the ``tensor``
module docstring, and for the x2 upsample-conv and the SR generator's
tail in ``layers.UpConv3d`` and ``sr.SRGenerator``.

What the model counts of those: a conv that reads the x2 upsample of its
input is one listing row (``UpConv3d``, "Conv3D 3x3x3, 1 after x2
Interpolation"); taped, it keeps the upsampled input for backward, and so
does its stand-in, while a no-grad pass counts only the row's output. The
SR decoder's conv reads the upsample of the encoder output as a resampled
part, so that upsample is never payload. Without a tape the SR generator
adds its trilinear base into the residual head's output in place, so
neither the base nor the sum is payload; taped, both are.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .inference import generate_full
from .layers import MeanPool, Sequential, UpConv3d
from .networks import (Discriminator, ModelSet, NetConfig, build_model_set,
                       parameter_count, symbolic_model_set)
from .optim import ParamStore
from .tensor import METER, Tensor
from .training import LossWeights, TrainState, train_step


@dataclass
class MemoryReport:
    mode: str
    params_bytes: int
    activations_bytes: int          # at the peak moment
    grads_bytes: int                # at the peak moment
    optimizer_bytes: int
    peak_total: int
    high_res_branch_bytes: int = 0  # per-sample forward bytes of the slab branch
    config: dict = field(default_factory=dict)

    def check(self) -> "MemoryReport":
        for part in (self.params_bytes, self.activations_bytes, self.grads_bytes,
                     self.optimizer_bytes):
            if self.peak_total < part:
                raise ValueError("peak_total must dominate every component")
        if self.mode == "inference" and self.grads_bytes != 0:
            raise ValueError("inference must not hold gradient bytes")
        return self

    def table(self) -> str:
        rows = [("mode", self.mode),
                ("params_bytes", self.params_bytes),
                ("activations_bytes", self.activations_bytes),
                ("grads_bytes", self.grads_bytes),
                ("optimizer_bytes", self.optimizer_bytes),
                ("peak_total", self.peak_total),
                ("high_res_branch_bytes", self.high_res_branch_bytes)]
        return "\n".join(f"{k}\t{v}" for k, v in rows)


_ITEM = 4  # training payloads are float32


def _nbytes(shape) -> int:
    return int(np.prod(shape)) * _ITEM


def _rows_bytes(net: Sequential, in_shape=None, taped: bool = False):
    """Payload bytes of each listing row's output. A taped x2 upsample-conv
    row (``UpConv3d``) also holds its upsampled input, which it keeps on
    the tape for backward; without a tape it builds none."""
    rows, prev = [], tuple(in_shape or net.in_shape)
    for (_, layer), (_, _, shape) in zip(net.layers, net.shapes(in_shape)):
        if taped and isinstance(layer, UpConv3d):
            rows.append(_nbytes(layer.up_shape(prev)))
        rows.append(_nbytes(shape))
        prev = shape
    return rows


def _sn_bytes(net: Sequential) -> int:
    """Bytes of the normalized weight copies a taped call of ``net`` keeps
    until the tape clears, one per spectral-normalized layer."""
    return sum(_nbytes(layer.param_shapes()["weight"]) for _, layer in net.layers
               if getattr(layer, "spectral", False))


def high_res_branch_bytes(cfg: NetConfig) -> int:
    """Per-sample forward activation bytes of the slab branch (g_h, e_h and
    the conv part of d_h on window-shaped input). Linear in the window
    multiplier by construction: every counted extent scales with it."""
    nets = symbolic_model_set(cfg)
    low, full = cfg.low_resolution, cfg.full_resolution
    a_win = (cfg.base_channels, cfg.subvol_depth_low, low, low)
    x_win = (1, cfg.subvol_depth_high, full, full)
    total = sum(_rows_bytes(nets["g_h"], a_win, taped=True))
    total += sum(_rows_bytes(nets["e_h"], x_win))
    d_h = nets["d_h"].trunk
    for (_, layer), (_, _, shape) in zip(d_h.layers, d_h.shapes(x_win)):
        if isinstance(layer, MeanPool):
            break
        total += _nbytes(shape)
    return total


def _held(nbytes: int) -> Tensor:
    """A Tensor that counts ``nbytes`` of payload for as long as it lives;
    its data is a broadcast zero, so it allocates nothing."""
    return Tensor(np.broadcast_to(np.float32(0), (nbytes // _ITEM,)))


class _ParamGrad(Tensor):
    """All parameters of one stand-in network as one empty leaf. Its
    gradient holds nothing but is counted at the parameters' size, so
    ``adam_step`` and ``zero_grads`` run on it unchanged."""
    __slots__ = ("param_bytes",)

    def __init__(self, param_bytes: int):
        super().__init__(np.zeros(0, np.float32))
        self.param_bytes = param_bytes

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g
            self._grad_nbytes = METER.add(grad=self.param_bytes)


class _PricedNet:
    """Stand-in for one ``Sequential`` that prices a call instead of
    running it.

    A call returns a zero tensor of the output shape and holds the other
    ``_rows_bytes`` of the real call on the meter: without a tape each row
    until the next row's output exists; taped, every row and the
    normalized weight copies (``_sn_bytes``) until the tape clears. Its
    backward sweeps the interior gradients from the output back, two
    adjacent ones live at a time, then allocates the parameter gradient
    and the input's gradient while the first row's is still live, as the
    layers' own backward does. The parameter leaf is registered under the
    network's first parameter name, so a lookup of that name
    (``training._sample_latent`` reads the latent dtype from
    ``g_a/dense/weight``) answers as on the real store.
    """

    def __init__(self, net: Sequential, store: ParamStore):
        self.net, self.in_shape = net, net.in_shape
        first = next(f"{net.prefix}/{name}/{key}" for name, layer in net.layers
                     for key in layer.param_shapes())
        self.params = store.register(first, _ParamGrad(net.n_params() * _ITEM))

    def __call__(self, x: Tensor, training: bool = True) -> Tensor:
        out_shape = self.net.out_shape(x.shape)
        if not (T.active_tape().enabled and (x.requires_grad or self.params.requires_grad)):
            row = None
            for b in _rows_bytes(self.net, x.shape)[:-1]:
                row = _held(b)          # the row before dies once this one exists
            out = Tensor(np.zeros(out_shape, np.float32))
            del row
            return out
        held = [_held(b) for b in _rows_bytes(self.net, x.shape, taped=True)[:-1]]

        def bwd(g):
            release = out.zero_grad     # frees the output's own gradient
            for row in reversed(held):
                METER.add(grad=row.data.nbytes)
                release()
                release = functools.partial(METER.add, grad=-row.data.nbytes)
            if self.params.requires_grad:
                self.params.accumulate_grad(np.zeros(0, np.float32))
            if x.requires_grad:
                x.accumulate_grad(np.zeros(x.shape, x.dtype))
            release()

        # the normalized weight copies are parents, as the real conv's are
        out = T._make(np.zeros(out_shape, np.float32),
                      (x, self.params, _held(_sn_bytes(self.net))), bwd)
        return out


def _priced_model_set(cfg: NetConfig) -> ModelSet:
    """The networks of ``cfg`` as ``_PricedNet`` stand-ins, over a store
    that holds one ``_ParamGrad`` leaf per ``Sequential``."""
    store = ParamStore()

    def priced(net):
        if isinstance(net, Discriminator):
            return Discriminator(net.prefix, priced(net.trunk), priced(net.adv_head),
                                 net.cls_head and priced(net.cls_head))
        return _PricedNet(net, store)
    return ModelSet(cfg=cfg, store=store,
                    **{k: priced(net) for k, net in symbolic_model_set(cfg).items()})


def analytic_memory(cfg: NetConfig, mode: str, batch_size: int = 2) -> MemoryReport:
    """Payload peak of one step at the given mode, run on stand-in
    networks (``_PricedNet``), plus the parameter and Adam bytes.

    Modes: ``train_amortized`` (the configured window multiplier),
    ``train_full`` (windows covering the whole depth), ``inference``
    (full-volume generation, no tape). The step's work between network
    calls runs at full size, about 0.7 s at reference widths and 256^3.
    The stand-ins count on the global meter and reset its peak, so this
    must not run inside another measurement.
    """
    return _step_report(cfg, mode, batch_size, _priced_model_set, seed=0)


def measured_peak(cfg: NetConfig, mode: str, batch_size: int = 2,
                  seed: int = 0) -> MemoryReport:
    """The same report as ``analytic_memory``, from the step run on real
    networks built from ``seed``: the instrumented peak at desk scale."""
    return _step_report(cfg, mode, batch_size,
                        lambda c: build_model_set(c, np.random.default_rng(seed)), seed)


def _step_report(cfg: NetConfig, mode: str, batch_size: int, make_nets,
                 seed: int) -> MemoryReport:
    """Run one step of ``mode`` on ``make_nets(cfg)`` under
    ``measured_memory``, on inputs drawn from ``seed``: uniform volumes
    and cyclic labels for training, a normal latent and class 0 for
    inference. Adds the parameter bytes and, when training, two Adam
    moments per parameter."""
    cfg.validate()
    if mode == "train_full":
        cfg = replace(cfg, subvol_multiplier=1.0).validate()
    elif mode not in ("train_amortized", "inference"):
        raise ValueError(f"unknown mode '{mode}'")
    rng = np.random.default_rng(seed)
    state = TrainState(nets=make_nets(cfg), rng=rng, weights=LossWeights())
    params_b = parameter_count(symbolic_model_set(cfg)) * _ITEM
    if mode == "inference":
        z = rng.standard_normal(cfg.latent_dim).astype(np.float32)
        c = 0 if cfg.num_classes else None
        rep = measured_memory(lambda: generate_full(state.nets, z, c), mode)
    else:
        batch = [2 * rng.random((cfg.full_resolution,) * 3, np.float32) - 1
                 for _ in range(batch_size)]
        labels = ([i % cfg.num_classes for i in range(batch_size)]
                  if cfg.num_classes else None)
        rep = measured_memory(lambda: train_step(state, batch, labels),
                              f"train_amortized({cfg.subvol_multiplier})"
                              if mode == "train_amortized" else mode)
        rep.optimizer_bytes = 2 * params_b
    rep.params_bytes = params_b
    rep.peak_total += params_b + rep.optimizer_bytes
    rep.high_res_branch_bytes = high_res_branch_bytes(cfg)
    rep.config = asdict(cfg)
    return rep.check()


def measured_memory(run, mode: str = "measured") -> MemoryReport:
    """Run a closure and report the instrumented payload-byte peak.

    Every component is the meter's split at the peak of the run minus its
    state at entry: ``activations_bytes`` and ``grads_bytes`` are the
    activation and gradient bytes live at the peak, so they add up to
    ``peak_total``. Long-lived tensors (the model's own parameters,
    another model) cancel out as long as they stay constant during the
    run; callers add parameters and optimizer moments as static bytes.
    """
    gc.collect()
    base_total = METER.current_total()
    base_act, base_grad = METER.act_bytes, METER.grad_bytes
    METER.reset_peak()
    run()
    return MemoryReport(mode=mode, params_bytes=0,
                        activations_bytes=METER.peak_act_bytes - base_act,
                        grads_bytes=METER.peak_grad_bytes - base_grad,
                        optimizer_bytes=0,
                        peak_total=METER.peak_total - base_total)


def resolution_sweep(cfg_template: NetConfig, resolutions,
                     batch_size: int = 2) -> tuple[list, str]:
    """Parameter counts and analytic peaks (training at ``batch_size``) per
    resolution; returns rows and a tab-separated table."""
    rows = []
    for res in resolutions:
        cfg = replace(cfg_template, full_resolution=int(res)).validate()
        n_par = parameter_count(symbolic_model_set(cfg))
        train = analytic_memory(cfg, "train_amortized", batch_size)
        infer = analytic_memory(cfg, "inference")
        rows.append({"resolution": int(res), "parameters": n_par,
                     "train_peak_bytes": train.peak_total,
                     "inference_peak_bytes": infer.peak_total})
    header = "resolution\tparameters\ttrain_peak_bytes\tinference_peak_bytes"
    lines = [header] + [
        f"{r['resolution']}\t{r['parameters']}\t{r['train_peak_bytes']}\t{r['inference_peak_bytes']}"
        for r in rows]
    return rows, "\n".join(lines)
