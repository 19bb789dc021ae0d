"""Analytic and instrumented accounting of training/inference memory.

The analytic model replays one training step (or inference pass) as an
allocation/free event stream over the builders' symbolic layer shapes,
under the live-set rule: a taped activation stays live until backward
consumes the tape, a no-grad activation dies as soon as its consumer has
run, gradients of interior nodes are freed eagerly in reverse order, and
parameter gradients live until the optimizer step. The measured model
instruments real tensor payload allocations during an actual step and
captures the peak. Both count tensor payload bytes only (no allocator
slack, no numpy temporaries inside ops), so trends rather than absolute
megabytes are the meaningful output. The uncounted op workspace is about
payload-sized: conv3d builds its im2col matrix in chunks of at most
``tensor.CONV_WORKSPACE_BYTES``, so it no longer grows with the volume.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .networks import NetConfig, symbolic_model_set, parameter_count
from .tensor import METER


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


class _LiveSim:
    """Running live-set counter with component snapshot at the peak."""

    def __init__(self, static_bytes: int):
        self.static = static_bytes
        self.acts = 0
        self.grads = 0
        self.peak = static_bytes
        self.peak_acts = 0
        self.peak_grads = 0

    def _bump(self):
        tot = self.static + self.acts + self.grads
        if tot > self.peak:
            self.peak = tot
            self.peak_acts = self.acts
            self.peak_grads = self.grads

    def aact(self, n: int) -> int:
        self.acts += n
        self._bump()
        return n

    def fact(self, n: int):
        self.acts -= n

    def agrad(self, n: int) -> int:
        self.grads += n
        self._bump()
        return n

    def fgrad(self, n: int):
        self.grads -= n


def _rows_bytes(net, in_shape=None):
    return [_nbytes(shape) for _, _, shape in net.shapes(in_shape)]


def _fwd_taped(sim: _LiveSim, row_bytes, tape: list):
    for b in row_bytes:
        tape.append(sim.aact(b))
    return row_bytes[-1] if row_bytes else 0


def _fwd_nograd(sim: _LiveSim, row_bytes):
    prev = 0
    for b in row_bytes:
        sim.aact(b)
        if prev:
            sim.fact(prev)
        prev = b
    return prev


def _backward(sim: _LiveSim, tape: list, pgrad_bytes: int):
    """Reverse sweep: param grads accumulate, interior grads freed eagerly."""
    sim.agrad(pgrad_bytes)
    if tape:
        gprev = sim.agrad(tape[-1])
        for b in reversed(tape[:-1]):
            g = sim.agrad(b)
            sim.fgrad(gprev)
            gprev = g
        sim.fgrad(gprev)
    for b in tape:
        sim.fact(b)
    tape.clear()
    return pgrad_bytes


def _group_bytes(nets: dict, prefixes) -> int:
    total = 0
    for name, net in nets.items():
        if any(name == p.rstrip("/") for p in prefixes):
            total += net.n_params() * _ITEM
    return total


def _win_shapes(cfg: NetConfig):
    low, full, fc = cfg.low_resolution, cfg.full_resolution, cfg.fc
    a_win = (fc, cfg.subvol_depth_low, low, low)
    x_win = (1, cfg.subvol_depth_high, full, full)
    return a_win, x_win


def high_res_branch_bytes(cfg: NetConfig) -> int:
    """Per-sample forward activation bytes of the slab branch (g_h, e_h and
    the conv part of d_h on window-shaped input). Linear in the window
    multiplier by construction: every counted extent scales with it."""
    nets = symbolic_model_set(cfg)
    a_win, x_win = _win_shapes(cfg)
    total = sum(_rows_bytes(nets["g_h"], a_win))
    total += sum(_rows_bytes(nets["e_h"], x_win))
    for _, desc, shape in nets["d_h"].trunk.shapes(x_win):
        if desc == "AvgPool":
            break
        total += _nbytes(shape)
    return total


def analytic_memory(cfg: NetConfig, mode: str, batch_size: int = 2) -> MemoryReport:
    """Live-set replay of one step at the given mode.

    Modes: ``train_amortized`` (the configured window multiplier),
    ``train_full`` (windows covering the whole depth), ``inference``
    (full-volume generation, no tape).
    """
    cfg.validate()
    if mode == "train_full":
        cfg_run = replace(cfg, subvol_multiplier=1.0).validate()
    elif mode in ("train_amortized", "inference"):
        cfg_run = cfg
    else:
        raise ValueError(f"unknown mode '{mode}'")
    nets = symbolic_model_set(cfg_run)
    params_b = parameter_count(nets) * _ITEM

    low, full = cfg_run.low_resolution, cfg_run.full_resolution
    a_full = (cfg_run.fc, low, low, low)
    a_win, x_win = _win_shapes(cfg_run)
    x_low = (1, low, low, low)
    z_len = cfg_run.latent_dim + (cfg_run.num_classes or 0)

    if mode == "inference":
        sim = _LiveSim(params_b)
        sim.aact(_nbytes((z_len,)))
        a_b = _fwd_nograd(sim, _rows_bytes(nets["g_a"]))
        # A stays referenced while g_h consumes it
        _fwd_nograd(sim, _rows_bytes(nets["g_h"], a_full))
        sim.fact(a_b)
        return MemoryReport(mode=mode, params_bytes=params_b,
                            activations_bytes=sim.peak_acts, grads_bytes=0,
                            optimizer_bytes=0, peak_total=sim.peak,
                            high_res_branch_bytes=high_res_branch_bytes(cfg_run),
                            config=asdict(cfg_run)).check()

    opt_b = 2 * params_b
    sim = _LiveSim(params_b + opt_b)
    g_b = _group_bytes(nets, ("g_a", "g_l", "g_h"))
    d_b = _group_bytes(nets, ("d_l", "d_h"))
    eh_b = _group_bytes(nets, ("e_h",))
    eg_b = _group_bytes(nets, ("e_g",))

    ga_rows = _rows_bytes(nets["g_a"])
    gl_rows = _rows_bytes(nets["g_l"])
    gh_win_rows = _rows_bytes(nets["g_h"], a_win)
    dl_rows = _rows_bytes(nets["d_l"].trunk) + _rows_bytes(
        nets["d_l"].adv_head, nets["d_l"].trunk.out_shape())
    dh_rows = _rows_bytes(nets["d_h"].trunk, x_win) + _rows_bytes(
        nets["d_h"].adv_head, nets["d_h"].trunk.out_shape(x_win))
    eh_rows = _rows_bytes(nets["e_h"], x_win)
    eg_rows = _rows_bytes(nets["e_g"])

    # phase 1: discriminators ------------------------------------------------
    tape: list = []
    kept = []
    for _ in range(batch_size):
        a_b = _fwd_nograd(sim, ga_rows)
        kept.append(sim.aact(_nbytes(x_low)))          # fake low
        sim.aact(_nbytes(a_win))                       # A window copy
        kept.append(_nbytes(a_win))
        kept.append(sim.aact(_fwd_nograd(sim, gh_win_rows)))  # fake sub kept
        sim.fact(a_b)
        kept.append(sim.aact(_nbytes(x_low)))          # real low tensor
        kept.append(sim.aact(_nbytes(x_win)))          # real sub tensor
        _fwd_taped(sim, dl_rows, tape)
        _fwd_taped(sim, dl_rows, tape)
        _fwd_taped(sim, dh_rows, tape)
        _fwd_taped(sim, dh_rows, tape)
    _backward(sim, tape, d_b)
    for b in kept:
        sim.fact(b)
    sim.fgrad(d_b)
    kept.clear()

    # phase 2: generators ----------------------------------------------------
    for _ in range(batch_size):
        _fwd_taped(sim, ga_rows, tape)
        _fwd_taped(sim, gl_rows, tape)
        tape.append(sim.aact(_nbytes(a_win)))
        _fwd_taped(sim, gh_win_rows, tape)
        _fwd_taped(sim, dl_rows, tape)
        _fwd_taped(sim, dh_rows, tape)
    _backward(sim, tape, g_b)
    sim.fgrad(g_b)

    # phase 3: slab encoder ----------------------------------------------------
    for _ in range(batch_size):
        kept.append(sim.aact(_nbytes(x_win)))          # real sub
        _fwd_taped(sim, eh_rows, tape)
        _fwd_taped(sim, gh_win_rows, tape)
    _backward(sim, tape, eh_b)
    for b in kept:
        sim.fact(b)
    sim.fgrad(eh_b)
    kept.clear()

    # phase 4: global encoder ---------------------------------------------------
    n_win = cfg_run.n_windows
    for _ in range(batch_size):
        kept.append(sim.aact(_nbytes((1, full, full, full))))   # X^H tensor
        feats = []
        for _ in range(n_win):
            wb = sim.aact(_nbytes(x_win))               # window copy
            fb = _fwd_nograd(sim, eh_rows)
            sim.fact(wb)
            feats.append(fb)
        ahat = sim.aact(_nbytes(a_full))
        for fb in feats:
            sim.fact(fb)
        kept.append(ahat)
        _fwd_taped(sim, eg_rows, tape)
        _fwd_taped(sim, ga_rows, tape)
        _fwd_taped(sim, gl_rows, tape)
        tape.append(sim.aact(_nbytes(a_win)))
        _fwd_taped(sim, gh_win_rows, tape)
        kept.append(sim.aact(_nbytes(x_low)))           # recon targets
        kept.append(sim.aact(_nbytes(x_win)))
    _backward(sim, tape, eg_b)
    for b in kept:
        sim.fact(b)
    sim.fgrad(eg_b)

    return MemoryReport(mode=f"train_amortized({cfg_run.subvol_multiplier})"
                        if mode == "train_amortized" else mode,
                        params_bytes=params_b, activations_bytes=sim.peak_acts,
                        grads_bytes=sim.peak_grads, optimizer_bytes=opt_b,
                        peak_total=sim.peak,
                        high_res_branch_bytes=high_res_branch_bytes(cfg_run),
                        config=asdict(cfg_run)).check()


# ---------------------------------------------------------------------------
# instrumented measurement


def measured_memory(run, mode: str = "measured") -> MemoryReport:
    """Run a closure and report the instrumented payload-byte peak.

    The report is relative to the meter state at entry, so concurrent
    long-lived tensors (e.g. another model) cancel out as long as they
    stay constant during the run.
    """
    import gc
    gc.collect()
    base_total = METER.current_total()
    base_params = METER.param_bytes
    base_opt = METER.opt_bytes
    METER.reset_peak()
    run()
    peak = METER.peak_total - base_total
    return MemoryReport(mode=mode,
                        params_bytes=METER.param_bytes - base_params,
                        activations_bytes=max(METER.peak_total - base_total
                                              - (METER.param_bytes - base_params)
                                              - (METER.opt_bytes - base_opt)
                                              - METER.grad_bytes, 0),
                        grads_bytes=METER.grad_bytes,
                        optimizer_bytes=METER.opt_bytes - base_opt,
                        peak_total=peak)


def measured_train_peak(cfg: NetConfig, mode: str, seed: int = 0,
                        batch_size: int = 2) -> MemoryReport:
    """Instrumented peak of one real training step at desk scale.

    The state's own parameters and (post-warm-up) Adam moments are counted
    as static bytes present throughout the step.
    """
    from .training import init_train_state, train_step
    if mode == "train_full":
        cfg = replace(cfg, subvol_multiplier=1.0).validate()
    state = init_train_state(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    batch = [rng.uniform(-1, 1, (cfg.full_resolution,) * 3).astype(np.float32)
             for _ in range(batch_size)]
    labels = [i % cfg.num_classes for i in range(batch_size)] if cfg.num_classes else None
    train_step(state, batch, labels)        # warm-up allocates Adam moments
    params_b = sum(p.data.nbytes for p in state.store.params.values())
    opt_b = sum(m.nbytes + v.nbytes for m, v, _ in state.store.adam_state.values())
    rep = measured_memory(lambda: train_step(state, batch, labels), mode=mode)
    rep.params_bytes = params_b
    rep.optimizer_bytes = opt_b
    rep.peak_total += params_b + opt_b
    rep.config = asdict(cfg)
    return rep


def measured_inference_peak(cfg: NetConfig, seed: int = 0) -> MemoryReport:
    from .networks import build_model_set
    from .inference import generate_full
    nets = build_model_set(cfg, np.random.default_rng(seed))
    z = np.random.default_rng(seed + 1).standard_normal(cfg.latent_dim).astype(np.float32)
    c = 0 if cfg.num_classes else None
    params_b = sum(p.data.nbytes for p in nets.store.params.values())
    rep = measured_memory(lambda: generate_full(nets, z, c=c), mode="inference")
    rep.params_bytes = params_b
    rep.peak_total += params_b
    rep.config = asdict(cfg)
    rep.check()
    return rep


def resolution_sweep(cfg_template: NetConfig, resolutions) -> tuple[list, str]:
    """Parameter counts and analytic peaks per resolution; returns rows and
    a tab-separated table."""
    rows = []
    for res in resolutions:
        cfg = replace(cfg_template, full_resolution=int(res)).validate()
        n_par = parameter_count(symbolic_model_set(cfg))
        train = analytic_memory(cfg, "train_amortized")
        infer = analytic_memory(cfg, "inference")
        rows.append({"resolution": int(res), "parameters": n_par,
                     "train_peak_bytes": train.peak_total,
                     "inference_peak_bytes": infer.peak_total})
    header = "resolution\tparameters\ttrain_peak_bytes\tinference_peak_bytes"
    lines = [header] + [
        f"{r['resolution']}\t{r['parameters']}\t{r['train_peak_bytes']}\t{r['inference_peak_bytes']}"
        for r in rows]
    return rows, "\n".join(lines)
