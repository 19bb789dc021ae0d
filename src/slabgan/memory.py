"""Analytic and instrumented accounting of training/inference memory.

Both models count with one class, ``tensor.LiveSet``: live activation
and gradient bytes over static bytes, with a running peak and the
activation/gradient split at that peak. The static bytes are the
parameters and, when training, two Adam moments per parameter; the
analytic replay starts its LiveSet from them, and the measured reports
add them from the ParamStore. A report's ``activations_bytes`` and
``grads_bytes`` are the split at the peak, so the four components add up
to ``peak_total``.

The analytic model replays one training step (or inference pass) as an
allocation/free event stream over the builders' symbolic layer shapes,
under the live-set rule: a taped activation stays live until backward
consumes the tape, a no-grad activation dies as soon as its consumer has
run, gradients of interior nodes are freed eagerly in reverse order, and
parameter gradients live until the optimizer step. The measured model
reads the global ``tensor.METER``, which every Tensor feeds, during an
actual step. Both count tensor payload bytes only (no allocator slack, no
numpy temporaries inside ops), so trends rather than absolute megabytes
are the meaningful output. conv3d's uncounted op workspace is one slab
of the padded input planes of a run of output slices (a few planes of
the input, never the whole padded volume) plus an unfold buffer of at
most ``tensor.CONV_WORKSPACE_BYTES`` (the depth and width taps, with the
row taps read as offset views); neither grows with the volume's depth.
Its input gradient is one such correlation of the output gradient, so
backward adds only the correlation's own output, about the size of the
input gradient, from which the stride phases are interleaved.

The replay of a whole ``train_amortized`` step lands within 5% of the
measured peak at desk widths from 32^3 to 128^3, but each phase still
undercounts by a few percent. Replay against measured peak (desk widths,
seed 0, batch 2, MB of 10^6 bytes): at 128^3 phase eh 44.2 vs 46.3 and
phase eg 60.2 vs 63.0; at 32^3 phase d 10.7 vs 12.0. The gap is not
located. Candidates, none of them checked: the l1-loss intermediates on
the slab, the spectral-norm weight copies on the tape, and
``split_volume`` holding all windows of the encoder at once where the
replay holds one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .networks import NetConfig, symbolic_model_set, parameter_count
from .tensor import METER, LiveSet


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


def _rows_bytes(net, in_shape=None):
    return [_nbytes(shape) for _, _, shape in net.shapes(in_shape)]


def _fwd_taped(sim: LiveSet, row_bytes, tape: list):
    for b in row_bytes:
        tape.append(sim.add(b))
    return row_bytes[-1] if row_bytes else 0


def _fwd_nograd(sim: LiveSet, row_bytes):
    prev = 0
    for b in row_bytes:
        sim.add(b)
        if prev:
            sim.add(-prev)
        prev = b
    return prev


def _backward(sim: LiveSet, tape: list, pgrad_bytes: int):
    """Reverse sweep: param grads accumulate, interior grads freed eagerly."""
    sim.add(grad=pgrad_bytes)
    if tape:
        gprev = sim.add(grad=tape[-1])
        for b in reversed(tape[:-1]):
            g = sim.add(grad=b)
            sim.add(grad=-gprev)
            gprev = g
        sim.add(grad=-gprev)
    for b in tape:
        sim.add(-b)
    tape.clear()
    return pgrad_bytes


def _group_bytes(nets: dict, prefixes) -> int:
    total = 0
    for name, net in nets.items():
        if any(name == p.rstrip("/") for p in prefixes):
            total += net.n_params() * _ITEM
    return total


def _win_shapes(cfg: NetConfig):
    low, full, fc = cfg.low_resolution, cfg.full_resolution, cfg.base_channels
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
    a_full = (cfg_run.base_channels, low, low, low)
    a_win, x_win = _win_shapes(cfg_run)
    x_low = (1, low, low, low)
    z_len = cfg_run.latent_dim + (cfg_run.num_classes or 0)

    if mode == "inference":
        sim = LiveSet(params_b)
        sim.add(_nbytes((z_len,)))
        a_b = _fwd_nograd(sim, _rows_bytes(nets["g_a"]))
        # A stays referenced while g_h consumes it
        _fwd_nograd(sim, _rows_bytes(nets["g_h"], a_full))
        sim.add(-a_b)
        return MemoryReport(mode=mode, params_bytes=params_b,
                            activations_bytes=sim.peak_act_bytes, grads_bytes=0,
                            optimizer_bytes=0, peak_total=sim.peak_total,
                            high_res_branch_bytes=high_res_branch_bytes(cfg_run),
                            config=asdict(cfg_run)).check()

    opt_b = 2 * params_b
    sim = LiveSet(params_b + opt_b)
    g_b = _group_bytes(nets, ("g_a", "g_l", "g_h"))
    d_b = _group_bytes(nets, ("d_l", "d_h"))
    eh_b = _group_bytes(nets, ("e_h",))
    eg_b = _group_bytes(nets, ("e_g",))

    ga_rows = _rows_bytes(nets["g_a"])
    gl_rows = _rows_bytes(nets["g_l"])
    gh_win_rows = _rows_bytes(nets["g_h"], a_win)
    dl_rows = _rows_bytes(nets["d_l"])
    dh_rows = _rows_bytes(nets["d_h"], x_win)
    eh_rows = _rows_bytes(nets["e_h"], x_win)
    eg_rows = _rows_bytes(nets["e_g"])

    # phase 1: discriminators ------------------------------------------------
    tape: list = []
    kept = []
    for _ in range(batch_size):
        a_b = _fwd_nograd(sim, ga_rows)
        kept.append(sim.add(_nbytes(x_low)))          # fake low
        sim.add(_nbytes(a_win))                       # A window copy
        kept.append(_nbytes(a_win))
        kept.append(sim.add(_fwd_nograd(sim, gh_win_rows)))  # fake sub kept
        sim.add(-a_b)
        kept.append(sim.add(_nbytes(x_low)))          # real low tensor
        kept.append(sim.add(_nbytes(x_win)))          # real sub tensor
        _fwd_taped(sim, dl_rows, tape)
        _fwd_taped(sim, dl_rows, tape)
        _fwd_taped(sim, dh_rows, tape)
        _fwd_taped(sim, dh_rows, tape)
    _backward(sim, tape, d_b)
    for b in kept:
        sim.add(-b)
    sim.add(grad=-d_b)
    kept.clear()

    # phase 2: generators ----------------------------------------------------
    for _ in range(batch_size):
        _fwd_taped(sim, ga_rows, tape)
        _fwd_taped(sim, gl_rows, tape)
        tape.append(sim.add(_nbytes(a_win)))
        _fwd_taped(sim, gh_win_rows, tape)
        _fwd_taped(sim, dl_rows, tape)
        _fwd_taped(sim, dh_rows, tape)
    _backward(sim, tape, g_b)
    sim.add(grad=-g_b)

    # phase 3: slab encoder ----------------------------------------------------
    for _ in range(batch_size):
        kept.append(sim.add(_nbytes(x_win)))          # real sub
        _fwd_taped(sim, eh_rows, tape)
        _fwd_taped(sim, gh_win_rows, tape)
    _backward(sim, tape, eh_b)
    for b in kept:
        sim.add(-b)
    sim.add(grad=-eh_b)
    kept.clear()

    # phase 4: global encoder ---------------------------------------------------
    n_win = cfg_run.n_windows
    for _ in range(batch_size):
        xb = sim.add(_nbytes((1, full, full, full)))   # X^H, dropped after encode
        feats = []
        for _ in range(n_win):
            wb = sim.add(_nbytes(x_win))               # window copy
            fb = _fwd_nograd(sim, eh_rows)
            sim.add(-wb)
            feats.append(fb)
        ahat = sim.add(_nbytes(a_full))
        for fb in feats:
            sim.add(-fb)
        sim.add(-xb)
        kept.append(ahat)
        _fwd_taped(sim, eg_rows, tape)
        _fwd_taped(sim, ga_rows, tape)
        _fwd_taped(sim, gl_rows, tape)
        tape.append(sim.add(_nbytes(a_win)))
        _fwd_taped(sim, gh_win_rows, tape)
        kept.append(sim.add(_nbytes(x_low)))           # recon targets
        kept.append(sim.add(_nbytes(x_win)))
    _backward(sim, tape, eg_b)
    for b in kept:
        sim.add(-b)
    sim.add(grad=-eg_b)

    return MemoryReport(mode=f"train_amortized({cfg_run.subvol_multiplier})"
                        if mode == "train_amortized" else mode,
                        params_bytes=params_b, activations_bytes=sim.peak_act_bytes,
                        grads_bytes=sim.peak_grad_bytes, optimizer_bytes=opt_b,
                        peak_total=sim.peak_total,
                        high_res_branch_bytes=high_res_branch_bytes(cfg_run),
                        config=asdict(cfg_run)).check()


# ---------------------------------------------------------------------------
# instrumented measurement


def measured_memory(run, mode: str = "measured") -> MemoryReport:
    """Run a closure and report the instrumented payload-byte peak.

    Every component is the meter's split at the peak of the run minus its
    state at entry: ``activations_bytes`` and ``grads_bytes`` are the
    activation and gradient bytes live at the peak, so they add up to
    ``peak_total``. Long-lived tensors (the model's own parameters,
    another model) cancel out as long as they stay constant during the
    run; callers add parameters and optimizer moments as static bytes.
    """
    import gc
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
