"""The benchmark's workloads, output checks and failure accounting.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Inputs (phantoms, latents, model
initialisation) come from the workload seed; the library only ever sees
the generated arrays. Model settings are the ``RunConfig`` defaults (desk
widths: base_channels 8, latent_dim 64, batch 2).

* ``train64`` / ``train128``: one op is one four-phase ``train_step`` on a
  batch drawn from a small phantom set the way ``slabgan train`` draws it.
* ``infer128``: one op is one round of the forward-only flows, all under
  ``no_grad``: generate a volume from a fresh latent and extract its
  features (the eval flow), extract features of real phantoms, encode
  phantoms, and super-resolve one degraded phantom (the sr-eval flow).
  Encode and extract are short, so a round repeats them to keep their
  rates steady.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from time import perf_counter

import numpy as np

from slabgan import inference, sr, tensor as T, training
from slabgan.config import RunConfig
from slabgan.geometry import sample_r, select_low
from slabgan.memory import analytic_memory
from slabgan.metrics import FixedExtractor
from slabgan.networks import CONSISTENCY_MARGIN, build_model_set
from slabgan.phantoms import phantom_dataset

N_PHANTOMS = 4
SHORT_REPS = 4          # encode and extract calls per inference round
# windowed and full-volume g_h must agree to this absolute tolerance outside
# 4 * CONSISTENCY_MARGIN high-resolution slices of each inner window edge
CONSISTENCY_ATOL = 1e-5
MB = 1024.0 * 1024.0


class Ledger:
    """Counts attempted and failed operations and keeps each op's time.

    An op fails when it raises or when its output check reports a problem;
    either way the failure is recorded and the run goes on.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: dict[str, list] = {}

    def attempt(self, name, call, check):
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:    # a failing op is counted, not fatal
            self.times.setdefault(name, []).append(perf_counter() - t0)
            self._fail(name, f"raised {type(exc).__name__}: {exc}")
            return None, perf_counter() - t0
        dt = perf_counter() - t0
        self.times.setdefault(name, []).append(dt)
        problem = check(out)
        if problem:
            self._fail(name, problem)
        return out, dt

    def _fail(self, name, problem):
        self.failed += 1
        self.failures.append(f"{name}: {problem}")
        print(f"op failed: {name}: {problem}", file=sys.stderr)


def direct(name, fn, *args):
    return fn(*args)


# -- output checks: each returns None or a description of the problem --------


def check_report(report):
    bad = sorted(k for k, v in report.items() if not np.isfinite(v))
    if bad:
        return f"non-finite report values {bad}"
    left = len(T.active_tape())
    return f"{left} nodes left on the tape" if left else None


def volume_check(res, bounded):
    def check(vol):
        if vol.shape != (1, res, res, res):
            return f"shape {vol.shape}, expected {(1, res, res, res)}"
        if not np.all(np.isfinite(vol)):
            return "non-finite voxels"
        if bounded and (vol.min() < -1.0 or vol.max() > 1.0):
            return f"values outside [-1, 1]: [{vol.min()}, {vol.max()}]"
        return None
    return check


def latent_check(dim):
    def check(code):
        if code.z.shape != (dim,):
            return f"latent shape {code.z.shape}, expected {(dim,)}"
        return None if np.all(np.isfinite(code.z)) else "non-finite latent"
    return check


def check_features(feats):
    return None if np.all(np.isfinite(feats)) else "non-finite features"


# -- workloads -----------------------------------------------------------------


def run_config(seed: int, resolution: int) -> RunConfig:
    model_seed, data_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    return RunConfig(full_resolution=resolution, seed=model_seed,
                     phantom_seed=data_seed, n_phantoms=N_PHANTOMS)


class _Workload:
    """Shared set-up: configuration, phantoms and the workload's rng."""

    entry: str

    def __init__(self, seed: int, resolution: int, out_dir: str):
        self.res = resolution
        self.out_dir = out_dir
        self.cfg = run_config(seed, resolution)
        self.net_cfg = self.cfg.net_config()
        self.sr_cfg = self.cfg.sr_config()
        self.rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        self.vols, _, _ = phantom_dataset(self.cfg.n_phantoms, extents=(resolution,) * 3,
                                          base_seed=self.cfg.phantom_seed)

    def check_consistency(self, ledger: Ledger) -> None:
        """Windowed g_h against the matching crop of full-volume g_h.

        The training window (1/8 of the depth) is too short to keep an
        interior beyond the 4 * CONSISTENCY_MARGIN border on both sides, so
        the check uses a window of half the depth, or longer where needed.
        """
        nets = self.nets
        cfg = nets.cfg
        low = cfg.low_resolution
        z = self.rng.standard_normal(cfg.latent_dim).astype(np.float32)
        w = sample_r(low, min(low, max(low // 2, 2 * CONSISTENCY_MARGIN + 1)), self.rng,
                     resolution_scale=4)

        def run():
            with T.no_grad():
                a = nets.g_a(T.Tensor(z), training=False)
                full = nets.g_h(a, training=False).data
                sub = nets.g_h(select_low(a, w), training=False).data
            crop = full[:, w.high_start:w.high_start + w.high_length]
            m = 4 * CONSISTENCY_MARGIN
            lo = 0 if w.start == 0 else m
            hi = sub.shape[1] if w.start + w.length == low else sub.shape[1] - m
            return float(np.abs(sub[:, lo:hi] - crop[:, lo:hi]).max())

        ledger.attempt("consistency", run,
                       lambda d: None if d <= CONSISTENCY_ATOL else
                       f"window/full g_h differ by {d} > {CONSISTENCY_ATOL}")

    def memory_pass(self) -> dict:
        """Transient payload (METER) and allocator (tracemalloc) peak of one
        call per entry point, in MB above the state at the call's entry."""
        out = {}
        tracemalloc.start()
        try:
            for entry, fn in self.memory_entries():
                gc.collect()
                base = T.METER.current_total()
                T.METER.reset_peak()
                tracemalloc.reset_peak()
                traced0 = tracemalloc.get_traced_memory()[0]
                fn()
                out[entry] = ((T.METER.peak_total - base) / MB,
                              (tracemalloc.get_traced_memory()[1] - traced0) / MB)
        finally:
            tracemalloc.stop()
        return out

    def analytic_mb(self) -> float:
        mode = "inference" if self.entry == "generate" else "train_amortized"
        return analytic_memory(self.net_cfg, mode, batch_size=self.cfg.batch_size).peak_total / MB

    def static_mb(self) -> float:
        """Parameter (and Adam moment) bytes the analytic model counts."""
        store = self.nets.store
        b = sum(p.data.nbytes for p in store.params.values())
        b += sum(m.nbytes + v.nbytes for m, v, _ in store.adam_state.values())
        return b / MB


class Train(_Workload):
    entry = "step"

    def __init__(self, seed, resolution, out_dir):
        super().__init__(seed, resolution, out_dir)
        cfg = self.cfg
        self.state = training.init_train_state(
            self.net_cfg, seed=cfg.seed, weights=cfg.loss_weights(),
            lr_g=cfg.lr_g, lr_d=cfg.lr_d, lr_e=cfg.lr_e, batch_size=cfg.batch_size,
            saturating=cfg.saturating_gan, deterministic_r=cfg.deterministic_r,
            clip_norm=cfg.clip_norm or None)
        self.nets = self.state.nets
        training.train_step(self.state, self._batch())      # warm-up

    def _batch(self):
        st = self.state
        idx = st.rng.choice(len(self.vols), size=min(st.batch_size, len(self.vols)),
                            replace=False)
        return [self.vols[i] for i in idx]

    def op(self, ledger: Ledger, runner=direct) -> float:
        batch = self._batch()
        _, dt = ledger.attempt(
            "step", lambda: runner("entry.step", training.train_step, self.state, batch),
            check_report)
        return dt

    def networks(self) -> dict:
        n = self.nets
        return {f"networks.{k}": getattr(n, k)
                for k in ("g_a", "g_l", "g_h", "d_l", "d_h", "e_h", "e_g")}

    def extra_layers(self) -> dict:
        return {}

    def memory_entries(self):
        return [("step", lambda: training.train_step(self.state, self._batch()))]

    def end_checks(self, ledger: Ledger) -> dict:
        """Checkpoint round trip into a fresh state, then slab/full consistency."""
        path = os.path.join(self.out_dir, f"ckpt-{os.getpid()}.bin")
        timing = {}

        def roundtrip():
            t0 = perf_counter()
            training.save_checkpoint(self.state, path)
            t1 = perf_counter()
            fresh = training.init_train_state(self.net_cfg, seed=self.cfg.seed + 1)
            t2 = perf_counter()
            training.load_checkpoint(path, fresh)
            t3 = perf_counter()
            timing.update(save_s=t1 - t0, load_s=t3 - t2, bytes=os.path.getsize(path))
            return (fresh.store.parameter_hash() == self.state.store.parameter_hash()
                    and fresh.step == self.state.step)

        try:
            ledger.attempt("checkpoint", roundtrip,
                           lambda same: None if same else "parameter_hash or step changed")
        finally:
            if os.path.exists(path):
                os.remove(path)
        self.check_consistency(ledger)
        return timing


class Infer(_Workload):
    entry = "generate"

    def __init__(self, seed, resolution, out_dir):
        super().__init__(seed, resolution, out_dir)
        model_rng = np.random.default_rng(self.cfg.seed)
        self.nets = build_model_set(self.net_cfg, model_rng)
        self.sr_state = sr.build_sr(self.sr_cfg, seed=self.cfg.seed + 1)
        self.extractor = FixedExtractor(input_res=resolution, seed=self.cfg.seed + 2)
        self.lows = [sr.degrade(v, self.sr_cfg.noise_sigma, self.rng) for v in self.vols]
        self._next = 0
        self.vol_check = volume_check(resolution, bounded=True)
        self.sr_check = volume_check(resolution, bounded=False)
        self.z_check = latent_check(self.net_cfg.latent_dim)
        self.op(Ledger())                                   # warm-up

    def _latent(self):
        return self.rng.standard_normal(self.net_cfg.latent_dim).astype(np.float32)

    def op(self, ledger: Ledger, runner=direct) -> float:
        nets, ex, n = self.nets, self.extractor, len(self.vols)
        z = self._latent()
        vol, total = ledger.attempt(
            "generate", lambda: runner("entry.generate", inference.generate_full, nets, z),
            self.vol_check)
        extract_inputs = ([vol] if vol is not None else []) + \
            [self.vols[(self._next + j) % n] for j in range(SHORT_REPS - 1)]
        for v in extract_inputs:
            total += ledger.attempt(
                "extract", lambda: runner("entry.extract", ex.extract_one, v),
                check_features)[1]
        for j in range(SHORT_REPS):
            v = self.vols[(self._next + j) % n]
            total += ledger.attempt(
                "encode", lambda: runner("entry.encode", inference.encode_full, nets, v),
                self.z_check)[1]
        low = self.lows[self._next]
        total += ledger.attempt(
            "sr", lambda: runner("entry.sr", sr.sr_infer, self.sr_state, low),
            self.sr_check)[1]
        self._next = (self._next + 1) % n
        return total

    def networks(self) -> dict:
        n = self.nets
        nets = {f"networks.{k}": getattr(n, k) for k in ("g_a", "g_h", "e_h", "e_g")}
        nets["sr.gen"] = self.sr_state.gen
        nets["metrics.extractor"] = self.extractor.net
        return nets

    def extra_layers(self) -> dict:
        g = self.sr_state.gen
        return {"sr.gen": {"sr_g/up_dec": g.up_dec, "sr_g/up_out": g.up_out,
                           "sr_g/up_res": g.up_res}}

    def memory_entries(self):
        z = self._latent()
        return [("generate", lambda: inference.generate_full(self.nets, z)),
                ("extract", lambda: self.extractor.extract_one(self.vols[0])),
                ("encode", lambda: inference.encode_full(self.nets, self.vols[0])),
                ("sr", lambda: sr.sr_infer(self.sr_state, self.lows[0]))]

    def end_checks(self, ledger: Ledger) -> dict:
        self.check_consistency(ledger)
        return {}


WORKLOADS = {
    "train64": (Train, 64),
    "train128": (Train, 128),
    "infer128": (Infer, 128),
}
