"""Losses and the alternating four-phase training loop.

Each iteration runs, in order: a discriminator step on the two GAN
losses, a generator step on their generator parts, a slab-reconstruction
step updating only the slab encoder, and a global-reconstruction step
updating only the global encoder. One window draw per batch governs both
the low-resolution selector inside generation and the high-resolution
selector on real data.

``_alternate`` holds the four phases as one table of (phase, trainable
prefixes, per-sample loss term, loss weight, learning rate). For each
phase it freezes every parameter outside the prefixes
(``_only_trainable``) and hands the batch to ``batch_update``. It builds
one sample's term at a time, scales it by weight / batch size, checks it
and runs its backward at once, so the leaf gradients accumulate over the
batch while only one sample's graph is alive; the step's memory follows
one sample, not the batch. After the last sample it checks the summed
loss and the averaged logged values, then runs the optimizer once. The
super-resolution trainer (``sr.py``) and the augmentation classifier
(``augment.py``) run their updates through the same helper.

Discriminator logits are raw; the losses use stable log-sigmoid forms.
The generator objective defaults to the non-saturating -log sigmoid(D(fake));
the saturating textbook form is available behind a flag.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .geometry import (SliceWindow, check_volume, deterministic_windows, sample_r,
                       select_high, select_low)
from .networks import ModelSet, NetConfig, build_model_set
from .optim import optimize
from .tensor import Tensor, backward, no_grad


class TrainingDiverged(RuntimeError):
    """A loss went non-finite; carries the diagnostic loss report."""

    def __init__(self, step: int, report: dict):
        super().__init__(f"non-finite loss at step {step}: {report}")
        self.step = step
        self.report = report


@dataclass(frozen=True)
class LossWeights:
    """Trade-off between the GAN losses and the reconstruction losses."""
    lambda1: float = 5.0
    lambda2: float = 5.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be nonnegative")


def l1_loss(a: Tensor, b: Tensor) -> Tensor:
    return T.tmean(T.tabs(T.sub(a, b)))


def gan_d_loss(logit_real: Tensor, logit_fake: Tensor) -> Tensor:
    """-log sigmoid(real) - log(1 - sigmoid(fake)), from raw logits."""
    return T.softplus(T.mul(logit_real, -1.0)).sum() + T.softplus(logit_fake).sum()


def gan_g_loss(logit_fake: Tensor, saturating: bool = False) -> Tensor:
    if saturating:
        return T.mul(T.softplus(logit_fake).sum(), -1.0)
    return T.softplus(T.mul(logit_fake, -1.0)).sum()


def class_loss(class_logits: Tensor, label: int) -> Tensor:
    """Auxiliary-classifier cross-entropy for one sample."""
    return T.cross_entropy_logits(class_logits, label)


def downsample_volume(vol: np.ndarray, factor: int) -> np.ndarray:
    """Trilinear box-style downsample of a (D, H, W) volume by 1/factor."""
    return T.resample(vol, [n // factor for n in vol.shape[-3:]])


@dataclass
class TrainState:
    """Everything the alternating optimization mutates."""
    nets: ModelSet
    rng: np.random.Generator
    weights: LossWeights
    lr_g: float = 1e-4
    lr_d: float = 4e-4
    lr_e: float = 1e-4
    batch_size: int = 2
    step: int = 0
    saturating: bool = False
    deterministic_r: bool = False
    clip_norm: float | None = None

    @property
    def cfg(self) -> NetConfig:
        return self.nets.cfg

    @property
    def store(self):
        return self.nets.store


def init_train_state(cfg: NetConfig, seed: int, weights: LossWeights | None = None,
                     dtype=np.float32, **kw) -> TrainState:
    rng = np.random.default_rng(seed)
    nets = build_model_set(cfg, rng, dtype=dtype)
    return TrainState(nets=nets, rng=rng, weights=weights or LossWeights(), **kw)


def _only_trainable(state: TrainState, prefixes) -> None:
    state.store.train_only(prefixes)


def _sample_latent(state: TrainState, label: int | None) -> Tensor:
    """Generator input for a fresh standard-normal latent (and class)."""
    z = state.rng.standard_normal(state.cfg.latent_dim)
    return state.nets.latent_input(
        Tensor(z.astype(state.store.params["g_a/dense/weight"].dtype)), label)


def _generate_windowed(state: TrainState, z: Tensor, w: SliceWindow):
    """Fake low-res volume and fake high-res slab sharing one trunk pass."""
    nets = state.nets
    a = nets.g_a(z)
    return nets.g_l(a), nets.g_h(select_low(a, w))


def _current_window(state: TrainState) -> SliceWindow:
    cfg = state.cfg
    if state.deterministic_r:
        # ablation variant: the window cycles one position per step
        cyc = deterministic_windows(cfg.low_resolution, cfg.subvol_depth_low,
                                    resolution_scale=4)
        return cyc[state.step % len(cyc)]
    return sample_r(cfg.low_resolution, cfg.subvol_depth_low, state.rng,
                    resolution_scale=4)


def recon_slab_loss(state: TrainState, vol: np.ndarray, w: SliceWindow) -> Tensor:
    """L1 between a real high-res slab and its decode through the slab
    encoder; the caller freezes everything except e_h."""
    sub = Tensor(select_high(vol, w))
    ahat_r = state.nets.e_h(sub)
    rec = state.nets.g_h(ahat_r)
    return l1_loss(rec, sub)


def recon_global_loss(state: TrainState, vol: np.ndarray, low: np.ndarray,
                      w: SliceWindow, label: int | None = None) -> Tensor:
    """Low-res plus windowed high-res reconstruction error from the full
    hierarchical encoding; only e_g is meant to learn from it."""
    nets = state.nets
    z = nets.latent_input(nets.encode(Tensor(vol[None])), label)
    rec_low, rec_sub = _generate_windowed(state, z, w)
    return T.add(l1_loss(rec_low, Tensor(low[None])),
                 l1_loss(rec_sub, Tensor(select_high(vol, w))))


ALL_PHASES = ("d", "g", "eh", "eg")


@contextlib.contextmanager
def step_guard(state):
    """Count a training step that succeeded; undo what a failed one leaves.

    When the block completes, ``state.step`` advances by one; it is the
    only place a training step is counted. On any exception out of the
    block ``step`` stays as it was and the gradient tape is cleared, so no
    activation stays pinned. If no optimizer update ran before it, the
    rng and the non-trainable buffers (spectral-norm vectors and running
    statistics, which every training forward updates in place) are put
    back too, so the step leaves the state as it found it and a retry
    draws the same windows and latents and computes the same losses.
    After an update both stay where they are: the updated phases keep
    their changes, and a retry must not apply them again to the same
    data. Parameters are each phase's concern: it checks its loss before
    it updates them.
    """
    rng_state = state.rng.bit_generator.state
    buffers = {name: b.copy() for name, b in state.store.buffers.items()}
    updates = _adam_updates(state.store)
    try:
        yield
    except BaseException:
        T.active_tape().clear()
        if _adam_updates(state.store) == updates:
            state.rng.bit_generator.state = rng_state
            for name, b in buffers.items():
                state.store.buffers[name][...] = b
        raise
    state.step += 1


def _adam_updates(store) -> int:
    """Adam steps taken so far, summed over parameters."""
    return sum(s[2] for s in store.adam_state.values())


def batch_update(store, step: int, items, term, weight: float, lr: float, report: dict,
                 clip_norm: float | None = None) -> None:
    """One optimizer update on the weighted mean of a per-sample loss.

    ``term(item)`` returns one sample's loss and a dict of the values it
    logs. Each sample's loss, scaled by ``weight / len(items)``, is
    checked and then run through ``backward`` before the next sample's
    term is built: its gradients add into the leaf ``.grad``s and its tape
    is freed, so only one sample's graph is ever alive. Each logged value
    is averaged over ``items`` into ``report``. After the last sample the
    summed scaled loss and the report are checked too, and only then does
    ``optimize`` update the trainable parameters of ``store`` from the
    accumulated gradients. A non-finite sample loss, summed loss or logged
    value raises TrainingDiverged (carrying ``step`` and ``report``, which
    then averages the samples seen so far). On any exception the
    accumulated gradients are zeroed before it propagates, so no
    parameter, Adam moment or gradient changes.
    """
    scale = weight / len(items)
    total = None
    sums: dict = {}
    try:
        for seen, item in enumerate(items, 1):
            value, logged = term(item)
            for k, v in logged.items():
                sums[k] = sums.get(k, 0.0) + v
            scaled = T.mul(value, scale)
            if not (np.isfinite(scaled.item()) and all(np.isfinite(v) for v in logged.values())):
                report.update({k: v / seen for k, v in sums.items()})
                raise TrainingDiverged(step, report)
            backward(scaled)
            total = value.data if total is None else total + value.data
        for k, v in sums.items():
            report[k] = v / len(items)
        if not (np.isfinite(total * scale) and all(np.isfinite(v) for v in report.values())):
            raise TrainingDiverged(step, report)
        optimize(store, lr, clip_norm)
    except BaseException:
        store.zero_grads()
        raise


def train_step(state: TrainState, batch_high: list, labels: list | None = None,
               phases=ALL_PHASES) -> dict:
    """One full alternation over a batch of (D, H, W) volumes in [-1, 1].

    Returns the per-step loss report. A volume of the wrong shape, with a
    non-finite value or outside [-1, 1], or a class label outside the
    model's range, raises ValueError before anything runs. Each phase is
    one ``batch_update``, which runs each sample's backward as soon as its
    loss is checked and updates the phase's parameters once, after the
    last sample; a non-finite sample or summed loss raises
    TrainingDiverged before that update, so a diverged phase writes no
    parameter and leaves no gradient; the phases before it keep their
    updates. ``step_guard`` advances ``step`` only when the whole
    alternation succeeded; a step that raises leaves the tape empty and,
    if it raised before any update, the rng unchanged.
    ``phases`` restricts the alternation (testing hook).
    """
    cfg = state.cfg
    n = len(batch_high)
    if not n:
        raise ValueError("empty batch")
    batch_high = [check_volume(v, (cfg.full_resolution,) * 3) for v in batch_high]
    if cfg.num_classes:
        if labels is None or len(labels) != n:
            raise ValueError("conditional training needs one label per sample")
        for lab in labels:
            state.nets.class_code(lab)      # ValueError for a class outside the model
    with step_guard(state):
        return _alternate(state, batch_high, labels if cfg.num_classes else [None] * n,
                          phases)


def _alternate(state: TrainState, batch_high: list, labels: list, phases) -> dict:
    """The phases of one ``train_step`` on validated volumes."""
    nets = state.nets
    conditional = bool(state.cfg.num_classes)

    w = _current_window(state)
    lows = [downsample_volume(v, 4) for v in batch_high]
    report = {"step": state.step, "r": w.start}

    def d_term(sample):
        vol, low, lab = sample
        with no_grad():
            z = _sample_latent(state, lab)
            fake_low, fake_sub = _generate_windowed(state, z, w)
        real_low = Tensor(low[None])
        real_sub = Tensor(select_high(vol, w))
        lr_logit, lr_cls = nets.d_l(real_low)
        lf_logit, lf_cls = nets.d_l(fake_low)
        hr_logit, hr_cls = nets.d_h(real_sub)
        hf_logit, hf_cls = nets.d_h(fake_sub)
        d_low = gan_d_loss(lr_logit, lf_logit)
        d_high = gan_d_loss(hr_logit, hf_logit)
        loss = T.add(d_low, d_high)
        logged = {"d_low": d_low.item(), "d_high": d_high.item()}
        if conditional:
            cl = class_loss(lr_cls, lab) + class_loss(lf_cls, lab) \
                + class_loss(hr_cls, lab) + class_loss(hf_cls, lab)
            loss = T.add(loss, cl)
            logged["class"] = cl.item()
        return loss, logged

    def g_term(sample):
        lab = sample[2]
        fake_low, fake_sub = _generate_windowed(state, _sample_latent(state, lab), w)
        lf_logit, lf_cls = nets.d_l(fake_low)
        hf_logit, hf_cls = nets.d_h(fake_sub)
        g_low = gan_g_loss(lf_logit, state.saturating)
        g_high = gan_g_loss(hf_logit, state.saturating)
        loss = T.add(g_low, g_high)
        if conditional:
            loss = T.add(loss, class_loss(lf_cls, lab) + class_loss(hf_cls, lab))
        return loss, {"g_low": g_low.item(), "g_high": g_high.item()}

    def eh_term(sample):
        loss = recon_slab_loss(state, sample[0], w)
        return loss, {"rec_h": loss.item()}

    def eg_term(sample):
        vol, low, lab = sample
        loss = recon_global_loss(state, vol, low, w, lab)
        return loss, {"rec_g": loss.item()}

    samples = list(zip(batch_high, lows, labels))
    for phase, prefixes, term, weight, lr in (
            ("d", nets.discriminator_prefixes, d_term, 1.0, state.lr_d),
            ("g", nets.generator_prefixes, g_term, 1.0, state.lr_g),
            ("eh", ("e_h/",), eh_term, state.weights.lambda1, state.lr_e),
            ("eg", ("e_g/",), eg_term, state.weights.lambda2, state.lr_e)):
        if phase in phases:
            _only_trainable(state, prefixes)
            batch_update(state.store, state.step, samples, term, weight, lr, report,
                         state.clip_norm)
    return report


def format_report(report: dict) -> str:
    """One run-log line; stable key order, full float precision."""
    ordered = {}
    for k in ("step", "r", "d_low", "d_high", "g_low", "g_high",
              "rec_h", "rec_g", "class"):
        if k in report:
            v = report[k]
            ordered[k] = int(v) if k in ("step", "r") else float(v)
    return json.dumps(ordered)


# ---------------------------------------------------------------------------
# checkpointing

_MAGIC = b"SGCK"
_VERSION = 2
_DTYPES = {"<f4": 0, "<f8": 1, "<i8": 2}
_DTYPES_REV = {v: k for k, v in _DTYPES.items()}


class CheckpointError(RuntimeError):
    pass


def _pack_entry(out: list, name: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    code = _DTYPES[arr.dtype.newbyteorder("<").str]
    nb = name.encode()
    out.append(struct.pack("<H", len(nb)))
    out.append(nb)
    out.append(struct.pack("<BB", code, arr.ndim))
    out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    out.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def write_store_checkpoint(path, store, header: dict) -> None:
    """Serialize a ParamStore (params, buffers, Adam state) plus a JSON header.

    The file is written to ``path + ".tmp"``, synced, then renamed over
    ``path``: a write that fails part-way leaves the previous file intact.
    """
    header = dict(header)
    header["adam_t"] = {k: v[2] for k, v in store.adam_state.items()}
    hb = json.dumps(header, sort_keys=True).encode()
    body: list[bytes] = [struct.pack("<H", _VERSION), struct.pack("<I", len(hb)), hb]
    for name, p in store.params.items():
        _pack_entry(body, f"param:{name}", p.data)
    for name, b in store.buffers.items():
        _pack_entry(body, f"buffer:{name}", b)
    for name, (m, v, _) in store.adam_state.items():
        _pack_entry(body, f"adam_m:{name}", m)
        _pack_entry(body, f"adam_v:{name}", v)
    blob = b"".join(body)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_checkpoint(path, kind: str) -> tuple[dict, bytes]:
    """Read and verify a checkpoint file; returns (header, entry bytes).

    Checks, in this order: the magic, the CRC of everything after it, the
    format version; only then is the JSON header parsed and its "kind"
    ("hagan" or "sr") compared with ``kind``. Any failure raises
    CheckpointError. ``restore_store`` loads the entries.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    blob = raw[4:-4]
    if len(raw) < 14 or zlib.crc32(blob) != struct.unpack("<I", raw[-4:])[0]:
        raise CheckpointError("checksum mismatch: checkpoint corrupt or truncated")
    version, hlen = struct.unpack_from("<HI", blob, 0)
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    header = json.loads(blob[6:6 + hlen].decode())
    if header.get("kind") != kind:
        raise CheckpointError(f"checkpoint kind {header.get('kind')!r}, expected {kind!r}")
    return header, blob[6 + hlen:]


def restore_store(store, header: dict, body: bytes) -> None:
    """Load the entries of a verified checkpoint into a ParamStore.

    Every stored name must exist in the store with the stored shape, and
    every parameter of the store must be present.
    """
    adam_t = header["adam_t"]
    seen = set()
    for name, arr in _read_entries(body):
        kind, key = name.split(":", 1)
        if kind == "param":
            if key not in store.params:
                raise CheckpointError(f"unknown parameter '{key}' in checkpoint")
            p = store.params[key]
            if p.data.shape != arr.shape:
                raise CheckpointError(
                    f"shape mismatch for '{key}': model {p.data.shape}, file {arr.shape}")
            p.data[...] = arr.astype(p.data.dtype)
        elif kind == "buffer":
            if key not in store.buffers:
                raise CheckpointError(f"unknown buffer '{key}' in checkpoint")
            b = store.buffers[key]
            if b.shape != arr.shape:
                raise CheckpointError(f"buffer shape mismatch for '{key}'")
            b[...] = arr.astype(b.dtype)
        elif kind in ("adam_m", "adam_v"):
            st = store.adam_state.get(key)
            if st is None:
                m = np.zeros_like(store.params[key].data)
                v = np.zeros_like(store.params[key].data)
                st = [m, v, int(adam_t[key])]
                store.adam_state[key] = st
            if kind == "adam_m":
                st[0][...] = arr.astype(st[0].dtype)
            else:
                st[1][...] = arr.astype(st[1].dtype)
            st[2] = int(adam_t[key])
        seen.add(name)
    missing = {f"param:{k}" for k in store.params} - seen
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {sorted(missing)[:5]}")


def save_checkpoint(state: TrainState, path) -> None:
    """Bit-exact snapshot: parameters, buffers, Adam moments, rng, step and
    the optimisation settings (learning rates, batch size, clipping)."""
    header = {
        "kind": "hagan",
        "config": asdict(state.cfg),
        "weights": asdict(state.weights),
        "step": state.step,
        "lr": [state.lr_g, state.lr_d, state.lr_e],
        "batch_size": state.batch_size,
        "rng_state": _encode_rng(state.rng),
        "saturating": state.saturating,
        "deterministic_r": state.deterministic_r,
        "clip_norm": state.clip_norm,
    }
    write_store_checkpoint(path, state.store, header)


def _encode_rng(rng: np.random.Generator) -> dict:
    st = rng.bit_generator.state
    return json.loads(json.dumps(st))


def _read_entries(buf: bytes):
    off = 0
    while off < len(buf):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off:off + nlen].decode()
        off += nlen
        code, ndim = struct.unpack_from("<BB", buf, off)
        off += 2
        shape = struct.unpack_from(f"<{ndim}I", buf, off)
        off += 4 * ndim
        dt = np.dtype(_DTYPES_REV[code])
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        arr = np.frombuffer(buf[off:off + nbytes], dtype=dt).reshape(shape).copy()
        off += nbytes
        yield name, arr


def stored_config(cls, config: dict, retired: dict):
    """A ``cls`` config from a checkpoint header's ``config`` dict.

    ``retired`` maps a setting that has since become a constant to that
    constant: a file that stores it with this value loads, any other value
    raises CheckpointError, as does a key ``cls`` does not know.
    """
    config = dict(config)
    for key, value in retired.items():
        got = config.pop(key, value)
        if got != value:
            raise CheckpointError(f"checkpoint config sets '{key}' = {got!r}; "
                                  f"only {value!r} loads")
    try:
        return cls(**config)
    except TypeError as e:
        raise CheckpointError(f"checkpoint config does not fit {cls.__name__}: {e}") from None


def load_checkpoint(path, state: TrainState | None = None) -> TrainState:
    """Restore a TrainState; verifies magic, version, checksum and shapes.

    With an existing ``state``, its networks must match the stored shapes
    (loading across configurations is an explicit error). Without one, a
    fresh state is built from the stored config.
    """
    header, body = read_checkpoint(path, "hagan")
    if state is None:
        cfg = stored_config(NetConfig, header["config"], {"feature_channels": None}).validate()
        state = init_train_state(cfg, seed=0, weights=LossWeights(**header["weights"]))
        state.lr_g, state.lr_d, state.lr_e = header["lr"]
        state.batch_size = header["batch_size"]
        state.saturating = header["saturating"]
        state.deterministic_r = header["deterministic_r"]
        state.clip_norm = header.get("clip_norm")   # absent in older files
    restore_store(state.store, header, body)
    state.step = header["step"]
    state.rng.bit_generator.state = header["rng_state"]
    return state
