"""Print labelled fingerprints of the library's fixed-seed outputs.

    PYTHONPATH=src python3 tools/fingerprint.py

Each line is ``label: value``, where a value is a report line, a repr of
floats or a sha256 of raw array bytes. Two source trees that print the same
lines compute the same bits for:

* three fixed-seed ``train_step`` calls at desk 32^3 and 64^3: their report
  lines, the parameter hash and the hashes of the Adam moments and of the
  buffers (spectral-norm vectors and running statistics);
* eval-mode ``d_l`` and ``d_h`` logits of the trained 64^3 model;
* two SR train steps and their parameter hash;
* ``generate_full``, ``encode_full``, ``extract_one`` and ``sr_infer`` at
  desk 64^3 and 128^3, with the SR residual head's weights drawn non-zero;
* the bytes on disk of a ``save_checkpoint`` file of the trained 64^3
  model, of an ``sr_save`` file after the two SR steps and of a
  ``volume_write`` file of the 64^3 ``generate_full`` output, each written
  to a temporary directory.

The script takes no options and uses only long-standing public functions,
so it runs against older source trees too. The bits can depend on the
BLAS thread count (``OPENBLAS_NUM_THREADS``); compare runs at the same one.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from slabgan.geometry import sample_r, select_high
from slabgan.inference import encode_full, generate_full
from slabgan.metrics import FixedExtractor
from slabgan.networks import build_model_set, desk_config
from slabgan.phantoms import phantom_dataset
from slabgan.sr import (SRConfig, build_sr, degrade, format_sr_report, sr_infer, sr_save,
                        sr_train)
from slabgan.tensor import Tensor, no_grad
from slabgan.training import (downsample_volume, format_report, init_train_state,
                              save_checkpoint, train_step)
from slabgan.volio import volume_write


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(write) -> str:
    """sha256 of the bytes ``write(path)`` leaves in a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        write(path)
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


def train_lines(res: int):
    """Three train steps at desk ``res``^3; returns the trained state and
    its phantoms."""
    state = init_train_state(desk_config(full_resolution=res), seed=0)
    vols, _, _ = phantom_dataset(4, extents=(res,) * 3, base_seed=100)
    for k in range(3):
        rep = train_step(state, [vols[k], vols[(k + 1) % 4]])
        print(f"train{res} step {k}: {format_report(rep)}")
    store = state.store
    print(f"train{res} parameter_hash: {store.parameter_hash()}")
    print(f"train{res} adam moments: "
          f"{digest(a for n in sorted(store.adam_state) for a in store.adam_state[n][:2])}")
    print(f"train{res} buffers: {digest(store.buffers[n] for n in sorted(store.buffers))}")
    return state, vols


def eval_logits(state, vol) -> None:
    cfg = state.cfg
    low = downsample_volume(vol, cfg.full_resolution // cfg.low_resolution)
    w = sample_r(cfg.low_resolution, cfg.subvol_depth_low, np.random.default_rng(1),
                 resolution_scale=4)
    with no_grad():
        d_l = state.nets.d_l(Tensor(low[None]), training=False)[0].data
        d_h = state.nets.d_h(Tensor(select_high(vol, w)), training=False)[0].data
    print(f"eval d_l logits: {[float(x) for x in d_l.ravel()]}")
    print(f"eval d_h logits: {[float(x) for x in d_h.ravel()]}")


def sr_lines() -> None:
    state = build_sr(SRConfig(hr_resolution=32, subvol_len=4, width=4), seed=0)
    vols, _, _ = phantom_dataset(2, extents=(32,) * 3, base_seed=200)
    for k, rep in enumerate(sr_train(state, list(vols), 2)):
        print(f"sr step {k}: {format_sr_report(rep)}")
    print(f"sr parameter_hash: {state.store.parameter_hash()}")
    print(f"sr_save file: {file_digest(lambda path: sr_save(state, path))}")


def inference_lines(res: int) -> None:
    rng = np.random.default_rng(res)
    nets = build_model_set(desk_config(full_resolution=res), rng)
    vol = phantom_dataset(1, extents=(res,) * 3, base_seed=300)[0][0]
    gen = generate_full(nets, rng.standard_normal(nets.cfg.latent_dim).astype(np.float32))
    print(f"generate_full {res}: {digest([gen])}")
    if res == 64:
        print(f"volume_write file {res}: {file_digest(lambda path: volume_write(path, gen))}")
    print(f"encode_full {res}: {digest([encode_full(nets, vol).z])}")
    print(f"extract_one {res}: {digest([FixedExtractor(input_res=res).extract_one(gen)])}")
    state = build_sr(SRConfig(hr_resolution=res), seed=res)
    for name, p in state.store.params.items():
        if name.startswith("sr_g/res/"):
            p.data[...] = rng.standard_normal(p.data.shape) * 0.1
    print(f"sr_infer {res}: {digest([sr_infer(state, degrade(vol, 0.05, rng))])}")


def main() -> None:
    train_lines(32)
    state, vols = train_lines(64)
    print(f"save_checkpoint file 64: {file_digest(lambda path: save_checkpoint(state, path))}")
    eval_logits(state, vols[0])
    sr_lines()
    for res in (64, 128):
        inference_lines(res)


if __name__ == "__main__":
    main()
