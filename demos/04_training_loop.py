"""A short end-to-end training run on phantoms (miniature scale).

Each step alternates four phases: discriminators, generators, slab
encoder, global encoder. One depth-window draw per batch feeds both the
generator-side selector and the real-data selector. Runs ~1 minute.
"""

import os
import tempfile

import numpy as np

from slabgan.networks import desk_config
from slabgan.phantoms import phantom_dataset
from slabgan.training import (format_report, init_train_state, load_checkpoint,
                              save_checkpoint, train_step)

cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4)
vols, labels, _ = phantom_dataset(24, extents=(32, 32, 32), base_seed=50)
state = init_train_state(cfg, seed=7)

print(f"networks hold {state.store.total_parameters():,} parameters")
for step in range(60):
    idx = state.rng.choice(len(vols), size=2, replace=False)
    rep = train_step(state, [vols[i] for i in idx])
    if step % 10 == 0:
        print(format_report(rep))

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "slabgan_demo.ckpt")
    save_checkpoint(state, path)
    print("saved checkpoint")

    # bit-exact resume: one more step now equals one more step after reload
    direct = format_report(train_step(state, [vols[0], vols[1]]))
    restored = load_checkpoint(path)
    resumed = format_report(train_step(restored, [vols[0], vols[1]]))
print(f"resume reproduces the next step bitwise: {direct == resumed}")

# update isolation: the slab-encoder phase touches only e_h parameters
groups = ("g_a/", "g_l/", "g_h/", "d_l/", "d_h/", "e_h/", "e_g/")
before = {g: state.store.parameter_hash(g) for g in groups}
train_step(state, [vols[2], vols[3]], phases=("eh",))
after = {g: state.store.parameter_hash(g) for g in groups}
for g in groups:
    print(f"phase 'eh' changed {g:5s}: {before[g] != after[g]}")
