"""Command-line entry points.

Every stochastic subcommand requires --seed. Exit codes: 0 success,
1 usage error, 2 runtime failure. Run directories get a manifest echoing
the resolved configuration and the build fingerprint; a command that loads
a checkpoint adds the model's stored config as ``checkpoint_config``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import (RunConfig, artifact_header, load_run_config, write_manifest)
from .volio import volume_read, volume_write


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_common(p, seed_required=True):
    p.add_argument("--config", help="run config file (key = value lines)")
    p.add_argument("--seed", type=int, required=seed_required,
                   help="rng seed (required for stochastic commands)")
    p.add_argument("--out", help="output directory or file")


_OVERRIDE_FLAGS = [
    ("--resolution", "full_resolution", int),
    ("--latent-dim", "latent_dim", int),
    ("--base-channels", "base_channels", int),
    ("--multiplier", "subvol_multiplier", float),
    ("--num-classes", "num_classes", int),
    ("--lambda1", "lambda1", float),
    ("--lambda2", "lambda2", float),
    ("--lr-g", "lr_g", float),
    ("--lr-d", "lr_d", float),
    ("--lr-e", "lr_e", float),
    ("--batch-size", "batch_size", int),
    ("--steps", "steps", int),
    ("--sr-steps", "sr_steps", int),
    ("--sr-subvol-len", "sr_subvol_len", int),
    ("--sr-noise-sigma", "sr_noise_sigma", float),
    ("--sr-width", "sr_width", int),
    ("--n-phantoms", "n_phantoms", int),
    ("--phantom-seed", "phantom_seed", int),
]


def _add_overrides(p):
    for flag, dest, typ in _OVERRIDE_FLAGS:
        p.add_argument(flag, dest=dest, type=typ, default=None)
    p.add_argument("--deterministic-r", dest="deterministic_r",
                   action="store_const", const=True, default=None)
    p.add_argument("--saturating-gan", dest="saturating_gan",
                   action="store_const", const=True, default=None)


def _run_config(args) -> RunConfig:
    overrides = {dest: getattr(args, dest, None) for _, dest, _ in _OVERRIDE_FLAGS}
    for k in ("deterministic_r", "saturating_gan"):
        overrides[k] = getattr(args, k, None)
    overrides["seed"] = getattr(args, "seed", None)
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    return load_run_config(getattr(args, "config", None), overrides)


def _ensure_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _load_volume_dir(path):
    names = sorted(n for n in os.listdir(path) if n.endswith(".hagv"))
    if not names:
        raise UsageError(f"no .hagv volumes under {path}")
    return names, [volume_read(os.path.join(path, n)) for n in names]


def _read_labels(path):
    table = {}
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            parts = line.rstrip("\n").split("\t")
            table[parts[0]] = dict(zip(header[1:], parts[1:]))
    return table


def _volume_classes(path, names) -> list:
    """Each volume's class, from ``labels.tsv`` in directory ``path``; a
    missing file or a volume without a row is a UsageError naming them."""
    lab_path = os.path.join(path, "labels.tsv")
    table = _read_labels(lab_path) if os.path.exists(lab_path) else {}
    missing = [n for n in names if n not in table]
    if missing:
        raise UsageError(f"class-conditional model: no class for {missing[:5]} "
                         f"in {lab_path}")
    return [int(table[n]["class"]) for n in names]


def _checkpoint_config(state) -> dict:
    """The loaded checkpoint's stored config, echoed beside the run config."""
    return {"checkpoint_config": asdict(state.cfg)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_phantoms(args) -> int:
    """Write the dataset one phantom at a time, so only one volume is held."""
    from .phantoms import N_CLASSES, phantom_generate
    cfg = _run_config(args)
    if cfg.n_phantoms < 1:
        raise UsageError(f"--n-phantoms must be at least 1, got {cfg.n_phantoms}")
    out = _ensure_out(cfg)
    extents = (cfg.full_resolution,) * 3
    with open(os.path.join(out, "labels.tsv"), "w") as f:
        f.write("name\tclass\tbody\torgan\tlesions\torgan_factor\tlesion_count\n")
        for i in range(cfg.n_phantoms):
            y = i % N_CLASSES
            ph, v = phantom_generate(args.seed + i, y, extents)
            name = f"phantom_{i:04d}.hagv"
            volume_write(os.path.join(out, name), v)
            f.write(f"{name}\t{y}\t{ph.volumes['body']}\t{ph.volumes['organ']}\t"
                    f"{ph.volumes['lesions']}\t{ph.organ_factor:.6f}\t{ph.lesion_count}\n")
    write_manifest(out, cfg, {"n_volumes": cfg.n_phantoms})
    print(f"wrote {cfg.n_phantoms} phantoms to {out}")
    return 0


def _training_data(cfg: RunConfig, args):
    if getattr(args, "data", None):
        names, vols = _load_volume_dir(args.data)
        labels = np.array(_volume_classes(args.data, names)) if cfg.num_classes else None
        return np.stack(vols), labels
    from .phantoms import phantom_dataset
    vols, labels, _ = phantom_dataset(cfg.n_phantoms,
                                      extents=(cfg.full_resolution,) * 3,
                                      base_seed=cfg.phantom_seed)
    return vols, labels


def cmd_train(args) -> int:
    from .training import (init_train_state, save_checkpoint, train_step,
                           format_report)
    cfg = _run_config(args)
    out = _ensure_out(cfg)
    vols, labels = _training_data(cfg, args)
    net_cfg = cfg.net_config()
    state = init_train_state(net_cfg, seed=cfg.seed, weights=cfg.loss_weights(),
                             lr_g=cfg.lr_g, lr_d=cfg.lr_d, lr_e=cfg.lr_e,
                             batch_size=cfg.batch_size,
                             saturating=cfg.saturating_gan,
                             deterministic_r=cfg.deterministic_r,
                             clip_norm=cfg.clip_norm or None)
    log_path = os.path.join(out, "run.log")
    with open(log_path, "w") as log:
        log.write(artifact_header(cfg) + "\n")
        for _ in range(cfg.steps):
            idx = state.rng.choice(len(vols), size=min(cfg.batch_size, len(vols)),
                                   replace=False)
            batch = [vols[i] for i in idx]
            labs = [int(labels[i]) for i in idx] if net_cfg.num_classes else None
            rep = train_step(state, batch, labs)
            log.write(format_report(rep) + "\n")
            if rep["step"] % 100 == 0:
                log.flush()
    save_checkpoint(state, os.path.join(out, "checkpoint.bin"))
    write_manifest(out, cfg, {"final_step": state.step})
    print(f"trained {cfg.steps} steps; run log at {log_path}")
    return 0


def _class_index(args, mc, rng: np.random.Generator) -> int | None:
    """The class to sample: ``--class`` when given, otherwise one drawn from
    ``rng``; None for an unconditional model."""
    if not mc.num_classes:
        return None
    if args.class_index is not None:
        return args.class_index
    return int(rng.integers(0, mc.num_classes))


def cmd_generate(args) -> int:
    from .inference import generate_full
    from .training import load_checkpoint
    cfg = _run_config(args)
    out = _ensure_out(cfg)
    state = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    mc = state.cfg
    for i in range(args.n):
        z = rng.standard_normal(mc.latent_dim).astype(np.float32)
        vol = generate_full(state.nets, z, c=_class_index(args, mc, rng))
        volume_write(os.path.join(out, f"gen_{i:04d}.hagv"), vol)
    write_manifest(out, cfg, {"n_volumes": args.n, "checkpoint": args.checkpoint,
                              **_checkpoint_config(state)})
    print(f"wrote {args.n} volumes to {out}")
    return 0


def cmd_encode(args) -> int:
    from .inference import encode_full
    from .training import load_checkpoint
    cfg = _run_config(args)
    state = load_checkpoint(args.checkpoint)
    names, vols = _load_volume_dir(args.input)
    out_path = args.out or "latents.tsv"
    with open(out_path, "w") as f:
        f.write("# " + artifact_header(cfg, _checkpoint_config(state)) + "\n")
        f.write("name\t" + "\t".join(f"z{i}" for i in range(state.cfg.latent_dim)) + "\n")
        for name, vol in zip(names, vols):
            code = encode_full(state.nets, vol)
            f.write(name + "\t" + "\t".join(repr(float(v)) for v in code.z) + "\n")
    print(f"encoded {len(names)} volumes to {out_path}")
    return 0


def cmd_reconstruct(args) -> int:
    from .inference import reconstruct
    from .training import load_checkpoint
    cfg = _run_config(args)
    state = load_checkpoint(args.checkpoint)
    names, vols = _load_volume_dir(args.input)
    # a conditional model decodes each volume as the class labels.tsv gives it
    classes = (_volume_classes(args.input, names) if state.cfg.num_classes
               else [None] * len(names))
    out = _ensure_out(cfg)
    for name, vol, c in zip(names, vols, classes):
        rec = reconstruct(state.nets, vol, c=c)
        volume_write(os.path.join(out, name.replace(".hagv", "_rec.hagv")), rec)
    write_manifest(out, cfg, {"n_volumes": len(names), "source": args.input,
                              **_checkpoint_config(state)})
    print(f"reconstructed {len(names)} volumes into {out}")
    return 0


def cmd_interpolate(args) -> int:
    from .inference import interpolate
    from .training import load_checkpoint
    cfg = _run_config(args)
    out = _ensure_out(cfg)
    state = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    mc = state.cfg
    z_a = rng.standard_normal(mc.latent_dim).astype(np.float32)
    z_b = rng.standard_normal(mc.latent_dim).astype(np.float32)
    vols = interpolate(state.nets, z_a, z_b, args.n, c=_class_index(args, mc, rng))
    for i, v in enumerate(vols):
        volume_write(os.path.join(out, f"interp_{i:02d}.hagv"), v)
    write_manifest(out, cfg, {"n_volumes": len(vols), **_checkpoint_config(state)})
    print(f"wrote {len(vols)} interpolation volumes to {out}")
    return 0


def cmd_fit_direction(args) -> int:
    from .inference import fit_direction, r_squared, ridge_predict
    latents, names = [], []
    with open(args.latents) as f:
        for line in f:
            if line.startswith("#") or line.startswith("name\t"):
                continue
            parts = line.rstrip("\n").split("\t")
            names.append(parts[0])
            latents.append([float(v) for v in parts[1:]])
    table = _read_labels(args.targets)
    y = np.array([float(table[n][args.target_column]) for n in names])
    x = np.asarray(latents)
    direction = fit_direction(x, y, target_name=args.target_column,
                              ridge_lambda=args.ridge)
    r2 = r_squared(y, ridge_predict(x, direction.coef, direction.bias))
    payload = {"target": args.target_column, "bias": direction.bias,
               "r2_train": r2, "w": direction.w.tolist(),
               "coef": direction.coef.tolist()}
    out_path = args.out or "direction.json"
    with open(out_path, "w") as f:
        json.dump(payload, f)
    print(f"direction for '{args.target_column}': train R^2 = {r2:.4f} -> {out_path}")
    return 0


def cmd_eval(args) -> int:
    from . import metrics as M
    cfg = _run_config(args)
    _, real = _load_volume_dir(args.real)
    _, fake = _load_volume_dir(args.fake)
    wanted = [m.strip() for m in args.metric.split(",") if m.strip()]
    paired = [m for m in wanted if m in ("ssim", "psnr", "nmse", "dice")]
    if paired and len(real) != len(fake):
        raise UsageError(f"{paired[0]} pairs volumes: {len(real)} real, {len(fake)} fake")
    lines = ["# " + artifact_header(cfg)]
    need_features = {"fid", "mmd"} & set(wanted)
    if need_features:
        ex = M.FixedExtractor(input_res=real[0].shape[0], seed=args.seed)
        fr = ex.extract(real)
        ff = ex.extract(fake)
    for m in wanted:
        if m == "fid":
            rep = M.MetricReport("fid", M.frechet_distance(fr, ff), fr.n, ff.n,
                                 ex.fingerprint)
        elif m == "mmd":
            rep = M.MetricReport("mmd", M.mmd_rbf(fr, ff), fr.n, ff.n, ex.fingerprint)
        elif m in paired:
            fn = (lambda a, b: M.dice(a > 0, b > 0)) if m == "dice" else getattr(M, m)
            vals = [fn(a, b) for a, b in zip(real, fake)]
            rep = M.MetricReport(m, float(np.mean(vals)), len(real), len(fake))
        elif m == "ks":
            stat, p = M.ks_test(np.concatenate([v.ravel() for v in real]),
                                np.concatenate([v.ravel() for v in fake]))
            lines.append(M.MetricReport("ks_stat", stat, len(real), len(fake)).line())
            rep = M.MetricReport("ks_p", p, len(real), len(fake))
        else:
            raise UsageError(f"unknown metric '{m}'")
        lines.append(rep.line())
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_memsim(args) -> int:
    from .memory import analytic_memory, measured_peak, resolution_sweep
    cfg = _run_config(args)
    net_cfg = cfg.net_config()
    if args.sweep:
        resolutions = [int(r) for r in args.sweep.split(",")]
        _, table = resolution_sweep(net_cfg, resolutions, cfg.batch_size)
        print("# " + artifact_header(cfg))
        print(table)
        return 0
    rep = analytic_memory(net_cfg, args.mode, cfg.batch_size)
    print("# " + artifact_header(cfg))
    print(rep.table())
    if args.measured:
        print("# measured")
        print(measured_peak(net_cfg, args.mode, cfg.batch_size, seed=args.seed or 0).table())
    return 0


def cmd_sr_train(args) -> int:
    from .phantoms import phantom_dataset
    from .sr import build_sr, sr_save, sr_train
    cfg = _run_config(args)
    out = _ensure_out(cfg)
    sr_cfg = cfg.sr_config()
    vols, _, _ = phantom_dataset(cfg.n_phantoms, extents=(cfg.full_resolution,) * 3,
                                 base_seed=cfg.phantom_seed)
    state = build_sr(sr_cfg, seed=cfg.seed)
    log_path = os.path.join(out, "sr_run.log")
    with open(log_path, "w") as log:
        log.write(artifact_header(cfg) + "\n")
        sr_train(state, list(vols), cfg.sr_steps, log=log)
    sr_save(state, os.path.join(out, "sr_checkpoint.bin"))
    write_manifest(out, cfg, {"final_step": state.step})
    print(f"SR training done; log at {log_path}")
    return 0


def cmd_sr_eval(args) -> int:
    from . import metrics as M
    from .phantoms import phantom_dataset
    from .sr import degrade, sr_infer, sr_load, upsample2
    cfg = _run_config(args)
    state = sr_load(args.checkpoint)
    vols, _, _ = phantom_dataset(args.n, extents=(state.cfg.hr_resolution,) * 3,
                                 base_seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    rows = ["method\tSSIM\tNMSE(%)\tPSNR"]
    stats = {"sr": [], "baseline": []}
    for v in vols:
        lr = degrade(v, state.cfg.noise_sigma, rng)
        sr = sr_infer(state, lr)[0]
        base = upsample2(lr)
        stats["sr"].append((M.ssim(v, sr), 100 * M.nmse(v, sr), M.psnr(v, sr)))
        stats["baseline"].append((M.ssim(v, base), 100 * M.nmse(v, base), M.psnr(v, base)))
    for name in ("baseline", "sr"):
        a = np.mean(stats[name], axis=0)
        rows.append(f"{name}\t{a[0]:.4f}\t{a[1]:.4f}\t{a[2]:.2f}")
    text = "# " + artifact_header(cfg, _checkpoint_config(state)) + "\n" + "\n".join(rows)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_augment_study(args) -> int:
    from .augment import augment_study, study_table
    from .phantoms import phantom_dataset
    from .training import load_checkpoint
    cfg = _run_config(args)
    state = load_checkpoint(args.checkpoint)
    if not state.cfg.num_classes:
        raise UsageError("augment-study needs a class-conditional checkpoint")
    n_train = args.n_train
    n_test = args.n_test
    vols, labels, _ = phantom_dataset(n_train + n_test,
                                      extents=(state.cfg.full_resolution,) * 3,
                                      base_seed=cfg.phantom_seed)
    result = augment_study(state.cfg, state.nets,
                           vols[:n_train], labels[:n_train],
                           vols[n_train:], labels[n_train:],
                           seed=args.seed,
                           classifier_steps=args.classifier_steps)
    text = "# " + artifact_header(cfg, _checkpoint_config(state)) + "\n" + study_table(result)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
            f.write(json.dumps(result) + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="slabgan",
                description="Memory-amortized volumetric GAN toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantoms", help="generate the synthetic dataset")
    _add_common(sp)
    _add_overrides(sp)
    sp.add_argument("--n", dest="n_phantoms", type=int, default=None,
                    help="alias for --n-phantoms")
    sp.set_defaults(fn=cmd_phantoms)

    sp = sub.add_parser("train", help="train the hierarchical model")
    _add_common(sp)
    _add_overrides(sp)
    sp.add_argument("--data", help="directory of .hagv volumes (default: phantoms)")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("generate", help="sample volumes from a checkpoint")
    _add_common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--class", dest="class_index", type=int, default=None)
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("encode", help="encode volumes to latent codes")
    _add_common(sp, seed_required=False)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--in", dest="input", required=True)
    sp.set_defaults(fn=cmd_encode)

    sp = sub.add_parser("reconstruct", help="encode + decode volumes (a class-conditional "
                        "checkpoint takes each class from labels.tsv in --in)")
    _add_common(sp, seed_required=False)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--in", dest="input", required=True)
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("interpolate", help="walk a latent segment")
    _add_common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--n", type=int, default=5, help="number of steps")
    sp.add_argument("--class", dest="class_index", type=int, default=None)
    sp.set_defaults(fn=cmd_interpolate)

    sp = sub.add_parser("fit-direction", help="least-squares latent direction")
    _add_common(sp, seed_required=False)
    sp.add_argument("--latents", required=True)
    sp.add_argument("--targets", required=True)
    sp.add_argument("--target-column", required=True)
    sp.add_argument("--ridge", type=float, default=None)
    sp.set_defaults(fn=cmd_fit_direction)

    sp = sub.add_parser("eval", help="metrics between two volume sets")
    _add_common(sp)
    sp.add_argument("--real", required=True)
    sp.add_argument("--fake", required=True)
    sp.add_argument("--metric", default="fid,mmd")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("memsim", help="memory reports and sweeps")
    _add_common(sp, seed_required=False)
    _add_overrides(sp)
    sp.add_argument("--mode", default="train_amortized",
                    choices=["train_amortized", "train_full", "inference"])
    sp.add_argument("--measured", action="store_true")
    sp.add_argument("--sweep", help="comma-separated resolutions")
    sp.set_defaults(fn=cmd_memsim)

    sp = sub.add_parser("sr-train", help="train the super-resolution model")
    _add_common(sp)
    _add_overrides(sp)
    sp.set_defaults(fn=cmd_sr_train)

    sp = sub.add_parser("sr-eval", help="SR vs trilinear baseline metrics")
    _add_common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--n", type=int, default=8)
    sp.set_defaults(fn=cmd_sr_eval)

    sp = sub.add_parser("augment-study", help="classifier accuracy with/without GAN data")
    _add_common(sp)
    _add_overrides(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--n-train", type=int, default=100)
    sp.add_argument("--n-test", type=int, default=50)
    sp.add_argument("--classifier-steps", type=int, default=400)
    sp.set_defaults(fn=cmd_augment_study)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
