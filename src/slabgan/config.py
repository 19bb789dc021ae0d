"""Flat run configuration: file format, flag overrides, artifact echo.

Config files are plain text, one ``key = value`` per line; ``#`` starts a
comment and blank lines are skipped. Values are coerced by the field's
type. Command-line flags override file values. The only environment
variable honored anywhere is ``SLABGAN_OUT`` (output directory override).

Every output artifact embeds the resolved config plus a build fingerprint
(a hash over the package sources) so results stay attributable; one made
from a checkpoint also embeds the model's stored config.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

from .networks import NetConfig
from .sr import SRConfig
from .training import LossWeights


@dataclass
class RunConfig:
    # model scale
    full_resolution: int = 64
    latent_dim: int = 64
    base_channels: int = 8
    subvol_multiplier: float = 0.125
    num_classes: int = 0                  # 0 = unconditional
    # losses / optimization
    lambda1: float = 5.0
    lambda2: float = 5.0
    lr_g: float = 1e-4
    lr_d: float = 4e-4
    lr_e: float = 1e-4
    batch_size: int = 2
    steps: int = 2000
    saturating_gan: bool = False
    deterministic_r: bool = False
    clip_norm: float = 0.0                # 0 = off
    # super-resolution (factor 2)
    sr_noise_sigma: float = 0.05
    sr_subvol_len: int = 8
    sr_lambda: float = 1.0
    sr_width: int = 8
    sr_steps: int = 2000
    # data
    n_phantoms: int = 200
    phantom_seed: int = 100
    # bookkeeping
    seed: int = 0
    out_dir: str = "runs/out"

    def net_config(self) -> NetConfig:
        return NetConfig(full_resolution=self.full_resolution,
                         latent_dim=self.latent_dim,
                         base_channels=self.base_channels,
                         subvol_multiplier=self.subvol_multiplier,
                         num_classes=self.num_classes or None).validate()

    def sr_config(self) -> SRConfig:
        return SRConfig(hr_resolution=self.full_resolution,
                        noise_sigma=self.sr_noise_sigma,
                        subvol_len=self.sr_subvol_len,
                        lam=self.sr_lambda,
                        lr_g=self.lr_g, lr_d=self.lr_d,
                        width=self.sr_width,
                        batch_size=self.batch_size).validate()

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2)


class ConfigError(ValueError):
    pass


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(name: str, raw: str, typ):
    raw = raw.strip()
    try:
        if typ is bool:
            return _BOOL[raw.lower()]
        return typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for '{name}': {raw!r} (expected {typ.__name__})")


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into a dict of typed RunConfig fields."""
    types = {f.name: f.type for f in fields(RunConfig)}
    typemap = {"int": int, "float": float, "str": str, "bool": bool}
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            typ = types[key]
            if isinstance(typ, str):
                typ = typemap.get(typ, str)
            out[key] = _coerce(key, raw, typ)
    return out


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    vals = parse_config_file(path) if path else {}
    if overrides:
        vals.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**vals)
    env_out = os.environ.get("SLABGAN_OUT")
    if env_out:
        cfg.out_dir = env_out
    return cfg


def build_fingerprint() -> str:
    """Hash of the installed package sources (short hex, git-style)."""
    pkg_dir = os.path.dirname(__file__)
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as f:
                h.update(name.encode())
                h.update(f.read())
    return h.hexdigest()[:12]


def _echo(cfg: RunConfig, extra: dict | None) -> dict:
    return {"config": asdict(cfg), "fingerprint": build_fingerprint(), **(extra or {})}


def artifact_header(cfg: RunConfig, extra: dict | None = None) -> str:
    """One JSON line echoing the config and build fingerprint, plus ``extra``."""
    return json.dumps(_echo(cfg, extra), sort_keys=True)


def write_manifest(out_dir, cfg: RunConfig, extra: dict | None = None) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(_echo(cfg, extra), f, indent=2, sort_keys=True)
