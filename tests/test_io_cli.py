"""Volume file format, run configuration, CLI plumbing and exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from slabgan.cli import main
from slabgan.config import (ConfigError, RunConfig, build_fingerprint,
                            load_run_config, parse_config_file)
from slabgan.networks import desk_config
from slabgan.training import init_train_state, save_checkpoint
from slabgan.volio import VolumeFormatError, volume_read, volume_write


class TestVolumeFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        vol = np.random.default_rng(0).uniform(-1, 1, (6, 7, 8)).astype(np.float32)
        path = tmp_path / "v.hagv"
        volume_write(path, vol)
        assert np.array_equal(volume_read(path), vol)

    def test_channel_axis_squeezed(self, tmp_path):
        vol = np.zeros((1, 4, 4, 4), np.float32)
        path = tmp_path / "v.hagv"
        volume_write(path, vol)
        assert volume_read(path).shape == (4, 4, 4)

    def test_truncation_fails_checksum(self, tmp_path):
        path = tmp_path / "v.hagv"
        volume_write(path, np.zeros((4, 4, 4), np.float32))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(VolumeFormatError, match="checksum"):
            volume_read(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.hagv"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(VolumeFormatError, match="magic"):
            volume_read(path)

    def test_extent_payload_mismatch(self, tmp_path):
        import struct
        import zlib
        path = tmp_path / "v.hagv"
        header = b"HAGV" + struct.pack("<H3IB", 1, 4, 4, 4, 0)
        payload = b"\x00" * (4 * 4 * 3 * 4)      # one slice short
        blob = header + payload
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(VolumeFormatError, match="extents"):
            volume_read(path)


class TestRunConfig:
    def test_parse_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# comment\nfull_resolution = 32\nsteps= 10\nsaturating_gan = true\n")
        cfg = load_run_config(cfgfile, {"steps": 20, "seed": 3})
        assert cfg.full_resolution == 32
        assert cfg.steps == 20                 # flag overrides file
        assert cfg.saturating_gan is True
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(cfgfile)

    def test_bad_value_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("steps = soon\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(cfgfile)

    def test_env_out_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLABGAN_OUT", str(tmp_path / "envout"))
        cfg = load_run_config(None, {})
        assert cfg.out_dir.endswith("envout")

    def test_fingerprint_stable(self):
        assert build_fingerprint() == build_fingerprint()
        assert len(build_fingerprint()) == 12

    def test_derived_configs(self):
        rc = RunConfig(full_resolution=64, num_classes=5)
        assert rc.net_config().num_classes == 5
        assert rc.sr_config().hr_resolution == 64
        assert rc.loss_weights().lambda1 == 5.0


class TestCLI:
    def test_usage_error_exit_1(self):
        proc = subprocess.run([sys.executable, "-m", "slabgan.cli", "generate"],
                              capture_output=True)
        assert proc.returncode == 1

    def test_unknown_command_exit_1(self):
        proc = subprocess.run([sys.executable, "-m", "slabgan.cli", "frobnicate"],
                              capture_output=True)
        assert proc.returncode == 1

    def test_runtime_error_exit_2(self, tmp_path):
        rc = main(["generate", "--checkpoint", str(tmp_path / "missing.bin"),
                   "--seed", "1", "--out", str(tmp_path / "o"), "--n", "1"])
        assert rc == 2

    def test_class_out_of_range_exit_2(self, tmp_path):
        cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4, num_classes=5)
        ck = tmp_path / "ck.bin"
        save_checkpoint(init_train_state(cfg, seed=1), ck)
        rc = main(["generate", "--checkpoint", str(ck), "--class", "7", "--seed", "1",
                   "--out", str(tmp_path / "o"), "--n", "1"])
        assert rc == 2

    @pytest.mark.parametrize("cls,code", [(None, 0), ("7", 2)])
    def test_conditional_interpolate(self, tmp_path, cls, code):
        cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4, num_classes=5)
        ck = tmp_path / "ck.bin"
        save_checkpoint(init_train_state(cfg, seed=1), ck)
        args = ["interpolate", "--checkpoint", str(ck), "--seed", "1",
                "--out", str(tmp_path / "o"), "--n", "2"]
        assert main(args + (["--class", cls] if cls else [])) == code

    @pytest.mark.parametrize("metric", ["ssim", "psnr", "nmse", "dice", "fid,dice"])
    def test_eval_paired_metric_count_mismatch_exit_1(self, tmp_path, capsys, metric):
        rng = np.random.default_rng(3)
        for name, n in (("real", 3), ("fake", 1)):
            (tmp_path / name).mkdir()
            for i in range(n):
                volume_write(tmp_path / name / f"v{i}.hagv",
                             rng.uniform(-1, 1, (16, 16, 16)).astype(np.float32))
        args = ["eval", "--real", str(tmp_path / "real"), "--seed", "1", "--metric", metric]
        assert main(args + ["--fake", str(tmp_path / "fake")]) == 1
        assert "3 real, 1 fake" in capsys.readouterr().err
        assert main(args + ["--fake", str(tmp_path / "real")]) == 0

    def test_phantoms_writes_volumes_and_manifest(self, tmp_path):
        out = tmp_path / "ph"
        rc = main(["phantoms", "--n", "4", "--seed", "5", "--resolution", "32",
                   "--out", str(out)])
        assert rc == 0
        names = sorted(os.listdir(out))
        assert "labels.tsv" in names and "manifest.json" in names
        vols = [n for n in names if n.endswith(".hagv")]
        assert len(vols) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["full_resolution"] == 32
        assert "fingerprint" in manifest
        v = volume_read(out / vols[0])
        assert v.shape == (32, 32, 32)

    def test_memsim_emits_report(self, capsys):
        rc = main(["memsim", "--resolution", "64", "--multiplier", "0.125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak_total" in out and "params_bytes" in out

    def test_memsim_sweep(self, capsys):
        rc = main(["memsim", "--sweep", "32,64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3 and "resolution" in out


@pytest.mark.slow
class TestCLIPipeline:
    """Miniature end-to-end pass through the main subcommands."""

    def test_train_generate_encode_eval(self, tmp_path, capsys):
        data = tmp_path / "data"
        run = tmp_path / "run"
        gen = tmp_path / "gen"
        rec = tmp_path / "rec"
        args = ["--resolution", "32", "--latent-dim", "16", "--base-channels", "4"]
        assert main(["phantoms", "--n", "8", "--seed", "7", "--out", str(data)]
                    + args) == 0
        assert main(["train", "--seed", "8", "--steps", "6", "--out", str(run),
                     "--data", str(data)] + args) == 0
        ck = run / "checkpoint.bin"
        assert ck.exists()
        log_lines = (run / "run.log").read_text().strip().splitlines()
        assert len(log_lines) == 7              # header + 6 steps
        assert json.loads(log_lines[1])["step"] == 0

        assert main(["generate", "--checkpoint", str(ck), "--n", "4",
                     "--seed", "9", "--out", str(gen)]) == 0
        assert len([n for n in os.listdir(gen) if n.endswith(".hagv")]) == 4

        latents = tmp_path / "latents.tsv"
        assert main(["encode", "--checkpoint", str(ck), "--in", str(data),
                     "--out", str(latents)]) == 0
        rows = latents.read_text().strip().splitlines()
        assert len(rows) == 2 + 8               # header comment + colnames + 8

        assert main(["reconstruct", "--checkpoint", str(ck), "--in", str(gen),
                     "--out", str(rec)]) == 0
        assert len([n for n in os.listdir(rec) if n.endswith(".hagv")]) == 4

        assert main(["interpolate", "--checkpoint", str(ck), "--seed", "10",
                     "--n", "3", "--out", str(tmp_path / "interp")]) == 0

        direction = tmp_path / "dir.json"
        assert main(["fit-direction", "--latents", str(latents),
                     "--targets", str(data / "labels.tsv"),
                     "--target-column", "organ", "--ridge", "1.0",
                     "--out", str(direction)]) == 0
        payload = json.loads(direction.read_text())
        assert len(payload["w"]) == 16

        assert main(["eval", "--real", str(data), "--fake", str(gen),
                     "--metric", "fid,mmd,ks", "--seed", "11",
                     "--out", str(tmp_path / "metrics.tsv")]) == 0
        text = (tmp_path / "metrics.tsv").read_text()
        assert "fid" in text and "mmd" in text and "ks_p" in text

    def test_sr_train_and_eval(self, tmp_path):
        run = tmp_path / "sr"
        assert main(["sr-train", "--seed", "12", "--out", str(run),
                     "--resolution", "32", "--sr-steps", "4",
                     "--sr-subvol-len", "4", "--n-phantoms", "4"]) == 0
        ck = run / "sr_checkpoint.bin"
        assert ck.exists()
        assert main(["sr-eval", "--checkpoint", str(ck), "--seed", "13",
                     "--n", "2", "--out", str(tmp_path / "sr_metrics.tsv")]) == 0
        text = (tmp_path / "sr_metrics.tsv").read_text()
        assert "baseline" in text and "sr" in text and "PSNR" in text
