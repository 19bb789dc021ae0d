"""Volume file format, run configuration, CLI plumbing and exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from conftest import HalfWrite, pack_container, pack_entry
from slabgan import volio
from slabgan.cli import main
from slabgan.config import (ConfigError, RunConfig, build_fingerprint,
                            load_run_config, parse_config_file)
from slabgan.memory import analytic_memory, resolution_sweep
from slabgan.networks import desk_config
from slabgan.inference import reconstruct
from slabgan.training import init_train_state, load_checkpoint, save_checkpoint
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
        path = tmp_path / "v.hagv"
        header = b'{"kind": "volume"}'
        path.write_bytes(pack_container(header, pack_entry("volume", 0, (4, 4, 4), bytes(256))))
        assert np.array_equal(volume_read(path), np.zeros((4, 4, 4), np.float32))
        short = bytes(4 * 4 * 3 * 4)             # one slice short
        path.write_bytes(pack_container(header, pack_entry("volume", 0, (4, 4, 4), short)))
        with pytest.raises(VolumeFormatError, match="extents"):
            volume_read(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "v.hagv"
        path.write_bytes(pack_container(b'{"kind": "volume"}',
                                        pack_entry("volume", 9, (4, 4, 4), bytes(256))))
        with pytest.raises(VolumeFormatError, match="dtype"):
            volume_read(path)

    def test_failed_write_keeps_previous(self, tmp_path, monkeypatch):
        path = tmp_path / "v.hagv"
        vol = np.random.default_rng(1).uniform(-1, 1, (4, 5, 6)).astype(np.float32)
        volume_write(path, vol)
        monkeypatch.setattr(volio, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            volume_write(path, vol + 1)
        monkeypatch.undo()
        assert np.array_equal(volume_read(path), vol)


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

    def test_retired_sr_factor_key_rejected(self, tmp_path):
        """Super-resolution runs at factor 2 only; the old key is unknown."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("sr_factor = 2\n")
        with pytest.raises(ConfigError, match="unknown key 'sr_factor'"):
            parse_config_file(cfgfile)

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

    def test_phantoms_stream_equals_dataset(self, tmp_path):
        """The streamed files are byte-identical to phantom_dataset's output."""
        from slabgan.phantoms import phantom_dataset
        out = tmp_path / "ph"
        assert main(["phantoms", "--n", "6", "--seed", "9", "--resolution", "16",
                     "--out", str(out)]) == 0
        vols, labels, recs = phantom_dataset(6, extents=(16, 16, 16), base_seed=9)
        rows = ["name\tclass\tbody\torgan\tlesions\torgan_factor\tlesion_count"]
        for i, (v, y, ph) in enumerate(zip(vols, labels, recs)):
            name = f"phantom_{i:04d}.hagv"
            volume_write(tmp_path / "ref.hagv", v)
            assert (out / name).read_bytes() == (tmp_path / "ref.hagv").read_bytes()
            rows.append(f"{name}\t{y}\t{ph.volumes['body']}\t{ph.volumes['organ']}\t"
                        f"{ph.volumes['lesions']}\t{ph.organ_factor:.6f}\t{ph.lesion_count}")
        assert (out / "labels.tsv").read_text() == "\n".join(rows) + "\n"

    def test_phantoms_empty_dataset_is_usage_error(self, tmp_path):
        assert main(["phantoms", "--n", "0", "--seed", "1", "--out", str(tmp_path / "ph")]) == 1

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

    def test_memsim_uses_batch_size(self, capsys):
        """``--batch-size`` reaches the report and the sweep; the command
        used to print the batch-2 peak whatever the flag said."""
        cfg = desk_config(full_resolution=32)
        peak1 = analytic_memory(cfg, "train_amortized", batch_size=1).peak_total
        assert peak1 != analytic_memory(cfg, "train_amortized", batch_size=2).peak_total

        def run(*argv):
            assert main(["memsim", "--resolution", "32", "--batch-size", "1", *argv]) == 0
            return capsys.readouterr().out.splitlines()

        report = dict(line.split("\t") for line in run()[1:])
        assert int(report["peak_total"]) == peak1
        row = run("--sweep", "32")[-1].split("\t")
        assert int(row[2]) == resolution_sweep(cfg, [32], batch_size=1)[0][0]["train_peak_bytes"]


@pytest.mark.slow
class TestReconstructConditional:
    """``reconstruct`` with a class-conditional checkpoint decodes each volume
    as the class ``labels.tsv`` in the input directory gives it."""

    LABELS = {"a.hagv": 2, "b.hagv": 0, "c.hagv": 1}

    @pytest.fixture
    def setup(self, tmp_path):
        cfg = desk_config(num_classes=3, full_resolution=32, latent_dim=16, base_channels=4)
        ck = tmp_path / "checkpoint.bin"
        save_checkpoint(init_train_state(cfg, seed=4), ck)
        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(5)
        for name in self.LABELS:
            volume_write(data / name, rng.uniform(-1, 1, (32,) * 3).astype(np.float32))
        return ck, data

    @staticmethod
    def _write_labels(data, labels):
        with open(data / "labels.tsv", "w") as f:
            f.write("name\tclass\n")
            for name, c in labels.items():
                f.write(f"{name}\t{c}\n")

    def test_each_volume_decoded_with_its_label(self, setup, tmp_path):
        ck, data = setup
        self._write_labels(data, self.LABELS)
        out = tmp_path / "rec"
        assert main(["reconstruct", "--checkpoint", str(ck), "--in", str(data),
                     "--out", str(out)]) == 0
        nets = load_checkpoint(ck).nets
        for name, c in self.LABELS.items():
            expect = reconstruct(nets, volume_read(data / name), c=c)
            got = volume_read(out / name.replace(".hagv", "_rec.hagv"))
            assert np.array_equal(got, expect.reshape(got.shape))

    def test_missing_labels_file_exit_1(self, setup, tmp_path, capsys):
        ck, data = setup
        assert main(["reconstruct", "--checkpoint", str(ck), "--in", str(data),
                     "--out", str(tmp_path / "rec")]) == 1
        assert "labels.tsv" in capsys.readouterr().err

    def test_volume_missing_from_labels_exit_1(self, setup, tmp_path, capsys):
        ck, data = setup
        self._write_labels(data, {"a.hagv": 2, "b.hagv": 0})
        assert main(["reconstruct", "--checkpoint", str(ck), "--in", str(data),
                     "--out", str(tmp_path / "rec")]) == 1
        assert "c.hagv" in capsys.readouterr().err

    def test_class_outside_model_exit_1(self, setup, tmp_path, capsys):
        ck, data = setup
        self._write_labels(data, dict(self.LABELS, **{"c.hagv": 3}))
        assert main(["reconstruct", "--checkpoint", str(ck), "--in", str(data),
                     "--out", str(tmp_path / "rec")]) == 1
        assert "[3]" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()


class TestTrainLabels:
    """``train --data`` reads ``labels.tsv`` only for a conditional model, and
    there a volume without a row is a usage error that names it."""

    ARGS = ["train", "--seed", "3", "--steps", "1", "--resolution", "32",
            "--latent-dim", "16", "--base-channels", "4"]

    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "data"
        assert main(["phantoms", "--n", "3", "--seed", "2", "--resolution", "32",
                     "--out", str(data)]) == 0
        rows = (data / "labels.tsv").read_text().splitlines()
        (data / "labels.tsv").write_text("\n".join(rows[:-1]) + "\n")
        return data

    def test_unconditional_ignores_labels(self, data, tmp_path):
        assert main(self.ARGS + ["--data", str(data), "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "checkpoint.bin").exists()

    def test_conditional_volume_missing_from_labels_exit_1(self, data, tmp_path, capsys):
        assert main(self.ARGS + ["--num-classes", "5", "--data", str(data),
                                 "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "phantom_0002.hagv" in err and "phantom_0001.hagv" not in err


class TestFitDirection:
    """``fit-direction`` with a name that ``--targets`` has no row for, or a
    column it lacks, is a usage error that names them."""

    @pytest.fixture
    def latents(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        args = ["--resolution", "32", "--latent-dim", "16", "--base-channels", "4"]
        assert main(["phantoms", "--n", "3", "--seed", "2", "--out", str(data)] + args) == 0
        assert main(["train", "--seed", "3", "--steps", "1", "--data", str(data),
                     "--out", str(run)] + args) == 0
        latents = tmp_path / "latents.tsv"
        assert main(["encode", "--checkpoint", str(run / "checkpoint.bin"),
                     "--in", str(data), "--out", str(latents)]) == 0
        return latents, data / "labels.tsv"

    def fit(self, latents, targets, column):
        return main(["fit-direction", "--latents", str(latents), "--targets", str(targets),
                     "--target-column", column, "--ridge", "1.0",
                     "--out", str(latents.parent / "d.json")])

    def test_name_missing_from_targets_exit_1(self, latents, capsys):
        latents, labels = latents
        rows = labels.read_text().splitlines()
        labels.write_text("\n".join(rows[:-1]) + "\n")
        assert self.fit(latents, labels, "organ") == 1
        err = capsys.readouterr().err
        assert "phantom_0002.hagv" in err and "phantom_0001.hagv" not in err

    def test_unknown_column_exit_1(self, latents, capsys):
        latents, labels = latents
        assert self.fit(latents, labels, "nope") == 1
        assert "nope" in capsys.readouterr().err
        assert self.fit(latents, labels, "organ") == 0


class TestNumClasses:
    """A label that is not a class of the model is a usage error at set-up,
    before any step, naming the class."""

    ARGS = ["--seed", "3", "--resolution", "32", "--latent-dim", "16",
            "--base-channels", "4", "--num-classes", "3", "--batch-size", "5"]

    def test_phantom_labels(self, tmp_path, capsys):
        assert main(["train", "--n-phantoms", "5", "--steps", "2",
                     "--out", str(tmp_path / "run")] + self.ARGS) == 1
        assert "[3, 4]" in capsys.readouterr().err
        assert not (tmp_path / "run" / "run.log").exists()

    def test_labels_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["phantoms", "--n", "5", "--seed", "2", "--resolution", "32",
                     "--out", str(data)]) == 0
        assert main(["train", "--steps", "2", "--data", str(data),
                     "--out", str(tmp_path / "run")] + self.ARGS) == 1
        assert "[3, 4]" in capsys.readouterr().err
        assert not (tmp_path / "run" / "run.log").exists()

    def test_augment_study(self, tmp_path, capsys):
        cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4, num_classes=3)
        ck = tmp_path / "ck.bin"
        save_checkpoint(init_train_state(cfg, seed=1), ck)
        assert main(["augment-study", "--checkpoint", str(ck), "--seed", "1",
                     "--n-train", "5", "--n-test", "1", "--classifier-steps", "1"]) == 1
        assert "[3, 4]" in capsys.readouterr().err


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
        # the manifests echo the model's stored config beside the run config
        stored = asdict(load_checkpoint(ck).cfg)
        assert stored["full_resolution"] == 32 and stored["latent_dim"] == 16
        manifest = json.loads((gen / "manifest.json").read_text())
        assert manifest["checkpoint_config"] == stored
        assert manifest["config"]["full_resolution"] == 64

        latents = tmp_path / "latents.tsv"
        assert main(["encode", "--checkpoint", str(ck), "--in", str(data),
                     "--out", str(latents)]) == 0
        rows = latents.read_text().strip().splitlines()
        assert len(rows) == 2 + 8               # header comment + colnames + 8
        assert json.loads(rows[0][2:])["checkpoint_config"] == stored

        assert main(["reconstruct", "--checkpoint", str(ck), "--in", str(gen),
                     "--out", str(rec)]) == 0
        assert len([n for n in os.listdir(rec) if n.endswith(".hagv")]) == 4
        assert json.loads((rec / "manifest.json").read_text())["checkpoint_config"] == stored

        assert main(["interpolate", "--checkpoint", str(ck), "--seed", "10",
                     "--n", "3", "--out", str(tmp_path / "interp")]) == 0
        manifest = json.loads((tmp_path / "interp" / "manifest.json").read_text())
        assert manifest["checkpoint_config"] == stored

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
        header = json.loads(text.splitlines()[0][2:])
        assert header["checkpoint_config"]["hr_resolution"] == 32
        assert header["config"]["full_resolution"] == 64
