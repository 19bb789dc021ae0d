"""Super-resolution: degradation protocol, residual identity, slab/full
consistency, loss gradients, training mechanics."""

import tracemalloc

import numpy as np
import pytest

from conftest import gradcheck, sr_disc_input_concat, sr_forward_concat
from slabgan import sr
from slabgan import tensor as T
from slabgan.memory import measured_memory
from slabgan.networks import desk_config
from slabgan.phantoms import phantom_generate
from slabgan.sr import (SR_CONSISTENCY_MARGIN, PairedSample, SRConfig,
                        SRGenerator, build_sr, degrade, l1_norm, make_pairs,
                        sr_infer, sr_load, sr_save, sr_train, sr_train_step,
                        upsample2)
from slabgan.tensor import ShapeError, Tensor, no_grad
from slabgan.training import (CheckpointError, TrainingDiverged, init_train_state,
                              read_checkpoint, save_checkpoint, write_store_checkpoint)


CFG = SRConfig().validate()


class TestDegrade:
    def test_constant_volume(self):
        rng = np.random.default_rng(0)
        out = degrade(np.full((8, 8, 8), 0.25, np.float32), 0.0, rng)
        assert out.shape == (4, 4, 4)
        assert np.allclose(out, 0.25, atol=1e-6)

    def test_halves_extents(self):
        rng = np.random.default_rng(1)
        out = degrade(np.zeros((64, 64, 64), np.float32), 0.05, rng)
        assert out.shape == (32, 32, 32)

    def test_odd_extents_rejected(self):
        with pytest.raises(ShapeError):
            degrade(np.zeros((7, 8, 8), np.float32), 0.0, np.random.default_rng(0))

    def test_noise_attenuation_matches_box_filter(self):
        """The half-resolution samples average 8 voxels, so pure noise of
        std sigma lands at sigma/sqrt(8) (Monte-Carlo against the closed
        form of the averaging filter)."""
        rng = np.random.default_rng(2)
        sigma = 0.05
        resid = []
        for _ in range(30):
            lr = degrade(np.zeros((16, 16, 16), np.float32), sigma, rng)
            resid.append(lr.std())
        measured = float(np.mean(resid))
        predicted = sigma / np.sqrt(8.0)
        assert abs(measured - predicted) / predicted < 0.2

    def test_clipped_range(self):
        rng = np.random.default_rng(3)
        hr = np.full((8, 8, 8), 0.999, np.float32)
        out = degrade(hr, 0.5, rng)
        assert out.max() <= 1.0 and out.min() >= -1.0

    def test_pairs(self):
        rng = np.random.default_rng(4)
        pairs = make_pairs([np.zeros((8, 8, 8), np.float32)], 0.01, rng)
        assert isinstance(pairs[0], PairedSample)
        assert pairs[0].lr.shape == (4, 4, 4)


class TestGenerator:
    def test_residual_identity_at_zero_init(self):
        state = build_sr(CFG, seed=5)
        rng = np.random.default_rng(6)
        lr = rng.uniform(-1, 1, (1, 8, 32, 32)).astype(np.float32)
        with no_grad():
            out = state.gen(Tensor(lr), training=False).data
        assert np.array_equal(out, upsample2(lr))

    def test_window_shape(self):
        state = build_sr(SRConfig(hr_resolution=128, subvol_len=16).validate(), seed=7)
        with no_grad():
            out = state.gen(Tensor(np.zeros((1, 16, 64, 64), np.float32)),
                            training=False)
        assert out.shape == (1, 32, 128, 128)

    def test_residual_path_gradient(self):
        cfg = SRConfig(hr_resolution=16, subvol_len=4, width=2).validate()
        state = build_sr(cfg, seed=8, dtype=np.float64)
        rng = np.random.default_rng(9)
        # give the zero-init head real weights so its gradient is exercised
        for name, p in state.store.params.items():
            if name.startswith("sr_g/res/"):
                p.data[...] = rng.standard_normal(p.data.shape) * 0.2
        lr = rng.uniform(-1, 1, (1, 4, 8, 8))
        names = [n for n in state.store.params if n.startswith("sr_g/")]
        tens = [state.store.params[n] for n in names]
        state.store.train_only("sr_g/")
        out = state.gen(Tensor(lr))
        T.backward(T.tmean(T.square(out)))
        from conftest import finite_difference, rel_err
        for name in ("sr_g/res/conv/weight", "sr_g/head/conv/weight"):
            p = state.store.params[name]
            ana = p.grad.copy()
            base = p.data.copy()

            def f(x, p=p, base=base):
                p.data[...] = x
                with no_grad():
                    val = float(T.tmean(T.square(state.gen(Tensor(lr)))).data)
                p.data[...] = base
                return val
            num = finite_difference(f, base)
            assert rel_err(ana, num) < 1e-4, name
        state.store.zero_grads()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("depth,run", sorted({(d, max(1, d + o)) for d in (1, 2, 3, 5)
                                                  for o in (-1, 0, 1)} | {(5, 1), (5, 2)}))
    def test_fused_base_add_bitwise(self, monkeypatch, dtype, depth, run):
        """Without a tape, forward adds the trilinear base into the residual
        a run of low-resolution depth slices at a time. With non-zero
        residual weights it has the bits of ``T.add(up_res(lr), res)`` for
        runs shorter than, as long as and longer than the volume's depth."""
        cfg = SRConfig(hr_resolution=16, subvol_len=4, width=2).validate()
        state = build_sr(cfg, seed=40, dtype=dtype)
        rng = np.random.default_rng(41)
        for name, p in state.store.params.items():
            if name.startswith("sr_g/res/"):
                p.data[...] = rng.standard_normal(p.data.shape) * 0.2
        lr = Tensor(rng.uniform(-1, 1, (1, depth, 8, 8)).astype(dtype))
        # a run's output is two 16 x 16 slices per low-resolution slice
        monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", run * 2 * 16 * 16 * np.dtype(dtype).itemsize)
        with no_grad():
            got = state.gen(lr, training=False).data
            with monkeypatch.context() as m:
                m.setattr(SRGenerator, "_add_base",
                          lambda gen, x, res: T.add(gen.up_res.forward(x, False), res))
                want = state.gen(lr, training=False).data
        assert got.dtype == dtype and got.shape == (1, 2 * depth, 16, 16)
        assert not np.array_equal(want, upsample2(lr.data))
        assert np.array_equal(got, want)

    def test_slab_full_consistency(self):
        """Slab-trained forward equals the matching crop of the full-volume
        forward outside the documented margin, for every window."""
        state = build_sr(CFG, seed=10)
        rng = np.random.default_rng(11)
        # non-zero residual head so the branch contributes
        w = state.store.params["sr_g/res/conv/weight"]
        w.data[...] = rng.standard_normal(w.data.shape).astype(np.float32) * 0.1
        full_lr = rng.uniform(-1, 1, (1, 32, 32, 32)).astype(np.float32)
        with no_grad():
            full_hr = state.gen(Tensor(full_lr), training=False).data
        L = CFG.subvol_len
        m = 2 * SR_CONSISTENCY_MARGIN
        for r in range(0, 32 - L + 1):
            with no_grad():
                sub = state.gen(Tensor(full_lr[:, r:r + L]), training=False).data
            crop = full_hr[:, 2 * r:2 * (r + L)]
            lo = 0 if r == 0 else m
            hi = sub.shape[1] if r + L == 32 else sub.shape[1] - m
            assert np.array_equal(sub[:, lo:hi], crop[:, lo:hi]), f"r={r}"


class TestSRLoss:
    def test_lambda_default_one(self):
        assert SRConfig().lam == 1.0

    def test_perfect_generator_zero_l1(self):
        rng = np.random.default_rng(13)
        hr = rng.uniform(-1, 1, (1, 8, 32, 32)).astype(np.float32)
        assert l1_norm(Tensor(hr), Tensor(hr.copy())).item() == 0.0
        # unnormalized: a constant offset counts once per voxel
        assert np.isclose(l1_norm(Tensor(hr + 0.5), Tensor(hr)).item(), 0.5 * hr.size)

    def test_gradients_on_toy(self):
        rng = np.random.default_rng(14)
        hr_real = rng.uniform(-1, 1, 8)
        hr_fake = rng.uniform(-1, 1, 8)
        w = rng.standard_normal((1, 8)) * 0.4

        def op(r, f, wt):
            logit = T.dense(f, wt, Tensor(np.zeros(1))).sum()
            from slabgan.training import gan_g_loss, l1_loss
            return T.add(gan_g_loss(logit), l1_loss(f, r))
        assert gradcheck(op, [hr_real, hr_fake, w]) < 1e-4


class TestSRTraining:
    def _pairs(self, n=3, res=32):
        vols = [phantom_generate(50 + i, i % 5, (res,) * 3)[1] for i in range(n)]
        return make_pairs(vols, 0.05, np.random.default_rng(15))

    def test_update_isolation(self):
        cfg = SRConfig(hr_resolution=32, subvol_len=4).validate()
        state = build_sr(cfg, seed=16)
        pairs = self._pairs(res=32)
        hg0 = state.store.parameter_hash("sr_g/")
        hd0 = state.store.parameter_hash("sr_d/")
        sr_train_step(state, pairs[:2])
        assert state.store.parameter_hash("sr_g/") != hg0
        assert state.store.parameter_hash("sr_d/") != hd0

    @pytest.mark.parametrize("bad", ["hr-shape", "hr-nan", "lr-range"])
    def test_bad_volume_rejected(self, bad):
        cfg = SRConfig(hr_resolution=32, subvol_len=4).validate()
        state = build_sr(cfg, seed=19)
        p = self._pairs(n=1, res=32)[0]
        hr, lr = p.hr.copy(), p.lr.copy()
        if bad == "hr-shape":
            hr = hr[:, :16]
        elif bad == "hr-nan":
            hr[1, 2, 3] = np.nan
        else:
            lr = lr * 5.0
        before = state.store.parameter_hash()
        with pytest.raises(ValueError):
            sr_train_step(state, [PairedSample(hr=hr, lr=lr)])
        assert len(T.active_tape()) == 0
        assert state.store.parameter_hash() == before and state.step == 0

    def test_diverged_step_leaves_state_unchanged(self):
        cfg = SRConfig(hr_resolution=32, subvol_len=4).validate()
        state = build_sr(cfg, seed=20)
        state.store.params["sr_g/res/conv/weight"].data.flat[0] = np.nan
        before = state.store.parameter_hash()
        rng_before = state.rng.bit_generator.state
        with pytest.raises(TrainingDiverged):
            sr_train_step(state, self._pairs(n=2, res=32))
        assert state.store.parameter_hash() == before and state.step == 0
        assert state.rng.bit_generator.state == rng_before
        assert len(T.active_tape()) == 0

    def test_losses_finite_and_logged(self):
        cfg = SRConfig(hr_resolution=32, subvol_len=4).validate()
        state = build_sr(cfg, seed=17)
        reports = sr_train(state, [p.hr for p in self._pairs(res=32)], steps=3)
        assert len(reports) == 3
        for rep in reports:
            assert np.isfinite(rep["d"]) and np.isfinite(rep["l1"])

    def test_training_deterministic(self):
        cfg = SRConfig(hr_resolution=32, subvol_len=4).validate()
        vols = [p.hr for p in self._pairs(res=32)]
        from slabgan.sr import format_sr_report
        a = [format_sr_report(r) for r in sr_train(build_sr(cfg, seed=18), vols, 3)]
        b = [format_sr_report(r) for r in sr_train(build_sr(cfg, seed=18), vols, 3)]
        assert a == b

    def test_pairs_match_concat_reference(self, monkeypatch):
        """The decoder conv and the discriminator's first conv read their
        (upsample, skip) and (upsampled LR, HR) pairs as channels without a
        concat. Three steps log the same reports and leave the same
        parameters and inference output, bit for bit, as the same steps run
        through ``tensor.concat``."""
        cfg = SRConfig(hr_resolution=32, subvol_len=4).validate()
        vols = [p.hr for p in self._pairs(res=32)]
        lr = np.random.default_rng(27).uniform(-1, 1, (16, 16, 16)).astype(np.float32)

        def run():
            state = build_sr(cfg, seed=28)
            reports = [sr.format_sr_report(r) for r in sr_train(state, vols, 3)]
            return reports, state.store.parameter_hash(), sr_infer(state, lr)

        reports, phash, out = run()
        monkeypatch.setattr(sr, "_disc_input", sr_disc_input_concat)
        monkeypatch.setattr(SRGenerator, "__call__", sr_forward_concat)
        want_reports, want_hash, want_out = run()
        assert reports == want_reports
        assert phash == want_hash
        assert np.array_equal(out, want_out)


class TestSRInfer:
    def test_factor_two_full_volume(self):
        state = build_sr(CFG, seed=19)
        out = sr_infer(state, np.zeros((32, 32, 32), np.float32))
        assert out.shape == (1, 64, 64, 64)

    def test_single_forward_pass(self, monkeypatch):
        """Whole-volume inference is one network application (no patches)."""
        state = build_sr(CFG, seed=20)
        calls = []
        call = SRGenerator.__call__

        def counted(gen, *args, **kw):
            calls.append(args[0].shape)
            return call(gen, *args, **kw)
        monkeypatch.setattr(SRGenerator, "__call__", counted)
        sr_infer(state, np.zeros((32, 32, 32), np.float32))
        assert calls == [(1, 32, 32, 32)]

    def test_decoder_pair_payload(self):
        """At hr 64 the payload peaks at the decoder conv, 2.625 MiB: it
        reads the 0.5 MiB encoder output through its upsample plans and the
        1 MiB skip, and holds them with its 1 MiB output and the 0.125 MiB
        input volume. The tail adds the trilinear base into the 1 MiB
        residual in place, so neither the base nor the sum is payload; the
        final add of the two peaked at 3.125 MiB. Building the 2 MiB
        upsample peaked at 4.125 MiB, and building the 3 MiB concat beside
        it at 6.625 MiB."""
        state = build_sr(CFG, seed=29)
        lr = np.random.default_rng(30).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        peak = measured_memory(lambda: sr_infer(state, lr)).peak_total
        assert peak <= 2.625 * 2 ** 20, f"payload peak {peak / 2 ** 20:.3f} MiB"

    def test_traced_peak_at_128(self):
        """At hr 128 the traced peak (payload and op workspace) is set by
        the decoder conv, 21.5 MiB. The tail resamples the trilinear base a
        run of depth slices at a time and adds each run into the 8 MiB
        residual; the whole base with its resample's intermediate and tap
        products, then the sum beside it, peaked at 28.0 MiB. Building the
        16 MiB upsample of the encoder output peaked at 40.1 MiB."""
        state = build_sr(SRConfig(hr_resolution=128).validate(), seed=29)
        lr = np.random.default_rng(30).uniform(-1, 1, (64,) * 3).astype(np.float32)
        tracemalloc.start()
        try:
            out = sr_infer(state, lr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 128, 128, 128)
        assert peak < 22.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"

    def test_deterministic(self):
        state = build_sr(CFG, seed=21)
        lr = np.random.default_rng(22).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        assert np.array_equal(sr_infer(state, lr), sr_infer(state, lr))

    @pytest.mark.parametrize("bad,error", [("nan", ValueError), ("shape", ShapeError),
                                           ("range", ValueError)])
    def test_bad_volume_rejected(self, bad, error, monkeypatch):
        """A volume that is not a finite lr-resolution volume in [-1, 1] is
        rejected before the generator runs: one NaN voxel would otherwise
        spread to thousands of output voxels."""
        state = build_sr(CFG, seed=25)
        lr = np.random.default_rng(26).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        if bad == "nan":
            lr[3, 4, 5] = np.nan
        elif bad == "shape":
            lr = lr[:20, :20, :20]
        else:
            lr[0, 0, 0] = 5.0
        monkeypatch.setattr(SRGenerator, "__call__", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(error):
            sr_infer(state, lr)

    def test_checkpoint_roundtrip(self, tmp_path):
        cfg = SRConfig(hr_resolution=32, subvol_len=4).validate()
        state = build_sr(cfg, seed=23)
        vols = [phantom_generate(60 + i, i % 5, (32,) * 3)[1] for i in range(3)]
        sr_train(state, vols, steps=2)
        path = tmp_path / "sr.bin"
        sr_save(state, path)
        restored = sr_load(path)
        lr = degrade(vols[0], cfg.noise_sigma, np.random.default_rng(24))
        assert np.array_equal(sr_infer(state, lr), sr_infer(restored, lr))


class TestSRCheckpointFaults:
    @pytest.fixture
    def sr_path(self, tmp_path):
        path = tmp_path / "sr.bin"
        sr_save(build_sr(SRConfig(hr_resolution=32, subvol_len=4).validate(), seed=25), path)
        return path

    def test_corrupt_header_fails_checksum(self, sr_path):
        raw = bytearray(sr_path.read_bytes())
        raw[12] ^= 0xFF                      # inside the JSON header
        sr_path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            sr_load(sr_path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "notes.json"
        path.write_text('{"kind": "sr"}')
        with pytest.raises(CheckpointError, match="magic"):
            sr_load(path)

    @pytest.mark.parametrize("extra, loads", [({"sr_factor": 2}, True),
                                              ({"sr_factor": 4}, False),
                                              ({"bogus": 1}, False)])
    def test_retired_config_key(self, sr_path, extra, loads):
        """Older checkpoints store the retired ``sr_factor`` as 2; that loads,
        while any other value or unknown key is a CheckpointError."""
        state = sr_load(sr_path)
        header, _ = read_checkpoint(sr_path, "sr")
        header["config"].update(extra)
        write_store_checkpoint(sr_path, state.store, header)
        if not loads:
            with pytest.raises(CheckpointError, match=next(iter(extra))):
                sr_load(sr_path)
            return
        restored = sr_load(sr_path)
        assert restored.cfg == state.cfg
        assert restored.store.parameter_hash() == state.store.parameter_hash()

    def test_gan_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "gan.bin"
        cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4)
        save_checkpoint(init_train_state(cfg, seed=26), path)
        with pytest.raises(CheckpointError, match="kind"):
            sr_load(path)


class TestSRConfigValidation:
    def test_only_factor_two(self):
        """The factor is fixed at 2: the LR grid is half the HR grid, and no
        config field can ask for another."""
        assert SRConfig(hr_resolution=64).validate().lr_resolution == 32
        with pytest.raises(TypeError):
            SRConfig(sr_factor=4)

    def test_subvol_len_bounds(self):
        with pytest.raises(ValueError):
            SRConfig(hr_resolution=32, subvol_len=64).validate()
