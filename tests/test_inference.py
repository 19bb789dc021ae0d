"""Full-volume generation/encoding, latent analysis, ridge probes."""

import tracemalloc

import numpy as np
import pytest

from slabgan import tensor as T
from slabgan.inference import (LatentCode, LatentDirection, encode_full,
                               fit_direction, generate_full, interpolate,
                               r_squared, reconstruct, ridge_fit,
                               ridge_predict, traverse)
from slabgan.networks import build_model_set, desk_config
from slabgan.tensor import METER, ShapeError, Tensor, no_grad


@pytest.fixture(scope="module")
def nets():
    return build_model_set(desk_config(), np.random.default_rng(1))


@pytest.fixture(scope="module")
def z64():
    return np.random.default_rng(2).standard_normal(64).astype(np.float32)


class TestGenerateFull:
    def test_shape_and_range(self, nets, z64):
        vol = generate_full(nets, z64)
        assert vol.shape == (1, 64, 64, 64)
        assert np.abs(vol).max() < 1.0          # tanh output

    def test_deterministic(self, nets, z64):
        a = generate_full(nets, z64)
        b = generate_full(nets, z64)
        assert np.array_equal(a, b)

    def test_no_gradient_bytes(self, nets, z64):
        import gc
        gc.collect()
        METER.reset_peak()
        before = METER.grad_bytes
        generate_full(nets, z64)
        assert METER.grad_bytes == before == 0

    def test_low_resolution_head(self, nets, z64):
        """The low-resolution head decodes the same trunk output A as the
        high-resolution one ``generate_full`` returns."""
        with no_grad():
            a = nets.g_a(nets.latent_input(Tensor(z64), None), training=False)
            high = nets.g_h(a, training=False).data
            low = nets.g_l(a, training=False).data
        assert np.array_equal(high, generate_full(nets, z64))
        assert low.shape == (1, 16, 16, 16)

    def test_latent_length_checked(self, nets):
        with pytest.raises(ShapeError):
            generate_full(nets, np.zeros(32, np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("call", ["generate", "interpolate", "traverse"])
    def test_non_finite_latent_rejected(self, nets, z64, monkeypatch, bad, call):
        """A NaN or inf latent entry raises ValueError before any network
        runs (a network call would raise TypeError here)."""
        z = z64.copy()
        z[3] = bad
        monkeypatch.setattr(nets, "g_a", None)
        with pytest.raises(ValueError, match="non-finite"):
            if call == "generate":
                generate_full(nets, z)
            elif call == "interpolate":
                interpolate(nets, z64, z, steps=2)
            else:
                w = np.eye(64)[0]
                traverse(nets, z, LatentDirection(w=w, coef=w, bias=0.0), offsets=[0.0])

    @pytest.mark.slow
    def test_full_resolution_256_fits(self):
        """The paper's 256^3 at desk widths decodes within 1 GB of traced
        memory; a one-shot im2col of the last g_h conv alone is 7.2 GB."""
        cfg = desk_config(full_resolution=256, base_channels=8)
        big = build_model_set(cfg, np.random.default_rng(3))
        z = np.random.default_rng(4).standard_normal(cfg.latent_dim).astype(np.float32)
        tracemalloc.start()
        try:
            vol = generate_full(big, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vol.shape == (1, 256, 256, 256)
        assert np.all(np.isfinite(vol)) and np.abs(vol).max() <= 1.0
        assert peak < 2 ** 30, f"traced peak {peak / 2 ** 20:.0f} MB"

    def test_no_upsampled_tensor_in_generate_or_sr(self):
        """The traced peaks of ``generate_full`` and ``sr_infer`` at desk 64^3
        stay below what building g_h's or the SR head's x2 upsample costs:
        with it they peaked at 10.7 and 22.5 MB, without it at 3.2 and
        8.5 MB."""
        from slabgan import sr
        nets = build_model_set(desk_config(), np.random.default_rng(0))
        z = np.random.default_rng(1).standard_normal(64).astype(np.float32)
        state = sr.build_sr(sr.SRConfig(hr_resolution=64).validate(), seed=2)
        lr = np.random.default_rng(3).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        for run, bound in ((lambda: generate_full(nets, z), 6),
                           (lambda: sr.sr_infer(state, lr), 14)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"

    def test_norm_and_activation_add_no_input_sized_temporaries(self):
        """At desk 64^3, ``sr_infer``'s traced peak is set by a group norm and
        ``extract_one``'s by a leaky ReLU. With both ops writing into their
        output buffer the peaks are 6.6 and 2.3 MiB; with input-sized
        temporaries they were 8.5 and 3.3 MiB."""
        from slabgan import sr
        from slabgan.metrics import FixedExtractor
        state = sr.build_sr(sr.SRConfig(hr_resolution=64).validate(), seed=2)
        lr = np.random.default_rng(3).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        ex = FixedExtractor(input_res=64, seed=4)
        vol = np.random.default_rng(5).uniform(-1, 1, (64, 64, 64)).astype(np.float32)
        for run, bound in ((lambda: sr.sr_infer(state, lr), 7.5),
                           (lambda: ex.extract_one(vol), 2.75)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"

    def test_interior_matches_windowed_path(self, nets, z64):
        """Full decode agrees with the slab decode used during training on
        window interiors (the cross-module consistency oracle)."""
        from slabgan.geometry import SliceWindow, select_low
        from slabgan.networks import CONSISTENCY_MARGIN
        from slabgan.tensor import Tensor, no_grad
        cfg = nets.cfg
        with no_grad():
            a = nets.g_a(Tensor(z64), training=False)
            full = nets.g_h(a, training=False).data
            w = SliceWindow(5, 8, resolution_scale=4)
            sub = nets.g_h(select_low(a, w), training=False).data
        m = 4 * CONSISTENCY_MARGIN
        crop = full[:, 4 * w.start:4 * (w.start + w.length)]
        assert np.array_equal(sub[:, m:-m], crop[:, m:-m])


class TestClassIndex:
    @pytest.fixture(scope="class")
    def cond_nets(self):
        cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4, num_classes=5)
        return build_model_set(cfg, np.random.default_rng(3))

    @pytest.mark.parametrize("c", [-1, 5])
    def test_out_of_range_class_rejected(self, cond_nets, c):
        with pytest.raises(ValueError, match="class index"):
            generate_full(cond_nets, np.zeros(16, np.float32), c=c)
        with pytest.raises(ValueError, match="class index"):
            encode_full(cond_nets, np.zeros((32, 32, 32), np.float32), c=c)

    def test_encoded_class_code(self, cond_nets):
        code = encode_full(cond_nets, np.zeros((32, 32, 32), np.float32), c=4)
        assert np.array_equal(code.class_onehot, np.eye(5, dtype=np.float32)[4])


class TestEncodeFull:
    def test_shape(self, nets):
        vol = np.random.default_rng(3).uniform(-1, 1, (64, 64, 64)).astype(np.float32)
        code = encode_full(nets, vol)
        assert code.z.shape == (64,)

    def test_deterministic(self, nets):
        vol = np.random.default_rng(4).uniform(-1, 1, (64, 64, 64)).astype(np.float32)
        assert np.array_equal(encode_full(nets, vol).z, encode_full(nets, vol).z)

    def test_partition_roundtrip_invariance(self, nets):
        """Splitting and re-concatenating the volume leaves the code alone."""
        from slabgan.geometry import split_volume
        from slabgan.tensor import Tensor, concat, no_grad
        vol = np.random.default_rng(5).uniform(-1, 1, (64, 64, 64)).astype(np.float32)
        with no_grad():
            rebuilt = concat(split_volume(Tensor(vol[None]), 8), axis=1).data
        assert np.array_equal(encode_full(nets, vol).z, encode_full(nets, rebuilt).z)

    def test_indivisible_depth(self, nets):
        with pytest.raises(ShapeError):
            encode_full(nets, np.zeros((60, 64, 64), np.float32))

    @pytest.mark.parametrize("bad", ["nan", "scaled", "shape"])
    def test_bad_volume_rejected(self, nets, bad):
        vol = np.random.default_rng(6).uniform(-1, 1, (64, 64, 64)).astype(np.float32)
        if bad == "nan":
            vol[0, 1, 2] = np.nan
        elif bad == "scaled":
            vol = vol * 5.0
        else:
            vol = vol[:, :32]
        with pytest.raises(ValueError):
            encode_full(nets, vol)

    def test_latent_code_validation(self):
        with pytest.raises(ValueError):
            LatentCode(z=np.array([np.nan]))
        with pytest.raises(ValueError):
            LatentCode(z=np.zeros(4), class_onehot=np.array([0.5, 0.2]))


class TestReconstruct:
    def test_untrained_finite(self, nets):
        vol = np.random.default_rng(6).uniform(-1, 1, (64, 64, 64)).astype(np.float32)
        rec = reconstruct(nets, vol)
        assert rec.shape == (1, 64, 64, 64)
        assert np.all(np.isfinite(rec))

    def test_double_reconstruction_logged(self, nets):
        """Reconstructing a reconstruction should not expand error; the
        measurement is logged, not asserted."""
        vol = np.random.default_rng(7).uniform(-1, 1, (64, 64, 64)).astype(np.float32)
        rec1 = reconstruct(nets, vol)
        rec2 = reconstruct(nets, rec1[0])
        e1 = float(np.abs(rec1 - vol[None]).mean())
        e2 = float(np.abs(rec2 - rec1).mean())
        print(f"reconstruction error {e1:.4f}, re-reconstruction drift {e2:.4f}")


class TestInterpolate:
    def test_endpoints(self, nets, z64):
        z_b = np.random.default_rng(8).standard_normal(64).astype(np.float32)
        vols = interpolate(nets, z64, z_b, steps=3)
        assert len(vols) == 3
        assert np.array_equal(vols[0], generate_full(nets, z64))
        assert np.array_equal(vols[-1], generate_full(nets, z_b))

    def test_steps_validated(self, nets, z64):
        with pytest.raises(ValueError):
            interpolate(nets, z64, z64, steps=0)


class TestRidge:
    def test_hand_solved_2x2(self):
        coef, bias = ridge_fit(np.eye(2), np.array([1.0, 2.0]), lam=1.0)
        assert np.allclose(coef, [0.5, 1.0])
        assert bias == 0.0

    def test_exact_linear_r2_one(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 4))
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        y = x @ beta
        coef, bias = ridge_fit(x, y, lam=1e-12)
        assert np.allclose(coef, beta, atol=1e-8)
        assert r_squared(y, ridge_predict(x, coef, bias)) > 1 - 1e-12

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((200, 64))
        y = rng.standard_normal(200)
        lam = 1e-4
        coef, _ = ridge_fit(x, y, lam=lam)
        resid = (x.T @ x + lam * np.eye(64)) @ coef - x.T @ y
        assert np.linalg.norm(resid) < 1e-8

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError):
            r_squared(np.ones(5), np.ones(5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ridge_fit(np.zeros((0, 3)), np.zeros(0))


class TestFitDirection:
    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((100, 8))
        beta = rng.standard_normal(8)
        y = x @ beta + 3.0
        d = fit_direction(x, y, target_name="toy")
        assert np.allclose(d.coef, beta, atol=1e-8)
        assert np.allclose(d.bias, 3.0, atol=1e-8)
        assert np.isclose(np.linalg.norm(d.w), 1.0)
        assert r_squared(y, ridge_predict(x, d.coef, d.bias)) > 1 - 1e-10

    def test_random_targets_r2_near_zero(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4000, 8))
        y = rng.standard_normal(4000)
        d = fit_direction(x, y)
        r2 = r_squared(y, ridge_predict(x, d.coef, d.bias))
        assert abs(r2) < 0.05

    def test_monotone_traversal(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((50, 8))
        beta = rng.standard_normal(8)
        d = fit_direction(x, x @ beta)
        z0 = rng.standard_normal(8)
        preds = [d.predict(z0 + t * d.w) for t in np.linspace(-2, 2, 7)]
        assert np.all(np.diff(preds) > 0)

    def test_rank_deficient_without_ridge(self):
        x = np.zeros((10, 4))
        x[:, 0] = np.arange(10)
        with pytest.raises(np.linalg.LinAlgError):
            fit_direction(x, np.arange(10.0))
        d = fit_direction(x, np.arange(10.0), ridge_lambda=1e-3)
        assert np.isfinite(d.coef).all()

    def test_traverse_returns_predictions(self, nets):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((80, 64))
        d = fit_direction(x, x @ rng.standard_normal(64))
        z0 = rng.standard_normal(64).astype(np.float32)
        vols, preds = traverse(nets, z0, d, offsets=[-1.0, 0.0, 1.0])
        assert len(vols) == 3 and len(preds) == 3
        assert preds[0] < preds[1] < preds[2] or preds[0] > preds[1] > preds[2]
