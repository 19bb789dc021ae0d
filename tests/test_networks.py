"""Architecture fidelity (symbolic), builder shape contracts, parameter
counts, windowed/full decoder consistency."""

import hashlib

import numpy as np
import pytest
from dataclasses import replace

from slabgan.geometry import SliceWindow, select_low
from slabgan.networks import (CONSISTENCY_MARGIN, NetConfig, build_classifier,
                              build_d_h, build_d_l, build_e_g, build_e_h,
                              build_g_a, build_g_h, build_g_l, build_model_set,
                              desk_config, parameter_count, reference_config,
                              summary, symbolic_model_set)
from slabgan.tensor import Tensor, no_grad


REF = reference_config()
DESK = desk_config()


class TestReferenceTables:
    """Shape fidelity to the canonical listings, without allocating volumes."""

    def test_g_a_table(self):
        rows = build_g_a(REF).shapes()
        assert rows[0][2] == (512 * 64,)                   # dense
        assert rows[1][2] == (512, 4, 4, 4)                # seed volume
        convs = [(n, s) for n, d, s in rows if d.startswith("Conv3D")]
        assert [s for _, s in convs] == [
            (512, 4, 4, 4), (512, 8, 8, 8), (256, 16, 16, 16),
            (128, 32, 32, 32), (64, 64, 64, 64)]
        assert rows[-1][2] == (64, 64, 64, 64)

    def test_g_l_table(self):
        net = build_g_l(REF)
        assert net.in_shape == (64, 64, 64, 64)
        assert net.out_shape() == (1, 64, 64, 64)
        convs = [s for _, d, s in net.shapes() if d.startswith("Conv3D")]
        assert convs == [(32, 64, 64, 64), (16, 64, 64, 64), (1, 64, 64, 64)]

    def test_g_h_table(self):
        net = build_g_h(REF)
        rows = net.shapes()
        # the first interpolation, folded into conv0
        assert rows[0][1] == "Conv3D 3x3x3, 1 after x2 Interpolation"
        assert net.layers[0][1].up_shape(net.in_shape) == (64, 128, 128, 128)
        assert net.out_shape() == (1, 256, 256, 256)
        convs = [s for _, d, s in rows if d.startswith("Conv3D")]
        assert convs == [(32, 128, 128, 128), (1, 256, 256, 256)]

    def test_e_h_table(self):
        net = build_e_h(REF)
        assert net.in_shape == (1, 32, 256, 256)
        convs = [s for _, d, s in net.shapes() if d.startswith("Conv3D")]
        assert convs == [(32, 16, 128, 128), (32, 16, 128, 128), (64, 8, 64, 64)]

    def test_e_g_table(self):
        net = build_e_g(REF)
        assert net.in_shape == (64, 64, 64, 64)
        convs = [s for _, d, s in net.shapes() if d.startswith("Conv3D")]
        assert convs == [(32, 32, 32, 32), (64, 16, 16, 16), (128, 8, 8, 8),
                         (256, 4, 4, 4), (1024, 1, 1, 1)]
        assert net.out_shape() == (1024,)

    def test_d_l_table(self):
        d = build_d_l(REF)
        rows = d.shapes()
        convs = [s for _, desc, s in rows if desc.startswith("Conv3D")]
        assert convs == [(32, 32, 32, 32), (64, 16, 16, 16), (128, 8, 8, 8),
                         (256, 4, 4, 4), (1, 1, 1, 1)]
        assert d.out_shape() == (1,)

    def test_d_h_table(self):
        d = build_d_h(REF)
        rows = d.trunk.shapes()
        convs = [(n, s) for n, desc, s in rows if desc.startswith("Conv3D")]
        shapes = [s for _, s in convs]
        assert shapes == [(16, 16, 128, 128), (32, 8, 64, 64), (64, 4, 32, 32),
                          (128, 2, 16, 16), (256, 1, 8, 8), (512, 1, 4, 4),
                          (128, 1, 1, 1)]
        # dense chain 128 -> 64 -> 32 -> 1
        denses = [s for _, desc, s in rows if desc.startswith("Dense")]
        assert denses == [(64,), (32,)]
        assert d.out_shape() == (1,)

    def test_d_h_kernel_schedule_matches_listing(self):
        d = build_d_h(REF)
        kernels = [l.kernel for _, l in d.trunk.layers if hasattr(l, "kernel")]
        assert kernels[:5] == [(4, 4, 4), (4, 4, 4), (4, 4, 4), (2, 4, 4), (2, 4, 4)]
        assert kernels[5:7] == [(1, 4, 4), (1, 4, 4)]

    def test_classifier_table(self):
        net = build_classifier(REF)
        assert net.in_shape == (1, 128, 128, 128)
        rows = net.shapes()
        convs = [s for _, d, s in rows if d.startswith("Conv3D")]
        assert convs[0] == (8, 128, 128, 128)
        assert convs[-1] == (128, 4, 4, 4)
        assert sum(1 for _ in convs) == 13
        assert net.out_shape() == (5,)


class TestDeskShapes:
    def test_g_a(self):
        assert build_g_a(DESK).out_shape() == (8, 16, 16, 16)

    def test_g_l(self):
        assert build_g_l(DESK).out_shape() == (1, 16, 16, 16)

    def test_g_h_window_and_full(self):
        net = build_g_h(DESK)
        assert net.out_shape((8, 2, 16, 16)) == (1, 8, 64, 64)
        assert net.out_shape((8, 16, 16, 16)) == (1, 64, 64, 64)

    def test_g_h_reference_amortized(self):
        net = build_g_h(REF)
        assert net.out_shape((64, 8, 64, 64)) == (1, 32, 256, 256)

    def test_e_h(self):
        assert build_e_h(DESK).out_shape() == (8, 2, 16, 16)

    def test_e_g(self):
        assert build_e_g(DESK).out_shape() == (64,)

    def test_e_h_concat_closure(self):
        # concatenating the partition's slab features recovers A's shape
        cfg = DESK
        eh_out = build_e_h(cfg).out_shape()
        assert eh_out[1] * cfg.n_windows == cfg.low_resolution
        assert eh_out[0] == cfg.base_channels

    def test_discriminators(self):
        assert build_d_l(DESK).out_shape() == (1,)
        assert build_d_h(DESK).out_shape() == (1,)

    def test_classifier_desk(self):
        net = build_classifier(DESK)
        assert net.in_shape == (1, 32, 32, 32)
        assert net.out_shape() == (5,)


class TestConditional:
    def test_g_a_input_width(self):
        cfg = desk_config(num_classes=5)
        net = build_g_a(cfg)
        assert net.in_shape == (64 + 5,)

    def test_discriminator_heads(self):
        cfg = desk_config(num_classes=5)
        nets = build_model_set(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal(
            (1, 16, 16, 16)).astype(np.float32))
        with no_grad():
            logit, cls = nets.d_l(x, training=False)
        assert logit.shape == (1,) and cls.shape == (5,)

    def test_shared_parameter_names(self):
        """Conditional and unconditional models share every name except the
        class-conditioned input width and the class heads."""
        uncond = build_model_set(desk_config(), np.random.default_rng(0))
        cond = build_model_set(desk_config(num_classes=5), np.random.default_rng(0))
        nu = set(uncond.store.params)
        nc = set(cond.store.params)
        extra = {n for n in nc - nu}
        assert all("/cls/" in n for n in extra)
        assert nu - nc == set()
        for name in nu:
            su = uncond.store.params[name].data.shape
            sc = cond.store.params[name].data.shape
            if name == "g_a/dense/weight":
                assert sc[1] - su[1] == 5
            else:
                assert su == sc

    def test_class_softmax_normalized(self):
        cfg = desk_config(num_classes=5)
        nets = build_model_set(cfg, np.random.default_rng(2))
        from slabgan import tensor as T
        x = Tensor(np.random.default_rng(3).standard_normal(
            (1, 8, 64, 64)).astype(np.float32))
        with no_grad():
            _, cls = nets.d_h(x, training=False)
            probs = T.softmax(cls, axis=-1).data
        assert np.isclose(probs.sum(), 1.0, atol=1e-6)


class TestParameterCount:
    def test_dense_layer_arithmetic(self):
        net = build_g_a(REF)
        dense = dict(net.layers)["dense"]
        assert dense.n_params() == 1024 * 512 * 64 + 512 * 64

    def test_growth_ratio_reference(self):
        small = replace(REF, full_resolution=32).validate()
        n_small = parameter_count(symbolic_model_set(small))
        n_big = parameter_count(symbolic_model_set(REF))
        assert n_big / n_small < 1.07

    def test_zero_layer_graph(self):
        from slabgan.layers import Sequential
        assert parameter_count(Sequential("empty", [], in_shape=(1,))) == 0

    def test_invariant_to_multiplier(self):
        counts = {m: parameter_count(symbolic_model_set(
            replace(DESK, subvol_multiplier=m).validate()))
            for m in (0.125, 0.25, 0.5)}
        assert len(set(counts.values())) == 1


class TestWindowFullConsistency:
    def test_interior_agreement_all_r(self):
        """Windowed decoding equals the matching crop of full decoding outside
        the two-feature-slice boundary margin, for every valid start."""
        cfg = desk_config(subvol_multiplier=0.5)
        nets = build_model_set(cfg, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal(
            (cfg.base_channels,) + (cfg.low_resolution,) * 3).astype(np.float32))
        with no_grad():
            full = nets.g_h(a, training=False).data
        length = cfg.subvol_depth_low
        m = CONSISTENCY_MARGIN
        for r in range(cfg.low_resolution - length + 1):
            w = SliceWindow(r, length, resolution_scale=4)
            with no_grad():
                sub = nets.g_h(select_low(a, w), training=False).data
            crop = full[:, 4 * r:4 * (r + length)]
            lo = 0 if r == 0 else 4 * m
            hi = sub.shape[1] if r + length == cfg.low_resolution else sub.shape[1] - 4 * m
            assert hi > lo
            assert np.array_equal(sub[:, lo:hi], crop[:, lo:hi])

    def test_margin_is_tight_enough(self):
        """Border corruption never reaches past the documented margin."""
        cfg = desk_config(subvol_multiplier=0.5)
        nets = build_model_set(cfg, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal(
            (cfg.base_channels,) + (cfg.low_resolution,) * 3).astype(np.float32))
        with no_grad():
            full = nets.g_h(a, training=False).data
        w = SliceWindow(4, cfg.subvol_depth_low, resolution_scale=4)
        with no_grad():
            sub = nets.g_h(select_low(a, w), training=False).data
        crop = full[:, 4 * w.start:4 * (w.start + w.length)]
        per_slice = np.abs(sub - crop).max(axis=(0, 2, 3))
        corrupt = np.nonzero(per_slice > 0)[0]
        assert corrupt.size == 0 or (corrupt.min() >= 0 and
                                     per_slice[4 * CONSISTENCY_MARGIN:
                                               -4 * CONSISTENCY_MARGIN].max() == 0)


class TestValidation:
    def test_resolution_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            NetConfig(full_resolution=96).validate()

    def test_multiplier_inverse_integer(self):
        with pytest.raises(ValueError):
            NetConfig(subvol_multiplier=0.3).validate()

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            NetConfig(full_resolution=32, subvol_multiplier=1 / 16).validate()

    def test_low_is_quarter(self):
        assert NetConfig(full_resolution=128).validate().low_resolution == 32


class TestCheckpointCompatibility:
    """Folding each x2 upsample into the conv after it changed no parameter:
    the names and shapes (the checkpoint layout) are those of the networks
    that ran ``Interp`` then ``Conv3d``, pinned here as a SHA-256 of the
    sorted (name, shape) list."""

    @staticmethod
    def _layout(store):
        items = sorted((n, tuple(int(s) for s in p.data.shape)) for n, p in store.params.items())
        return len(items), hashlib.sha256(repr(items).encode()).hexdigest()

    def test_model_set(self):
        nets = build_model_set(DESK, np.random.default_rng(0))
        assert self._layout(nets.store) == (
            94, "e95a6a98ab95a01b2694f5cf157f87bd783ac90ca4f00e942ccb75df194a327f")
        assert nets.store.params["g_h/conv1/weight"].shape == (1, 4, 3, 3, 3)

    def test_sr(self):
        from slabgan.sr import SRConfig, build_sr
        state = build_sr(SRConfig(), seed=0)
        assert self._layout(state.store) == (
            34, "7ab3410366d673759b23ac80ead980cd3b9edc0cb21316c5c901440ab6ecd505")
        assert state.store.params["sr_g/res/conv/weight"].shape == (1, 8, 3, 3, 3)


class TestSummary:
    def test_summary_lists_layers(self):
        text = summary(build_g_h(DESK))
        assert "Interpolation" in text
        assert "Conv3D" in text
        assert "3x3x3" in text
        assert "Tanh" in text

    def test_latent_input(self):
        z = Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
        plain = build_model_set(NetConfig(full_resolution=32, latent_dim=3),
                                np.random.default_rng(17))
        assert plain.latent_input(z, 2) is z
        cond = build_model_set(NetConfig(full_resolution=32, latent_dim=3, num_classes=4),
                               np.random.default_rng(17))
        zin = cond.latent_input(z, 2)
        assert np.array_equal(zin.data, [0, 1, 2, 0, 0, 1, 0])
        assert zin.requires_grad          # recorded on the tape, z gets a gradient
        with pytest.raises(ValueError):
            cond.latent_input(z, None)

    def test_generate_volume_roundtrip_shape(self):
        from slabgan.inference import generate_full
        nets = build_model_set(DESK, np.random.default_rng(15))
        z = np.random.default_rng(16).standard_normal(64).astype(np.float32)
        high = generate_full(nets, z)
        with no_grad():
            a = nets.g_a(nets.latent_input(Tensor(z), None), training=False)
            low = nets.g_l(a, training=False).data
        assert high.shape == (1, 64, 64, 64)
        assert low.shape == (1, 16, 16, 16)
        assert np.abs(high).max() < 1.0
