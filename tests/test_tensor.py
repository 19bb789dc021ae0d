"""Tensor core: primitives against oracles, gradients against finite
differences, tape semantics, Adam."""

import gc
import os
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import (conv3d_direct, finite_difference, gradcheck, interp_matrix, rel_err,
                      resample_dense, upconv3d_direct)
from slabgan import tensor as T
from slabgan import optim
from slabgan.layers import Conv3d, Interp
from slabgan.optim import ParamStore, adam_step, optimize
from slabgan.tensor import GraphError, ShapeError, Tensor


class TestConv3d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((3, 5, 5, 5)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1, 1), dtype=np.float32)
        for c in range(3):
            w[c, c, 0, 0, 0] = 1.0
        out = T.conv3d(Tensor(x), Tensor(w), Tensor(np.zeros(3, np.float32)))
        assert np.allclose(out.data, x)

    def test_all_ones_boundary_counts(self):
        # each output voxel counts its in-bounds taps; a corner sees 8
        x = Tensor(np.ones((1, 2, 2, 2)))
        w = Tensor(np.ones((1, 1, 3, 3, 3)))
        out = T.conv3d(x, w, Tensor(np.zeros(1)), stride=1, pad=1)
        assert out.shape == (1, 2, 2, 2)
        assert np.all(out.data == 8.0)

        x3 = Tensor(np.ones((1, 3, 3, 3)))
        out3 = T.conv3d(x3, w, Tensor(np.zeros(1)), stride=1, pad=1)
        assert out3.data[0, 1, 1, 1] == 27.0
        assert out3.data[0, 0, 0, 0] == 8.0
        assert out3.data[0, 0, 1, 1] == 18.0

    def test_stride2_shape(self):
        x = Tensor(np.zeros((1, 4, 4, 4)))
        w = Tensor(np.zeros((2, 1, 4, 4, 4)))
        out = T.conv3d(x, w, Tensor(np.zeros(2)), stride=2, pad=1)
        assert out.shape == (2, 2, 2, 2)

    @pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 4), (1, 0, 3), (2, 0, 2)])
    def test_matches_direct_oracle(self, stride, pad, k):
        rng = np.random.default_rng(42 + k)
        x = rng.standard_normal((3, 8, 8, 8))
        w = rng.standard_normal((4, 3, k, k, k))
        b = rng.standard_normal(4)
        fast = T.conv3d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        direct = conv3d_direct(x, w, b, stride, pad)
        assert np.abs(fast - direct).max() / np.abs(direct).max() < 1e-6

    @pytest.mark.parametrize("budget", [1, 5000, 1 << 20])
    def test_chunks_tile_output_once(self, monkeypatch, budget):
        monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", budget)
        hits = np.zeros((7, 5, 3), int)
        for zs, ys in T._conv_chunks(10, hits.shape, 8):
            hits[zs, ys] += 1
        assert np.all(hits == 1)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv3d(Tensor(np.zeros((2, 4, 4, 4))), Tensor(np.zeros((1, 3, 3, 3, 3))),
                     Tensor(np.zeros(1)))

    def test_nonpositive_extent(self):
        with pytest.raises(ShapeError):
            T.conv3d(Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros((1, 1, 4, 4, 4))),
                     Tensor(np.zeros(1)))


# (kernel, stride, pad): the oracle set above, then the shapes the networks
# use besides 3/1/1: d_h and the SR encoder, the SR bottleneck and decoder,
# and the projection heads; a kernel that is not a multiple of its stride,
# whose last row window is short at an odd padded height; a pad that reaches
# past the kernel, so border outputs see only padding (bias only); a
# kernel, stride and pad that differ on every axis; a kernel smaller than
# its stride, whose odd input phases get no taps; last a stride of 3
CONV_CASES = [(3, 1, 1), (4, 2, 1), (3, 1, 0), (2, 2, 0),
              ((1, 4, 4), (1, 2, 2), (0, 1, 1)),
              ((1, 3, 3), 1, (0, 1, 1)),
              (4, 1, 0),
              (3, 2, 1),
              (1, 1, 1),
              ((4, 3, 2), (2, 1, 2), (1, 1, 0)),
              (1, 2, 0),
              (2, 3, 1)]


def _out_shape(x_shape, w_shape, stride, pad):
    return tuple(int((n + 2 * p - kk) // s + 1) for n, kk, s, p in zip(
        x_shape[1:], w_shape[2:], np.broadcast_to(stride, 3), np.broadcast_to(pad, 3)))


def _shrink_workspace(monkeypatch, x_shape, w_shape, stride, pad, itemsize, rows):
    """Set the conv workspace so the forward pass spans at least three depth
    chunks: whole slices per chunk, or with ``rows`` one output row each.
    The budget is sized from the rows the forward pass really unfolds."""
    stride3 = tuple(int(s) for s in np.broadcast_to(stride, 3))
    k, halo = T._unfold_rows(w_shape[1], w_shape[2:], stride3)
    out = _out_shape(x_shape, w_shape, stride, pad)
    od, oh, ow = out
    budget = 1 if rows else max(1, od // 3) * (oh + halo) * ow * k * itemsize
    monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", budget)
    chunks = list(T._conv_chunks(k, out, itemsize, halo))
    assert len({zs.start for zs, _ in chunks}) >= 3
    if rows:
        assert all(ys.stop - ys.start == 1 for _, ys in chunks)


class TestConv3dChunked:
    """conv3d with the workspace shrunk so one volume spans many chunks."""

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_matches_direct_oracle(self, monkeypatch, k, stride, pad, rows):
        rng = np.random.default_rng(7)
        kt = tuple(np.broadcast_to(k, 3))
        x = rng.standard_normal((3, 10, 9, 8))
        w = rng.standard_normal((4, 3) + kt)
        b = rng.standard_normal(4)
        _shrink_workspace(monkeypatch, x.shape, w.shape, stride, pad, x.itemsize, rows)
        fast = T.conv3d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        direct = conv3d_direct(x, w, b, stride, pad)
        assert np.abs(fast - direct).max() / np.abs(direct).max() < 1e-6

    @pytest.mark.parametrize("k,stride,pad", [c for c in CONV_CASES
                                              if c not in ((3, 1, 0), (4, 1, 0), (1, 1, 1))])
    def test_forward_bitwise_independent_of_chunking(self, monkeypatch, k, stride, pad):
        """Apart from the unpadded 3/1/0 and 4/1/0 (odd output extents) and
        1/1/1 (34 wide), these convs map a power-of-two volume to a
        power-of-two volume, so every chunk is a whole number of 16-voxel
        rows, and the float32 output must not change by a bit however the
        volume is chunked."""
        rng = np.random.default_rng(8)
        kt = tuple(np.broadcast_to(k, 3))
        x = rng.standard_normal((3, 32, 32, 32)).astype(np.float32)
        w = rng.standard_normal((4, 3) + kt).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        whole = T.conv3d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        for rows in (False, True):
            _shrink_workspace(monkeypatch, x.shape, w.shape, stride, pad, x.itemsize, rows)
            chunked = T.conv3d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
            assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_gradcheck(self, monkeypatch, k, stride, pad, rows):
        rng = np.random.default_rng(zlib.crc32(repr((k, stride, pad)).encode()))
        kt = tuple(np.broadcast_to(k, 3))
        arrays = [rng.standard_normal((2, 7, 6, 5)),
                  rng.standard_normal((3, 2) + kt) * 0.4,
                  rng.standard_normal(3) * 0.1]
        _shrink_workspace(monkeypatch, arrays[0].shape, arrays[1].shape, stride, pad, 8, rows)
        gradcheck(lambda x, w, b: T.tsum(T.square(T.conv3d(x, w, b, stride, pad))), arrays)

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_input_gradient_is_adjoint(self, monkeypatch, k, stride, pad, rows):
        """The input gradient is the adjoint of the conv:
        ``<conv(x), g> == <x, dx>`` in float64, at odd extents, with the
        whole workspace and with one output row per chunk."""
        rng = np.random.default_rng(zlib.crc32(repr((k, stride, pad, rows)).encode()))
        kt = tuple(np.broadcast_to(k, 3))
        x = Tensor(rng.standard_normal((3, 9, 7, 11)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3) + kt))
        if rows:
            _shrink_workspace(monkeypatch, x.shape, w.shape, stride, pad, 8, rows)
        out = T.conv3d(x, w, Tensor(np.zeros(4)), stride, pad)
        g = rng.standard_normal(out.shape)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        lhs = float(np.vdot(out.data, g))
        assert abs(lhs - float(np.vdot(x.data, x.grad))) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("rows", [False, True])
    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_unfold_views_match_im2col(self, monkeypatch, k, stride, pad, rows):
        """Every view ``_unfold_chunks`` yields is the im2col of its chunk with
        rows in (residue, C, kd, kw) order, and the buffer behind the views
        stays within the workspace (or one output row and its halo)."""
        rng = np.random.default_rng(10)
        kt = tuple(int(v) for v in np.broadcast_to(k, 3))
        st = tuple(int(v) for v in np.broadcast_to(stride, 3))
        pd = tuple(int(v) for v in np.broadcast_to(pad, 3))
        x = rng.standard_normal((3, 10, 9, 8)).astype(np.float32)
        _shrink_workspace(monkeypatch, x.shape, (4, 3) + kt, st, pd, x.itemsize, rows)
        xp = np.pad(x, ((0, 0),) + tuple((p, p) for p in pd))
        od, oh, ow = out = _out_shape(x.shape, (4, 3) + kt, st, pd)
        kd, kh, kw = kt
        # (C, od, oh, ow, kd, kh, kw)
        ref = sliding_window_view(xp, kt, axis=(1, 2, 3))[
            :, ::st[0], ::st[1], ::st[2]][:, :od, :oh, :ow]
        k_rows, halo = T._unfold_rows(3, kt, st)
        bound = max(T.CONV_WORKSPACE_BYTES, k_rows * (1 + halo) * ow * x.itemsize)
        seen = np.zeros(out, int)
        for zs, ys, views in T._unfold_chunks(x, pd, kt, st, out):
            seen[zs, ys] += 1
            assert len(views) == -(-kh // st[1])
            for q, v in enumerate(views):
                taps = range(st[1] * q, min(st[1] * (q + 1), kh))
                want = np.stack([ref[:, zs, ys, :, :, j, :] for j in taps])
                # (r, C, nz, ny, ow, kd, kw) -> (nz, r, C, kd, kw, ny, ow)
                want = want.transpose(2, 0, 1, 5, 6, 3, 4)
                assert np.array_equal(v, want.reshape(v.shape))
                root = v
                while root.base is not None:
                    root = root.base
                assert root.nbytes <= bound
        assert np.all(seen == 1)

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (4, 2, 1)])
    def test_several_slabs_short_last(self, monkeypatch, k, stride, pad):
        """A deep volume unfolded one output row per chunk spans at least
        three slabs, the last one short. The forward pass matches the direct
        oracle, and the gradients match the same conv unfolded in one slab."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 21, 5, 4))
        w = rng.standard_normal((3, 2, k, k, k))
        b = rng.standard_normal(3)
        g = rng.standard_normal((3,) + _out_shape(x.shape, w.shape, stride, pad))

        def run():
            ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            out = T.conv3d(*ts, stride, pad)
            T.backward(T.tsum(T.mul(out, Tensor(g))))
            return out.data, [t.grad for t in ts]

        _, whole = run()
        _shrink_workspace(monkeypatch, x.shape, w.shape, stride, pad, x.itemsize, rows=True)
        od = g.shape[1]
        ns = T._slab_slices(1, k, stride)
        assert od > 2 * ns and od % ns
        out, grads = run()
        direct = conv3d_direct(x, w, b, stride, pad)
        assert np.abs(out - direct).max() / np.abs(direct).max() < 1e-12
        for got, want in zip(grads, whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_depth_window_interior_bitwise_at_any_extent(self):
        """A 3/1/1 conv on a depth window reproduces the full volume's
        output bit for bit away from the window's two edge slices, also at
        extents and window lengths that are not powers of two: each output
        slice is its own GEMM, so its product does not depend on the depth
        of the volume."""
        rng = np.random.default_rng(2008)
        for _ in range(300):
            cin, cout = rng.integers(1, 9, size=2)
            h, wd = rng.integers(5, 40, size=2)
            d = int(rng.integers(6, 40))
            length = int(rng.integers(3, d))
            if d & (d - 1) == 0:
                d += 1
            if length & (length - 1) == 0:
                length -= 1
            z0 = int(rng.integers(0, d - length + 1))
            x = rng.standard_normal((cin, d, h, wd)).astype(np.float32)
            w = Tensor(rng.standard_normal((cout, cin, 3, 3, 3)).astype(np.float32))
            b = Tensor(rng.standard_normal(cout).astype(np.float32))
            full = T.conv3d(Tensor(x), w, b, 1, 1).data
            sub = T.conv3d(Tensor(x[:, z0:z0 + length]), w, b, 1, 1).data
            assert np.array_equal(sub[:, 1:-1], full[:, z0 + 1:z0 + length - 1]), \
                (cin, cout, d, h, wd, z0, length)

    def test_fwd_bwd_workspace_at_128(self):
        """A 4->1 conv at 128^3 (the last g_h conv) stays far below its
        one-shot im2col matrix of 27 * 4 * 128^3 floats (906 MB)."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 128, 128, 128), dtype=np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((1, 4, 3, 3, 3), dtype=np.float32) * 0.1,
                   requires_grad=True)
        b = Tensor(np.zeros(1, np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            T.backward(T.tsum(T.conv3d(x, w, b, 1, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert peak < 200 * 2 ** 20, f"traced peak {peak / 2 ** 20:.0f} MB"

    def test_no_grad_workspace_at_128(self):
        """A no_grad 8->1 conv at 128^3 stays far below one padded copy of
        its 64 MB input: it holds the 8 MB output, one slab of a few padded
        input planes and the unfold buffer."""
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((8, 128, 128, 128), dtype=np.float32))
        w = Tensor(rng.standard_normal((1, 8, 3, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.conv3d(x, w, b, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 128, 128, 128)
        assert peak < 24 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


def _upconv(x, w, b):
    return T.conv3d(x, w, b, 1, 1, upsample=True)


@pytest.fixture
def folded(monkeypatch):
    """Take the phase correlation at every slice size, however small."""
    monkeypatch.setattr(T, "UP2_FOLD_MIN_SLICE_PER_COUT", 0)


class TestUpConv3d:
    """``conv3d(..., upsample=True)``: the x2 upsample folded into a 3^3 conv."""

    SHAPES = [(2, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (2, 1, 2, 3), (3, 3, 1, 2),
              (2, 5, 7, 9), (1, 4, 6, 5), (3, 2, 8, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_oracle_everywhere(self, folded, shape):
        """Every output voxel, faces, edges and corners included, at extents
        1, 2 and 3 and at odd, non-cubic shapes."""
        rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
        x = rng.standard_normal(shape)
        w = rng.standard_normal((3, shape[0], 3, 3, 3))
        b = rng.standard_normal(3)
        got = _upconv(Tensor(x), Tensor(w), Tensor(b)).data
        want = upconv3d_direct(x, w, b)
        assert got.shape == (3,) + tuple(2 * n for n in shape[1:])
        assert np.abs(got - want).max() < 1e-12

    def test_float32_matches_oracle_when_rows_are_chunked(self, folded, monkeypatch):
        """A 1-byte workspace makes ``_conv_chunks`` split every output row
        of every correlation the op runs."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 5, 9, 7)).astype(np.float32)
        w = rng.standard_normal((2, 4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(2).astype(np.float32)
        whole = _upconv(Tensor(x), Tensor(w), Tensor(b)).data
        monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", 1)
        assert all(ys.stop - ys.start == 1 for _, ys in T._conv_chunks(4 * 9, (5, 9, 7), 4, 2))
        chunked = _upconv(Tensor(x), Tensor(w), Tensor(b)).data
        want = upconv3d_direct(x, w, b)
        for got in (whole, chunked):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() / np.abs(want).max() < 1e-6

    @pytest.mark.parametrize("min_slice", [0, 10 ** 9])
    def test_agrees_with_interp_then_conv(self, monkeypatch, min_slice):
        """Folded (any slice size) or unfused (no slice large enough), the op
        agrees with the two layers it replaces within float32 rounding."""
        monkeypatch.setattr(T, "UP2_FOLD_MIN_SLICE_PER_COUT", min_slice)
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 6, 8, 8)).astype(np.float32))
        conv = Conv3d(4, 2, 3, 1, 1)
        conv.w = Tensor(rng.standard_normal((2, 4, 3, 3, 3)).astype(np.float32))
        conv.b = Tensor(rng.standard_normal(2).astype(np.float32))
        pair = conv.forward(Interp(2.0).forward(x, False), False).data
        got = _upconv(x, conv.w, conv.b).data
        assert np.abs(got - pair).max() / np.abs(pair).max() < 1e-6

    @pytest.mark.parametrize("shape", [(2, 1, 1, 1), (2, 2, 3, 1), (2, 3, 2, 4)])
    def test_gradcheck(self, shape):
        rng = np.random.default_rng(zlib.crc32(repr(shape).encode()))
        arrays = [rng.standard_normal(shape), rng.standard_normal((2, shape[0], 3, 3, 3)) * 0.4,
                  rng.standard_normal(2) * 0.1]
        gradcheck(lambda x, w, b: T.tsum(T.square(_upconv(x, w, b))), arrays)

    def test_taped_keeps_the_upsample_and_matches_untaped(self):
        """Under a tape the op is the unfused pair: two tape nodes, the
        upsampled input among them, and the pair's output bit for bit."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 8, 8)).astype(np.float32)
        w = Tensor(rng.standard_normal((2, 3, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(2).astype(np.float32), requires_grad=True)
        taped = _upconv(Tensor(x, requires_grad=True), w, b)
        assert len(T.active_tape()) == 2
        assert T.active_tape().nodes[0].shape == (3, 8, 16, 16)
        pair = T.conv3d(Interp(2.0).forward(Tensor(x), False), w, b, 1, 1)
        assert np.array_equal(taped.data, pair.data)
        with T.no_grad():
            folded = _upconv(Tensor(x), w, b).data
        assert np.abs(folded - pair.data).max() / np.abs(pair.data).max() < 1e-6
        T.active_tape().clear()

    def test_zero_weights_give_exact_zeros(self, folded):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 5, 6, 7)).astype(np.float32))
        w = Tensor(np.zeros((2, 3, 3, 3, 3), np.float32))
        out = _upconv(x, w, Tensor(np.zeros(2, np.float32))).data
        assert out.shape == (2, 10, 12, 14) and not out.any()
        b = np.array([1.5, -2.0], np.float32)
        bias = _upconv(x, w, Tensor(b)).data
        assert np.array_equal(bias, np.broadcast_to(b[:, None, None, None], bias.shape))

    @pytest.mark.parametrize("d,length", [(9, 4), (12, 1), (7, 3), (16, 8)])
    def test_depth_window_bitwise_at_every_start(self, d, length):
        """A depth window reproduces the volume's output bit for bit away
        from its first two and last two output slices, at every start."""
        rng = np.random.default_rng(d * 100 + length)
        x = rng.standard_normal((3, d, 16, 16)).astype(np.float32)
        w = Tensor(rng.standard_normal((2, 3, 3, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal(2).astype(np.float32))
        assert 16 * 16 >= T.UP2_FOLD_MIN_SLICE_PER_COUT * 2       # the folded path
        full = _upconv(Tensor(x), w, b).data
        for z0 in range(d - length + 1):
            sub = _upconv(Tensor(x[:, z0:z0 + length]), w, b).data
            lo = 0 if z0 == 0 else 2
            hi = 2 * length if z0 + length == d else 2 * length - 2
            assert np.array_equal(sub[:, lo:hi], full[:, 2 * z0 + lo:2 * z0 + hi]), z0

    def test_rejects_other_kernels_and_strides(self):
        x = Tensor(np.zeros((2, 4, 4, 4), np.float32))
        with pytest.raises(ShapeError):
            _upconv(x, Tensor(np.zeros((1, 2, 4, 4, 4), np.float32)), Tensor(np.zeros(1)))
        with pytest.raises(ShapeError):
            _upconv(x, Tensor(np.zeros((1, 3, 3, 3, 3), np.float32)), Tensor(np.zeros(1)))
        with pytest.raises(ValueError):
            T.conv3d(x, Tensor(np.zeros((1, 2, 3, 3, 3), np.float32)), Tensor(np.zeros(1)),
                     2, 1, upsample=True)

    def test_no_grad_workspace_at_128(self):
        """A no_grad 8->1 x2 upsample-conv to 128^3 never builds the 64 MB
        upsampled input: it holds the 8 MB output, the edge-padded 8 MB
        input, the 8 MB phase output and small border slabs."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((8, 64, 64, 64), dtype=np.float32))
        w = Tensor(rng.standard_normal((1, 8, 3, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = _upconv(x, w, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 128, 128, 128)
        assert peak < 40 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


def _resize(x: Tensor, extents, align_corners: bool = False) -> Tensor:
    """``resize3d`` of a (C, D, H, W) tensor to ``extents``, one plan per axis."""
    return T.resize3d(x, [T.interp_plan(n, m, align_corners, x.dtype)
                          for n, m in zip(x.shape[1:], extents)])


class TestInterp:
    def test_constant_preserved(self):
        x = Tensor(np.full((2, 4, 4, 4), 0.7))
        out = _resize(x, (8, 8, 8))
        assert out.shape == (2, 8, 8, 8)
        assert np.allclose(out.data, 0.7)

    def test_linear_ramp_exact_align_corners(self):
        d = 5
        ramp = np.linspace(0.0, 1.0, d)[None, :, None, None] * np.ones((1, d, 3, 3))
        out = _resize(Tensor(ramp), (2 * d, 6, 6), align_corners=True)
        # corners align, so the finer grid carries the exact linear ramp
        expect = np.linspace(0.0, 1.0, 2 * d)
        assert np.allclose(out.data[0, :, 1, 1], expect, atol=1e-12)

    def test_scale_doubles_64(self):
        out = Interp(2.0).forward(Tensor(np.zeros((1, 64, 64, 64), np.float32)), False)
        assert out.shape == (1, 128, 128, 128)

    def test_non_integral_scale_rejected(self):
        with pytest.raises(ShapeError):
            Interp(0.5).forward(Tensor(np.zeros((1, 5, 5, 5))), False)

    def test_half_scale_is_box_average(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 4, 4))
        out = _resize(Tensor(x), (2, 2, 2)).data
        manual = x.reshape(1, 2, 2, 2, 2, 2, 2).mean(axis=(2, 4, 6))
        assert np.allclose(out, manual, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_resample_matches_differentiable_interp(self, dtype):
        x = np.random.default_rng(2).standard_normal((2, 4, 6, 8)).astype(dtype)
        out = T.resample(x, (8, 12, 16))
        assert out.dtype == dtype
        assert np.array_equal(out, _resize(Tensor(x), (8, 12, 16)).data)

    def test_resample_three_axis_input(self):
        x = np.random.default_rng(3).standard_normal((8, 6, 4)).astype(np.float32)
        out = T.resample(x, (4, 12, 5), align_corners=True)
        assert out.shape == (4, 12, 5)
        assert np.array_equal(out, T.resample(x[None], (4, 12, 5), align_corners=True)[0])


# (input extents, output extents, align_corners) against the dense oracle:
# x2 at odd, even and unit extents, (1, 2, 2), 1/2, 1/4, a corner-aligned
# 4 -> 37 and a non-integer ratio
ORACLE_CASES = [
    ((5, 6, 7), (10, 12, 14), False),
    ((1, 2, 1), (2, 4, 2), False),
    ((4, 8, 8), (4, 16, 16), False),
    ((8, 6, 4), (4, 3, 2), False),
    ((8, 12, 4), (2, 3, 1), False),
    ((4, 4, 4), (37, 37, 37), True),
    ((6, 3, 5), (15, 3, 7), False),
]


class TestInterpPlan:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ext_in,ext_out,align", ORACLE_CASES)
    def test_forward_matches_dense_oracle(self, ext_in, ext_out, align, dtype):
        x = np.random.default_rng(40).standard_normal((2,) + ext_in).astype(dtype)
        out = T.resample(x, ext_out, align_corners=align)
        ref = resample_dense(x, ext_out, align_corners=align)
        assert out.dtype == dtype and out.shape == ref.shape
        tol = 1e-6 if dtype == np.float32 else 1e-14
        assert np.abs(out - ref).max() <= tol

    @pytest.mark.parametrize("ext_in,ext_out,align", ORACLE_CASES)
    def test_backward_matches_dense_transpose(self, ext_in, ext_out, align):
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((2,) + ext_in), requires_grad=True)
        plans = [T.interp_plan(n, m, align) for n, m in zip(ext_in, ext_out)]
        y = T.resize3d(x, plans)
        g = rng.standard_normal(y.shape)
        T.backward(T.tsum(T.mul(y, Tensor(g))))
        ref = g
        for ax, n in zip((1, 2, 3), ext_in):
            m = interp_matrix(n, ref.shape[ax], align)
            ref = np.moveaxis(np.tensordot(m.T, ref, axes=(1, ax)), 0, ax)
        assert np.abs(x.grad - ref).max() <= 1e-13

    @pytest.mark.parametrize("scale", [2.0, (1, 2, 2)])
    def test_gradcheck_float64(self, scale):
        from slabgan.layers import Conv3d, Interp
        layer = Interp(scale)
        x = np.random.default_rng(42).standard_normal((2, 3, 5, 4))
        gradcheck(lambda t: T.tsum(T.square(layer.forward(t, True))), [x])

    def test_window_matches_full_volume_bitwise(self):
        """Away from its clamped edges, a depth window upsamples to the same
        bits as the matching slices of the whole volume."""
        x = np.random.default_rng(43).standard_normal((3, 16, 12, 10)).astype(np.float32)
        full = T.resample(x, (32, 24, 20))
        win = T.resample(x[:, 4:9], (10, 24, 20))
        assert np.array_equal(win[:, 1:-1], full[:, 9:17])

    def test_plan_shape_and_cache(self):
        plan = T.interp_plan(64, 128, False, np.dtype(np.float32))
        assert plan is T.interp_plan(64, 128, False, np.dtype(np.float32))
        # two strided phases for the interior, the clamped edges one by one
        assert len(plan.runs) == 2 and [p[0] for p in plan.points] == [0, 127]
        assert T.interp_plan(16, 4, False).points == ()
        assert T.interp_plan(7, 7, True) == (7, 7, (), ())

    def test_chunked_equals_whole(self, monkeypatch):
        x = np.random.default_rng(44).standard_normal((5, 4, 6, 8)).astype(np.float32)
        plans = [T.interp_plan(n, 2 * n, False, x.dtype) for n in x.shape[1:]]
        whole = T.resize3d(Tensor(x), plans).data
        monkeypatch.setattr(T, "INTERP_CHUNK_BYTES", 1)
        assert np.array_equal(T.resize3d(Tensor(x), plans).data, whole)

    def test_plan_must_fit_input(self):
        plans = [T.interp_plan(4, 8, False)] * 3
        with pytest.raises(ShapeError):
            T.resize3d(Tensor(np.zeros((1, 4, 4, 5))), plans)


class TestGroupNorm:
    def test_stats(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 4, 4, 4))
        out = T.group_norm(Tensor(x), 4, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        g = out.reshape(4, -1)
        assert np.abs(g.mean(axis=1)).max() < 1e-5
        assert np.abs(g.var(axis=1) - 1).max() < 1e-4

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4, 4, 4))
        ones, zeros = Tensor(np.ones(4)), Tensor(np.zeros(4))
        a = T.group_norm(Tensor(x), 2, ones, zeros).data
        b = T.group_norm(Tensor(10.0 * x), 2, ones, zeros).data
        assert np.allclose(a, b, atol=1e-5)

    def test_single_group_is_layer_norm(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3, 3, 3))
        out = T.group_norm(Tensor(x), 1, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        manual = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
        assert np.allclose(out, manual, atol=1e-10)

    def test_indivisible_channels(self):
        with pytest.raises(ShapeError):
            T.group_norm(Tensor(np.zeros((3, 2, 2, 2))), 2,
                         Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_per_depth_slice_translation_covariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 8, 3, 3))
        ones, zeros = Tensor(np.ones(4)), Tensor(np.zeros(4))
        full = T.group_norm(Tensor(x), 2, ones, zeros, per_depth_slice=True).data
        win = T.group_norm(Tensor(x[:, 2:6].copy()), 2, ones, zeros,
                           per_depth_slice=True).data
        assert np.array_equal(full[:, 2:6], win)


class TestSpectralNorm:
    def test_identity_unchanged(self):
        w = Tensor(np.eye(3))
        u = np.array([1.0, 0.0, 0.0])
        out, _ = T.spectral_norm(w, u, power_iters=5)
        assert np.allclose(out.data, np.eye(3), atol=1e-12)

    def test_diag_sigma(self):
        w = np.diag([3.0, 1.0])
        u = np.array([0.6, 0.8])
        u /= np.linalg.norm(u)
        _, v, sigma = T.power_iterate(w, u, 20)
        assert abs(sigma - 3.0) < 1e-6

    def test_random_matrix_normalized(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((8, 8))
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        out, _ = T.spectral_norm(Tensor(w), u, power_iters=5)
        top = np.linalg.svd(out.data, compute_uv=False)[0]
        assert abs(top - 1.0) < 0.05

    def test_svd_oracle_up_to_64(self):
        rng = np.random.default_rng(8)
        for n in (4, 16, 64):
            w = rng.standard_normal((n, n))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            out, _ = T.spectral_norm(Tensor(w), u, power_iters=30)
            top = np.linalg.svd(out.data, compute_uv=False)[0]
            assert 0.95 < top < 1.05

    def test_zero_weight_degenerate(self):
        w = Tensor(np.zeros((3, 3)))
        u = np.array([1.0, 0.0, 0.0])
        with pytest.warns(UserWarning, match="degenerate"):
            out, _ = T.spectral_norm(w, u, power_iters=3)
        assert np.array_equal(out.data, np.zeros((3, 3)))


class TestActivations:
    def test_tanh_zero(self):
        assert T.tanh(Tensor(np.zeros(3))).data[0] == 0.0

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(Tensor(np.array([-1.0])), alpha=0.2)
        assert np.isclose(out.data[0], -0.2)

    def test_softmax_uniform(self):
        out = T.softmax(Tensor(np.zeros(5)), axis=-1)
        assert np.allclose(out.data, 0.2)

    def test_relu_subgradient_zero_at_kink(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        T.backward(T.tsum(T.relu(x)))
        assert np.all(x.grad == 0.0)

    def test_cross_entropy_uniform(self):
        val = T.cross_entropy_logits(Tensor(np.zeros(5)), 2).item()
        assert np.isclose(val, np.log(5))


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(9).standard_normal((2, 4))
        out = T.dense(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, x)

    def test_reference_reshape_shape(self):
        # 1x1024 through a 512*4*4*4 projection, then reshape to a volume
        x = Tensor(np.zeros((1, 1024), np.float32))
        w = Tensor(np.zeros((512 * 64, 1024), np.float32))
        out = T.dense(x, w, Tensor(np.zeros(512 * 64, np.float32)))
        vol = T.reshape(out, (512, 4, 4, 4))
        assert vol.shape == (512, 4, 4, 4)

    def test_hand_product(self):
        x = Tensor(np.ones((1, 3)))
        w = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones(2))
        out = T.dense(x, w, b)
        assert np.all(out.data == 4.0)

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            T.dense(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))),
                    Tensor(np.zeros(2)))


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.backward(T.tsum(T.square(x)))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_composite_chain_fd(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 4, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3, 3)) * 0.4
        b = rng.standard_normal(2) * 0.1
        ga = rng.standard_normal(2)
        be = rng.standard_normal(2)

        def op(xt, wt, bt, gat, bet):
            h = T.conv3d(xt, wt, bt, stride=1, pad=1)
            h = T.group_norm(h, 2, gat, bet)
            return T.tsum(T.tanh(h))
        worst = gradcheck(op, [x, w, b, ga, be])
        assert worst < 1e-4

    def test_reuse_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.add(T.square(x), T.mul(x, 5.0))
        T.backward(T.tsum(y))
        assert np.isclose(x.grad[0], 2 * 3.0 + 5.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            T.backward(T.square(x))

    def test_detached_loss_rejected(self):
        with pytest.raises(GraphError):
            T.backward(Tensor(np.array(1.0), requires_grad=True))

    def test_no_grad_blocks_taping(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.tsum(T.square(x))
        assert not y.requires_grad
        assert len(T.active_tape()) == 0

    def test_tape_cleared_after_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        T.backward(T.tsum(T.square(x)))
        assert len(T.active_tape()) == 0

    def test_frozen_parameter_gets_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=False)
        T.backward(T.tsum(T.mul(x, w)))
        assert x.grad is not None and w.grad is None


class TestDeterminism:
    def test_conv_bitwise_repeatable(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 8, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        o1 = T.conv3d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        o2 = T.conv3d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        assert np.array_equal(o1, o2)


class TestAdam:
    def _store_with(self, value, grad):
        store = ParamStore()
        p = store.register("net/w", Tensor(np.array(value, dtype=np.float64)))
        p.grad = np.array(grad, dtype=np.float64)
        return store, p

    def test_zero_grad_no_change(self):
        store, p = self._store_with([1.0, -2.0], [0.0, 0.0])
        adam_step(store, lr=0.1)
        assert np.allclose(p.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # bias-corrected first step with constant gradient 1 moves by ~lr
        store, p = self._store_with([0.0], [1.0])
        adam_step(store, lr=1e-3, beta1=0.0, beta2=0.999, eps=1e-8)
        assert np.isclose(-p.data[0], 1e-3 * 1.0 / (1.0 + 1e-8), rtol=1e-6)

    def test_beta1_zero_first_moment_tracks_gradient(self):
        store, p = self._store_with([0.0], [0.7])
        adam_step(store, lr=1e-3, beta1=0.0)
        assert np.isclose(store.adam_state["net/w"][0][0], 0.7)
        p.grad = np.array([-0.3])
        adam_step(store, lr=1e-3, beta1=0.0)
        assert np.isclose(store.adam_state["net/w"][0][0], -0.3)

    def test_missing_grad_raises(self):
        store = ParamStore()
        store.register("net/w", Tensor(np.zeros(2)))
        with pytest.raises(RuntimeError, match="no gradient"):
            adam_step(store, lr=0.1)

    def test_step_count_advances(self):
        store, p = self._store_with([0.0], [1.0])
        adam_step(store, lr=1e-3)
        p.grad = np.array([1.0])
        adam_step(store, lr=1e-3)
        assert store.adam_state["net/w"][2] == 2

    def _loss_store(self):
        store = ParamStore()
        p = store.register("net/w", Tensor(np.array([3.0, -4.0])))
        frozen = store.register("net/f", Tensor(np.array([1.0])))
        frozen.requires_grad = False
        return store, p, T.tsum(T.mul(T.square(p), 2.0))     # gradient 4 w

    def test_optimize_steps_and_zeroes(self):
        store, p, loss = self._loss_store()
        optimize(store, loss, lr=0.1)
        assert np.allclose(p.data, [2.9, -3.9])
        assert p.grad is None and len(T.active_tape()) == 0
        assert list(store.adam_state) == ["net/w"]

    def test_optimize_clips_global_norm(self, monkeypatch):
        store, p, loss = self._loss_store()
        seen = []

        def record(st, lr):
            seen.append(p.grad.copy())
            adam_step(st, lr)
        monkeypatch.setattr(optim, "adam_step", record)
        optimize(store, loss, lr=0.1, clip_norm=2.0)
        # gradient (12, -16) has norm 20; clipping rescales it to norm 2
        assert np.allclose(seen[0], [1.2, -1.6])


# a small ParamStore, built the same way in this process and in subprocesses
_STORE_CODE = """
import numpy as np
from slabgan.optim import ParamStore
from slabgan.tensor import Tensor
store = ParamStore()
store.register("net/b", Tensor(np.arange(3, dtype=np.float32)))
store.register("net/a", Tensor(np.linspace(-1, 1, 12).reshape(3, 4)))
"""


class TestParamStore:
    def test_parameter_hash_same_in_every_process(self):
        """The hash depends on the parameters only, not on the process's
        string-hash salt, so runs can log and compare it."""
        ns = {}
        exec(_STORE_CODE, ns)
        here = ns["store"].parameter_hash()
        src = os.path.dirname(os.path.dirname(optim.__file__))
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", _STORE_CODE + "print(store.parameter_hash())"],
                env=env, capture_output=True, text=True, check=True)
            assert proc.stdout.strip() == here
        ns["store"].params["net/b"].data[0] = 1.0
        assert ns["store"].parameter_hash() != here
        assert ns["store"].parameter_hash("net/a") != ns["store"].parameter_hash()


class TestFiniteDifferencePrimitives:
    """Every differentiable primitive against central differences (64-bit)."""

    @pytest.mark.parametrize("name,builder", [
        ("conv3d", lambda g: ([g.standard_normal((2, 4, 4, 4)),
                               g.standard_normal((3, 2, 3, 3, 3)) * 0.4,
                               g.standard_normal(3) * 0.1],
                              lambda x, w, b: T.tsum(T.square(T.conv3d(x, w, b, 1, 1))))),
        ("conv3d_strided", lambda g: ([g.standard_normal((2, 6, 6, 6)),
                                       g.standard_normal((2, 2, 4, 4, 4)) * 0.4,
                                       g.standard_normal(2) * 0.1],
                                      lambda x, w, b: T.tsum(T.square(T.conv3d(x, w, b, 2, 1))))),
        ("dense", lambda g: ([g.standard_normal((3, 5)), g.standard_normal((4, 5)),
                              g.standard_normal(4)],
                             lambda x, w, b: T.tsum(T.tanh(T.dense(x, w, b))))),
        ("group_norm", lambda g: ([g.standard_normal((4, 3, 3, 3)), g.standard_normal(4),
                                   g.standard_normal(4)],
                                  lambda x, ga, be: T.tsum(T.square(T.group_norm(x, 2, ga, be))))),
        ("group_norm_sliced", lambda g: ([g.standard_normal((4, 3, 3, 3)),
                                          g.standard_normal(4), g.standard_normal(4)],
                                         lambda x, ga, be: T.tsum(T.square(
                                             T.group_norm(x, 2, ga, be, per_depth_slice=True))))),
        ("interp", lambda g: ([g.standard_normal((2, 4, 4, 4))],
                              lambda x: T.tsum(T.square(_resize(x, (8, 8, 8)))))),
        ("interp_down", lambda g: ([g.standard_normal((2, 4, 4, 4))],
                                   lambda x: T.tsum(T.square(_resize(x, (2, 2, 2)))))),
        ("softmax", lambda g: ([g.standard_normal((2, 5))],
                               lambda x: T.tmean(T.square(T.softmax(x, axis=-1))))),
        ("softplus", lambda g: ([g.standard_normal(7)],
                                lambda x: T.tsum(T.softplus(x)))),
        ("sigmoid", lambda g: ([g.standard_normal(7)],
                               lambda x: T.tsum(T.square(T.sigmoid(x))))),
        ("elu", lambda g: ([g.standard_normal(9) + 0.05],
                           lambda x: T.tsum(T.elu(x)))),
        ("leaky_relu", lambda g: ([g.standard_normal(9) + 0.05],
                                  lambda x: T.tsum(T.leaky_relu(x)))),
        ("tanh", lambda g: ([g.standard_normal(7)],
                            lambda x: T.tsum(T.square(T.tanh(x))))),
        ("abs", lambda g: ([g.standard_normal(7) + 0.3],
                           lambda x: T.tsum(T.tabs(x)))),
        ("mean_axes", lambda g: ([g.standard_normal((3, 4, 2, 2))],
                                 lambda x: T.tsum(T.square(T.mean_axes(x, (1, 2, 3)))))),
        ("slice_concat", lambda g: ([g.standard_normal((2, 6, 3, 3))],
                                    lambda x: T.tsum(T.square(T.concat(
                                        [T.slice_axis(x, 1, 1, 2), T.slice_axis(x, 1, 3, 2)],
                                        axis=1))))),
        ("cross_entropy", lambda g: ([g.standard_normal(5)],
                                     lambda x: T.cross_entropy_logits(x, 2))),
        ("batch_norm", lambda g: ([g.standard_normal((3, 3, 3, 3)), g.standard_normal(3),
                                   g.standard_normal(3)],
                                  lambda x, ga, be: T.tsum(T.square(T.batch_norm(
                                      x, ga, be, np.zeros(3), np.ones(3), training=True))))),
    ])
    def test_primitive(self, name, builder):
        arrays, op = builder(np.random.default_rng(zlib.crc32(name.encode())))
        worst = gradcheck(op, arrays)
        assert worst < 1e-4

    def test_spectral_norm_grad(self):
        rng = np.random.default_rng(20)
        w = rng.standard_normal((4, 6))
        u0 = rng.standard_normal(4)
        u0 /= np.linalg.norm(u0)

        def op_analytic():
            wt = Tensor(w.copy(), requires_grad=True)
            out, _ = T.spectral_norm(wt, u0.copy(), power_iters=50)
            T.backward(T.tsum(T.square(out)))
            return wt.grad
        ana = op_analytic()

        def f(x):
            out, _ = T.spectral_norm(Tensor(x), u0.copy(), power_iters=50)
            return float(T.tsum(T.square(out)).data)
        num = finite_difference(f, w)
        assert rel_err(ana, num) < 1e-4


class TestLiveSet:
    def _counts(self):
        gc.collect()
        return T.METER.act_bytes, T.METER.grad_bytes

    def test_split_at_peak(self):
        s = T.LiveSet(static_bytes=100)
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (100, 0, 0)
        assert s.add(50) == 50
        assert s.add(grad=30) == 30                     # 180: the peak
        s.add(-50)
        s.add(grad=40)                                  # 170: below the peak
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (180, 50, 30)
        assert (s.act_bytes, s.grad_bytes, s.current_total()) == (0, 70, 170)
        s.add(grad=20)                                  # 190: a new peak
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (190, 0, 90)
        s.add(grad=-90)
        s.reset_peak()
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (100, 0, 0)

    def test_tensor_releases_payload_and_grad(self):
        before = self._counts()
        x = Tensor(np.ones(8, np.float32), requires_grad=True)
        T.backward(T.tsum(T.mul(x, 2.0)))
        assert self._counts() == (before[0] + 32, before[1] + 32)
        x.zero_grad()
        assert self._counts() == (before[0] + 32, before[1])
        del x
        assert self._counts() == before

    def test_directly_assigned_grad_is_not_released(self):
        before = self._counts()
        store = ParamStore()
        p = store.register("net/w", Tensor(np.zeros(4)))
        p.grad = np.ones(4)
        adam_step(store, lr=0.1)
        q = Tensor(np.zeros(4))
        q.grad = np.ones(4)
        q.zero_grad()
        del store, p, q
        assert self._counts() == before

    def test_failed_constructor_counts_nothing(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        before = self._counts()
        with pytest.raises(TypeError):
            Tensor(Tensor(1.0))
        assert self._counts() == before
        assert unraisable == []
