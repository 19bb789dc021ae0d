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

from conftest import (batch_norm_direct, conv3d_direct, elu_direct, finite_difference,
                      gradcheck, group_norm_direct, interp_matrix, leaky_relu_direct,
                      rel_err, resample_dense, upconv3d_direct, upconv3d_padded_fold)
from slabgan import tensor as T
from slabgan import optim
from slabgan.layers import Conv3d, Dense, Interp
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
        for zs, ys, views in T._unfold_chunks((x,), pd, kt, st, out):
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

    @pytest.mark.parametrize("rows", [False, True])
    def test_warm_chunk_plan_follows_the_workspace(self, monkeypatch, rows):
        """The chunk plan is memoised, so a conv run at the default workspace
        leaves a warm plan for its shapes. A smaller workspace afterwards
        must still split the same conv into at least three depth chunks, or
        one output row per chunk in rows mode, in ``_conv_chunks`` and in
        the chunks conv3d really unfolds; its output stays the direct
        oracle's."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 10, 9, 8))
        w = rng.standard_normal((4, 3, 3, 3, 3))
        b = rng.standard_normal(4)
        T.conv3d(Tensor(x), Tensor(w), Tensor(b), 1, 1)
        _shrink_workspace(monkeypatch, x.shape, w.shape, 1, 1, x.itemsize, rows)
        unfold, seen = T._unfold_chunks, []

        def spy(*args, **kw):
            for zs, ys, views in unfold(*args, **kw):
                seen.append((zs, ys))
                yield zs, ys, views
        monkeypatch.setattr(T, "_unfold_chunks", spy)
        out = T.conv3d(Tensor(x), Tensor(w), Tensor(b), 1, 1).data
        assert len({zs.start for zs, _ in seen}) >= 3
        if rows:
            assert all(ys.stop - ys.start == 1 for _, ys in seen)
        direct = conv3d_direct(x, w, b, 1, 1)
        assert np.abs(out - direct).max() / np.abs(direct).max() < 1e-12


def _root(a):
    """The array that owns the memory ``a`` views."""
    while a.base is not None:
        a = a.base
    return a


def _row_groups_direct(kh, sh):
    return [min(sh, kh - sh * q) for q in range(-(-kh // sh))]


def _group_weights_direct(w, sh):
    """Each row-shift group's weight matrix, copied group by group."""
    return [np.ascontiguousarray(w[:, :, :, sh * q:sh * q + n].transpose(0, 3, 1, 2, 4))
            .reshape(w.shape[0], -1) for q, n in enumerate(_row_groups_direct(w.shape[3], sh))]


def _phase_weights_direct(w, stride, pad):
    """The general construction of the phase-stacked input-gradient kernel:
    the flipped kernel in a zero-padded staging array, its phases sliced
    out of that."""
    cout, cin, *ks = w.shape
    lo, start = zip(*(divmod(p + s - k, s) for k, s, p in zip(ks, stride, pad)))
    kkd, kkh, kkw = (-(-(a + k) // s) for a, k, s in zip(start, ks, stride))
    sd, sh, sw = stride
    wp = np.zeros((cout, cin, sd * kkd, sh * kkh, sw * kkw), w.dtype)
    wp[(...,) + tuple(slice(a, a + k) for a, k in zip(start, ks))] = w[..., ::-1, ::-1, ::-1]
    phases = wp.reshape(cout, cin, kkd, sd, kkh, sh, kkw, sw)[..., ::-1, :, ::-1, :, ::-1]
    return lo, phases.transpose(1, 3, 5, 7, 0, 2, 4, 6).reshape(-1, cout, kkd, kkh, kkw)


class TestConvWeightLayouts:
    """The weight relayouts of conv3d, bit for bit against their direct
    constructions."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh", [1, 3, 4])
    @pytest.mark.parametrize("sh", [1, 2])
    def test_group_weights(self, sh, kh, dtype):
        w = np.random.default_rng(kh + 10 * sh).standard_normal((5, 3, 2, kh, 3)).astype(dtype)
        got = T._group_weights(w, sh)
        want = _group_weights_direct(w, sh)
        assert len(got) == len(want)
        for g, h in zip(got, want):
            assert g.dtype == h.dtype and g.shape == h.shape and np.array_equal(g, h)
        # every group is a view of one relayout of w (w itself at kh = 1)
        roots = {id(_root(g)) for g in got}
        assert len(roots) == 1 and (id(w) in roots) == (kh == 1)

    @pytest.mark.parametrize("k,stride,pad", CONV_CASES)
    def test_phase_weights(self, k, stride, pad):
        """Stride 1 copies the flipped, channel-swapped kernel once, with no
        staging array; every stride gives the direct construction's values,
        laid out so that ``_group_weights(., 1)`` copies nothing."""
        st, pd = T._triple(stride), T._triple(pad)
        w = np.random.default_rng(zlib.crc32(repr((k, stride, pad)).encode())) \
            .standard_normal((4, 3) + tuple(np.broadcast_to(k, 3))).astype(np.float32)
        lo, got = T._phase_weights(w, st, pd)
        want_lo, want = _phase_weights_direct(w, st, pd)
        assert lo == want_lo and got.shape == want.shape and np.array_equal(got, want)
        if st == (1, 1, 1):
            assert np.array_equal(got, w[..., ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
        assert all(_root(g) is _root(got) for g in T._group_weights(got, 1))


class TestConv3dParts:
    """conv3d on a tuple of Tensors, read as their channel concatenation."""

    @staticmethod
    def _run(inputs, w, b, stride, pad, g):
        """Output and gradients (inputs, then w and b) of the conv over
        ``inputs``: a tuple of parts, or one Tensor."""
        out = T.conv3d(inputs, w, b, stride, pad)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        leaves = (inputs if isinstance(inputs, tuple) else (inputs,)) + (w, b)
        return out.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (4, 2, 1), ((1, 3, 3), 1, (0, 1, 1))])
    @pytest.mark.parametrize("chans,needs", [((2, 3), (True, True)), ((2, 3), (False, True)),
                                             ((1, 3, 2), (True, True, True)),
                                             ((1, 3, 2), (True, False, True))])
    def test_bits_match_concat(self, dtype, k, stride, pad, chans, needs):
        """Output and the gradients of every part, w and b equal those of
        the conv over ``concat(parts, axis=0)`` bit for bit; a part that
        needs no gradient gets none."""
        rng = np.random.default_rng(sum(chans) + len(chans))
        kt = tuple(np.broadcast_to(k, 3))
        arrays = [rng.standard_normal((c, 6, 10, 8)).astype(dtype) for c in chans]
        w = rng.standard_normal((4, sum(chans)) + kt).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        g = rng.standard_normal((4,) + _out_shape((1, 6, 10, 8), w.shape, stride, pad))
        g = g.astype(dtype)

        def leaves():
            parts = tuple(Tensor(a, requires_grad=n) for a, n in zip(arrays, needs))
            return parts, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)

        parts, wt, bt = leaves()
        out, grads = self._run(parts, wt, bt, stride, pad, g)
        parts, wt, bt = leaves()
        whole = T.concat(parts, axis=0)
        want_out, _ = self._run(whole, wt, bt, stride, pad, g)
        want = [p.grad for p in parts] + [wt.grad, bt.grad]
        assert out.dtype == dtype and np.array_equal(out, want_out)
        for got, ref, n in zip(grads, want, needs + (True, True)):
            assert (got is None) == (not n) and (ref is None) == (not n)
            assert got is None or (got.dtype == ref.dtype and np.array_equal(got, ref))

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (4, 2, 1)])
    def test_bits_match_concat_across_slabs(self, monkeypatch, k, stride, pad):
        """With one output row per chunk a deep volume spans several slabs,
        each of which copies every part's planes into its channel range."""
        rng = np.random.default_rng(31)
        arrays = [rng.standard_normal((c, 21, 5, 4)) for c in (1, 2)]
        w = rng.standard_normal((3, 3, k, k, k))
        b = rng.standard_normal(3)
        g = rng.standard_normal((3,) + _out_shape((1, 21, 5, 4), w.shape, stride, pad))
        _shrink_workspace(monkeypatch, (3, 21, 5, 4), w.shape, stride, pad, 8, rows=True)
        results = []
        for joined in (False, True):
            parts = tuple(Tensor(a, requires_grad=True) for a in arrays)
            wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            out, _ = self._run(T.concat(parts, axis=0) if joined else parts,
                               wt, bt, stride, pad, g)
            results.append([out] + [t.grad for t in parts + (wt, bt)])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_gradcheck(self):
        rng = np.random.default_rng(32)
        arrays = [rng.standard_normal((2, 5, 6, 4)), rng.standard_normal((1, 5, 6, 4)),
                  rng.standard_normal((3, 3, 3, 3, 3)) * 0.4, rng.standard_normal(3) * 0.1]
        gradcheck(lambda a, c, w, b: T.tsum(T.square(T.conv3d((a, c), w, b, 1, 1))), arrays)

    @pytest.mark.parametrize("shapes,dtypes", [(((2, 4, 4, 4), (1, 4, 4, 5)), (np.float32,) * 2),
                                               (((2, 4, 4, 4), (1, 3, 4, 4)), (np.float32,) * 2),
                                               (((2, 4, 4, 4), (1, 4, 4, 4)),
                                                (np.float32, np.float64)),
                                               (((2, 4, 4, 4), (2, 4, 4, 4)), (np.float32,) * 2),
                                               (((2, 4, 4, 4), (1, 4, 4)), (np.float32,) * 2),
                                               ((), ())])
    def test_bad_parts_rejected(self, shapes, dtypes):
        """Parts of another (D, H, W), dtype or rank, channels that do not
        add up to the weight's C_in, and an empty tuple."""
        parts = tuple(Tensor(np.zeros(s, d)) for s, d in zip(shapes, dtypes))
        with pytest.raises(ShapeError):
            T.conv3d(parts, Tensor(np.zeros((2, 3, 3, 3, 3), np.float32)),
                     Tensor(np.zeros(2, np.float32)), 1, 1)

    @pytest.mark.parametrize("hw_in,hw_out", [((5, 3), (10, 6)), ((5, 3), (9, 7)),
                                              ((4, 6), (4, 3))])
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), ((1, 3, 3), 1, (0, 1, 1)), (4, 2, 1)])
    @pytest.mark.parametrize("rows", [False, True])
    def test_resampled_part_bits_match_concat(self, monkeypatch, hw_in, hw_out, k, stride, pad,
                                              rows):
        """A part ``(e, plans)`` gives the output and the gradients of e,
        the other part, w and b of the conv over ``concat(resize3d(e,
        plans), h)`` bit for bit: float32, odd H and W (and a contracting
        W), the whole workspace and one output row per chunk."""
        rng = np.random.default_rng(sum(hw_in + hw_out) + rows)
        d, kt = 6, tuple(np.broadcast_to(k, 3))
        e = rng.standard_normal((3, d) + hw_in).astype(np.float32)
        hx = rng.standard_normal((2, d) + hw_out).astype(np.float32)
        w = rng.standard_normal((4, 5) + kt).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        g = rng.standard_normal((4,) + _out_shape((1, d) + hw_out, w.shape, stride, pad))
        g = g.astype(np.float32)
        if rows:
            _shrink_workspace(monkeypatch, (5, d) + hw_out, w.shape, stride, pad, 4, rows=True)
        plans = [T.interp_plan(n, m, False, np.float32)
                 for n, m in zip((d,) + hw_in, (d,) + hw_out)]
        results = []
        for joined in (False, True):
            et, ht = Tensor(e, requires_grad=True), Tensor(hx, requires_grad=True)
            wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            inputs = (T.concat([T.resize3d(et, plans), ht], axis=0) if joined
                      else ((et, plans), ht))
            out = T.conv3d(inputs, wt, bt, stride, pad)
            T.backward(T.tsum(T.mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in (et, ht, wt, bt)])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32 and np.array_equal(got, want)

    def test_resampled_part_gradcheck(self):
        rng = np.random.default_rng(33)
        e = rng.standard_normal((2, 3, 3, 2))
        plans = Interp((1, 2, 2.5)).plans(e.shape, np.float64)
        arrays = [e, rng.standard_normal((1, 3, 6, 5)),
                  rng.standard_normal((3, 3, 3, 3, 3)) * 0.4, rng.standard_normal(3) * 0.1]
        gradcheck(lambda e, c, w, b: T.tsum(T.square(T.conv3d(((e, plans), c), w, b, 1, 1))),
                  arrays)

    def test_resampled_part_is_not_taped(self):
        """The conv is the one tape node: the resample is never built."""
        e = Tensor(np.ones((2, 4, 3, 3), np.float32), requires_grad=True)
        h = Tensor(np.ones((1, 4, 6, 6), np.float32), requires_grad=True)
        out = T.conv3d(((e, Interp((1, 2, 2)).plans(e.shape, e.dtype)), h),
                       Tensor(np.ones((2, 3, 3, 3, 3), np.float32)),
                       Tensor(np.zeros(2, np.float32)), 1, 1)
        assert out.shape == (2, 4, 6, 6) and len(T.active_tape()) == 1
        T.backward(T.tsum(out))
        assert e.grad.shape == e.shape and h.grad.shape == h.shape

    @pytest.mark.parametrize("case", ["depth", "fit", "extent", "dtype"])
    def test_bad_resampled_part_rejected(self, case):
        """Plans that change depth or do not fit their Tensor, and a
        resample whose extent or dtype differs from the other part's."""
        e = Tensor(np.zeros((2, 4, 3, 3), np.float32))
        h = Tensor(np.zeros((1, 4, 6, 6), np.float32))
        plans = Interp((1, 2, 2)).plans(e.shape, e.dtype)
        if case == "depth":
            plans, h = Interp(2.0).plans(e.shape, e.dtype), Tensor(np.zeros((1, 8, 6, 6), np.float32))
        elif case == "fit":
            plans = Interp((1, 2, 2)).plans((2, 4, 3, 4), e.dtype)
        elif case == "extent":
            h = Tensor(np.zeros((1, 4, 6, 5), np.float32))
        else:
            h = Tensor(np.zeros((1, 4, 6, 6), np.float64))
        with pytest.raises(ShapeError):
            T.conv3d(((e, plans), h), Tensor(np.zeros((2, 3, 3, 3, 3), np.float32)),
                     Tensor(np.zeros(2, np.float32)), 1, 1)

    def test_upsample_takes_one_tensor(self):
        parts = (Tensor(np.zeros((2, 4, 4, 4), np.float32)),
                 Tensor(np.zeros((1, 4, 4, 4), np.float32)))
        with pytest.raises(ShapeError):
            T.conv3d(parts, Tensor(np.zeros((2, 3, 3, 3, 3), np.float32)),
                     Tensor(np.zeros(2, np.float32)), 1, 1, upsample=True)


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

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("cout", [1, 4])
    @pytest.mark.parametrize("workspace", ["whole", "slices", "rows"])
    def test_no_grad_fold_bits_match_padded_fold(self, folded, monkeypatch, d, cout, workspace):
        """The edge-bordered slab and the per-chunk interleave give the bits
        of an edge-padded copy of x, a whole phase array and one interleave
        (``upconv3d_padded_fold``): at depths 1, 2, 3 and 8, odd H and W,
        C_out 1 and 4, with the whole workspace, two slices per chunk and
        one output row per chunk."""
        rng = np.random.default_rng(10 * d + cout)
        x = rng.standard_normal((3, d, 7, 5)).astype(np.float32)
        w = rng.standard_normal((cout, 3, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        if workspace != "whole":
            k, halo = T._unfold_rows(3, (3, 3, 3), (1, 1, 1))
            budget = 1 if workspace == "rows" else 2 * (7 + halo) * 5 * k * 4
            monkeypatch.setattr(T, "CONV_WORKSPACE_BYTES", budget)
        with T.no_grad():
            got = _upconv(Tensor(x), Tensor(w), Tensor(b)).data
        want = upconv3d_padded_fold(x, w, b)
        assert got.dtype == want.dtype == np.float32 and np.array_equal(got, want)

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
        upsampled input, an edge-padded copy of its input or a whole phase
        array: it holds the 8 MB output, one slab and unfold buffer, one
        chunk's phases and then one face's upsampled planes at a time,
        13.1 MB. With the padded copy and the phase array it held 18.6."""
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
        assert peak < 15 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_depth_slice", [False, True])
    @pytest.mark.parametrize("shape,groups", [((6, 5, 3, 7), 1), ((6, 5, 3, 7), 3),
                                              ((4, 3, 9, 2), 2), ((8, 2, 4, 4), 4)])
    def test_bits_match_oracle(self, dtype, per_depth_slice, shape, groups):
        """Output and the x, gamma and beta gradients equal the whole-array
        expressions bit for bit, with gamma != 1 and beta != 0."""
        rng = np.random.default_rng(sum(shape) + groups)
        x = (3.0 * rng.standard_normal(shape) + 0.5).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, shape[0]).astype(dtype)
        beta = rng.standard_normal(shape[0]).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = T.group_norm(xt, groups, gt, bt, per_depth_slice=per_depth_slice)
        # d(sum(out * g))/d(out) is exactly g
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        want = group_norm_direct(x, groups, gamma, beta, g, per_depth_slice=per_depth_slice)
        for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad), want):
            assert got.dtype == dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("per_depth_slice", [False, True])
    def test_no_grad_peak_is_the_output(self, per_depth_slice):
        """A no-grad call on a 4 MiB float32 input allocates its output and
        small statistics only; holding ``x - mu``, its square and the
        normalized input as separate temporaries peaked at 12 MiB."""
        x = np.random.default_rng(7).standard_normal((16, 16, 64, 64)).astype(np.float32)
        gamma = Tensor(np.full(16, 1.5, np.float32))
        beta = Tensor(np.full(16, 0.25, np.float32))
        with T.no_grad():
            tracemalloc.start()
            try:
                T.group_norm(Tensor(x), 4, gamma, beta, per_depth_slice=per_depth_slice)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < x.nbytes + 2 ** 18, f"traced peak {peak / 2 ** 20:.2f} MiB"


class TestBatchNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [False, True])
    def test_bits_match_oracle(self, dtype, training):
        """Output, the x, gamma and beta gradients and the running
        statistics equal the whole-array float64 expressions bit for bit,
        with gamma != 1 and beta != 0."""
        rng = np.random.default_rng(33 + training)
        x = (2.0 * rng.standard_normal((5, 3, 6, 7)) + 0.5).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 5).astype(dtype)
        beta = rng.standard_normal(5).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        mean0, var0 = rng.standard_normal(5), rng.uniform(0.5, 2.0, 5)
        rm, rv = mean0.copy(), var0.copy()
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = T.batch_norm(xt, gt, bt, rm, rv, training)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        want_rm, want_rv = mean0.copy(), var0.copy()
        want = batch_norm_direct(x, gamma, beta, want_rm, want_rv, training, g)
        for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad, rm, rv),
                            want + (want_rm, want_rv)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert out.data.dtype == dtype

    @pytest.mark.parametrize("training", [False, True])
    def test_no_grad_peak_is_the_output(self, training):
        """A no-grad call on a 4 MiB float32 input allocates its output, a
        one-channel float64 buffer (0.5 MiB) and numpy's cast buffer; the
        whole-array float64 expressions peaked at 24 MiB."""
        x = np.random.default_rng(34).standard_normal((16, 16, 64, 64)).astype(np.float32)
        gamma = Tensor(np.full(16, 1.5, np.float32))
        beta = Tensor(np.full(16, 0.25, np.float32))
        with T.no_grad():
            tracemalloc.start()
            try:
                T.batch_norm(Tensor(x), gamma, beta, np.zeros(16), np.ones(16), training)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < x.nbytes + 2 * x.nbytes // 16 + 2 ** 17, \
            f"traced peak {peak / 2 ** 20:.2f} MiB"


    @pytest.mark.parametrize("training", [False, True])
    def test_backward_peak_and_gamma_dtype(self, training):
        """Backward of ``tsum(out * g)`` on a 4 MiB float32 input holds the
        output's and the input's gradient (4 MiB each) and a one-channel
        float64 buffer (0.5 MiB); the whole-array float64 expressions
        peaked at 24.0 MiB. Gamma's gradient has gamma's dtype."""
        rng = np.random.default_rng(35)
        x = Tensor(rng.standard_normal((16, 16, 64, 64)).astype(np.float32),
                   requires_grad=True)
        gamma = Tensor(np.linspace(0.5, 1.5, 16).astype(np.float32), requires_grad=True)
        beta = Tensor(np.full(16, 0.25, np.float32), requires_grad=True)
        out = T.batch_norm(x, gamma, beta, np.zeros(16), np.ones(16), training)
        loss = T.tsum(T.mul(out, Tensor(rng.standard_normal(x.shape).astype(np.float32))))
        tracemalloc.start()
        try:
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gamma.grad.dtype == gamma.data.dtype == beta.grad.dtype
        assert x.grad.dtype == np.float32
        assert peak < 2 * x.data.nbytes + x.data.nbytes // 8 + 2 ** 18, \
            f"traced peak {peak / 2 ** 20:.2f} MiB"


def _sn_calls(w: Tensor, u: np.ndarray, k: int) -> Tensor:
    """``k`` training calls of ``spectral_norm``, which take ``u`` through
    ``k`` power steps; returns the last call's output."""
    for _ in range(k):
        out = T.spectral_norm(w, u)
    return out


class TestSpectralNorm:
    def test_identity_unchanged(self):
        w = Tensor(np.eye(3))
        u = np.array([1.0, 0.0, 0.0])
        out = _sn_calls(w, u, 5)
        assert np.allclose(out.data, np.eye(3), atol=1e-12)

    def test_diag_sigma(self):
        w = np.diag([3.0, 1.0])
        u = np.array([0.6, 0.8])
        u /= np.linalg.norm(u)
        out = _sn_calls(Tensor(w), u, 20)
        assert np.allclose(out.data, w / 3, atol=1e-6)

    def test_random_matrix_normalized(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((8, 8))
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        out = _sn_calls(Tensor(w), u, 5)
        top = np.linalg.svd(out.data, compute_uv=False)[0]
        assert abs(top - 1.0) < 0.05

    def test_svd_oracle_up_to_64(self):
        rng = np.random.default_rng(8)
        for n in (4, 16, 64):
            w = rng.standard_normal((n, n))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            out = _sn_calls(Tensor(w), u, 30)
            top = np.linalg.svd(out.data, compute_uv=False)[0]
            assert 0.95 < top < 1.05

    def test_zero_weight_degenerate(self):
        w = Tensor(np.zeros((3, 3)))
        u = np.array([1.0, 0.0, 0.0])
        with pytest.warns(UserWarning, match="degenerate"):
            out = T.spectral_norm(w, u)
        assert np.array_equal(out.data, np.zeros((3, 3)))
        assert np.array_equal(u, [1.0, 0.0, 0.0])

    def test_nan_weight_propagates(self):
        """A NaN weight is not degenerate: its NaN reaches u and the output."""
        u = np.array([1.0, 0.0])
        out = T.spectral_norm(Tensor(np.array([[np.nan, 1.0], [0.0, 1.0]])), u)
        assert np.isnan(u).all() and np.isnan(out.data).all()

    @pytest.mark.parametrize("layer,x_shape", [
        (Conv3d(2, 3, 3, 1, 1, spectral=True), (2, 3, 4, 4)),
        (Dense(5, 4, spectral=True), (5,)),
    ], ids=["conv3d", "dense"])
    def test_taped_calls_keep_their_u(self, layer, x_shape):
        """Two taped training calls, then one backward, as phase d runs a
        discriminator on real and then fake input: the weight gradient is
        the sum of the two calls' gradients, each taken alone from the u
        that call started with. An eval call leaves u unchanged and returns
        w / |u^T W v|."""
        rng = np.random.default_rng(30)
        layer.build(ParamStore(), rng, "sn", np.float64)
        u0 = layer.u.copy()
        xs = [Tensor(rng.standard_normal(x_shape)) for _ in range(2)]
        probes = [Tensor(rng.standard_normal(layer.out_shape(x_shape))) for _ in range(2)]

        def loss(k):
            return T.tsum(T.mul(layer.forward(xs[k], training=True), probes[k]))

        T.backward(T.add(loss(0), loss(1)))
        together = layer.w.grad
        layer.w.zero_grad()
        layer.u[:] = u0
        alone, starts = [], []
        for k in range(2):
            starts.append(layer.u.copy())
            T.backward(loss(k))
            alone.append(layer.w.grad)
            layer.w.zero_grad()
        assert not np.allclose(starts[0], starts[1])
        assert np.allclose(together, alone[0] + alone[1], rtol=1e-10, atol=1e-12)

        u = layer.u.copy()
        wmat = layer.w.data.reshape(len(u), -1)
        v = wmat.T @ u / np.linalg.norm(wmat.T @ u)
        out = T.spectral_norm(layer.w, layer.u, update=False)
        assert np.array_equal(layer.u, u)
        assert np.allclose(out.data, layer.w.data / abs(u @ wmat @ v), rtol=1e-12)
        with T.no_grad():
            layer.forward(xs[0], training=False)
        assert np.array_equal(layer.u, u)


class TestActivations:
    def test_tanh_zero(self):
        assert T.tanh(Tensor(np.zeros(3))).data[0] == 0.0

    def test_leaky_relu_slope(self):
        out = T.leaky_relu(Tensor(np.array([-1.0])), alpha=0.2)
        assert np.isclose(out.data[0], -0.2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_bytes_match_oracle(self, dtype):
        """Output and input gradient equal the two selects byte for byte,
        for ±0, ±inf, NaN, subnormals and ordinary values alike."""
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1.0, -1.0],
                           dtype)
        rng = np.random.default_rng(8)
        x = np.concatenate([special, rng.standard_normal(53).astype(dtype)]).reshape(7, 9)
        g = rng.standard_normal(x.shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = T.leaky_relu(xt, alpha=0.2)
        with np.errstate(invalid="ignore"):     # the loss sums inf and -inf
            T.backward(T.tsum(T.mul(out, Tensor(g))))
        want_out, want_gx = leaky_relu_direct(x, 0.2, g)
        assert out.data.dtype == xt.grad.dtype == dtype
        assert out.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == want_gx.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [1.0, 0.3, 1.7])
    def test_elu_bytes_match_oracle(self, dtype, alpha):
        """Output and input gradient equal the selects over a separately
        built negative branch byte for byte, for ±0, ±inf, NaN, subnormals
        and ordinary values alike."""
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 1.0, -1.0],
                           dtype)
        rng = np.random.default_rng(35)
        x = np.concatenate([special, 3.0 * rng.standard_normal(53).astype(dtype)]).reshape(7, 9)
        g = rng.standard_normal(x.shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = T.elu(xt, alpha=alpha)
        with np.errstate(invalid="ignore"):     # the loss sums inf and -inf
            T.backward(T.tsum(T.mul(out, Tensor(g))))
        want_out, want_gx = elu_direct(x, alpha, g)
        assert out.data.dtype == xt.grad.dtype == dtype
        assert out.data.tobytes() == want_out.tobytes()
        assert xt.grad.tobytes() == want_gx.tobytes()

    def test_elu_no_grad_peak_is_the_output(self):
        """A no-grad call on a 4 MiB float32 input allocates its output and
        a 1 MiB boolean mask; the separate negative branch and select
        peaked at 9 MiB."""
        x = np.random.default_rng(36).standard_normal((16, 16, 64, 64)).astype(np.float32)
        with T.no_grad():
            tracemalloc.start()
            try:
                T.elu(Tensor(x))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < x.nbytes + x.size + 2 ** 16, f"traced peak {peak / 2 ** 20:.2f} MiB"

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

    def test_add_of_nodes_with_other_consumers(self):
        """p and q meet in one add and each feeds another op too: their
        gradients are accumulated apart, so w.grad is 1 + 1 + 2 + 3."""
        w = Tensor(np.array([1.0]), requires_grad=True)
        p, q = T.mul(w, 1.0), T.mul(w, 1.0)
        y, z = T.mul(p, 2.0), T.mul(q, 3.0)
        T.backward(T.tsum(T.add(T.add(T.add(p, q), y), z)))
        assert w.grad[0] == 7.0

    def test_added_leaves_accumulate_apart(self):
        """Two leaves summed by add keep gradient arrays of their own
        across two backwards."""
        a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        T.backward(T.tsum(T.square(T.add(a, b))))
        T.backward(T.tsum(T.mul(T.add(a, b), T.add(a, b))))
        assert a.grad is not b.grad
        assert np.array_equal(a.grad, [8.0] * 3) and np.array_equal(b.grad, [8.0] * 3)

    def test_optimize_clips_added_leaves_once(self):
        """Gradient 3 on each of six entries has norm sqrt(54); clipping to
        1 leaves 1/sqrt(6) on every entry, which adam_step's first moment
        holds at its default beta1 = 0."""
        store = ParamStore()
        a = store.register("net/a", Tensor(np.ones(3)))
        b = store.register("net/b", Tensor(np.ones(3)))
        T.backward(T.tsum(T.mul(T.add(a, b), 3.0)))
        optimize(store, lr=0.1, clip_norm=1.0)
        for name in ("net/a", "net/b"):
            assert np.allclose(store.adam_state[name][0], 1.0 / np.sqrt(6.0))


    @pytest.mark.parametrize("op,want", [(T.add, 3.0), (T.sub, -3.0), (T.mul, 3.0)])
    def test_0d_operand_takes_a_0d_array(self, op, want):
        x = Tensor(np.ones(3), requires_grad=True)
        s = Tensor(np.array(2.0), requires_grad=True)
        T.backward(T.tsum(op(x, s)))
        assert type(s.grad) is np.ndarray and s.grad.shape == () and s.grad == want

    def test_optimize_clips_a_0d_parameter(self):
        """Gradients 3, 3, 3 on x and 9 on the 0-d s have norm sqrt(108);
        the in-place clip scales s's 0-d array too, so its first moment
        (beta1 = 0) holds 9 / sqrt(108), not 9."""
        store = ParamStore()
        x = store.register("net/x", Tensor(np.ones(3)))
        s = store.register("net/s", Tensor(np.array(0.5)))
        T.backward(T.tsum(T.mul(T.add(x, s), 3.0)))
        optimize(store, lr=0.1, clip_norm=1.0)
        assert np.allclose(store.adam_state["net/s"][0], 9.0 / np.sqrt(108.0))
        assert np.allclose(store.adam_state["net/x"][0], 3.0 / np.sqrt(108.0))


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
        T.backward(loss)
        optimize(store, lr=0.1)
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
        T.backward(loss)
        optimize(store, lr=0.1, clip_norm=2.0)
        # gradient (12, -16) has norm 20; clipping rescales it to norm 2
        assert np.allclose(seen[0], [1.2, -1.6])

    @pytest.mark.parametrize("shape", [(), (257,), (4, 8, 8, 8)])
    @pytest.mark.parametrize("beta1", [0.0, 0.9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_textbook_bitwise(self, dtype, beta1, shape):
        """Three in-place steps give the bits of the textbook expression,
        evaluated with fresh temporaries, in moments and parameters, for a
        0-d parameter too; the gradient is left as it was."""
        rng = np.random.default_rng(zlib.crc32(repr((dtype, beta1, shape)).encode()))
        lr, beta2, eps = 1e-3, 0.999, 1e-8
        store = ParamStore()
        p = store.register("net/w", Tensor(rng.standard_normal(shape).astype(dtype)))
        want, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        for t in range(1, 4):
            g = rng.standard_normal(shape).astype(dtype)
            p.grad = g.copy()
            adam_step(store, lr, beta1=beta1, beta2=beta2, eps=eps)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            mhat = m / (1.0 - beta1 ** t)
            vhat = v / (1.0 - beta2 ** t)
            want = want - (lr * mhat / (np.sqrt(vhat) + eps)).astype(dtype)
            sm, sv, st = store.adam_state["net/w"]
            assert type(p.data) is np.ndarray and p.data.shape == shape and st == t
            assert p.data.dtype == sm.dtype == sv.dtype == dtype
            assert np.array_equal(p.grad, g)
            assert np.array_equal(sm, m) and np.array_equal(sv, v)
            assert np.array_equal(p.data, want)


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
            # 49 untaped power steps, then one taped call
            u = u0.copy()
            _sn_calls(Tensor(w), u, 49)
            wt = Tensor(w.copy(), requires_grad=True)
            T.backward(T.tsum(T.square(T.spectral_norm(wt, u))))
            return wt.grad
        ana = op_analytic()

        def f(x):
            out = _sn_calls(Tensor(x), u0.copy(), 50)
            return float(T.tsum(T.square(out)).data)
        num = finite_difference(f, w)
        assert rel_err(ana, num) < 1e-4


# every node of a random graph has this (C, D, H, W) shape
_DAG_SHAPE = (2, 1, 2, 2)


def _random_program(rng, n_leaves: int, n_ops: int = 8) -> list:
    """A random graph over ``n_leaves`` leaves, as steps ``(op, operand
    indices, constants)``; a step's result is node ``n_leaves + step``.
    Operands are drawn with replacement, so nodes have several consumers,
    and an op may take the same node twice."""
    steps = []
    for k in range(n_ops):
        n = n_leaves + k
        op = ["add", "sub", "mul", "scale", "square", "tanh", "sigmoid",
              "reshape", "concat_slice", "conv_parts"][rng.integers(10)]
        args = tuple(int(i) for i in rng.integers(n, size=2))
        if op == "scale":
            const = float(rng.uniform(-1.5, 1.5))
        elif op == "concat_slice":
            axis = int(rng.integers(4))
            const = (axis, int(rng.integers(_DAG_SHAPE[axis] + 1)))
        elif op == "conv_parts":
            # one operand named twice, or two operands, as conv3d's parts
            if rng.random() < 0.5:
                args = (args[0], args[0])
            c = _DAG_SHAPE[0]
            const = rng.standard_normal((c, 2 * c, 3, 3, 3)) * 0.2
        else:
            const = None
        steps.append((op, args, const))
    return steps


def _run_program(steps, leaves, weight) -> Tensor:
    """The loss of ``steps`` on ``leaves``: the weighted sum of every node
    no step consumes, added up with ``add`` in node order."""
    nodes = list(leaves)
    for op, (i, j), const in steps:
        x, y = nodes[i], nodes[j]
        if op in ("add", "sub", "mul"):
            out = getattr(T, op)(x, y)
        elif op == "scale":
            out = T.mul(x, const)
        elif op in ("square", "tanh", "sigmoid"):
            out = getattr(T, op)(x)
        elif op == "reshape":
            out = T.reshape(T.reshape(x, (4, -1)), _DAG_SHAPE)
        elif op == "concat_slice":
            axis, start = const
            out = T.slice_axis(T.concat([x, y], axis=axis), axis, start, _DAG_SHAPE[axis])
        else:
            out = T.conv3d((x, y), Tensor(const), Tensor(np.zeros(len(const))), 1, 1)
        nodes.append(out)
    used = {i for _, args, _ in steps for i in args}
    sinks = [t for k, t in enumerate(nodes) if k not in used]
    total = sinks[0]
    for t in sinks[1:]:
        total = T.add(total, t)
    return T.tsum(T.mul(total, Tensor(weight)))


class TestRandomGraphs:
    """Seeded random graphs of tape ops against central differences
    (64-bit): shared subexpressions, nodes with several consumers, and two
    backwards into the same leaves before their gradients are read."""

    def test_gradients_match_finite_differences(self):
        failed = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            arrays = [rng.uniform(-1, 1, _DAG_SHAPE) for _ in range(2)]
            runs = [(_random_program(rng, len(arrays)), rng.uniform(-1, 1, _DAG_SHAPE))
                    for _ in range(2)]
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            for steps, weight in runs:
                T.backward(_run_program(steps, leaves, weight))
            for k, leaf in enumerate(leaves):
                def f(x, k=k):
                    args = [Tensor(x if i == k else a) for i, a in enumerate(arrays)]
                    return sum(float(_run_program(steps, args, weight).data)
                               for steps, weight in runs)
                got = np.zeros(_DAG_SHAPE) if leaf.grad is None else leaf.grad
                if rel_err(got, finite_difference(f, arrays[k])) > 1e-5:
                    failed.append(seed)
                    break
        assert not failed, f"gradients differ from finite differences at seeds {failed}"


class TestLiveSet:
    def _counts(self):
        gc.collect()
        return T.METER.act_bytes, T.METER.grad_bytes

    def test_split_at_peak(self):
        s = T.LiveSet()
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (0, 0, 0)
        assert s.add(50) == 50
        assert s.add(grad=30) == 30                     # 80: the peak
        s.add(-50)
        s.add(grad=40)                                  # 70: below the peak
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (80, 50, 30)
        assert (s.act_bytes, s.grad_bytes, s.current_total()) == (0, 70, 70)
        s.add(grad=20)                                  # 90: a new peak
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (90, 0, 90)
        s.add(grad=-90)
        s.reset_peak()
        assert (s.peak_total, s.peak_act_bytes, s.peak_grad_bytes) == (0, 0, 0)

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
