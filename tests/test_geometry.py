"""Window selection, resolution synchronization, partitioning."""

import numpy as np
import pytest
from scipy import stats

from conftest import finite_difference, rel_err
from slabgan import tensor as T
from slabgan.geometry import (SliceWindow, deterministic_windows, sample_r,
                              select_high, select_low, split_volume)
from slabgan.tensor import ShapeError, Tensor, concat


class TestSelectLow:
    def test_indexing(self):
        a = Tensor(np.arange(64, dtype=np.float64)[None, :, None, None]
                   * np.ones((1, 64, 2, 2)))
        out = select_low(a, SliceWindow(12, 8))
        assert out.shape == (1, 8, 2, 2)
        assert np.array_equal(out.data[0, :, 0, 0], np.arange(12, 20))

    def test_full_window_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 6, 3, 3))
        out = select_low(Tensor(a), SliceWindow(0, 6))
        assert np.array_equal(out.data, a)

    def test_gradient_mask(self):
        a = Tensor(np.random.default_rng(1).standard_normal((1, 6, 2, 2)),
                   requires_grad=True)
        T.backward(T.tsum(select_low(a, SliceWindow(2, 3))))
        g = a.grad
        assert np.all(g[:, 2:5] == 1.0)
        assert np.all(g[:, :2] == 0.0) and np.all(g[:, 5:] == 0.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1, 6, 2, 2))
        at = Tensor(a.copy(), requires_grad=True)
        T.backward(T.tsum(T.square(select_low(at, SliceWindow(1, 3)))))

        def f(x):
            return float(T.tsum(T.square(select_low(Tensor(x), SliceWindow(1, 3)))).data)
        assert rel_err(at.grad, finite_difference(f, a)) < 1e-4

    def test_out_of_bounds(self):
        with pytest.raises(ShapeError):
            select_low(Tensor(np.zeros((1, 8, 2, 2))), SliceWindow(6, 4))


class TestSelectHigh:
    def test_scaled_window(self):
        w = SliceWindow(12, 8, resolution_scale=4)
        assert (w.high_start, w.high_length) == (48, 32)
        vol = np.arange(256, dtype=np.float64)[:, None, None] * np.ones((256, 2, 2))
        out = select_high(vol, w)
        assert out.shape == (1, 32, 2, 2)
        assert out[0, 0, 0, 0] == 48
        assert np.shares_memory(out, vol)       # a view, not a copy

    def test_out_of_bounds(self):
        with pytest.raises(ShapeError):
            select_high(np.zeros((16, 2, 2)), SliceWindow(6, 4, resolution_scale=2))

    def test_reference_subvolume_extent(self):
        # 1/8 of a 256-deep volume at scale 4: a 32 x 256^2 slab
        w = SliceWindow(8, 8, resolution_scale=4)
        assert w.high_length == 32

    def test_degenerate_scale_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 2, 2))
        w = SliceWindow(3, 4, resolution_scale=1)
        assert np.array_equal(select_high(x, w), select_low(Tensor(x[None]), w).data)


class TestSampleR:
    def test_uniformity_chi2(self):
        rng = np.random.default_rng(4)
        depth, length = 64, 8
        n_draw = 10000
        counts = np.zeros(depth - length + 1)
        for _ in range(n_draw):
            counts[sample_r(depth, length, rng).start] += 1
        chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
        p = stats.chi2.sf(chi2, df=len(counts) - 1)
        assert p > 0.01

    def test_every_start_observed(self):
        rng = np.random.default_rng(5)
        depth, length = 64, 8
        seen = {sample_r(depth, length, rng).start for _ in range(10000)}
        assert seen == set(range(depth - length + 1))

    def test_full_length_always_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            assert sample_r(16, 16, rng).start == 0

    def test_synchronized_pair(self):
        # the same draw drives both selectors: identical slice percentile
        rng = np.random.default_rng(7)
        w = sample_r(16, 2, rng, resolution_scale=4)
        assert w.high_start == 4 * w.start
        assert w.high_length == 4 * w.length

    def test_length_exceeds_depth(self):
        with pytest.raises(ValueError):
            sample_r(8, 9, np.random.default_rng(0))


def _depth_ramp(depth):
    """A (1, depth, 1, 1) Tensor whose value is its depth index."""
    return Tensor(np.arange(depth, dtype=np.float64)[None, :, None, None])


class TestPartition:
    def test_reference_starts(self):
        parts = split_volume(_depth_ramp(256), 8)
        assert [p.data[0, 0, 0, 0] for p in parts] == list(range(0, 256, 32))
        assert all(p.shape == (1, 32, 1, 1) for p in parts)

    def test_single_window(self):
        x = _depth_ramp(64)
        (part,) = split_volume(x, 1)
        assert np.array_equal(part.data, x.data)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 8, 3, 3))
        parts = split_volume(Tensor(x), 4)
        rec = concat(parts, axis=1)
        assert np.array_equal(rec.data, x)

    def test_indivisible_depth(self):
        with pytest.raises(ShapeError):
            split_volume(_depth_ramp(10), 3)

    def test_windows_disjoint_covering(self):
        covered = []
        for p in split_volume(_depth_ramp(48), 6):
            covered.extend(p.data[0, :, 0, 0].astype(int))
        assert covered == list(range(48))


class TestConcat:
    def test_two_blocks(self):
        a = Tensor(np.zeros((1, 2, 2, 2)))
        b = Tensor(np.ones((1, 2, 2, 2)))
        out = concat([a, b], axis=1)
        assert out.shape == (1, 4, 2, 2)
        assert np.all(out.data[:, :2] == 0) and np.all(out.data[:, 2:] == 1)

    def test_gradient_splits(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((1, 2, 2, 2))
        b = rng.standard_normal((1, 3, 2, 2))
        at = Tensor(a.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        T.backward(T.tsum(T.square(concat([at, bt], axis=1))))

        def fa(x):
            return float(T.tsum(T.square(concat([Tensor(x), Tensor(b)], axis=1))).data)
        assert rel_err(at.grad, finite_difference(fa, a)) < 1e-4
        assert np.allclose(bt.grad, 2 * b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros((2, 2, 2, 2)))],
                   axis=1)


class TestSynchronizationInvariant:
    @pytest.mark.parametrize("scale", [2, 4])
    def test_nearest_upsample_window_algebra(self, scale):
        """select_high on a nearest-upsampled grid covers exactly the image
        region of the low window, for every valid start."""
        rng = np.random.default_rng(10)
        depth = 16
        a = rng.standard_normal((1, depth, 2, 2))
        up = np.repeat(a, scale, axis=1)        # nearest upsample along depth
        for length in (2, 4):
            for r in range(depth - length + 1):
                w = SliceWindow(r, length, resolution_scale=scale)
                low = select_low(Tensor(a), w).data
                high = select_high(up[0], w)
                assert np.array_equal(high, np.repeat(low, scale, axis=1))


class TestDeterministicWindows:
    def test_cycle_covers_depth(self):
        wins = deterministic_windows(16, 4)
        starts = [w.start for w in wins]
        assert starts == [0, 4, 8, 12]

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            deterministic_windows(10, 4)
