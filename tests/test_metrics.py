"""Metric oracles: closed forms, symmetry, envelopes, cross-checks."""

import numpy as np
import pytest
from scipy import stats as sps

from slabgan.metrics import (DYNAMIC_RANGE, PSNR_MAX_DB, FeatureSet,
                             FingerprintMismatch, FixedExtractor, MetricReport,
                             dice, frechet_distance, hu_window_map, ks_test,
                             median_bandwidth, mmd_rbf, nmse, pca_2d, psnr, ssim)
from slabgan.tensor import ShapeError


def exact_moment_gaussian(rng, n, mean, cov_sqrt_diag):
    """Samples whose *sample* mean/covariance are exactly the requested
    diagonal moments (whitened construction)."""
    f = len(mean)
    x = rng.standard_normal((n, f))
    x -= x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False))
    vals, vecs = np.linalg.eigh(cov)
    white = x @ vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return mean + white * np.asarray(cov_sqrt_diag)


class TestExtractor:
    def test_same_seed_identical(self):
        vol = np.random.default_rng(0).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        a = FixedExtractor(32, seed=5).extract_one(vol)
        b = FixedExtractor(32, seed=5).extract_one(vol)
        assert np.array_equal(a, b)

    def test_different_seed_refused(self):
        vol = np.random.default_rng(1).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        fa = FixedExtractor(32, seed=1).extract([vol, vol])
        fb = FixedExtractor(32, seed=2).extract([vol, vol])
        assert fa.fingerprint != fb.fingerprint
        with pytest.raises(FingerprintMismatch):
            frechet_distance(fa, fb)
        with pytest.raises(FingerprintMismatch):
            mmd_rbf(fa, fb)

    def test_zero_volume_zero_features(self):
        # zero biases + leaky relu fix the origin, so zero input -> zero feature
        ex = FixedExtractor(32, seed=3)
        feats = ex.extract_one(np.zeros((32, 32, 32), np.float32))
        assert np.allclose(feats, 0.0)

    def test_wrong_extent_rejected(self):
        with pytest.raises(ShapeError):
            FixedExtractor(32, seed=0).extract_one(np.zeros((16, 16, 16), np.float32))


class TestFrechet:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((64, 5))
        assert frechet_distance(x, x.copy()) < 1e-8

    def test_univariate_closed_form(self):
        rng = np.random.default_rng(3)
        a = exact_moment_gaussian(rng, 4000, np.array([0.0]), [1.0])
        b = exact_moment_gaussian(rng, 4000, np.array([1.0]), [1.0])
        # (mu diff)^2 + (sigma_a - sigma_b)^2 = 1
        assert abs(frechet_distance(a, b) - 1.0) < 1e-6

    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(4)
        a = exact_moment_gaussian(rng, 2000, np.zeros(3), [2.0, 2.0, 2.0])
        b = exact_moment_gaussian(rng, 2000, np.zeros(3), [1.0, 1.0, 1.0])
        # per dimension (2 - 1)^2, three dimensions -> 3
        assert abs(frechet_distance(a, b) - 3.0) < 1e-6

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 6))
        b = rng.standard_normal((40, 6)) + 0.3
        dab = frechet_distance(a, b)
        dba = frechet_distance(b, a)
        assert dab >= 0 and abs(dab - dba) < 1e-8

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            frechet_distance(np.zeros((1, 3)), np.zeros((5, 3)))


class TestMMD:
    def test_separated_point_masses(self):
        a = np.zeros((20, 3))
        b = np.full((20, 3), 10.0)
        val = mmd_rbf(a, b, bandwidth=1.0)
        assert abs(val - 2.0) < 1e-6

    def test_same_distribution_envelope(self):
        rng = np.random.default_rng(7)
        n = 500
        a = rng.standard_normal((n, 8))
        b = rng.standard_normal((n, 8))
        assert abs(mmd_rbf(a, b)) < 3.0 / np.sqrt(n)

    def test_median_bandwidth_positive(self):
        rng = np.random.default_rng(9)
        assert median_bandwidth(rng.standard_normal((10, 3)),
                                rng.standard_normal((12, 3))) > 0


class TestPairedMetrics:
    def test_identical_images(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(-1, 1, (24, 24, 24))
        assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-12)
        assert nmse(a, a.copy()) == 0.0
        assert psnr(a, a.copy()) == PSNR_MAX_DB

    def test_psnr_constant_offset_closed_form(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-0.5, 0.5, (16, 16, 16))
        b = a + 0.2
        assert psnr(a, b) == pytest.approx(20.0 * np.log10(DYNAMIC_RANGE / 0.2), abs=1e-9)

    def test_ssim_sign_flip_negative(self):
        """Anticorrelated structure drives SSIM below zero on a zero-mean
        two-level pattern."""
        a = np.indices((12, 12, 12)).sum(axis=0) % 2 * 1.0 - 0.5
        assert ssim(a, -a) < 0.0

    def test_ssim_symmetry(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (16, 16, 16))
        b = rng.uniform(-1, 1, (16, 16, 16))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_nmse_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((4, 4, 4)), np.ones((4, 4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((4, 4, 4)), np.zeros((5, 4, 4)))


class TestDice:
    def test_identical(self):
        m = np.random.default_rng(13).random((8, 8, 8)) > 0.5
        assert dice(m, m.copy()) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), bool)
        b = np.zeros((4, 4, 4), bool)
        a[:2] = True
        b[2:] = True
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4, 4), bool)
        b = np.zeros((4, 4, 4), bool)
        a[:2] = True              # 32 voxels
        b[1:3] = True             # 32 voxels, overlap 16
        assert dice(a, b) == 0.5

    def test_empty_pair_is_one(self):
        assert dice(np.zeros((2, 2, 2), bool), np.zeros((2, 2, 2), bool)) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        a = rng.random((6, 6, 6)) > 0.4
        b = rng.random((6, 6, 6)) > 0.6
        assert dice(a, b) == dice(b, a)


class TestKS:
    def test_identical_samples(self):
        x = np.random.default_rng(15).standard_normal(500)
        stat, p = ks_test(x, x.copy())
        assert stat == 0.0
        assert p > 0.999

    def test_shifted_uniform_geometry(self):
        rng = np.random.default_rng(16)
        a = rng.uniform(0, 1, 20000)
        b = rng.uniform(0.5, 1.5, 20000)
        stat, _ = ks_test(a, b)
        assert abs(stat - 0.5) < 0.02

    def test_matches_scipy(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal(400)
        b = rng.standard_normal(500) + 0.1
        stat, p = ks_test(a, b)
        ref = sps.ks_2samp(a, b, method="asymp")
        assert stat == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=0.02)

    def test_p_uniform_under_null_logged(self):
        """KS-of-KS sanity: p-values under the null look uniform (logged)."""
        rng = np.random.default_rng(18)
        ps = []
        for _ in range(50):
            a = rng.standard_normal(1000)
            b = rng.standard_normal(1000)
            ps.append(ks_test(a, b)[1])
        stat, p_meta = ks_test(np.asarray(ps), np.linspace(0, 1, 4001))
        print(f"KS-of-KS: stat={stat:.3f} p={p_meta:.3f}")
        assert p_meta > 1e-3


class TestHUWindow:
    def test_endpoints(self):
        assert hu_window_map(np.array([-1024.0]))[0] == -1.0
        assert hu_window_map(np.array([600.0]))[0] == 1.0

    def test_midpoint(self):
        assert hu_window_map(np.array([-212.0]))[0] == pytest.approx(0.0)

    def test_clipping(self):
        assert hu_window_map(np.array([-2000.0]))[0] == -1.0
        assert hu_window_map(np.array([3000.0]))[0] == 1.0


class TestReportsAndPCA:
    def test_metric_report_line(self):
        line = MetricReport("fid", 0.5, 10, 12, "rx7-abc").line()
        assert "fid" in line and "n_a=10" in line and "rx7-abc" in line

    def test_pca_two_components(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((40, 9))
        emb = pca_2d(x)
        assert emb.shape == (40, 2)
        # components are orthogonal directions of decreasing variance
        assert emb[:, 0].var() >= emb[:, 1].var()
