"""Phantom generator: determinism, class structure, recorded ground truth."""

import tracemalloc

import numpy as np
import pytest
from conftest import ellipsoid_mask_direct, phantom_direct

from slabgan.phantoms import N_CLASSES, _ellipsoid_mask, phantom_dataset, phantom_generate


class TestDeterminism:
    def test_same_seed_bitwise(self):
        _, a = phantom_generate(7, 2, (32, 32, 32))
        _, b = phantom_generate(7, 2, (32, 32, 32))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        _, a = phantom_generate(7, 2, (32, 32, 32))
        _, b = phantom_generate(8, 2, (32, 32, 32))
        assert not np.array_equal(a, b)


class TestStructure:
    def test_range(self):
        _, v = phantom_generate(0, 3, (32, 32, 32))
        assert v.min() >= -1.0 and v.max() <= 1.0
        assert v.dtype == np.float32

    def test_volumes_equal_mask_counts(self):
        ph, _ = phantom_generate(1, 2, (32, 32, 32))
        for key, mask in ph.masks.items():
            assert ph.volumes[key] == int(mask.sum())

    def test_organ_inside_body(self):
        ph, _ = phantom_generate(2, 1, (32, 32, 32))
        assert np.all(ph.masks["body"][ph.masks["organ"]])

    def test_lesion_fraction_increases_with_class(self):
        """Class 4 carries a larger mean lesion-mask fraction than class 0
        (checked over 100 seeds per class)."""
        fractions = {0: [], 4: []}
        for cls in fractions:
            for seed in range(100):
                ph, _ = phantom_generate(seed, cls, (24, 24, 24))
                fractions[cls].append(ph.masks["lesions"].mean())
        assert np.mean(fractions[4]) > np.mean(fractions[0])
        assert np.mean(fractions[0]) < 0.01

    def test_lesion_count_monotone_in_expectation(self):
        counts = []
        for cls in range(N_CLASSES):
            counts.append(np.mean([phantom_generate(s, cls, (16, 16, 16))[0].lesion_count
                                   for s in range(30)]))
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_organ_factor_recorded(self):
        ph, _ = phantom_generate(3, 0, (32, 32, 32))
        assert 0.2 < ph.organ_factor < 0.55


class TestValidation:
    def test_extents_too_small(self):
        with pytest.raises(ValueError):
            phantom_generate(0, 0, (8, 8, 8))

    def test_class_out_of_range(self):
        with pytest.raises(ValueError):
            phantom_generate(0, 5, (32, 32, 32))

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            phantom_dataset(0, extents=(16, 16, 16))


class TestDataset:
    def test_balanced_labels(self):
        _, labels, _ = phantom_dataset(10, extents=(16, 16, 16), base_seed=0)
        assert np.bincount(labels, minlength=5).tolist() == [2, 2, 2, 2, 2]

    def test_shapes(self):
        vols, labels, recs = phantom_dataset(4, extents=(16, 16, 16), base_seed=1)
        assert vols.shape == (4, 16, 16, 16)
        assert len(labels) == len(recs) == 4

    def test_deterministic(self):
        a, _, _ = phantom_dataset(3, extents=(16, 16, 16), base_seed=2)
        b, _, _ = phantom_dataset(3, extents=(16, 16, 16), base_seed=2)
        assert np.array_equal(a, b)


class TestOracle:
    """Box-clipped masks and float32 composition give the whole-grid float64
    oracle's bits."""

    @pytest.mark.parametrize("extents", [(16, 16, 16), (24, 24, 24), (16, 24, 40),
                                         (64, 64, 64)])
    def test_bitwise_equal_to_direct(self, extents):
        seeds = range(2) if max(extents) == 64 else range(6)
        for seed in seeds:
            for cls in range(N_CLASSES):
                ph, vol = phantom_generate(seed, cls, extents)
                masks, counts, organ_factor, lesion_count, ref = phantom_direct(seed, cls,
                                                                                extents)
                assert vol.dtype == np.float32 and np.array_equal(vol, ref)
                assert ph.masks.keys() == masks.keys()
                for key, mask in masks.items():
                    assert np.array_equal(ph.masks[key], mask), (seed, cls, key)
                assert ph.volumes == counts
                assert (ph.organ_factor, ph.lesion_count) == (organ_factor, lesion_count)

    @pytest.mark.parametrize("center, axes", [
        ((0.9, -0.95, 0.3), (0.3, 0.25, 0.2)),    # clipped by the grid on two axes
        ((-1.0, 1.0, -1.0), (0.05, 0.05, 0.05)),  # a corner octant only
        ((0.0, 1.5, 0.0), (0.4, 0.4, 0.4)),       # wholly outside along one axis
        ((3.0, 3.0, 3.0), (0.5, 0.5, 0.5)),       # wholly outside: empty box
    ])
    def test_ellipsoid_mask_clipped_and_empty(self, center, axes):
        extents = (16, 24, 40)
        mask = _ellipsoid_mask(extents, np.asarray(center), np.asarray(axes))
        assert np.array_equal(mask, ellipsoid_mask_direct(extents, center, axes))

    def test_dataset_equals_generate(self):
        vols, labels, recs = phantom_dataset(7, extents=(16, 24, 40), base_seed=11)
        for i, (v, y, rec) in enumerate(zip(vols, labels, recs)):
            ph, ref = phantom_generate(11 + i, int(y), (16, 24, 40))
            assert np.array_equal(v, ref)
            assert rec.masks == {}
            assert (rec.volumes, rec.organ_factor, rec.lesion_count) == \
                (ph.volumes, ph.organ_factor, ph.lesion_count)


class TestWorkspace:
    @staticmethod
    def _workspace(n, extents):
        """tracemalloc peak of phantom_dataset above its output's bytes."""
        tracemalloc.start()
        try:
            vols, _, _ = phantom_dataset(n, extents=extents, base_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - vols.nbytes

    def test_bounded_and_independent_of_n(self):
        extents = (64, 64, 64)
        phantom_dataset(1, extents=extents)  # resampling plans are cached on first use
        one, four = self._workspace(1, extents), self._workspace(4, extents)
        f64_volume = 8 * 64 ** 3
        assert one <= 2 * f64_volume and four <= 2 * f64_volume
        # the peak phantom's body size sets the workspace; keeping even one
        # boolean mask per extra phantom would add three 64^3 masks
        assert four - one < 64 ** 3
