"""Classifier training and the GAN-augmentation study."""

import numpy as np
import pytest

from slabgan.augment import (augment_study, build_classifier_state, classifier_train,
                             match_class_counts, study_table)
from slabgan.networks import desk_config
from slabgan.training import TrainingDiverged

CFG32 = desk_config(full_resolution=32)


def _data(seed, n=4):
    rng = np.random.default_rng(seed)
    vols = rng.uniform(-1, 1, (n, 16, 16, 16)).astype(np.float32)
    return vols, np.arange(n) % 5


class TestMatchClassCounts:
    @pytest.mark.parametrize("labels,n", [([0, 0, 1, 2, 2, 2, 4], 5),
                                          ([3] * 7 + [1], 3),
                                          ([0, 1, 2, 3, 4], 12),
                                          ([0, 1, 1], 0)])
    def test_counts_sum_and_track_shares(self, labels, n):
        counts = match_class_counts(labels, n, n_classes=5)
        share = np.bincount(labels, minlength=5) / len(labels) * n
        assert counts.sum() == n
        assert np.all(np.abs(counts - share) < 1.0)


class TestClassifierTrain:
    def test_one_step(self):
        state = build_classifier_state(CFG32, seed=0)
        before = state.store.parameter_hash()
        vols, labels = _data(1)
        losses = classifier_train(state, vols, labels, steps=1, batch_size=2)
        assert len(losses) == 1 and np.isfinite(losses[0]) and losses[0] > 0
        assert state.step == 1
        assert state.store.parameter_hash() != before

    def test_nan_weight_raises_and_changes_nothing(self):
        state = build_classifier_state(CFG32, seed=0)
        state.store.params[state.store.names()[0]].data.flat[0] = np.nan
        before = state.store.parameter_hash()
        rng_before = state.rng.bit_generator.state
        vols, labels = _data(2)
        with pytest.raises(TrainingDiverged):
            classifier_train(state, vols, labels, steps=1, batch_size=2)
        assert state.store.parameter_hash() == before
        assert state.step == 0
        assert state.rng.bit_generator.state == rng_before


class TestStudy:
    def test_rejects_unconditional_config(self):
        vols = np.zeros((2, 32, 32, 32), np.float32)
        with pytest.raises(ValueError, match="class-conditional"):
            augment_study(CFG32, None, vols, [0, 1], vols, [0, 1], seed=0)

    def test_study_table(self):
        table = study_table({"baseline_accuracy": 0.5, "augmented_accuracy": 0.625})
        assert table.splitlines() == ["setting\taccuracy", "baseline\t0.5000",
                                      "augmented\t0.6250"]
