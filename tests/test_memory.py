"""Memory model: analytic live-set accounting vs instrumented measurement."""

import gc

import numpy as np
import pytest
from dataclasses import replace

from slabgan.memory import (MemoryReport, analytic_memory, high_res_branch_bytes,
                            measured_inference_peak, measured_train_peak,
                            resolution_sweep)
from slabgan.networks import desk_config, parameter_count, reference_config, symbolic_model_set
from slabgan.tensor import METER
from slabgan.training import init_train_state, train_step

DESK = desk_config()


class TestAnalytic:
    def test_inference_has_no_grad_bytes(self):
        rep = analytic_memory(DESK, "inference")
        assert rep.grads_bytes == 0
        assert rep.optimizer_bytes == 0

    def test_peak_dominates_components(self):
        for mode in ("train_amortized", "train_full", "inference"):
            rep = analytic_memory(DESK, mode)
            assert rep.peak_total >= rep.params_bytes
            assert rep.peak_total >= rep.activations_bytes

    def test_params_identical_across_multipliers(self):
        reps = [analytic_memory(replace(DESK, subvol_multiplier=m).validate(),
                                "train_amortized")
                for m in (0.125, 0.25, 0.5)]
        assert len({r.params_bytes for r in reps}) == 1

    def test_train_full_exceeds_amortized(self):
        am = analytic_memory(DESK, "train_amortized")
        full = analytic_memory(DESK, "train_full")
        assert full.peak_total > am.peak_total

    def test_report_table_format(self):
        text = analytic_memory(DESK, "inference").table()
        assert "peak_total" in text and "params_bytes" in text

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            analytic_memory(DESK, "gpu")

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            MemoryReport(mode="inference", params_bytes=10, activations_bytes=0,
                         grads_bytes=5, optimizer_bytes=0, peak_total=20).check()


class TestAmortizationLaw:
    def test_branch_bytes_linear_in_multiplier(self):
        """Slab-branch activation bytes scale exactly linearly in the window
        multiplier (the live-set model counts only window-scaled extents)."""
        vals = {m: high_res_branch_bytes(replace(DESK, subvol_multiplier=m).validate())
                for m in (0.125, 0.25, 0.5)}
        assert vals[0.25] == 2 * vals[0.125]
        assert vals[0.5] == 4 * vals[0.125]

    def test_reference_multiplier_trend(self):
        """Doubling the window from 1/8 to 1/4 of the volume raises the
        analytic training peak by a factor inside the observed-trend band."""
        ref = reference_config()
        p8 = analytic_memory(ref, "train_amortized").peak_total
        p4 = analytic_memory(replace(ref, subvol_multiplier=0.25).validate(),
                             "train_amortized").peak_total
        assert 1.3 < p4 / p8 < 2.2


class TestMeasured:
    def test_amortized_within_quarter_of_analytic(self):
        a = analytic_memory(DESK, "train_amortized").peak_total
        m = measured_train_peak(DESK, "train_amortized", seed=0).peak_total
        assert abs(a - m) / m < 0.25

    def test_full_within_quarter_of_analytic(self):
        a = analytic_memory(DESK, "train_full").peak_total
        m = measured_train_peak(DESK, "train_full", seed=0).peak_total
        assert abs(a - m) / m < 0.25

    def test_amortized_at_most_half_of_full(self):
        m_am = measured_train_peak(DESK, "train_amortized", seed=1).peak_total
        m_full = measured_train_peak(DESK, "train_full", seed=1).peak_total
        assert m_am <= 0.5 * m_full

    def test_inference_below_training_and_gradfree(self):
        m_inf = measured_inference_peak(DESK, seed=2)
        m_tr = measured_train_peak(DESK, "train_amortized", seed=2)
        assert m_inf.peak_total < m_tr.peak_total
        assert m_inf.grads_bytes == 0

    def test_inference_within_quarter_of_analytic(self):
        a = analytic_memory(DESK, "inference").peak_total
        m = measured_inference_peak(DESK, seed=3).peak_total
        assert abs(a - m) / m < 0.25


class TestResolutionSweep:
    def test_rows_and_monotonicity(self):
        rows, table = resolution_sweep(DESK, [32, 64, 128])
        assert len(rows) == 3
        peaks = [r["train_peak_bytes"] for r in rows]
        assert peaks == sorted(peaks) and peaks[0] < peaks[-1]
        assert table.splitlines()[0].startswith("resolution")

    def test_parameter_growth_reference(self):
        ref = reference_config()
        n32 = parameter_count(symbolic_model_set(
            replace(ref, full_resolution=32).validate()))
        n256 = parameter_count(symbolic_model_set(ref))
        assert n256 / n32 < 1.10


class TestMeter:
    def test_state_released_after_delete(self):
        gc.collect()
        before = METER.current_total()
        state = init_train_state(DESK, seed=0)
        vols = [np.random.default_rng(1).uniform(-1, 1, (64,) * 3).astype(np.float32)
                for _ in range(2)]
        train_step(state, vols)
        assert state.store.adam_state
        del state
        gc.collect()
        assert METER.current_total() == before

    @pytest.mark.parametrize("mode", ["train_amortized", "train_full"])
    def test_measured_split_adds_up(self, mode):
        rep = measured_train_peak(DESK, mode, seed=0)
        assert rep.grads_bytes > 0
        assert (rep.params_bytes + rep.optimizer_bytes + rep.activations_bytes
                + rep.grads_bytes == rep.peak_total)

    def test_measured_inference_split_adds_up(self):
        rep = measured_inference_peak(DESK, seed=0)
        assert rep.grads_bytes == 0
        assert rep.params_bytes + rep.activations_bytes == rep.peak_total
