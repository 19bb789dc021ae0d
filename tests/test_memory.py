"""Memory model: analytic live-set accounting vs instrumented measurement."""

import gc

import numpy as np
import pytest
from dataclasses import replace

from slabgan.memory import (MemoryReport, _priced_model_set, analytic_memory,
                            high_res_branch_bytes, measured_memory, measured_peak,
                            resolution_sweep)
from slabgan.networks import desk_config, parameter_count, reference_config, symbolic_model_set
from slabgan.tensor import METER, active_tape
from slabgan.training import LossWeights, TrainState, init_train_state, train_step

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
        m = measured_peak(DESK, "train_amortized", seed=0).peak_total
        assert abs(a - m) / m < 0.25

    @pytest.mark.parametrize("res", [32, 64, 128])
    def test_amortized_within_tenth_of_analytic_per_resolution(self, res):
        """The replay follows the step as the volume grows: a replay that
        kept the full-resolution input through phase eg's backward read 22%
        high at 128^3."""
        cfg = desk_config(full_resolution=res)
        a = analytic_memory(cfg, "train_amortized").peak_total
        m = measured_peak(cfg, "train_amortized", seed=0).peak_total
        assert abs(a - m) / m < 0.10

    def test_full_within_quarter_of_analytic(self):
        a = analytic_memory(DESK, "train_full").peak_total
        m = measured_peak(DESK, "train_full", seed=0).peak_total
        assert abs(a - m) / m < 0.25

    def test_amortized_at_most_half_of_full(self):
        """Compares the transient payload (peak minus the parameters and Adam
        moments, which neither mode changes), with a bound of 0.35: it reads
        0.290 at desk 64^3, batch 2."""
        def transient(mode):
            rep = measured_peak(DESK, mode, seed=1)
            return rep.peak_total - rep.params_bytes - rep.optimizer_bytes
        assert transient("train_amortized") <= 0.35 * transient("train_full")

    def test_amortized_peak_flat_in_batch(self):
        """Each sample's backward runs before the next sample's forward, so
        only one sample's graph is alive: batch 4 peaks where batch 2 does,
        and both within 5% of batch 1 (the extra is the gradients
        accumulated from the samples before)."""
        peaks = {b: measured_peak(DESK, "train_amortized", batch_size=b, seed=4).peak_total
                 for b in (1, 2, 4)}
        assert peaks[4] == peaks[2] <= 1.05 * peaks[1]
        assert analytic_memory(DESK, "train_amortized", batch_size=4).peak_total == peaks[4]

    def test_inference_below_training_and_gradfree(self):
        m_inf = measured_peak(DESK, "inference", seed=2)
        m_tr = measured_peak(DESK, "train_amortized", seed=2)
        assert m_inf.peak_total < m_tr.peak_total
        assert m_inf.grads_bytes == 0

    def test_inference_within_quarter_of_analytic(self):
        a = analytic_memory(DESK, "inference").peak_total
        m = measured_peak(DESK, "inference", seed=3).peak_total
        assert abs(a - m) / m < 0.25

    @pytest.mark.parametrize("num_classes", [None, 5])
    @pytest.mark.parametrize("batch_size", [1, 2])
    @pytest.mark.parametrize("mode", ["train_amortized", "train_full", "inference"])
    def test_byte_exact_at_desk_32(self, mode, batch_size, num_classes):
        """The stand-in step prices every byte the real one holds: peak
        and split agree exactly."""
        cfg = desk_config(full_resolution=32, num_classes=num_classes)
        a = analytic_memory(cfg, mode, batch_size)
        m = measured_peak(cfg, mode, batch_size)
        assert ((a.peak_total, a.activations_bytes, a.grads_bytes)
                == (m.peak_total, m.activations_bytes, m.grads_bytes))


class TestStandInStep:
    @pytest.mark.parametrize("res", [32, 128])
    def test_each_phase_within_three_percent(self, res):
        """Each phase of the stand-in step against the same phase of a
        real, warmed-up step, static bytes included. A hand replay of the
        phases read 0.89 at 32^3 phase d, where it missed the
        spectral-norm weight copies, and 0.955 at 128^3 phases eh and eg."""
        cfg = desk_config(full_resolution=res)
        real = init_train_state(cfg, seed=0)
        rng = np.random.default_rng(1)
        batch = [rng.uniform(-1, 1, (res,) * 3).astype(np.float32) for _ in range(2)]
        train_step(real, batch)                 # warm-up allocates Adam moments
        store = real.store
        real_static = sum(p.data.nbytes for p in store.params.values()) + sum(
            m.nbytes + v.nbytes for m, v, _ in store.adam_state.values())
        priced = TrainState(nets=_priced_model_set(cfg), rng=np.random.default_rng(0),
                            weights=LossWeights())
        priced_static = 3 * sum(p.param_bytes for p in priced.store.params.values())
        zeros = [np.zeros((res,) * 3, np.float32)] * 2
        ratios = {}
        for phase in ("d", "g", "eh", "eg"):
            a = measured_memory(lambda: train_step(priced, zeros, phases=(phase,)))
            m = measured_memory(lambda: train_step(real, batch, phases=(phase,)))
            ratios[phase] = (a.peak_total + priced_static) / (m.peak_total + real_static)
        assert all(abs(r - 1) < 0.03 for r in ratios.values()), ratios

    @pytest.mark.parametrize("num_classes", [None, 5])
    def test_meter_and_tape_left_as_found(self, num_classes):
        """The stand-in step shares the global meter and tape, so anything
        it left behind would skew every later measurement."""
        cfg = desk_config(full_resolution=32, num_classes=num_classes)
        gc.collect()
        before = METER.current_total()
        for mode in ("train_amortized", "train_full", "inference"):
            analytic_memory(cfg, mode)
            assert (METER.current_total(), len(active_tape())) == (before, 0), mode
        with pytest.raises(ValueError):
            analytic_memory(cfg, "gpu")
        assert (METER.current_total(), len(active_tape())) == (before, 0)


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
        rep = measured_peak(DESK, mode, seed=0)
        assert rep.grads_bytes > 0
        assert (rep.params_bytes + rep.optimizer_bytes + rep.activations_bytes
                + rep.grads_bytes == rep.peak_total)

    def test_measured_inference_split_adds_up(self):
        rep = measured_peak(DESK, "inference", seed=0)
        assert rep.grads_bytes == 0
        assert rep.params_bytes + rep.activations_bytes == rep.peak_total
