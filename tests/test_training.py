"""Loss values, gradient checks of the composed objectives, update
isolation, the alternating step, checkpoints."""

import numpy as np
import pytest
from dataclasses import replace

from conftest import finite_difference, rel_err
from slabgan import tensor as T
from slabgan import training
from slabgan.geometry import SliceWindow
from slabgan.networks import build_model_set, desk_config
from slabgan.optim import ParamStore, adam_step
from slabgan.phantoms import phantom_dataset
from slabgan.tensor import Tensor, backward
from slabgan.training import (CheckpointError, LossWeights, TrainingDiverged,
                              _only_trainable, batch_update, class_loss, downsample_volume,
                              format_report, gan_d_loss, gan_g_loss,
                              init_train_state, l1_loss, load_checkpoint,
                              read_checkpoint, recon_global_loss, recon_slab_loss,
                              save_checkpoint, train_step, write_store_checkpoint)

LOG2 = float(np.log(2.0))


def tiny_state(seed=0, **kw):
    cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4, **kw)
    return init_train_state(cfg, seed=seed)


class TestGanLossValues:
    def test_zero_logits(self):
        zero = Tensor(np.zeros(1))
        d = gan_d_loss(zero, Tensor(np.zeros(1)))
        g = gan_g_loss(Tensor(np.zeros(1)))
        assert np.isclose(d.item(), 2 * LOG2)
        assert np.isclose(g.item(), LOG2)

    def test_perfect_discriminator_limit(self):
        d = gan_d_loss(Tensor(np.array([30.0])), Tensor(np.array([-30.0])))
        assert d.item() < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lr, lf = rng.standard_normal(2) * 3
            assert gan_d_loss(Tensor(np.array([lr])), Tensor(np.array([lf]))).item() >= 0
            assert gan_g_loss(Tensor(np.array([lf]))).item() >= 0

    def test_saturating_form(self):
        g = gan_g_loss(Tensor(np.array([2.0])), saturating=True)
        assert np.isclose(g.item(), -np.log1p(np.exp(2.0)))


class TestLossGradients:
    def test_generator_loss_fd_on_toy_stack(self):
        """Adversarial generator gradient through D matches finite differences
        on a small dense stack."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        w_g = rng.standard_normal((6, 6)) * 0.5
        w_d = rng.standard_normal((1, 6)) * 0.5

        def op(xt, wgt, wdt):
            h = T.tanh(T.dense(xt, wgt, Tensor(np.zeros(6))))
            logit = T.dense(h, wdt, Tensor(np.zeros(1)))
            return gan_g_loss(logit.sum())
        from conftest import gradcheck
        assert gradcheck(op, [x, w_g, w_d]) < 1e-4

    def test_d_loss_fd(self):
        rng = np.random.default_rng(2)
        real = rng.standard_normal(4)
        fake = rng.standard_normal(4)
        w_d = rng.standard_normal((1, 4)) * 0.5

        def op(rt, ft, wt):
            lr = T.dense(rt, wt, Tensor(np.zeros(1))).sum()
            lf = T.dense(ft, wt, Tensor(np.zeros(1))).sum()
            return gan_d_loss(lr, lf)
        from conftest import gradcheck
        assert gradcheck(op, [real, fake, w_d]) < 1e-4

    def test_class_loss_fd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        w = rng.standard_normal((5, 5)) * 0.5

        def op(xt, wt):
            return class_loss(T.dense(xt, wt, Tensor(np.zeros(5))), 3)
        from conftest import gradcheck
        assert gradcheck(op, [x, w]) < 1e-4


class TestClassLoss:
    def test_uniform_logits(self):
        assert np.isclose(class_loss(Tensor(np.zeros(5)), 4).item(), np.log(5))

    def test_confident_correct(self):
        logits = np.full(5, -20.0)
        logits[2] = 20.0
        assert class_loss(Tensor(logits), 2).item() < 1e-9

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            class_loss(Tensor(np.zeros(5)), 7)


class TestReconLosses:
    def test_constant_offset_l1(self):
        a = Tensor(np.full((1, 4, 4, 4), 0.5))
        b = Tensor(np.zeros((1, 4, 4, 4)))
        assert np.isclose(l1_loss(a, b).item(), 0.5)

    def test_slab_recon_grads_only_on_e_h(self):
        state = tiny_state(4)
        _only_trainable(state, ("e_h/",))
        vol = np.random.default_rng(5).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        w = SliceWindow(1, state.cfg.subvol_depth_low, resolution_scale=4)
        loss = recon_slab_loss(state, vol, w)
        backward(loss)
        for name, p in state.store.params.items():
            if name.startswith("e_h/"):
                assert p.grad is not None, name
            else:
                assert p.grad is None, name
        state.store.zero_grads()

    def test_global_recon_grads_only_on_e_g(self):
        state = tiny_state(6)
        _only_trainable(state, ("e_g/",))
        vol = np.random.default_rng(7).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        low = downsample_volume(vol, 4)
        w = SliceWindow(0, state.cfg.subvol_depth_low, resolution_scale=4)
        loss = recon_global_loss(state, vol, low, w)
        backward(loss)
        for name, p in state.store.params.items():
            if name.startswith("e_g/"):
                assert p.grad is not None, name
            else:
                assert p.grad is None, name
        state.store.zero_grads()

    def test_conditional_global_recon_needs_label(self):
        state = tiny_state(6, num_classes=5)
        vol = np.random.default_rng(7).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        w = SliceWindow(0, state.cfg.subvol_depth_low, resolution_scale=4)
        with pytest.raises(ValueError):
            recon_global_loss(state, vol, downsample_volume(vol, 4), w, label=None)

    def test_zero_when_reconstruction_exact(self):
        x = Tensor(np.full((1, 3, 3, 3), 0.3))
        assert l1_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_global_recon_constant_case(self):
        # zero-mapped generator against constant 0.3 inputs: each term is 0.3
        a = Tensor(np.full((1, 4, 4, 4), 0.3))
        z = Tensor(np.zeros((1, 4, 4, 4)))
        total = T.add(l1_loss(z, a), l1_loss(z, a)).item()
        assert np.isclose(total, 0.6)


class TestUpdateIsolation:
    # the conditional case sends e_g's gradient through the class-code concat
    @pytest.mark.parametrize("phase,changed,num_classes", [
        ("d", ("d_l/", "d_h/"), None),
        ("g", ("g_a/", "g_l/", "g_h/"), None),
        ("eh", ("e_h/",), None),
        ("eg", ("e_g/",), None),
        ("eg", ("e_g/",), 5),
    ], ids=["d-changed0", "g-changed1", "eh-changed2", "eg-changed3", "eg-conditional"])
    def test_phase_touches_only_its_group(self, phase, changed, num_classes):
        state = tiny_state(8, num_classes=num_classes)
        vols = [np.random.default_rng(9 + i).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
                for i in range(2)]
        labels = [1, 3] if num_classes else None
        groups = ("g_a/", "g_l/", "g_h/", "d_l/", "d_h/", "e_h/", "e_g/")
        before = {g: state.store.parameter_hash(g) for g in groups}
        train_step(state, vols, labels, phases=(phase,))
        after = {g: state.store.parameter_hash(g) for g in groups}
        for g in groups:
            if g in changed:
                assert before[g] != after[g], f"{g} should change in phase {phase}"
            else:
                assert before[g] == after[g], f"{g} must not change in phase {phase}"


class TestPhaseHooks:
    """Each phase starts with one call of the module-global
    ``_only_trainable`` with the phase's prefixes; the benchmark marks its
    phase spans by wrapping it."""

    @staticmethod
    def record(monkeypatch):
        calls = []
        original = training._only_trainable

        def recording(state, prefixes):
            calls.append(tuple(prefixes))
            original(state, prefixes)
        monkeypatch.setattr(training, "_only_trainable", recording)
        return calls

    def test_full_step_marks_four_phases_in_order(self, monkeypatch):
        calls = self.record(monkeypatch)
        state = tiny_state(40)
        train_step(state, [np.zeros((32, 32, 32), np.float32)])
        assert calls == [("d_l/", "d_h/"), ("g_a/", "g_l/", "g_h/"), ("e_h/",), ("e_g/",)]
        assert calls[:2] == [state.nets.discriminator_prefixes, state.nets.generator_prefixes]

    def test_restricted_step_marks_only_its_phase(self, monkeypatch):
        calls = self.record(monkeypatch)
        train_step(tiny_state(41), [np.zeros((32, 32, 32), np.float32)], phases=("eh",))
        assert calls == [("e_h/",)]


class TestBatchUpdate:
    ITEMS = [np.array([1.0, 2.0, 3.0]), np.array([-4.0, 0.5, 1.0]),
             np.array([2.0, 2.0, -1.0])]

    @staticmethod
    def toy_store():
        store = ParamStore()
        store.register("p", Tensor(np.array([0.5, -1.0, 2.0])))
        return store

    def test_logs_averaged_and_gradient_scaled(self):
        store = self.toy_store()

        def term(a):
            return T.tsum(T.mul(store.params["p"], Tensor(a))), {"first": float(a[0]),
                                                                 "sum": float(a.sum())}
        report = {"step": 3}
        batch_update(store, 3, self.ITEMS, term, 5.0, 1e-3, report)
        assert report == {"step": 3, "first": (1.0 - 4.0 + 2.0) / 3,
                          "sum": (6.0 + -2.5 + 3.0) / 3}
        # with beta1 = 0, Adam's first moment is exactly the gradient it got
        grad = store.adam_state["p"][0]
        np.testing.assert_allclose(grad, 5.0 / 3 * sum(self.ITEMS), rtol=1e-12)

    def test_non_finite_log_value_blocks_update(self):
        store = self.toy_store()
        before = store.params["p"].data.copy()

        def term(a):
            return T.tsum(T.mul(store.params["p"], Tensor(a))), {"v": float("nan")}
        with pytest.raises(TrainingDiverged) as exc:
            batch_update(store, 9, self.ITEMS, term, 1.0, 1e-3, {})
        assert exc.value.step == 9
        assert np.array_equal(store.params["p"].data, before) and not store.adam_state

    @pytest.mark.parametrize("fault", ["nan_loss", "backward_raises"])
    def test_failure_after_one_backward_leaves_no_trace(self, fault, monkeypatch):
        """The first sample's backward has run when the second fails: its
        accumulated gradient is zeroed, and no parameter or Adam moment
        changes."""
        store = self.toy_store()
        before = store.params["p"].data.copy()
        calls = []

        def counting(loss):
            calls.append(loss.item())
            if fault == "backward_raises" and len(calls) == 2:
                raise MemoryError("backward")
            backward(loss)
        monkeypatch.setattr(training, "backward", counting)

        def term(a):
            if fault == "nan_loss" and a is self.ITEMS[1]:
                a = np.full(3, np.nan)
            return T.tsum(T.mul(store.params["p"], Tensor(a))), {}
        with pytest.raises(TrainingDiverged if fault == "nan_loss" else MemoryError):
            batch_update(store, 9, self.ITEMS, term, 1.0, 1e-3, {})
        assert len(calls) == (1 if fault == "nan_loss" else 2)
        assert np.array_equal(store.params["p"].data, before) and not store.adam_state
        assert all(p.grad is None for p in store.params.values())
        T.active_tape().clear()

    def test_batch_gradient_is_sum_of_sample_gradients(self):
        """At float64, the gradient one phase hands Adam (its first moment,
        with beta1 = 0) is the sum of the samples' own weighted gradients."""
        cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4)
        state = init_train_state(cfg, seed=42, dtype=np.float64, deterministic_r=True)
        vols = [np.random.default_rng(43 + i).uniform(-1, 1, (32, 32, 32)) for i in range(2)]
        w = training._current_window(state)
        _only_trainable(state, ("e_h/",))
        want = {}
        for vol in vols:
            backward(T.mul(recon_slab_loss(state, vol, w), state.weights.lambda1 / len(vols)))
            for name, p in state.store.params.items():
                if p.grad is not None:
                    want[name] = want.get(name, 0.0) + p.grad
            state.store.zero_grads()
        train_step(state, vols, phases=("eh",))
        assert set(want) == set(state.store.adam_state) and want
        for name, g in want.items():
            np.testing.assert_allclose(state.store.adam_state[name][0], g, rtol=1e-12,
                                       err_msg=name)


class TestTrainStep:
    def test_report_fields_and_finiteness(self):
        state = tiny_state(10)
        vols = [np.random.default_rng(11 + i).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
                for i in range(2)]
        rep = train_step(state, vols)
        for key in ("step", "r", "d_low", "d_high", "g_low", "g_high", "rec_h", "rec_g"):
            assert key in rep
            assert np.isfinite(rep[key])
        assert rep["rec_h"] >= 0 and rep["rec_g"] >= 0
        assert rep["d_low"] >= 0 and rep["g_low"] >= 0

    def test_default_weights_are_five(self):
        assert LossWeights() == LossWeights(lambda1=5.0, lambda2=5.0)
        with pytest.raises(ValueError):
            LossWeights(lambda1=-1.0)

    def test_one_window_per_step(self):
        """The same depth window drives the low selector inside generation and
        the high selector on real data (checked via the report's r and the
        rng draw count)."""
        state = tiny_state(12)
        vols = [np.random.default_rng(13).uniform(-1, 1, (32, 32, 32)).astype(np.float32)]
        r1 = train_step(state, vols)["r"]
        assert 0 <= r1 <= state.cfg.low_resolution - state.cfg.subvol_depth_low

    def test_conditional_report_has_class_term(self):
        state = tiny_state(14, num_classes=5)
        vols = [np.random.default_rng(15).uniform(-1, 1, (32, 32, 32)).astype(np.float32)]
        rep = train_step(state, vols, labels=[2])
        assert "class" in rep and np.isfinite(rep["class"])

    def test_conditional_requires_labels(self):
        state = tiny_state(16, num_classes=5)
        vols = [np.zeros((32, 32, 32), np.float32)]
        with pytest.raises(ValueError):
            train_step(state, vols)

    @pytest.mark.parametrize("label", [7, -1])
    def test_label_out_of_range_rejected(self, label):
        state = tiny_state(38, num_classes=5)
        vols = [np.zeros((32, 32, 32), np.float32)]
        before = state.store.parameter_hash()
        rng_before = state.rng.bit_generator.state
        with pytest.raises(ValueError, match="class index"):
            train_step(state, vols, labels=[label])
        assert state.store.parameter_hash() == before and state.step == 0
        assert state.rng.bit_generator.state == rng_before

    def test_divergence_detected(self):
        state = tiny_state(17)
        state.store.params["g_a/dense/weight"].data[:] = np.nan
        vols = [np.zeros((32, 32, 32), np.float32)]
        with pytest.raises(TrainingDiverged):
            train_step(state, vols)

    def test_diverged_step_leaves_state_unchanged(self):
        state = tiny_state(32)
        vols = [np.random.default_rng(33).uniform(-1, 1, (32, 32, 32)).astype(np.float32)]
        state.store.params["g_h/conv1/weight"].data.flat[0] = np.nan
        before = state.store.parameter_hash()
        rng_before = state.rng.bit_generator.state
        with pytest.raises(TrainingDiverged):
            train_step(state, vols)
        assert state.store.parameter_hash() == before
        assert state.step == 0
        assert state.rng.bit_generator.state == rng_before

    def test_diverged_step_puts_back_buffers(self):
        """Every training forward updates the spectral-norm vectors and
        running statistics in place. A step that diverges before any update
        puts them back, so once the weight is mended a retry logs what a
        state that never failed logs."""
        vols = [np.random.default_rng(33).uniform(-1, 1, (32, 32, 32)).astype(np.float32)]
        clean, state = tiny_state(32), tiny_state(32)
        buffers = {name: b.tobytes() for name, b in state.store.buffers.items()}
        w = state.store.params["g_h/conv1/weight"].data
        saved = w.flat[0]
        w.flat[0] = np.nan
        with pytest.raises(TrainingDiverged):
            train_step(state, vols)
        assert {name: b.tobytes() for name, b in state.store.buffers.items()} == buffers
        w.flat[0] = saved
        assert format_report(train_step(state, vols)) == format_report(train_step(clean, vols))

    @pytest.mark.parametrize("bad", ["depth", "nan", "scaled"])
    def test_bad_volume_rejected(self, bad):
        state = tiny_state(34)
        vol = np.random.default_rng(35).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
        if bad == "depth":
            vol = vol[:24]
        elif bad == "nan":
            vol[3, 4, 5] = np.nan
        else:
            vol = vol * 5.0
        before = state.store.parameter_hash()
        with pytest.raises(ValueError):
            train_step(state, [vol])
        assert len(T.active_tape()) == 0
        assert state.store.parameter_hash() == before and state.step == 0

    def test_exception_mid_step_clears_tape(self, monkeypatch):
        """A failure in phase eh, after d and g updated: the tape is
        cleared and step stays, but the rng is not put back, so a retry
        does not repeat those updates on the same windows and latents."""
        state = tiny_state(36)
        vols = [np.random.default_rng(37).uniform(-1, 1, (32, 32, 32)).astype(np.float32)]
        rng_before = state.rng.bit_generator.state

        def failing_recon(*args):
            recon_slab_loss(*args)              # records nodes on the tape
            assert len(T.active_tape()) > 0
            raise RuntimeError("injected")
        monkeypatch.setattr(training, "recon_slab_loss", failing_recon)
        with pytest.raises(RuntimeError, match="injected"):
            train_step(state, vols)
        assert len(T.active_tape()) == 0
        assert state.step == 0
        assert state.rng.bit_generator.state != rng_before

    def test_deterministic_r_cycles(self):
        state = tiny_state(18)
        state.deterministic_r = True
        vols = [np.random.default_rng(19).uniform(-1, 1, (32, 32, 32)).astype(np.float32)]
        rs = [train_step(state, vols)["r"] for _ in range(4)]
        n_windows = state.cfg.low_resolution // state.cfg.subvol_depth_low
        expect = [(i % n_windows) * state.cfg.subvol_depth_low for i in range(4)]
        assert rs == expect

    def test_gradient_clipping_runs(self):
        state = tiny_state(20)
        state.clip_norm = 0.1
        vols = [np.random.default_rng(21).uniform(-1, 1, (32, 32, 32)).astype(np.float32)]
        rep = train_step(state, vols)
        assert np.isfinite(rep["g_low"])

    def test_loss_trajectory_deterministic(self):
        vols = [np.random.default_rng(22).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
                for _ in range(2)]
        lines_a = [format_report(train_step(tiny_state(23), vols)) for _ in range(1)]
        lines_b = [format_report(train_step(tiny_state(23), vols)) for _ in range(1)]
        assert lines_a == lines_b


class TestSmokeMiniRun:
    def test_reconstruction_term_decreases(self):
        """200 steps on a small phantom set: losses stay finite and the
        slab reconstruction term drops by at least 30% from step 1.
        (The acceptance suite repeats this at full desk scale, where the
        global term falls by half as well.)"""
        cfg = desk_config(full_resolution=32, latent_dim=16, base_channels=4)
        state = init_train_state(cfg, seed=24)
        vols, _, _ = phantom_dataset(24, extents=(32, 32, 32), base_seed=50)
        recs = []
        for _ in range(200):
            idx = state.rng.choice(len(vols), size=2, replace=False)
            rep = train_step(state, [vols[i] for i in idx])
            recs.append(rep["rec_h"])
        assert all(np.isfinite(r) for r in recs)
        tail = float(np.mean(recs[-10:]))
        assert tail <= 0.7 * recs[0], f"rec_h {recs[0]:.4f} -> {tail:.4f}"


class TestCheckpoint:
    def _state_and_batch(self, seed=25):
        state = tiny_state(seed)
        vols = [np.random.default_rng(seed + 1).uniform(-1, 1, (32, 32, 32)).astype(np.float32)
                for _ in range(2)]
        return state, vols

    def test_roundtrip_bitwise(self, tmp_path):
        state, vols = self._state_and_batch()
        train_step(state, vols)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        direct = format_report(train_step(state, vols))
        restored = load_checkpoint(path)
        resumed = format_report(train_step(restored, vols))
        assert direct == resumed
        for name, p in state.store.params.items():
            assert np.array_equal(p.data, restored.store.params[name].data)

    def test_resume_keeps_gradient_clipping(self, tmp_path):
        state, vols = self._state_and_batch(38)
        state.clip_norm = 0.05
        train_step(state, vols)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        direct = [format_report(train_step(state, vols)) for _ in range(2)]
        restored = load_checkpoint(path)
        assert restored.clip_norm == 0.05
        assert [format_report(train_step(restored, vols)) for _ in range(2)] == direct

    def test_corrupt_magic(self, tmp_path):
        state, vols = self._state_and_batch(26)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        state, vols = self._state_and_batch(27)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_corrupt_header_fails_checksum(self, tmp_path):
        state, _ = self._state_and_batch(29)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        raw = bytearray(path.read_bytes())
        raw[12] ^= 0xFF                      # inside the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra, loads", [({"feature_channels": None}, True),
                                              ({"feature_channels": 8}, False),
                                              ({"bogus": 1}, False)])
    def test_retired_config_key(self, tmp_path, extra, loads):
        """Older checkpoints store the retired ``feature_channels`` field as
        null; that loads, while any other value or unknown key is a
        CheckpointError."""
        state, _ = self._state_and_batch(32)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        header, _ = read_checkpoint(path, "hagan")
        header["config"].update(extra)
        write_store_checkpoint(path, state.store, header)
        if not loads:
            with pytest.raises(CheckpointError, match=next(iter(extra))):
                load_checkpoint(path)
            return
        restored = load_checkpoint(path)
        assert restored.cfg == state.cfg
        assert restored.store.parameter_hash() == state.store.parameter_hash()

    def test_sr_checkpoint_rejected(self, tmp_path):
        from slabgan.sr import SRConfig, build_sr, sr_save
        path = tmp_path / "sr.bin"
        sr_save(build_sr(SRConfig(hr_resolution=32, subvol_len=4).validate(), seed=30), path)
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous(self, tmp_path, monkeypatch):
        state, vols = self._state_and_batch(31)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        saved = state.store.parameter_hash()
        train_step(state, vols)

        class HalfWrite:
            """A file that fails half-way through its second write."""
            def __init__(self, name, mode):
                self.f, self.writes = open(name, mode), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, b):
                self.writes += 1
                if self.writes == 2:
                    self.f.write(b[:len(b) // 2])
                    raise OSError("disk full")
                return self.f.write(b)

        monkeypatch.setattr(training, "open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, path)
        monkeypatch.undo()
        assert load_checkpoint(path).store.parameter_hash() == saved

    def test_cross_config_shape_error(self, tmp_path):
        state, _ = self._state_and_batch(28)
        path = tmp_path / "ck.bin"
        save_checkpoint(state, path)
        other = init_train_state(
            desk_config(full_resolution=32, latent_dim=16, base_channels=8), seed=0)
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path, other)
