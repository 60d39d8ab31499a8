import dataclasses

import numpy as np
import pytest

from broadunet.datapipe import SampleSet, SynthConfig, make_samples, split_counts, synth_advection
from broadunet.layers import Conv3D, ConvSpec, Dropout, Layer
from broadunet.model import Model, build_broad_unet, build_plain_unet, mini_config
from broadunet.training import (
    AdamState,
    TrainConfig,
    adam_step,
    binarize,
    evaluate,
    grad_check,
    loss_bce,
    loss_mse,
    save_history_csv,
    train,
)


class TestLosses:
    def test_mse_hand_value(self):
        pred = np.array([1.0, 2.0, 3.0])
        target = np.array([1.0, 0.0, 0.0])
        loss, grad = loss_mse(pred, target)
        assert loss == pytest.approx((0 + 4 + 9) / 3)
        np.testing.assert_allclose(grad, 2.0 * (pred - target) / 3)

    def test_mse_zero_at_match(self):
        x = np.random.default_rng(0).random((2, 3, 3, 1))
        loss, grad = loss_mse(x, x)
        assert loss == 0.0
        assert not grad.any()

    def test_mse_gradient_fd(self):
        rng = np.random.default_rng(1)
        pred = rng.random(12)
        target = rng.random(12)
        _, grad = loss_mse(pred, target)
        step = 1e-6
        for i in range(12):
            p = pred.copy()
            p[i] += step
            lp, _ = loss_mse(p, target)
            p[i] -= 2 * step
            lm, _ = loss_mse(p, target)
            assert grad[i] == pytest.approx((lp - lm) / (2 * step), rel=1e-4)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse(np.zeros(3), np.zeros(4))

    def test_bce_half_is_log2(self):
        pred = np.full(8, 0.5)
        target = np.random.default_rng(2).integers(0, 2, 8).astype(float)
        loss, _ = loss_bce(pred, target)
        assert loss == pytest.approx(np.log(2.0))

    def test_bce_finite_at_extremes(self):
        pred = np.array([0.0, 1.0, 0.0, 1.0])
        target = np.array([1.0, 0.0, 0.0, 1.0])
        loss, grad = loss_bce(pred, target)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()
        # clipped coordinates carry no gradient
        assert not grad.any()

    def test_bce_gradient_fd_interior(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.2, 0.8, 10)
        target = rng.integers(0, 2, 10).astype(float)
        _, grad = loss_bce(pred, target)
        step = 1e-7
        for i in range(10):
            p = pred.copy()
            p[i] += step
            lp, _ = loss_bce(p, target)
            p[i] -= 2 * step
            lm, _ = loss_bce(p, target)
            assert grad[i] == pytest.approx((lp - lm) / (2 * step), rel=1e-4)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = {"w": np.array([0.0, 0.0])}
        grads = {"w": np.array([0.3, -70.0])}
        state = AdamState.for_params(params)
        adam_step(params, grads, state, lr=0.01)
        np.testing.assert_allclose(params["w"], [-0.01, 0.01], rtol=1e-6)

    def test_zero_gradient_no_motion(self):
        params = {"w": np.array([1.5])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros(1)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.5])

    def test_missing_gradient_raises_before_anything_moves(self):
        params = {"w": np.array([2.0]), "b": np.array([1.0]),
                  "c": np.array([3.0])}
        state = AdamState.for_params(params)
        adam_step(params, {k: np.ones(1) for k in params}, state, lr=0.1)
        before = [{k: a.copy() for k, a in d.items()}
                  for d in (params, state.m, state.v)]
        # "b" comes before "c" in parameter order, so it is the one named
        with pytest.raises(RuntimeError, match="parameter b has no gradient"):
            adam_step(params, {"w": np.ones(1)}, state, lr=0.1)
        for old, new in zip(before, (params, state.m, state.v)):
            assert all(np.array_equal(old[k], new[k]) for k in params)
        assert state.t == 1

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2), "b": np.zeros(1)}
        state = AdamState.for_params(params)
        with pytest.raises(RuntimeError, match="gradient shape mismatch for b"):
            adam_step(params, {"w": np.ones(2), "b": np.ones(3)}, state, lr=0.1)
        # "w" comes first and its gradient is fine, yet nothing moved
        for d in (params, state.m, state.v):
            assert not any(a.any() for a in d.values())
        assert state.t == 0

    def test_converges_on_quadratic(self):
        params = {"p": np.array([-4.0])}
        state = AdamState.for_params(params)
        for _ in range(600):
            adam_step(params, {"p": 2.0 * (params["p"] - 3.0)}, state, lr=0.1)
        assert params["p"][0] == pytest.approx(3.0, abs=1e-3)

    def test_step_counter_advances(self):
        params = {"p": np.zeros(1)}
        state = AdamState.for_params(params)
        for _ in range(3):
            adam_step(params, {"p": np.ones(1)}, state, lr=0.01)
        assert state.t == 3


def _tiny_split(seed=0, n_frames=20):
    seq = synth_advection(SynthConfig(height=16, width=16, n_frames=n_frames,
                                      velocity=(0, 1), seed=seed))
    samples = make_samples(seq, lags=2, horizon=1)
    return split_counts(samples, 12, 3, 2)


class TestTrainLoop:
    def test_loss_decreases_and_history_complete(self, tmp_path):
        train_set, val_set, _ = _tiny_split()
        model = build_plain_unet(mini_config(base_filters=1))
        cfg = TrainConfig(loss="mse", learning_rate=1e-3, batch_size=4,
                          max_epochs=6, seed=0,
                          checkpoint_path=str(tmp_path / "ckpt.btar"))
        result = train(model.initialize(seed=cfg.seed), train_set, val_set,
                       cfg)
        assert len(result.history) == 6
        assert result.history[-1][1] < result.history[0][1]
        assert result.best_val_loss == min(h[2] for h in result.history)
        assert result.best_epoch >= 1

    def test_checkpoint_written_and_loadable(self, tmp_path):
        train_set, val_set, _ = _tiny_split(seed=1)
        path = tmp_path / "best.btar"
        model = build_plain_unet(mini_config(base_filters=1))
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=2,
                          seed=1, checkpoint_path=str(path))
        train(model.initialize(seed=cfg.seed), train_set, val_set, cfg)
        loaded = Model.load(path)
        assert loaded.out_shape() == model.out_shape()

    def test_deterministic_given_seed(self):
        train_set, val_set, _ = _tiny_split(seed=2)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3,
                          seed=11)
        histories = []
        for _ in range(2):
            model = build_plain_unet(mini_config(base_filters=1)).initialize(
                seed=cfg.seed)
            histories.append(train(model, train_set, val_set, cfg).history)
        assert histories[0] == histories[1]

    def test_empty_sets_rejected(self):
        train_set, val_set, _ = _tiny_split(seed=3)
        model = build_plain_unet(mini_config(base_filters=1))
        empty = val_set.subset(np.s_[:0])
        with pytest.raises(ValueError):
            train(model, empty, val_set, TrainConfig())
        with pytest.raises(ValueError):
            train(model, train_set, empty, TrainConfig())

    def test_uninitialized_model_stops_before_writing(self, tmp_path):
        train_set, val_set, _ = _tiny_split(seed=3)
        path = tmp_path / "ckpt.btar"
        with pytest.raises(RuntimeError, match="not initialized"):
            train(build_plain_unet(mini_config(base_filters=1)), train_set,
                  val_set, TrainConfig(max_epochs=1, checkpoint_path=str(path)))
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["train", "val"])
    def test_mis_shaped_set_fails_before_training(self, tmp_path, monkeypatch,
                                                  bad):
        train_set, val_set, _ = _tiny_split(seed=3)
        sets = {"train": train_set, "val": val_set}
        good = sets[bad]
        # a run of the same frames cropped to 8x8
        sets[bad] = SampleSet(good.frame_run[:, :8, :8], good.lags,
                              good.horizon)
        steps = []
        monkeypatch.setattr("broadunet.training.adam_step",
                            lambda *args: steps.append(args))
        path = tmp_path / "ckpt.btar"
        with pytest.raises(ValueError, match=r"sample shape \(2, 8, 8, 1\)"):
            train(build_plain_unet(mini_config(base_filters=1)),
                  sets["train"], sets["val"],
                  TrainConfig(max_epochs=1, checkpoint_path=str(path)))
        assert steps == []
        assert not path.exists()

    def test_history_csv_round_trip(self, tmp_path):
        history = [(1, 0.1 + 1e-17, 0.25), (2, 1.0 / 3.0, 0.125)]
        path = tmp_path / "history.csv"
        save_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        for (epoch, tl, vl), line in zip(history, lines[1:]):
            e, t, v = line.split(",")
            assert int(e) == epoch
            assert float(t) == tl  # repr round-trips exactly
            assert float(v) == vl


class TestMetrics:
    def test_binarize(self):
        x = np.array([0.0, 0.49, 0.5, 0.51, 1.0])
        np.testing.assert_array_equal(binarize(x, 0.5), [0, 0, 1, 1, 1])

    @staticmethod
    def _single(pred_frame, target_frame):
        pred = np.asarray(pred_frame, dtype=np.float64)[None, None, :, :, None]
        target = np.asarray(target_frame, dtype=np.float64)[None, :, :, None]
        # a two-frame run: a zero input frame, then the target frame
        samples = SampleSet(np.concatenate([np.zeros_like(target), target]),
                            lags=1, horizon=1)
        return (lambda x: pred[0]), samples

    def test_hand_computed_confusion(self):
        predictor, samples = self._single([[1.0, 1.0], [0.0, 0.0]],
                                          [[1.0, 0.0], [0.0, 1.0]])
        report = evaluate(predictor, samples, threshold=0.5)
        assert report.mse == pytest.approx(0.5)
        assert report.mse_binarized == pytest.approx(0.5)
        assert report.accuracy == pytest.approx(0.5)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)

    def test_perfect_prediction(self):
        predictor, samples = self._single([[1.0, 0.0], [0.0, 1.0]],
                                          [[1.0, 0.0], [0.0, 1.0]])
        report = evaluate(predictor, samples, threshold=0.5)
        assert report.mse == 0.0
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_no_positives_anywhere_scores_one(self):
        predictor, samples = self._single([[0.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 0.0]])
        report = evaluate(predictor, samples, threshold=0.5)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.accuracy == 1.0

    def test_false_positives_only(self):
        predictor, samples = self._single([[1.0, 1.0], [1.0, 1.0]],
                                          [[0.0, 0.0], [0.0, 0.0]])
        report = evaluate(predictor, samples, threshold=0.5)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.accuracy == 0.0

    def test_denormalization_scales_mse_quadratically(self):
        predictor, samples = self._single([[1.0, 1.0], [0.0, 0.0]],
                                          [[1.0, 0.0], [0.0, 1.0]])
        base = evaluate(predictor, samples, threshold=0.5)
        scaled = evaluate(predictor, dataclasses.replace(
            samples, metadata={"norm_factor": 3.0}), threshold=0.5)
        assert scaled.mse == pytest.approx(9.0 * base.mse)
        assert scaled.accuracy == base.accuracy

    def test_prediction_shape_must_match_target(self):
        _, _, test_set = _tiny_split(seed=6)
        with pytest.raises(ValueError, match="prediction shape"):
            evaluate(lambda x: x[-1:, :8], test_set, 0.5)

    def test_empty_test_set(self):
        _, _, test_set = _tiny_split(seed=6)
        with pytest.raises(ValueError):
            evaluate(lambda x: x[-1:], test_set.subset(np.s_[:0]), 0.5)


class _WrongBackward(Layer):
    """Forward is y = 3x but backward claims dy/dx = 2."""

    def out_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x, train=False, rng=None):
        return 3.0 * x

    def backward(self, grad):
        return 2.0 * grad


class TestGradCheck:
    def test_passes_on_correct_conv(self):
        conv = Conv3D(ConvSpec((3, 3, 3), 2, 2, padding="same"))
        report = grad_check(conv, in_shape=(3, 5, 5, 2), tol=1e-4, seed=0)
        assert report.passed, report
        assert report.max_rel_error < 1e-4

    def test_fails_on_wrong_backward(self):
        report = grad_check(_WrongBackward(), in_shape=(2, 4, 4, 1),
                            tol=1e-4, seed=1)
        assert not report.passed
        assert report.max_rel_error > 0.3  # claims 2/3 of the true gradient

    def test_detects_corrupted_model_weight_gradient(self):
        model = build_plain_unet(mini_config(base_filters=1)).initialize(
            seed=2, dtype=np.float64)
        original = Conv3D.backward

        def corrupted(self, grad):
            out = original(self, grad)
            for key in self.grads:
                self.grads[key] *= 1.5
            return out

        Conv3D.backward = corrupted
        try:
            report = grad_check(model.root, model.input_shape(), tol=1e-4,
                                seed=3)
        finally:
            Conv3D.backward = original
        assert not report.passed

    def test_covers_dropout_backward(self, monkeypatch):
        # every forward is a training forward, so a dropout backward that
        # ignores its mask is caught
        model = build_broad_unet(mini_config(base_filters=1)).initialize(
            seed=6, dtype=np.float64)
        monkeypatch.setattr(Dropout, "backward", lambda self, grad: grad)
        report = grad_check(model.root, model.input_shape(), tol=1e-4, seed=7,
                            max_input_coords=16, max_param_coords=48)
        assert not report.passed

    def test_model_requires_f64(self):
        model = build_plain_unet(mini_config(base_filters=1)).initialize(seed=4)
        with pytest.raises(ValueError):
            grad_check(model.root, model.input_shape())

    def test_initialized_layer_requires_f64(self):
        conv = Conv3D(ConvSpec((1, 3, 3), 2, 2))
        conv.init_params(np.random.default_rng(0), dtype=np.float32)
        with pytest.raises(ValueError, match="f64 parameters"):
            grad_check(conv, (1, 4, 4, 2))

    def test_mini_model_end_to_end(self):
        model = build_plain_unet(mini_config(base_filters=1)).initialize(
            seed=5, dtype=np.float64)
        report = grad_check(model.root, model.input_shape(), tol=1e-4, seed=5,
                            max_input_coords=16, max_param_coords=48)
        assert report.passed, report
