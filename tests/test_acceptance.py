"""End-to-end acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line so the
whole gate can be read at a glance with `pytest tests/test_acceptance.py -s`.
"""

import numpy as np
import pytest

from broadunet.archive import archive_load, archive_save
from broadunet.cli import run
from broadunet.datapipe import (
    FrameSequence,
    SampleSet,
    SynthConfig,
    cloud_preprocess,
    make_samples,
    precip_preprocess,
    split_counts,
    synth_advection,
)
from broadunet.layers import (
    Activation,
    Conv3D,
    ConvSpec,
    ImageLevelPool,
    MaxPoolSpatial,
    UpsampleNearestSpatial,
)
from broadunet.model import (
    Model,
    ModelConfig,
    build_broad_unet,
    mini_config,
    persistence_predict,
)
from broadunet.training import TrainConfig, binarize, evaluate, grad_check, train

from conftest import closed_form_conv_params


def _report(number, name, ok, detail):
    print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_shape_contract():
    # symbolic at full width: no weight or activation allocation
    full = build_broad_unet(ModelConfig(lags=12, height=288, width=288,
                                        features=1, base_filters=64))
    shape_a = full.out_shape()
    alt = build_broad_unet(ModelConfig(lags=4, height=256, width=256,
                                       features=1, base_filters=64))
    shape_b = alt.out_shape()
    # one real f32 forward per geometry at reduced width
    ya = build_broad_unet(ModelConfig(
        lags=12, height=288, width=288, features=1, base_filters=1)
    ).initialize(seed=0).predict(
        np.random.default_rng(0).random((12, 288, 288, 1), dtype=np.float32))
    yb = build_broad_unet(ModelConfig(
        lags=4, height=256, width=256, features=1, base_filters=1)
    ).initialize(seed=0).predict(
        np.random.default_rng(0).random((4, 256, 256, 1), dtype=np.float32))
    ok = (not full.initialized and not alt.initialized
          and shape_a == (1, 288, 288, 1) and shape_b == (1, 256, 256, 1)
          and ya.shape == (1, 288, 288, 1) and yb.shape == (1, 256, 256, 1))
    _report(1, "shape contract", ok,
            f"(12,288,288,1)->{shape_a} and (4,256,256,1)->{shape_b}, "
            f"forward shapes {ya.shape}/{yb.shape}")


def test_criterion_2_gradient_correctness():
    primitives = [
        ("conv3d_same", Conv3D(ConvSpec((2, 3, 3), 2, 3)), (3, 6, 6, 2)),
        ("conv3d_dilated",
         Conv3D(ConvSpec((1, 3, 3), 2, 2, dilation=(1, 2, 2))), (2, 8, 8, 2)),
        ("conv3d_valid",
         Conv3D(ConvSpec((2, 3, 3), 2, 2, padding="valid")), (4, 8, 8, 2)),
        ("maxpool", MaxPoolSpatial(), (2, 6, 6, 3)),
        ("upsample", UpsampleNearestSpatial(), (2, 4, 4, 3)),
        ("relu", Activation("relu"), (2, 5, 5, 2)),
        ("sigmoid", Activation("sigmoid"), (2, 5, 5, 2)),
        ("image_level_pool", ImageLevelPool(), (2, 6, 6, 3)),
    ]
    worst = 0.0
    for name, layer, shape in primitives:
        rep = grad_check(layer, in_shape=shape, tol=1e-4, seed=0)
        worst = max(worst, rep.max_rel_error)
        assert rep.passed, f"{name}: {rep.max_rel_error:.3e} at {rep.worst}"
    model = build_broad_unet(mini_config()).initialize(seed=1,
                                                       dtype=np.float64)
    rep = grad_check(model.root, model.input_shape(), tol=1e-4, seed=1)
    worst = max(worst, rep.max_rel_error)
    _report(2, "gradient correctness", rep.passed and worst < 1e-4,
            f"max relative error {worst:.3e} < 1e-4 "
            f"(primitives + end-to-end mini network, f64)")


def test_criterion_3_parameter_accounting():
    rng = np.random.default_rng(0)
    all_match = True
    all_smaller = True
    for _ in range(6):
        kwargs = dict(lags=int(rng.integers(1, 6)),
                      height=16 * int(rng.integers(1, 4)),
                      base_filters=int(rng.integers(1, 5)),
                      head=str(rng.choice(["regression", "binary"])))
        kwargs["width"] = kwargs["height"]
        fact = build_broad_unet(ModelConfig(factorized=True, **kwargs))
        full = build_broad_unet(ModelConfig(factorized=False, **kwargs))
        for model in (fact, full):
            all_match &= (model.count_params()[0]
                          == closed_form_conv_params(model.conv_specs()))
        all_smaller &= fact.count_params()[0] < full.count_params()[0]
    base = dict(lags=12, height=288, width=288, features=1, base_filters=64)
    n_fact = build_broad_unet(ModelConfig(**base)).count_params()[0]
    n_full = build_broad_unet(ModelConfig(factorized=False,
                                          **base)).count_params()[0]
    ratio = n_fact / n_full
    ok = all_match and all_smaller and 0.30 <= ratio <= 0.50
    _report(3, "parameter accounting", ok,
            f"oracle match on 6 random configs x2, factorized strictly "
            f"smaller, default ratio {n_fact}/{n_full} = {ratio:.4f} "
            f"in [0.30, 0.50]")


@pytest.mark.slow
def test_criterion_4_desk_scale_learning(tmp_path):
    lags, horizon = 4, 1
    n_train, n_val, n_test = 256, 64, 64
    seq = synth_advection(SynthConfig(
        height=32, width=32, n_frames=n_train + n_val + n_test + lags + horizon - 1,
        velocity=(0, 1), seed=7))
    samples = make_samples(seq, lags=lags, horizon=horizon)
    train_set, val_set, test_set = split_counts(samples, n_train, n_val, n_test)
    model = build_broad_unet(ModelConfig(lags=lags, height=32, width=32,
                                         features=1, base_filters=4)
                             ).initialize(seed=7)
    ckpt = str(tmp_path / "desk.btar")
    train(model, train_set, val_set, TrainConfig(
        loss="mse", learning_rate=1e-3, batch_size=8, max_epochs=15, seed=7,
        checkpoint_path=ckpt))
    best = Model.load(ckpt)
    model_mse = evaluate(best.predict, test_set, threshold=0.5).mse
    persist_mse = evaluate(persistence_predict, test_set, threshold=0.5).mse
    ok = model_mse < persist_mse
    _report(4, "desk-scale learning", ok,
            f"trained test MSE {model_mse:.3e} < persistence {persist_mse:.3e} "
            f"(32x32 advection, one-column shift per frame)")


def test_criterion_5_metrics_fidelity():
    # hand-enumerated confusion case: tp=1, fp=1, fn=1, tn=1
    pred = np.array([[1.0, 1.0], [0.0, 0.0]])[None, None, :, :, None]
    target = np.array([[1.0, 0.0], [0.0, 1.0]])[None, None, :, :, None]
    samples = SampleSet(np.concatenate([np.zeros_like(target[0]), target[0]]),
                        lags=1, horizon=1)
    r = evaluate(lambda x: pred[0], samples, threshold=0.5)
    hand_ok = (r.mse == 0.5 and r.mse_binarized == 0.5 and r.accuracy == 0.5
               and r.precision == 0.5 and r.recall == 0.5)
    # persistence on a constant sequence is a perfect predictor
    const = FrameSequence(np.full((6, 16, 16, 1), 0.7, dtype=np.float32), 5.0)
    const_set = make_samples(const, lags=2, horizon=1)
    c = evaluate(persistence_predict, const_set, threshold=0.5)
    const_ok = (c.mse == 0.0 and c.accuracy == 1.0 and c.precision == 1.0
                and c.recall == 1.0)
    # a value exactly at the threshold counts as positive
    boundary = binarize(np.array([0.299999, 0.3, 0.300001]), 0.3)
    boundary_ok = list(boundary) == [0.0, 1.0, 1.0]
    ok = hand_ok and const_ok and boundary_ok
    _report(5, "metrics fidelity", ok,
            f"hand confusion case exact={hand_ok}, constant-sequence "
            f"persistence perfect={const_ok}, threshold boundary "
            f"inclusive={boundary_ok}")


def test_criterion_6_pipeline_correctness(tmp_path):
    # precipitation crop: central 288x288 of 765x700, offsets (238, 206)
    raw = np.zeros((2, 765, 700, 1), dtype=np.float32)
    raw[:, 238, 206, 0] = 1.0
    raw[0, 238:382, 206:494, 0] = 1.0   # exactly half the crop wet
    raw[1, :, :, 0] = 1.0
    out_50 = precip_preprocess(FrameSequence(raw, 5), rain_fraction=0.5)
    out_20 = precip_preprocess(FrameSequence(raw, 5), rain_fraction=0.2)
    crop_ok = (out_50.frames.shape[1:3] == (288, 288)
               and out_50.metadata["crop_offsets"] == (238, 206))
    filter_ok = len(out_50) == 2 and len(out_20) == 2  # boundary frame kept
    # cloud label grouping at the 4/5 boundary
    labels = np.full((1, 20, 20, 1), 4.0)
    labels[0, 10:, :, 0] = 5.0
    lats = np.linspace(51.0, 42.0, 20)
    lons = np.linspace(-5.0, 9.0, 20)
    cloud = cloud_preprocess(FrameSequence(labels, 15), lats, lons)
    cloud_ok = (cloud.frames.shape == (1, 256, 256, 1)
                and cloud.frames[0, 0, 0, 0] == 0.0
                and cloud.frames[0, -1, -1, 0] == 1.0
                and set(np.unique(cloud.frames)) == {0.0, 1.0})
    # archive round trip, randomized shapes/dtypes, bit-exact
    rng = np.random.default_rng(1)
    archive_ok = True
    for trial in range(10):
        records = {}
        for j in range(int(rng.integers(1, 5))):
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(0, 5))))
            dtype = rng.choice([np.float32, np.float64, np.uint8])
            arr = (rng.integers(0, 256, shape).astype(np.uint8)
                   if dtype == np.uint8
                   else rng.standard_normal(shape).astype(dtype))
            records[f"r{trial}_{j}"] = arr
        path = tmp_path / f"t{trial}.btar"
        archive_save(path, records)
        loaded = archive_load(path)
        for name, arr in records.items():
            archive_ok &= (loaded[name].dtype == arr.dtype
                           and loaded[name].shape == arr.shape
                           and np.array_equal(loaded[name], arr))
    ok = crop_ok and filter_ok and cloud_ok and archive_ok
    _report(6, "pipeline correctness", ok,
            f"crop 288x288 at (238,206)={crop_ok}, boundary rain filter="
            f"{filter_ok}, cloud 4->0/5->1={cloud_ok}, archive bit-exact="
            f"{archive_ok}")


def test_criterion_7_determinism(tmp_path):
    frames, samples = str(tmp_path / "frames.btar"), str(tmp_path / "s.btar")
    assert run(["synth-gen", "--out", frames, "--h", "16", "--w", "16",
                "--frames", "16", "--seed", "33"]) == 0
    assert run(["make-samples", "--frames", frames, "--lags", "2",
                "--out", samples]) == 0
    args = ["train", "--samples", samples, "--arch", "broad-unet", "--f0", "1",
            "--train-n", "8", "--val-n", "3", "--test-n", "3", "--epochs", "3",
            "--batch", "4", "--seed", "33"]
    blobs = []
    for i in range(2):
        out_dir = tmp_path / f"run{i}"
        assert run(args + ["--out-dir", str(out_dir)]) == 0
        blobs.append(((out_dir / "history.csv").read_bytes(),
                      (out_dir / "checkpoint.btar").read_bytes()))
    ok = blobs[0] == blobs[1]
    _report(7, "determinism", ok,
            "two seeded training runs produce byte-identical history CSV "
            "and checkpoint")
