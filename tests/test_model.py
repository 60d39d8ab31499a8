import hashlib
import re
from dataclasses import asdict

import numpy as np
import pytest

from broadunet import archive, layers as layers_module
from broadunet import model as model_module
from broadunet.layers import Conv3D, Dropout, Layer, MaxPoolSpatial, Parallel
from broadunet.model import (
    ARCHS,
    Model,
    ModelConfig,
    build_broad_unet,
    build_plain_unet,
    dump_feature_maps,
    mini_config,
    persistence_predict,
)
from broadunet.training import loss_mse

from conftest import closed_form_conv_params, zero_all_params


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible by 16, got 24x32"):
            ModelConfig(lags=2, height=24, width=32, features=1)

    def test_channel_plan_doubles(self):
        cfg = mini_config(base_filters=3)
        assert cfg.channel_plan == [3, 6, 12, 24, 48]

    def test_aspp_channels_must_match_bottleneck(self):
        # the ASPP is built at the bottleneck width; no setting can change it
        aspp = dict(build_broad_unet(mini_config(base_filters=3))
                    .root.children())["aspp"]
        convs = [(name, conv.spec) for name, conv in aspp.convs()]
        assert {spec.out_channels for _, spec in convs} == {48}
        assert {spec.in_channels for name, spec in convs
                if name != "merge"} == {48}

    def test_round_trip_dict(self):
        cfg = mini_config(head="binary", factorized=False)
        assert asdict(ModelConfig(**asdict(cfg))) == asdict(cfg)

    def test_dict_holds_exactly_the_fields(self):
        assert list(asdict(mini_config())) == [
            "lags", "height", "width", "features", "base_filters",
            "dropout_rate", "factorized", "head"]


class TestShapeContract:
    def test_mini_forward(self):
        model = build_broad_unet(mini_config()).initialize(seed=0)
        x = np.random.default_rng(0).random((2, 16, 16, 1), dtype=np.float32)
        assert model.predict(x).shape == (1, 16, 16, 1)

    def test_symbolic_without_allocation(self):
        cfg = ModelConfig(lags=12, height=288, width=288, features=1)
        model = build_broad_unet(cfg)
        assert not model.initialized
        assert model.out_shape() == (1, 288, 288, 1)

    def test_encoder_spatial_halving(self):
        model = build_broad_unet(mini_config())
        layers = dict(model.root.children())
        shape = (2, 16, 16, 1)
        extents = [16]
        for i in range(4):
            shape = layers[f"enc{i}"].out_shape(shape)
            shape = MaxPoolSpatial().out_shape(shape)
            extents.append(shape[1])
        assert extents == [16, 8, 4, 2, 1]

    def test_binary_head_range(self):
        model = build_broad_unet(mini_config(head="binary")).initialize(seed=1)
        y = model.predict(np.random.default_rng(1).random((2, 16, 16, 1),
                                                          dtype=np.float32))
        assert y.min() >= 0.0 and y.max() <= 1.0

    def test_plain_unet_same_contract(self):
        model = build_plain_unet(mini_config()).initialize(seed=2)
        x = np.random.default_rng(2).random((2, 16, 16, 1), dtype=np.float32)
        assert model.predict(x).shape == (1, 16, 16, 1)
        assert model.out_shape() == (1, 16, 16, 1)

    def test_wrong_input_shape_rejected(self):
        model = build_broad_unet(mini_config()).initialize(seed=3)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 16, 16, 1), dtype=np.float32))

    def test_symbolic_walk_visits_every_conv(self, monkeypatch):
        calls = []
        real = Conv3D.out_shape

        def counted(layer, shape):
            calls.append(layer)
            return real(layer, shape)

        monkeypatch.setattr(Conv3D, "out_shape", counted)
        model = build_broad_unet(mini_config())
        model.out_shape()
        assert len(calls) == len(model.conv_specs())


class TestParameterAccounting:
    @pytest.mark.parametrize("builder", [build_broad_unet, build_plain_unet])
    def test_only_convs_own_parameters(self, builder):
        model = builder(mini_config()).initialize(seed=4)
        layers = reachable_layers(model.root)
        owners = [layer for layer in layers
                  if {"params", "grads"} & vars(layer).keys()]
        assert owners == [layer for layer in layers
                          if isinstance(layer, Conv3D)]
        walked = [(name, layer) for name, layer in model.root.walk()
                  if isinstance(layer, Conv3D)]
        assert list(model.root.convs()) == walked
        assert list(model.named_params()) == [
            f"{name}.{key}" for name, conv in walked for key in conv.params]
        x = np.random.default_rng(4).random((2, 16, 16, 1), dtype=np.float32)
        y = model.forward(x, train=True, rng=np.random.default_rng(5))
        model.backward(np.ones_like(y))
        assert set(model.named_grads()) == set(model.named_params())
        model.zero_grads()
        assert all(conv.grads == {} for _, conv in walked)

    def test_single_pointwise_conv(self):
        from broadunet.layers import Conv3D, ConvSpec
        conv = Conv3D(ConvSpec((1, 1, 1), 1, 1))
        assert sum(int(np.prod(s)) for s in conv.param_shapes().values()) == 2

    @pytest.mark.parametrize("builder", [build_broad_unet, build_plain_unet])
    @pytest.mark.parametrize("kwargs", [
        dict(lags=2, base_filters=1),
        dict(lags=3, base_filters=2, factorized=False),
        dict(lags=4, base_filters=3, head="binary"),
    ])
    def test_matches_closed_form_oracle(self, builder, kwargs):
        model = builder(mini_config(**kwargs))
        total, table = model.count_params()
        assert total == closed_form_conv_params(model.conv_specs())
        assert total == sum(n for _, n in table)

    def test_count_invariant_to_weights_and_seed(self):
        cfg = mini_config()
        a = build_broad_unet(cfg)
        b = build_broad_unet(cfg).initialize(seed=99)
        assert a.count_params()[0] == b.count_params()[0]
        assert b.count_params()[0] == sum(
            p.size for p in b.named_params().values())

    def test_factorized_strictly_smaller(self):
        for f0 in (1, 2, 4):
            fact = build_broad_unet(mini_config(
                base_filters=f0)).count_params()[0]
            full = build_broad_unet(mini_config(
                base_filters=f0, factorized=False)).count_params()[0]
            assert fact < full

    def test_default_architecture_ratio(self):
        base = dict(lags=12, height=288, width=288, features=1,
                    base_filters=64)
        fact = build_broad_unet(ModelConfig(**base)).count_params()[0]
        full = build_broad_unet(ModelConfig(
            factorized=False, **base)).count_params()[0]
        assert 0.30 <= fact / full <= 0.50

    def test_plain_unet_smaller_than_broad(self):
        cfg = ModelConfig(lags=12, height=288, width=288, features=1,
                          base_filters=64)
        assert build_plain_unet(cfg).count_params()[0] < \
            build_broad_unet(cfg).count_params()[0]


class TestPredict:
    def test_deterministic(self):
        model = build_broad_unet(mini_config()).initialize(seed=4)
        x = np.random.default_rng(4).random((2, 16, 16, 1), dtype=np.float32)
        np.testing.assert_array_equal(model.predict(x), model.predict(x))

    def test_regression_head_nonnegative(self):
        model = build_broad_unet(mini_config()).initialize(seed=5)
        x = np.random.default_rng(5).standard_normal(
            (2, 16, 16, 1)).astype(np.float32)
        assert model.predict(x).min() >= 0.0

    def test_zero_weights_zero_output(self):
        model = build_plain_unet(mini_config()).initialize(seed=6)
        zero_all_params(model)
        y = model.predict(np.random.default_rng(6).random(
            (2, 16, 16, 1), dtype=np.float32))
        assert not y.any()

    def test_subnormal_inputs_enter_as_zero(self):
        model = build_broad_unet(mini_config()).initialize(seed=9)
        x = np.random.default_rng(9).random((2, 16, 16, 1), dtype=np.float32)
        tiny = np.finfo(np.float32).tiny
        planted = x.copy()
        planted.flat[[3, 40, 41, 200, 511]] = [tiny / 2, -tiny / 3, 1e-45,
                                               -1e-45, -0.0]
        zeroed = x.copy()
        zeroed.flat[[3, 40, 41, 200, 511]] = 0.0
        before = planted.copy()
        assert model.predict(planted).tobytes() == model.predict(zeroed).tobytes()
        outs = []
        for window in (planted, zeroed):
            outs.append(model.forward(window, train=True,
                                      rng=np.random.default_rng(1)).tobytes())
            # the first conv tapes its input: the flushed copy, +0 for each
            # subnormal
            _, first = next(model.root.convs())
            assert first._tape.padded.tobytes() == zeroed.tobytes()
        assert outs[0] == outs[1]
        assert planted.tobytes() == before.tobytes()  # the caller's window


def reachable_layers(root):
    """Every Layer reachable from `root` through attributes, lists and
    tuples: unlike `walk`, this reaches the `Parallel` nodes and `graph`."""
    found, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, Layer) and id(obj) not in found:
            found[id(obj)] = obj
            stack.extend(vars(obj).values())
    return list(found.values())


class TestTapeFreeInference:
    """Only a training forward keeps backward state."""

    @pytest.mark.parametrize("builder", [build_broad_unet, build_plain_unet])
    def test_forward_writes_only_the_tape(self, builder):
        model = builder(mini_config()).initialize(seed=6)
        x = np.random.default_rng(6).random((2, 16, 16, 1), dtype=np.float32)
        layers = reachable_layers(model.root)
        assert model.root.graph in layers
        assert any(isinstance(layer, Parallel) for layer in layers)

        def changed(before):
            """(layer type, attribute) of each attribute but `_tape` that is
            no longer the object it was in `before`, or is new or gone."""
            gone = object()
            return {(type(layer).__name__, key)
                    for layer, attrs in zip(layers, before)
                    for key in attrs.keys() | vars(layer).keys()
                    if key != "_tape" and attrs.get(key, gone)
                    is not vars(layer).get(key, gone)}

        before = [dict(vars(layer)) for layer in layers]
        model.predict(x)
        assert changed(before) == set()
        assert all(layer._tape is None for layer in layers)
        model.forward(x, train=True, rng=np.random.default_rng(0))
        assert changed(before) == set()
        assert any(isinstance(layer, Parallel) and layer._tape is not None
                   for layer in layers)

    def test_predict_leaves_no_tape(self):
        model = build_broad_unet(mini_config()).initialize(seed=7)
        x = np.random.default_rng(7).random((2, 16, 16, 1), dtype=np.float32)
        # an unconsumed training forward leaves tapes behind
        model.forward(x, train=True, rng=np.random.default_rng(0))
        assert any(layer._tape is not None for _, layer in model.root.walk())
        model.predict(x)
        assert all(layer._tape is None for _, layer in model.root.walk())

    def test_training_forward_output_equals_inference(self):
        # no dropout: keeping tapes must not move a single bit of the output
        model = build_broad_unet(mini_config(dropout_rate=0.0)).initialize(
            seed=8)
        x = np.random.default_rng(8).standard_normal(
            (2, 16, 16, 1)).astype(np.float32)
        y = model.forward(x, train=True, rng=np.random.default_rng(0))
        assert y.tobytes() == model.forward(x).tobytes()

    def test_rate_zero_builds_no_dropout_and_draws_nothing(self):
        model = build_broad_unet(mini_config(dropout_rate=0.0)).initialize(
            seed=8)
        assert "dropout" not in dict(model.root.children())
        assert not any(isinstance(layer, Dropout)
                       for _, layer in model.root.walk())
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        model.forward(np.ones((2, 16, 16, 1), dtype=np.float32), train=True,
                      rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("builder", [build_broad_unet, build_plain_unet])
    def test_training_step_bitwise_unchanged_by_inference(self, builder):
        model = builder(mini_config()).initialize(seed=9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 16, 16, 1)).astype(np.float32)
        t = rng.random((1, 16, 16, 1), dtype=np.float32)

        def step():
            model.zero_grads()
            y = model.forward(x, train=True, rng=np.random.default_rng(1))
            gx = model.backward(y - t)
            return [y, gx, *model.named_grads().values()]

        first = step()
        model.predict(x)
        model.forward(x, train=True, rng=np.random.default_rng(2))
        second = step()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


class TestConvTapesKeepTheirInputs:
    """A conv tape references its input, so no later forward may write into
    an array a tape holds."""

    def test_training_forward_writes_into_no_taped_input(self, monkeypatch):
        calls, conv_forward = {}, layers_module.conv3d_forward

        def recording(x, weights, bias, spec):
            before = np.array(x, copy=True)
            y, tape = conv_forward(x, weights, bias, spec)
            calls[id(tape)] = (tape, before)
            return y, tape

        monkeypatch.setattr(layers_module, "conv3d_forward", recording)
        model = build_broad_unet(mini_config()).initialize(seed=11)
        assert any(isinstance(layer, Dropout)
                   for _, layer in model.root.walk())
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 16, 16, 1)).astype(np.float32)
        t = rng.random((1, 16, 16, 1), dtype=np.float32)
        y = model.forward(x, train=True, rng=np.random.default_rng(12))
        loss_mse(y, t)
        convs = list(model.root.convs())
        assert len(calls) == len(convs)
        for name, conv in convs:
            tape, before = calls[id(conv._tape)]
            assert tape is conv._tape, name
            assert tape.padded.tobytes() == before.tobytes(), name


class TestPersistence:
    def test_constant_sequence_zero_error(self):
        x = np.full((4, 8, 8, 1), 0.3)
        np.testing.assert_array_equal(persistence_predict(x), x[-1:])

    def test_last_frame_copied(self):
        x = np.random.default_rng(7).random((3, 4, 4, 2))
        y = persistence_predict(x)
        np.testing.assert_array_equal(y, x[-1:])
        y[...] = 0  # a copy, not a view
        assert x[-1].any()

    def test_mse_equals_brute_force_frame_difference(self):
        from broadunet.datapipe import SynthConfig, make_samples, synth_advection
        from broadunet.training import evaluate
        seq = synth_advection(SynthConfig(height=16, width=16, n_frames=12,
                                          velocity=(0, 1), seed=3))
        samples = make_samples(seq, lags=2, horizon=1)
        report = evaluate(persistence_predict, samples, threshold=0.5)
        # brute force: mean squared difference between each target frame and
        # the last input frame
        diffs = [((samples.targets[i][0] - samples.inputs[i][-1]) ** 2).mean()
                 for i in range(len(samples))]
        assert report.mse == pytest.approx(float(np.mean(diffs)), rel=1e-6)


class TestFeatureMaps:
    def test_three_branches_same_shape(self):
        model = build_broad_unet(mini_config()).initialize(seed=8)
        x = np.random.default_rng(8).random((2, 16, 16, 1), dtype=np.float32)
        maps = dump_feature_maps(model, x, 0)
        assert [label for label, _ in maps] == [
            "branch_1x1x1", "branch_3x3x3", "branch_5x5x5"]
        shapes = {arr.shape for _, arr in maps}
        assert shapes == {(2, 16, 16, 2)}

    def test_zero_input_zero_maps(self):
        model = build_broad_unet(mini_config()).initialize(seed=9)
        maps = dump_feature_maps(
            model, np.zeros((2, 16, 16, 1), dtype=np.float32), 0)
        for _, arr in maps:
            assert not arr.any()  # biases start at zero

    def test_bad_index(self):
        model = build_broad_unet(mini_config()).initialize(seed=10)
        with pytest.raises(ValueError):
            dump_feature_maps(model, np.zeros((2, 16, 16, 1),
                                              dtype=np.float32), 99)


# SHA-256 of the `Model.save` bytes after `initialize(seed=0)` at
# `mini_config(head=...)`, recorded before the layer graph lost its
# do-nothing parts: parameter names, walk order and initial values must not
# move when the graph is restructured
SAVED_MINI_SHA256 = {
    ("broad-unet", "regression"):
        "93f244917b65cb42f6488bf5d4f3baa37e57a4e456f7c1290b79fdf08674e810",
    ("broad-unet", "binary"):
        "ecc773b6c9c354fff7dfc9e411b6ffe31f292eef7417d41e72956c302dbb4a80",
    ("unet", "regression"):
        "2ce3153ab52407fb24b6f58e9c443930c45d2cb261e5af1ad40bc3e48b3d5754",
    ("unet", "binary"):
        "5dfcc64e5efd2bbac42650cfb29a9a8daf0622268a16553ecddfeb14586199ad",
}


class TestCheckpoint:
    @pytest.mark.parametrize("arch,head", sorted(SAVED_MINI_SHA256))
    def test_initialized_mini_bytes_are_pinned(self, tmp_path, arch, head):
        path = tmp_path / "model.btar"
        ARCHS[arch](mini_config(head=head)).initialize(seed=0).save(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SAVED_MINI_SHA256[arch, head]

    def test_bit_exact_round_trip(self, tmp_path):
        model = build_broad_unet(mini_config(head="binary")).initialize(seed=11)
        path = tmp_path / "model.btar"
        model.save(path)
        loaded = Model.load(path)
        assert asdict(loaded.config) == asdict(model.config)
        for name, arr in model.named_params().items():
            np.testing.assert_array_equal(loaded.named_params()[name], arr)
        x = np.random.default_rng(11).random((2, 16, 16, 1), dtype=np.float32)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_plain_unet_round_trip(self, tmp_path):
        model = build_plain_unet(mini_config()).initialize(seed=12)
        path = tmp_path / "unet.btar"
        model.save(path)
        assert Model.load(path).arch == "unet"

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model = build_broad_unet(mini_config()).initialize(seed=13)
        path = tmp_path / "model.btar"
        model.save(path)

        def failing_save(target, records):
            # writes the first records, then fails on an unsupported dtype
            archive.archive_save(
                target, {**records, "bad": np.zeros(1, dtype=np.int64)})

        monkeypatch.setattr(model_module, "archive_save", failing_save)
        with pytest.raises(ValueError):
            build_broad_unet(mini_config()).initialize(seed=14).save(path)
        loaded = Model.load(path)
        for name, arr in model.named_params().items():
            np.testing.assert_array_equal(loaded.named_params()[name], arr)

    def test_param_of_another_dtype_is_refused(self):
        # saved beside `elem_type: f32`, an f64 record would be narrowed on load
        model = build_broad_unet(mini_config()).initialize(seed=15)
        before = model.named_params()["head.w"]
        with pytest.raises(ValueError, match="record head.w holds float64, "
                                             "the model holds float32"):
            model.set_param("head.w", before.astype(np.float64))
        assert model.named_params()["head.w"] is before

    def test_record_of_another_dtype_is_format_error(self, tmp_path):
        path = tmp_path / "model.btar"
        build_broad_unet(mini_config()).initialize(seed=16).save(path)
        records = archive.archive_load(path)
        records["head.w"] = records["head.w"].astype(np.float64)
        archive.archive_save(path, records)
        with pytest.raises(archive.FormatError,
                           match=f"bad checkpoint {re.escape(str(path))}: "
                                 f".*record head.w holds float64, the model "
                                 f"holds float32"):
            Model.load(path)

