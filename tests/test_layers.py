import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadunet import layers
from broadunet.layers import (
    Activation,
    Conv3D,
    ConvSpec,
    Dropout,
    ImageLevelPool,
    Layer,
    MaxPoolSpatial,
    Sequential,
    UpsampleNearestSpatial,
    conv3d_backward,
    conv3d_forward,
    Parallel,
    conv_unit,
    factor_specs,
)
from broadunet.model import ARCHS, ModelConfig
from broadunet.training import grad_check

from conftest import naive_conv3d, naive_conv3d_backward, naive_maxpool


class TestConvSpec:
    def test_effective_extent(self):
        spec = ConvSpec((1, 3, 3), 1, 1, dilation=(1, 18, 18))
        assert spec.effective_extent == (1, 37, 37)

    def test_param_count(self):
        def count(spec):
            shapes = Conv3D(spec).param_shapes().values()
            return sum(int(np.prod(shape)) for shape in shapes)
        assert count(ConvSpec((3, 3, 3), 2, 4)) == 27 * 2 * 4 + 4
        assert count(ConvSpec((1, 1, 1), 1, 1, bias=False)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvSpec((0, 3, 3), 1, 1)
        with pytest.raises(ValueError):
            ConvSpec((3, 3, 3), 1, 1, dilation=(0, 1, 1))
        with pytest.raises(ValueError):
            ConvSpec((3, 3, 3), 0, 1)
        with pytest.raises(ValueError):
            ConvSpec((3, 3, 3), 1, 1, padding="reflect")

    def test_valid_padding_feasibility(self):
        spec = ConvSpec((1, 5, 5), 1, 1, padding="valid")
        with pytest.raises(ValueError, match="exceeds input extents"):
            spec.out_extents((1, 4, 4))


class TestConvForward:
    def test_scalar_affine(self):
        x = np.array([[[[3.0]]]])
        w = np.full((1, 1, 1, 1, 1), 2.0)
        y, _ = conv3d_forward(x, w, np.array([1.0]), ConvSpec((1, 1, 1), 1, 1))
        assert y.item() == 7.0

    def test_sum_of_ones_valid(self):
        x = np.ones((1, 3, 3, 1))
        w = np.ones((1, 3, 3, 1, 1))
        y, _ = conv3d_forward(x, w, None, ConvSpec(
            (1, 3, 3), 1, 1, padding="valid", bias=False))
        assert y.shape == (1, 1, 1, 1)
        assert y.item() == 9.0

    def test_dilated_one_hot_matches_sliding_window_oracle(self):
        # one-hot center: the kernel is "exploded" onto the distance-2
        # neighborhood around the center
        x = np.zeros((1, 5, 5, 1))
        x[0, 2, 2, 0] = 1.0
        rng = np.random.default_rng(0)
        w = rng.standard_normal((1, 3, 3, 1, 1))
        spec = ConvSpec((1, 3, 3), 1, 1, dilation=(1, 2, 2), bias=False)
        y, _ = conv3d_forward(x, w, None, spec)
        np.testing.assert_allclose(y, naive_conv3d(x, w, None, spec),
                                   rtol=1e-12, atol=1e-12)
        # cross-correlation: tap (j, k) contributes to the output position
        # displaced by -(j-1)*2, -(k-1)*2 from the hot pixel
        expected = np.zeros((5, 5))
        for j in range(3):
            for k in range(3):
                expected[2 - 2 * (j - 1), 2 - 2 * (k - 1)] = w[0, j, k, 0, 0]
        np.testing.assert_allclose(y[0, :, :, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("spec,shape", [
        (ConvSpec((2, 3, 3), 2, 3), (3, 5, 5, 2)),
        (ConvSpec((3, 3, 3), 1, 2, padding="valid"), (4, 6, 6, 1)),
        (ConvSpec((1, 3, 3), 2, 2, dilation=(1, 2, 2)), (2, 7, 7, 2)),
        (ConvSpec((2, 2, 2), 1, 1), (3, 4, 4, 1)),  # even kernel pad split
        # dilation beyond the input: only the centre tap reads data
        (ConvSpec((1, 3, 3), 2, 2, dilation=(1, 6, 6)), (2, 2, 2, 2)),
        # every tap is pad-only along H and W: the output is the bias
        (ConvSpec((1, 2, 2), 1, 1, dilation=(1, 3, 3)), (1, 1, 1, 1)),
        (ConvSpec((2, 3, 3), 2, 2, dilation=(2, 2, 2), padding="valid"),
         (4, 7, 6, 2)),
        (ConvSpec((1, 1, 1), 3, 2), (2, 3, 4, 3)),
        # the same dilated valid spec on a wider input stays on the grid
        (ConvSpec((2, 3, 3), 2, 2, dilation=(2, 2, 2), padding="valid"),
         (4, 12, 12, 2)),
    ])
    def test_matches_naive_oracle(self, spec, shape):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(spec.weight_shape())
        b = rng.standard_normal(spec.out_channels) if spec.bias else None
        y, _ = conv3d_forward(x, w, b, spec)
        np.testing.assert_allclose(y, naive_conv3d(x, w, b, spec),
                                   rtol=1e-10, atol=1e-10)

    def test_same_padding_preserves_extents(self):
        rng = np.random.default_rng(1)
        for kernel in [(1, 1, 1), (2, 3, 3), (3, 3, 3), (1, 5, 5), (2, 2, 2)]:
            for dilation in [(1, 1, 1), (1, 2, 2), (2, 3, 3)]:
                spec = ConvSpec(kernel, 1, 1, dilation=dilation)
                x = rng.standard_normal((3, 8, 8, 1))
                y, _ = conv3d_forward(x, rng.standard_normal(
                    spec.weight_shape()), np.zeros(1), spec)
                assert y.shape[:3] == x.shape[:3]

    def test_channel_mismatch(self):
        spec = ConvSpec((1, 1, 1), 2, 1)
        with pytest.raises(ValueError):
            conv3d_forward(np.zeros((1, 2, 2, 1)), np.zeros((1, 1, 1, 2, 1)),
                           None, spec)

    def test_linearity_without_bias(self):
        spec = ConvSpec((2, 3, 3), 2, 2, bias=False)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(spec.weight_shape())
        x1 = rng.standard_normal((3, 5, 5, 2))
        x2 = rng.standard_normal((3, 5, 5, 2))
        a, b = 1.7, -0.3
        lhs, _ = conv3d_forward(a * x1 + b * x2, w, None, spec)
        y1, _ = conv3d_forward(x1, w, None, spec)
        y2, _ = conv3d_forward(x2, w, None, spec)
        np.testing.assert_allclose(lhs, a * y1 + b * y2, rtol=1e-6, atol=1e-9)

    def test_unit_dilation_matches_undilated_bitwise(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((2, 3, 3, 2, 2))
        x = rng.standard_normal((3, 6, 6, 2))
        y1, _ = conv3d_forward(x, w, None, ConvSpec(
            (2, 3, 3), 2, 2, dilation=(1, 1, 1), bias=False))
        y2, _ = conv3d_forward(x, w, None, ConvSpec(
            (2, 3, 3), 2, 2, bias=False))
        np.testing.assert_array_equal(y1, y2)


class TestConvTapeInput:
    """A conv tape references the conv's own contiguous input, unpadded;
    backward pads it again."""

    @pytest.mark.parametrize("spec", [
        ConvSpec((1, 3, 3), 2, 3),
        ConvSpec((3, 1, 1), 2, 3),
        ConvSpec((1, 3, 3), 2, 3, dilation=(1, 2, 2)),
        ConvSpec((2, 3, 3), 2, 3, padding="valid"),
    ], ids=["spatial", "temporal", "dilated", "valid"])
    def test_tape_is_the_input(self, spec):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 6, 6, 2))
        _, tape = conv3d_forward(x, rng.standard_normal(spec.weight_shape()),
                                 None, spec)
        assert tape.padded is x

    def test_strided_input_is_taped_as_a_contiguous_copy(self):
        spec = ConvSpec((1, 3, 3), 2, 3)
        rng = np.random.default_rng(13)
        w = rng.standard_normal(spec.weight_shape())
        x = rng.standard_normal((3, 12, 6, 2))[:, ::2]
        y, tape = conv3d_forward(x, w, None, spec)
        assert tape.padded.flags.c_contiguous
        assert tape.padded.tobytes() == x.tobytes()
        want_y, want_tape = conv3d_forward(x.copy(), w, None, spec)
        assert y.tobytes() == want_y.tobytes()
        g = rng.standard_normal(y.shape)
        for got, want in zip(conv3d_backward(tape, g)[:2],
                             conv3d_backward(want_tape, g)[:2]):
            assert got.tobytes() == want.tobytes()


class TestConvBackward:
    def test_scalar_case(self):
        x = np.array([[[[3.0]]]])
        w = np.full((1, 1, 1, 1, 1), 2.0)
        _, tape = conv3d_forward(x, w, np.array([1.0]), ConvSpec((1, 1, 1), 1, 1))
        gx, gw, gb = conv3d_backward(tape, np.ones((1, 1, 1, 1)))
        assert gx.item() == 2.0
        assert gw.item() == 3.0
        assert gb.item() == 1.0

    def test_zero_grad_out(self):
        spec = ConvSpec((2, 3, 3), 2, 3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 4, 2))
        _, tape = conv3d_forward(x, rng.standard_normal(spec.weight_shape()),
                                 np.zeros(3), spec)
        gx, gw, gb = conv3d_backward(tape, np.zeros((3, 4, 4, 3)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_finite_difference_random_conv(self):
        # random 1x4x4x2 -> 3 channel same-padding conv, f64
        layer = Conv3D(ConvSpec((1, 3, 3), 2, 3))
        report = grad_check(layer, in_shape=(1, 4, 4, 2), tol=1e-6,
                            seed=11, max_param_coords=60)
        assert report.passed, report

    def test_grad_shape_mismatch(self):
        spec = ConvSpec((1, 1, 1), 1, 1)
        _, tape = conv3d_forward(np.zeros((1, 2, 2, 1)),
                                 np.zeros(spec.weight_shape()), np.zeros(1),
                                 spec)
        with pytest.raises(ValueError):
            conv3d_backward(tape, np.zeros((1, 3, 3, 1)))

    def test_layer_backward_releases_tape(self):
        layer = Conv3D(ConvSpec((1, 3, 3), 1, 2))
        layer.init_params(np.random.default_rng(0))
        y = layer.forward(np.ones((1, 4, 4, 1), dtype=np.float32), train=True)
        layer.backward(np.ones_like(y))
        assert layer._tape is None

    def test_layer_gradients_accumulate_until_zeroed(self):
        layer = Conv3D(ConvSpec((1, 3, 3), 1, 2))
        layer.init_params(np.random.default_rng(0), dtype=np.float64)
        x = np.random.default_rng(1).standard_normal((1, 4, 4, 1))
        grads = []
        for scale in (1.0, 2.0):
            y = layer.forward(x, train=True)
            layer.backward(np.full_like(y, scale))
            grads.append({k: g.copy() for k, g in layer.grads.items()})
        assert set(grads[0]) == {"w", "b"}
        for key in ("w", "b"):
            np.testing.assert_allclose(grads[1][key], 3 * grads[0][key])
        layer.zero_grads()
        assert layer.grads == {}


def _span(plan):
    """Grid rows from the first to the last output position."""
    (to, ho, wo), (_, hp, wp) = plan.out_thw, plan.padded_thw
    return (to - 1) * hp * wp + (ho - 1) * wp + wo


def _blocks(plan):
    """Output rows of each row block of a grid plan: those its first tap
    writes."""
    return [o for _, o, _, first in plan.work if first]


@pytest.fixture
def block_rows(monkeypatch):
    """`set(spec, rows)` sizes the row blocks so `spec` gets `rows` grid rows
    per block; cached plans are dropped on each change and after the test."""
    def set_rows(spec, rows):
        monkeypatch.setattr(layers, "_BLOCK_BYTES",
                            4 * max(spec.in_channels, spec.out_channels) * rows)
        layers._tap_plan.cache_clear()
    yield set_rows
    layers._tap_plan.cache_clear()


# specs and input shapes whose spans are cut into several row blocks; each
# plan stays on the grid
BLOCKED_CASES = [
    pytest.param(ConvSpec((2, 3, 3), 2, 3), (3, 5, 6, 2), id="same"),
    pytest.param(ConvSpec((3, 3, 3), 1, 2, padding="valid"), (4, 6, 6, 1),
                 id="valid"),
    pytest.param(ConvSpec((1, 3, 3), 2, 2, dilation=(1, 2, 2)), (2, 7, 7, 2),
                 id="dilated"),
    # its boxes hold 54.2% of the grid's MACs; on (4, 7, 6) they hold 21.4%
    # and it boxes
    pytest.param(ConvSpec((2, 3, 3), 2, 2, dilation=(2, 2, 2),
                          padding="valid"), (4, 12, 12, 2),
                 id="dilated_valid"),
    pytest.param(ConvSpec((5, 1, 1), 2, 3), (6, 3, 4, 2), id="temporal"),
]


class TestRowBlocks:
    def test_blocks_tile_the_span(self):
        spec = ConvSpec((1, 1, 5), 8, 8)
        plan = layers._tap_plan(spec, (12, 288, 288))
        rows = layers._BLOCK_BYTES // (4 * 8)
        blocks = _blocks(plan)
        assert blocks[0] == slice(0, rows)
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert blocks[-1].stop == _span(plan)
        assert 0 < blocks[-1].stop - blocks[-1].start < rows

    @pytest.mark.parametrize("spec,in_thw", [
        (ConvSpec((1, 1, 1), 3, 2), (2, 3, 4)),
        # dilation beyond the input: only the centre tap is live
        (ConvSpec((1, 3, 3), 2, 2, dilation=(1, 6, 6)), (2, 2, 2)),
    ])
    def test_a_lone_tap_is_one_block(self, block_rows, spec, in_thw):
        block_rows(spec, 1)
        plan = layers._tap_plan(spec, in_thw)
        assert len(plan.boxes) == 1 and not plan.boxed
        assert len(plan.work) == 1
        assert _blocks(plan) == [slice(0, _span(plan))]

    # 11 rows per block leaves a partial last block in every case
    @pytest.mark.parametrize("rows", [1, 11])
    @pytest.mark.parametrize("spec,shape", BLOCKED_CASES)
    def test_matches_naive_oracle(self, block_rows, spec, shape, rows):
        block_rows(spec, rows)
        plan = layers._tap_plan(spec, shape[:3])
        assert len(_blocks(plan)) > 1 and not plan.boxed
        assert rows == 1 or _span(plan) % rows
        rng = np.random.default_rng(29)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(spec.weight_shape())
        b = rng.standard_normal(spec.out_channels)
        y, tape = conv3d_forward(x, w, b, spec)
        np.testing.assert_allclose(y, naive_conv3d(x, w, b, spec),
                                   rtol=1e-10, atol=1e-10)
        g = rng.standard_normal(y.shape)
        gx, gw, _ = conv3d_backward(tape, g)
        want_gx, want_gw = naive_conv3d_backward(x, w, spec, g)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("spec,shape", [
        (ConvSpec((3, 3, 3), 1, 4), (4, 6, 7, 1)),
        (ConvSpec((1, 3, 3), 1, 3, dilation=(1, 2, 2)), (2, 9, 8, 1)),
        (ConvSpec((2, 3, 3), 1, 2, padding="valid"), (3, 7, 6, 1)),
    ])
    def test_forward_bits_do_not_depend_on_the_partition(
            self, block_rows, spec, shape):
        # with one input channel each tap's product is one rounded multiply
        # in any BLAS, so equal bits show that every row sums its taps in
        # the same order whatever the blocks
        rng = np.random.default_rng(31)
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(spec.out_channels).astype(np.float32)
        outs = []
        for rows in (1, 5, 64, 1 << 20):
            block_rows(spec, rows)
            assert not layers._tap_plan(spec, shape[:3]).boxed
            outs.append(conv3d_forward(x, w, b, spec)[0].tobytes())
        assert outs[1:] == outs[:1] * 3

    def test_grad_check_on_a_multi_block_plan(self, block_rows):
        spec = ConvSpec((2, 3, 3), 3, 4)
        block_rows(spec, 13)
        plan = layers._tap_plan(spec, (3, 7, 8))
        assert len(_blocks(plan)) > 1 and not plan.boxed
        report = grad_check(Conv3D(spec), in_shape=(3, 7, 8, 3), tol=1e-6,
                            seed=23)
        assert report.passed, report

    @pytest.mark.parametrize("arch", ["broad-unet", "unet"])
    def test_desk_scale_plans_are_one_block(self, monkeypatch, arch):
        # so desk-scale outputs and gradients keep the unblocked bits
        seen = []

        def recording(x, weights, bias, spec):
            seen.append(layers._tap_plan(spec, x.shape[:3]))
            return conv3d_forward(x, weights, bias, spec)

        monkeypatch.setattr(layers, "conv3d_forward", recording)
        model = ARCHS[arch](ModelConfig(lags=4, height=32, width=32,
                                        base_filters=4)).initialize(seed=0)
        model.predict(np.zeros((4, 32, 32, 1), dtype=np.float32))
        # a boxed plan has no grid rows to block
        assert seen and all(plan.boxed or len(_blocks(plan)) == 1
                            for plan in seen)


@pytest.fixture
def every_plan_boxed(monkeypatch):
    """Sets the dispatch bound so that every plan takes the boxed layout;
    cached plans are dropped before and after the test."""
    monkeypatch.setattr(layers, "_BOX_MACS", 0)
    layers._tap_plan.cache_clear()
    yield
    layers._tap_plan.cache_clear()


def _atrous(rate, cin=3, cout=2):
    return ConvSpec((1, 3, 3), cin, cout, dilation=(1, rate, rate))


def _conv_plans(arch, lags, hw, f0):
    """{conv path: (spec, input extents, plan)} of a model's convs, from the
    shapes that `out_shape` propagates; nothing is allocated."""
    model = ARCHS[arch](ModelConfig(lags=lags, height=hw, width=hw,
                                    base_filters=f0))
    names = {id(conv): name for name, conv in model.root.convs()}
    plans, real = {}, Conv3D.out_shape

    def recording(conv, shape):
        in_thw = tuple(shape[:3])
        plans[names[id(conv)]] = (conv.spec, in_thw,
                                  layers._tap_plan(conv.spec, in_thw))
        return real(conv, shape)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Conv3D, "out_shape", recording)
        model.out_shape()
    return plans


def _data_macs(spec, in_thw):
    """MACs of the (output, tap) pairs whose window reads data, counted
    output row by output row along each axis, over every tap."""
    out_thw = spec.out_extents(in_thw)
    total = 0
    for tap in np.ndindex(*spec.kernel):
        reach = 1
        for i, n, o, d, (before, _) in zip(tap, in_thw, out_thw,
                                           spec.dilation, spec.pad_pairs()):
            reach *= sum(0 <= r + i * d - before < n for r in range(o))
        total += reach
    return total * spec.in_channels * spec.out_channels


def _grid_macs(spec, plan):
    """MACs the grid layout multiplies: every live tap over the span."""
    return len(plan.boxes) * _span(plan) * spec.in_channels * spec.out_channels


def _boxed_macs(spec, plan):
    """MACs the boxed layout multiplies: every live tap over its box."""
    rows = sum(int(np.prod([b.stop - b.start for b in out_box]))
               for _, out_box, _ in plan.boxes)
    return rows * spec.in_channels * spec.out_channels


def _work_macs(spec, plan):
    """MACs the plan's work multiplies: its output rows, entry by entry."""
    rows = sum(o.stop - o.start if isinstance(o, slice) else o.size
               for _, o, _, _ in plan.work)
    return rows * spec.in_channels * spec.out_channels


# (lags, hw, f0) at which every conv plan of both archs is checked: the
# three workload shapes, f0=64 at 288x288, and one-frame shapes whose
# ASPP convs box
PLAN_SHAPES = [(4, 32, 4), (12, 64, 8), (12, 288, 8), (12, 288, 64),
               (1, 176, 8), (1, 384, 8), (1, 576, 8)]


class TestBoxedPlans:
    """Plans whose boxes hold at most 1/`_BOX_MACS` of the grid's MACs run
    each live tap over the outputs it reaches."""

    @pytest.mark.parametrize("spec,in_thw,boxed", [
        (_atrous(6), (12, 18, 18), True),
        # two frames: the boxes hold 27.4% of the grid's MACs (22.6% at 12
        # frames)
        (_atrous(6), (2, 18, 18), False),
        (_atrous(12), (2, 19, 19), True),
        (_atrous(18), (2, 19, 19), True),
        # rate 18 at 18x18 leaves only the centre tap: no padding, no grid
        (_atrous(18), (2, 18, 18), False),
        # (lags, 1, 1) valid reduce: a 12x larger input, but its one box is
        # its span
        (ConvSpec((12, 1, 1), 8, 8, padding="valid"), (12, 18, 18), False),
        (ConvSpec((1, 1, 3), 8, 8), (12, 288, 288), False),
        (ConvSpec((1, 3, 3), 3, 2, dilation=(1, 6, 6)), (2, 9, 9), True),
        # the unet's (3, 3, 3) convs at 32x32 input: on 4x4 maps the boxes
        # hold 28.5% of the grid's MACs, so the grid stays; on 2x2 maps
        # they hold 11.0%
        (ConvSpec((3, 3, 3), 16, 32), (4, 4, 4), False),
        (ConvSpec((3, 3, 3), 32, 64), (4, 2, 2), True),
        # one frame: the span is 1.99x the outputs and the boxes hold 20.3%
        (_atrous(6), (1, 11, 11), True),
        # no live tap: no box and no grid MAC, so the output is the bias
        (ConvSpec((1, 2, 2), 1, 1, dilation=(1, 3, 3)), (1, 1, 1), True),
    ])
    def test_dispatch_rule(self, spec, in_thw, boxed):
        plan = layers._tap_plan(spec, in_thw)
        grid = _grid_macs(spec, plan)
        box = _data_macs(spec, in_thw)
        assert (layers._BOX_MACS * box <= grid) == boxed
        assert plan.boxed == boxed
        # the first grid block, or the boxes, run every live tap once
        assert [tap for tap, *_ in plan.work[:len(plan.boxes)]] == [
            tap for tap, _, _ in plan.boxes]

    def test_a_tapless_plan_gives_the_bias_and_zero_gradients(self):
        spec = ConvSpec((1, 2, 2), 2, 3, dilation=(1, 3, 3))
        plan = layers._tap_plan(spec, (2, 1, 1))
        assert plan.work == () and plan.boxes == () and plan.boxed
        rng = np.random.default_rng(47)
        x = rng.standard_normal((2, 1, 1, 2)).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        y, tape = conv3d_forward(x, w, b, spec)
        assert y.tobytes() == np.broadcast_to(b, (2, 1, 1, 3)).tobytes()
        g = rng.standard_normal(y.shape).astype(np.float32)
        gx, gw, gb = conv3d_backward(tape, g)
        assert gx.tobytes() == np.zeros_like(x).tobytes()
        assert gw.tobytes() == np.zeros_like(w).tobytes()
        assert gb.tobytes() == g.sum(axis=(0, 1, 2)).tobytes()

    # every plan takes the boxed layout here, so rate 18 at 18x18, whose one
    # live tap keeps it on the grid otherwise, is covered as well
    @pytest.mark.parametrize("spec,shape", [
        *(pytest.param(_atrous(rate), (2, hw, hw, 3), id=f"rate{rate}_{hw}")
          for rate in (6, 12, 18) for hw in (18, 19)),
        # dilated along T as well: boxes clip all three axes
        pytest.param(ConvSpec((3, 3, 3), 2, 3, dilation=(2, 4, 5)),
                     (3, 6, 7, 2), id="dilated_thw"),
        pytest.param(ConvSpec((2, 3, 3), 2, 3, padding="valid",
                              dilation=(1, 2, 2)), (2, 5, 5, 2),
                     id="dilated_valid"),
        # boxed under the default rule too: 21.4% of the grid's MACs
        pytest.param(ConvSpec((2, 3, 3), 2, 2, padding="valid",
                              dilation=(2, 2, 2)), (4, 7, 6, 2),
                     id="dilated_valid_narrow"),
    ])
    def test_matches_naive_oracle(self, every_plan_boxed, spec, shape):
        assert layers._tap_plan(spec, shape[:3]).boxed
        rng = np.random.default_rng(37)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(spec.weight_shape())
        b = rng.standard_normal(spec.out_channels)
        y, tape = conv3d_forward(x, w, b, spec)
        np.testing.assert_allclose(y, naive_conv3d(x, w, b, spec),
                                   rtol=1e-12, atol=1e-12)
        g = rng.standard_normal(y.shape)
        gx, gw, gb = conv3d_backward(tape, g)
        want_gx, want_gw = naive_conv3d_backward(x, w, spec, g)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 1, 2)), rtol=1e-12)

    @pytest.mark.parametrize("spec,shape", [
        pytest.param(ConvSpec((2, 3, 3), 2, 3, dilation=(1, 5, 5)),
                     (3, 7, 8, 2), id="same"),
        pytest.param(ConvSpec((2, 3, 3), 2, 2, padding="valid",
                              dilation=(2, 2, 2)), (4, 7, 6, 2),
                     id="dilated_valid"),
    ])
    def test_grad_check(self, spec, shape):
        assert layers._tap_plan(spec, shape[:3]).boxed
        report = grad_check(Conv3D(spec), in_shape=shape, tol=1e-6,
                            seed=41)
        assert report.passed, report

    def test_reruns_are_bitwise_identical(self):
        spec = _atrous(6, cin=16, cout=8)
        assert layers._tap_plan(spec, (12, 18, 18)).boxed
        rng = np.random.default_rng(43)
        x = rng.standard_normal((12, 18, 18, 16)).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(spec.out_channels).astype(np.float32)
        g = rng.standard_normal((12, 18, 18, 8)).astype(np.float32)
        runs = []
        for _ in range(3):
            y, tape = conv3d_forward(x, w, b, spec)
            runs.append([a.tobytes() for a in (y, *conv3d_backward(tape, g))])
        assert runs[1:] == runs[:1] * 2

    @pytest.mark.parametrize("arch,lags,hw,f0,boxed", [
        # train_desk and predict_cli shapes: the ASPP convs reduce to their
        # centre tap, so no broad-unet conv takes the boxed layout
        ("broad-unet", 4, 32, 4, []),
        ("broad-unet", 12, 64, 8, []),
        ("broad-unet", 12, 288, 8, ["aspp.dilated6", "aspp.dilated12"]),
        ("broad-unet", 12, 288, 64, ["aspp.dilated6", "aspp.dilated12"]),
        # the 4x4 and 8x8 (3, 3, 3) convs at 32x32 and the 4x4 ones at 64x64
        # box over a quarter of their grid MACs, so only the 2x2 ones box
        ("unet", 4, 32, 4, ["enc4.0", "enc4.2"]),
        ("unet", 12, 64, 8, []),
        ("unet", 12, 288, 8, []),
        ("unet", 12, 288, 64, []),
        # one frame: the span falls below twice the outputs, but the boxes
        # still hold at most a quarter of the grid's MACs
        ("broad-unet", 1, 176, 8, ["aspp.dilated6"]),
        ("broad-unet", 1, 384, 8, ["aspp.dilated12", "aspp.dilated18"]),
        ("broad-unet", 1, 576, 8, ["aspp.dilated18"]),
    ])
    def test_which_convs_take_the_boxed_layout(self, arch, lags, hw, f0,
                                               boxed):
        plans = _conv_plans(arch, lags, hw, f0)
        assert [name for name, (_, _, plan) in plans.items()
                if plan.boxed] == boxed

    @pytest.mark.parametrize("arch", ["broad-unet", "unet"])
    @pytest.mark.parametrize("lags,hw,f0", PLAN_SHAPES)
    def test_every_plans_boxes_are_its_data_touching_macs(self, arch, lags,
                                                          hw, f0):
        plans = _conv_plans(arch, lags, hw, f0)
        for name, (spec, in_thw, plan) in plans.items():
            assert _boxed_macs(spec, plan) == _data_macs(spec, in_thw), name

    @pytest.mark.parametrize("arch", ["broad-unet", "unet"])
    @pytest.mark.parametrize("lags,hw,f0", PLAN_SHAPES)
    def test_every_plans_work_is_its_executed_macs(self, arch, lags, hw, f0):
        plans = _conv_plans(arch, lags, hw, f0)
        for name, (spec, _, plan) in plans.items():
            executed = _boxed_macs if plan.boxed else _grid_macs
            assert _work_macs(spec, plan) == executed(spec, plan), name
            if plan.boxed:
                # every entry adds into a zeroed output, each of its output
                # rows once
                for _, o, _, first in plan.work:
                    assert not first and len(np.unique(o)) == len(o), name
                continue
            # the blocks tile the span, and each block's rows are set by
            # one first entry over the whole block before any tap adds
            block = slice(0, 0)
            for _, o, _, first in plan.work:
                if first:
                    assert o.start == block.stop, name
                    block = o
                assert o == block and o.stop > o.start, name
            assert block.stop == _span(plan), name

    @pytest.mark.parametrize("f0,grid,box,by_rate", [
        (8, 4.57, 0.59, None),
        (64, 292.51, 37.60, {6: (98.41, 22.20), 12: (190.03, 11.32),
                             18: (4.08, 4.08)}),
    ])
    def test_boxed_macs_are_the_data_touching_macs(self, f0, grid, box,
                                                   by_rate):
        plans = _conv_plans("broad-unet", 12, 288, f0)
        table = {}
        for name, (spec, in_thw, plan) in plans.items():
            if max(spec.dilation) == 1:
                continue
            data = _data_macs(spec, in_thw)
            run = _work_macs(spec, plan)
            # a grid plan left on the grid multiplies no padding either
            assert run == data, name
            table[spec.dilation[1]] = (_grid_macs(spec, plan) / 1e9,
                                       run / 1e9)
        assert sorted(table) == [6, 12, 18]
        assert round(sum(g for g, _ in table.values()), 2) == grid
        assert round(sum(r for _, r in table.values()), 2) == box
        if by_rate:
            assert {rate: (round(g, 2), round(r, 2))
                    for rate, (g, r) in table.items()} == by_rate


@st.composite
def _small_convs(draw):
    """(spec, input shape) with kernels 1-4 and dilations 1-6 per axis, same
    or valid padding, 1-3 channels in and out, bias on or off and extents
    1-8; a valid conv's dilated kernel fits its extents."""
    padding = draw(st.sampled_from(["same", "valid"]))
    kernel, dilation, extents = [], [], []
    for _ in range(3):
        n = draw(st.integers(1, 8))
        k = draw(st.integers(1, 4 if padding == "same" else min(4, n)))
        reach = 6 if padding == "same" or k == 1 else min(
            6, (n - 1) // (k - 1))
        kernel.append(k)
        dilation.append(draw(st.integers(1, reach)))
        extents.append(n)
    spec = ConvSpec(tuple(kernel), draw(st.integers(1, 3)),
                    draw(st.integers(1, 3)), dilation=tuple(dilation),
                    padding=padding, bias=draw(st.booleans()))
    return spec, (*extents, spec.in_channels)


# module constants of each layout the oracle sweep runs; a plan with no live
# tap has no grid MACs either, so it stays boxed under the grid settings
SWEEP_LAYOUTS = {
    "default": {},
    "boxed": {"_BOX_MACS": 0},
    "grid": {"_BOX_MACS": 1 << 62, "_BLOCK_BYTES": 64},
}


class TestOracleSweep:
    @given(case=_small_convs(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_every_layout_matches_naive_oracle(self, case, seed):
        spec, shape = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(spec.weight_shape())
        b = rng.standard_normal(spec.out_channels) if spec.bias else None
        want_y = naive_conv3d(x, w, b, spec)
        g = rng.standard_normal(want_y.shape)
        want_gx, want_gw = naive_conv3d_backward(x, w, spec, g)
        for layout, constants in SWEEP_LAYOUTS.items():
            with pytest.MonkeyPatch.context() as mp:
                for name, value in constants.items():
                    mp.setattr(layers, name, value)
                layers._tap_plan.cache_clear()
                try:
                    plan = layers._tap_plan(spec, shape[:3])
                    y, tape = conv3d_forward(x, w, b, spec)
                    gx, gw, gb = conv3d_backward(tape, g)
                finally:
                    layers._tap_plan.cache_clear()
            assert plan.boxed == {"default": plan.boxed, "boxed": True,
                                  "grid": not plan.boxes}[layout]
            for got, want in [(y, want_y), (gx, want_gx), (gw, want_gw)]:
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10,
                                           err_msg=layout)
            if spec.bias:
                np.testing.assert_allclose(gb, g.sum(axis=(0, 1, 2)),
                                           rtol=1e-10, atol=1e-10)
            else:
                assert gb is None


class TestFactorize:
    def test_order_channels_and_bias(self):
        specs = factor_specs(ConvSpec((3, 3, 3), 4, 8))
        assert [s.kernel for s in specs] == [(1, 1, 3), (1, 3, 1), (3, 1, 1)]
        assert [(s.in_channels, s.out_channels) for s in specs] == \
            [(4, 8), (8, 8), (8, 8)]
        assert [s.bias for s in specs] == [False, False, True]

    def test_dilation_carried_per_axis(self):
        specs = factor_specs(ConvSpec((3, 3, 3), 1, 1, dilation=(2, 3, 4)))
        assert [s.dilation for s in specs] == [(1, 1, 4), (1, 3, 1), (2, 1, 1)]

    def test_weight_count_reduction(self):
        c = 6
        full = ConvSpec((5, 5, 5), c, c, bias=False)
        factored = factor_specs(ConvSpec((5, 5, 5), c, c, bias=False))
        assert np.prod(full.weight_shape()) == 125 * c * c
        assert sum(np.prod(s.weight_shape()) for s in factored) == 15 * c * c

    def test_pointwise_unchanged(self):
        spec = ConvSpec((1, 1, 1), 2, 3)
        assert factor_specs(spec) == [spec]

    def test_non_cubic_factors_only_wide_axes(self):
        specs = factor_specs(ConvSpec((1, 3, 5), 2, 4, dilation=(1, 2, 3)))
        assert [(s.kernel, s.dilation) for s in specs] == \
            [((1, 1, 5), (1, 1, 3)), ((1, 3, 1), (1, 2, 1))]
        assert [(s.in_channels, s.bias) for s in specs] == \
            [(2, False), (4, True)]

    def test_separable_kernel_reproduced(self):
        # outer-product kernel: the factor chain reproduces the full conv
        rng = np.random.default_rng(5)
        a, b, c = (rng.standard_normal(3) for _ in range(3))
        full_w = np.einsum("i,j,k->ijk", a, b, c)[..., None, None]
        x = rng.standard_normal((5, 7, 7, 1))
        spec = ConvSpec((3, 3, 3), 1, 1, bias=False)
        y_full, _ = conv3d_forward(x, full_w, None, spec)
        h = x
        for factor_spec, taps in zip(factor_specs(spec), (c, b, a)):
            w = taps.reshape(factor_spec.weight_shape())
            h, _ = conv3d_forward(h, w, None, factor_spec)
        np.testing.assert_allclose(h, y_full, rtol=1e-6, atol=1e-9)


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        y = MaxPoolSpatial().forward(x)
        assert y.shape == (1, 1, 1, 1)
        assert y.item() == 4.0

    def test_constant_input(self):
        x = np.full((2, 4, 4, 3), 2.5)
        y = MaxPoolSpatial().forward(x)
        assert y.shape == (2, 2, 2, 3)
        assert np.all(y == 2.5)

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="must be even for 2x2 pooling"):
            MaxPoolSpatial().forward(np.zeros((1, 3, 4, 1)))

    def test_tie_routes_grad_to_first_row_major(self):
        pool = MaxPoolSpatial()
        x = np.ones((1, 2, 2, 1))
        pool.forward(x, train=True)
        gx = pool.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(gx[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("shape", [
        (1, 2, 2, 1), (2, 4, 6, 3), (3, 8, 8, 2), (1, 16, 4, 5),
    ])
    @pytest.mark.parametrize("values", ["normal", "integer_ties"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_naive_oracle_bitwise(self, shape, values, dtype):
        rng = np.random.default_rng(sum(shape))
        x = rng.standard_normal(shape)
        if values == "integer_ties":
            # mostly equal values; rounding also leaves signed zeros
            x = np.round(x * 0.7)
        x = x.astype(dtype)
        grad = rng.standard_normal((shape[0], shape[1] // 2, shape[2] // 2,
                                    shape[3])).astype(dtype)
        want_y, want_gx = naive_maxpool(x, grad)
        pool = MaxPoolSpatial()
        y = pool.forward(x, train=True)
        gx = pool.backward(grad)
        assert y.dtype == dtype and gx.dtype == dtype
        assert y.tobytes() == want_y.tobytes()
        assert gx.tobytes() == want_gx.tobytes()

    def test_signed_zero_tie_keeps_first(self):
        x = np.array([-1.0, -0.0, 0.0, -2.0]).reshape(1, 2, 2, 1)
        pool = MaxPoolSpatial()
        y = pool.forward(x, train=True)
        assert y.item() == 0.0 and np.signbit(y.item())
        gx = pool.backward(np.full((1, 1, 1, 1), -3.0))
        assert gx.ravel().tolist() == [0.0, -3.0, 0.0, 0.0]
        assert not np.signbit(gx.ravel()[[0, 2, 3]]).any()

    def test_nan_is_maximal_as_in_argmax(self):
        x = np.array([1.0, np.nan, 5.0, np.nan]).reshape(1, 2, 2, 1)
        pool = MaxPoolSpatial()
        assert np.isnan(pool.forward(x, train=True).item())
        gx = pool.backward(np.ones((1, 1, 1, 1)))
        assert gx.ravel().tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_finite_difference_non_tied(self):
        report = grad_check(MaxPoolSpatial(), in_shape=(2, 6, 6, 2), seed=21)
        assert report.passed, report


class TestUpsample:
    def test_replication(self):
        y = UpsampleNearestSpatial().forward(np.full((1, 1, 1, 1), 5.0))
        assert y.shape == (1, 2, 2, 1)
        assert np.all(y == 5.0)

    def test_pool_inverts_upsample(self):
        x = np.random.default_rng(6).random((2, 3, 3, 2))
        up = UpsampleNearestSpatial().forward(x)
        np.testing.assert_array_equal(MaxPoolSpatial().forward(up), x)

    def test_backward_sums_window(self):
        up = UpsampleNearestSpatial()
        up.forward(np.zeros((1, 2, 2, 1)))
        gx = up.backward(np.ones((1, 4, 4, 1)))
        assert np.all(gx == 4.0)


class TestActivation:
    def test_relu(self):
        y = Activation("relu").forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert Activation("sigmoid").forward(np.zeros(1))[0] == 0.5

    def test_sigmoid_derivative_at_zero(self):
        act = Activation("sigmoid")
        act.forward(np.zeros(1), train=True)
        assert act.backward(np.ones(1))[0] == pytest.approx(0.25, abs=1e-12)
        report = grad_check(Activation("sigmoid"), in_shape=(1, 2, 2, 1),
                            seed=3)
        assert report.passed

    def test_unknown_kind(self):
        for kind in ("tanh", "linear"):
            with pytest.raises(ValueError):
                Activation(kind)


class TestDropout:
    def test_inference_identity(self):
        x = np.random.default_rng(9).random((2, 3, 3, 1))
        np.testing.assert_array_equal(Dropout(0.5).forward(x, train=False), x)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)
        with pytest.raises(ValueError):
            Dropout(0.0)

    def test_kept_fraction_and_mean(self):
        x = np.ones(100_000)
        layer = Dropout(0.5)
        y = layer.forward(x, train=True, rng=np.random.default_rng(42))
        kept = np.count_nonzero(y) / x.size
        assert abs(kept - 0.5) < 0.01
        assert abs(y.mean() - x.mean()) < 0.02 * x.mean()

    def test_mask_reproducible_from_seed(self):
        x = np.ones(1000)
        a = Dropout(0.3).forward(x, train=True, rng=np.random.default_rng(5))
        b = Dropout(0.3).forward(x, train=True, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_train_mode_requires_rng(self):
        with pytest.raises(ValueError):
            Dropout(0.5).forward(np.ones(4), train=True)

    def test_backward_uses_mask(self):
        layer = Dropout(0.5)
        x = np.ones(1000)
        y = layer.forward(x, train=True, rng=np.random.default_rng(6))
        gx = layer.backward(np.ones(1000))
        np.testing.assert_array_equal(gx, y)


class TestImageLevelPool:
    def test_constant_fixed_point(self):
        x = np.full((2, 4, 4, 3), 1.25)
        np.testing.assert_allclose(ImageLevelPool().forward(x), x)

    def test_mean_broadcast(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        y = ImageLevelPool().forward(x)
        assert y.shape == x.shape
        assert np.all(y == 2.5)

    def test_finite_difference(self):
        report = grad_check(ImageLevelPool(), in_shape=(2, 4, 4, 2), seed=9)
        assert report.passed, report


class TestParallel:
    def test_concat_in_branch_order(self):
        layer = Parallel([("id", Sequential([])),
                          ("pool", ImageLevelPool())])
        x = np.random.default_rng(12).random((2, 4, 4, 3))
        y = layer.forward(x)
        assert len(layer) == 2
        assert layer.out_shape(x.shape) == y.shape == (2, 4, 4, 6)
        np.testing.assert_array_equal(y[..., :3], x)
        np.testing.assert_array_equal(
            y[..., 3:], np.broadcast_to(x.mean(axis=(1, 2), keepdims=True),
                                        x.shape))

    def test_backward_sums_branch_grads(self):
        layer = Parallel([("a", Sequential([])), ("b", Sequential([]))])
        layer.forward(np.zeros((1, 2, 2, 1)), train=True)
        grad = np.stack([np.full((1, 2, 2), 2.0), np.full((1, 2, 2), 3.0)],
                        axis=-1)
        np.testing.assert_array_equal(layer.backward(grad),
                                      np.full((1, 2, 2, 1), 5.0))

    def test_branch_extents_must_agree(self):
        layer = Parallel([("same", Sequential([])),
                          ("pooled", MaxPoolSpatial())])
        with pytest.raises(ValueError,
                           match="branch outputs differ beyond channels"):
            layer.out_shape((1, 4, 4, 2))


class _Fixed(Layer):
    """A branch that outputs one given array whatever its input."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def out_shape(self, shape):
        return self.value.shape

    def forward(self, x, train=False, rng=None):
        self._in_shape = x.shape
        return self.value

    def backward(self, grad):
        return np.zeros(self._in_shape)


def concat_channels(parts):
    layer = Parallel([(f"p{i}", _Fixed(p)) for i, p in enumerate(parts)])
    return layer, layer.forward(np.zeros((1, 1, 1, 1)))


class TestConcatChannels:
    """`Parallel` is the one channel concat in the package: its concat
    order, its per-branch slicing and the `ValueError` for mismatched
    extents."""

    def test_channel_sum(self):
        a = np.zeros((2, 3, 3, 2))
        b = np.ones((2, 3, 3, 3))
        layer, y = concat_channels([a, b])
        assert y.shape == (2, 3, 3, 5)
        assert layer.out_shape((1, 1, 1, 1)) == (2, 3, 3, 5)

    def test_self_concat_blocks(self):
        x = np.random.default_rng(1).random((1, 2, 2, 3))
        layer = Parallel([("a", Sequential([])), ("b", Sequential([]))])
        y = layer.forward(x)
        np.testing.assert_array_equal(y[..., :3], x)
        np.testing.assert_array_equal(y[..., 3:], x)

    def test_scalar_channels(self):
        a = np.full((1, 1, 1, 1), 7.0)
        b = np.full((1, 1, 1, 1), 9.0)
        _, y = concat_channels([a, b])
        np.testing.assert_array_equal(y[0, 0, 0], [7.0, 9.0])

    def test_spatial_mismatch(self):
        parts = [np.zeros((1, 2, 2, 1)), np.zeros((1, 3, 2, 1))]
        layer = Parallel([(f"p{i}", _Fixed(p)) for i, p in enumerate(parts)])
        with pytest.raises(ValueError,
                           match="branch outputs differ beyond channels"):
            layer.out_shape((1, 1, 1, 1))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 1, 1)))

    def test_per_block_slice_round_trip(self):
        rng = np.random.default_rng(2)
        parts = [rng.random((2, 3, 3, c)) for c in (1, 2, 4)]
        _, y = concat_channels(parts)
        offset = 0
        for part in parts:
            c = part.shape[-1]
            np.testing.assert_array_equal(y[..., offset:offset + c], part)
            offset += c


class TestPrimitiveGradChecks:
    """Every primitive layer passes finite differences at < 1e-4 in f64."""

    @pytest.mark.parametrize("name,layer,shape", [
        ("conv_same", Conv3D(ConvSpec((2, 3, 3), 2, 3)), (3, 6, 6, 2)),
        ("conv_valid", Conv3D(ConvSpec((2, 3, 3), 2, 2, padding="valid")),
         (4, 8, 8, 2)),
        ("conv_dilated", Conv3D(ConvSpec((1, 3, 3), 2, 2, dilation=(1, 2, 2))),
         (2, 8, 8, 2)),
        ("factor_chain", conv_unit((2, 3, 3), 2, 2, factorized=True),
         (3, 6, 6, 2)),
        ("maxpool", MaxPoolSpatial(), (2, 6, 6, 3)),
        ("upsample", UpsampleNearestSpatial(), (2, 4, 4, 3)),
        ("relu", Activation("relu"), (2, 5, 5, 2)),
        ("sigmoid", Activation("sigmoid"), (2, 5, 5, 2)),
        ("image_pool", ImageLevelPool(), (2, 6, 6, 3)),
        ("conv_dilation_beyond_input",
         Conv3D(ConvSpec((1, 3, 3), 2, 2, dilation=(1, 6, 6))), (2, 2, 2, 2)),
        ("conv_all_taps_pad_only",
         Conv3D(ConvSpec((1, 2, 2), 1, 1, dilation=(1, 3, 3))), (1, 1, 1, 1)),
        # stays on the grid; TestBoxedPlans grad-checks it on (4, 7, 6, 2)
        ("conv_dilated_valid", Conv3D(ConvSpec(
            (2, 3, 3), 2, 2, dilation=(2, 2, 2), padding="valid")),
         (4, 12, 12, 2)),
        ("conv_pointwise", Conv3D(ConvSpec((1, 1, 1), 3, 2)), (2, 3, 4, 3)),
        ("parallel_unequal_widths", Parallel([
            ("a", Conv3D(ConvSpec((1, 3, 3), 2, 1))),
            ("b", Conv3D(ConvSpec((2, 1, 1), 2, 3))),
            ("c", ImageLevelPool()),
        ]), (2, 5, 5, 2)),
    ])
    def test_layer(self, name, layer, shape):
        report = grad_check(layer, in_shape=shape, tol=1e-4, seed=17)
        assert report.passed, (name, report)

    def test_linear_toy_layer_near_exact(self):
        # pointwise conv is linear; with a larger step there is no
        # truncation error and only rounding noise remains
        layer = Conv3D(ConvSpec((1, 1, 1), 2, 2, bias=False))
        report = grad_check(layer, in_shape=(1, 3, 3, 2), tol=1e-10,
                            step=1e-3, seed=19)
        assert report.passed, report


# factories, so each case gets a fresh layer
TAPED_LAYERS = {
    "conv": lambda: Conv3D(ConvSpec((1, 3, 3), 2, 2)),
    "relu": lambda: Activation("relu"),
    "sigmoid": lambda: Activation("sigmoid"),
    "maxpool": lambda: MaxPoolSpatial(),
    "dropout": lambda: Dropout(0.5),
    # parameter-free branches, so the tape checked is Parallel's own
    "parallel": lambda: Parallel([("relu", Activation("relu")),
                                  ("pool", ImageLevelPool())]),
}


class TestTape:
    """`train=True` keeps the tape, backward consumes it once and
    `train=False` keeps nothing."""

    def _layer_and_input(self, kind):
        layer = TAPED_LAYERS[kind]()
        for _, conv in layer.convs():
            conv.init_params(np.random.default_rng(0), dtype=np.float64)
        return layer, np.random.default_rng(1).standard_normal((2, 4, 4, 2))

    @pytest.mark.parametrize("kind", sorted(TAPED_LAYERS))
    def test_backward_after_inference_raises(self, kind):
        layer, x = self._layer_and_input(kind)
        y = layer.forward(x)
        assert layer._tape is None
        with pytest.raises(RuntimeError, match=type(layer).__name__):
            layer.backward(np.ones_like(y))

    @pytest.mark.parametrize("kind", sorted(TAPED_LAYERS))
    def test_backward_consumes_the_tape_once(self, kind):
        layer, x = self._layer_and_input(kind)
        y = layer.forward(x, train=True, rng=np.random.default_rng(2))
        assert layer._tape is not None
        layer.backward(np.ones_like(y))
        assert layer._tape is None
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(y))

    @pytest.mark.parametrize("kind", sorted(TAPED_LAYERS))
    def test_inference_forward_drops_an_unconsumed_tape(self, kind):
        layer, x = self._layer_and_input(kind)
        layer.forward(x, train=True, rng=np.random.default_rng(2))
        layer.forward(x)
        assert layer._tape is None

    @pytest.mark.parametrize("kind", ["conv", "relu", "sigmoid", "maxpool",
                                      "parallel"])
    def test_kept_tape_leaves_the_output_unchanged(self, kind):
        layer, x = self._layer_and_input(kind)
        assert layer.forward(x, train=True).tobytes() == \
            layer.forward(x).tobytes()

    @pytest.mark.parametrize("layer", [
        UpsampleNearestSpatial(), ImageLevelPool(), Sequential([])],
        ids=["upsample", "image_pool", "identity"])
    def test_stateless_layers_keep_no_tape(self, layer):
        x = np.random.default_rng(3).standard_normal((1, 4, 4, 2))
        y = layer.forward(x, train=True, rng=np.random.default_rng(4))
        assert layer._tape is None
        assert layer.backward(np.ones_like(y)).shape == x.shape
