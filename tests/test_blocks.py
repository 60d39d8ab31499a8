import numpy as np
import pytest

from broadunet.blocks import ASPP_RATES, Aspp, MultiScaleBlock
from broadunet.layers import Conv3D, Sequential
from broadunet.model import build_broad_unet, dump_feature_maps, mini_config
from broadunet.training import grad_check

from conftest import closed_form_conv_params


def init_layer(layer, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    for _, conv in layer.convs():
        conv.init_params(rng, dtype=dtype)
    return layer


def layer_param_total(layer):
    return sum(int(np.prod(s)) for _, conv in layer.convs()
               for s in conv.param_shapes().values())


def conv_specs_of(layer):
    return [(n, conv.spec) for n, conv in layer.convs()]


def first_conv(layer):
    """The conv that reads a `conv_unit`'s input."""
    return layer if isinstance(layer, Conv3D) else layer.layers[0]


class TestMultiScaleBlock:
    def test_output_shape(self):
        block = init_layer(MultiScaleBlock(
            1, 4, factorized=False, time_extent=4))
        x = np.random.default_rng(0).random((4, 16, 16, 1))
        y = block.forward(x)
        assert y.shape == (4, 16, 16, 4)

    def test_zero_weights_degenerate_to_relu(self):
        block = init_layer(MultiScaleBlock(
            3, 3, factorized=False, time_extent=2))
        for _, conv in block.convs():
            for key in conv.params:
                conv.params[key][...] = 0.0
        x = np.random.default_rng(1).standard_normal((2, 4, 4, 3))
        np.testing.assert_array_equal(block.forward(x), np.maximum(x, 0))

    def test_parameter_count_hand_summed(self):
        # in=2, out=4, unfactorized, full 3D kernels:
        # initial 27*2*4+4 = 220; branches 20, 436, 2004; merge 52; proj 12
        block = MultiScaleBlock(2, 4, factorized=False, time_extent=5)
        assert layer_param_total(block) == 220 + 20 + 436 + 2004 + 52 + 12
        assert layer_param_total(block) == 2744

    def test_factorized_fewer_params_every_width(self):
        for out in (1, 2, 4, 8):
            for te in (1, 3, 5):
                fact = layer_param_total(MultiScaleBlock(
                    out, out, factorized=True, time_extent=te))
                full = layer_param_total(MultiScaleBlock(
                    out, out, factorized=False, time_extent=te))
                assert fact < full

    def test_factorized_and_full_same_shapes(self):
        x = np.random.default_rng(2).random((3, 8, 8, 2))
        shapes = []
        for factorized in (True, False):
            block = init_layer(MultiScaleBlock(
                2, 4, factorized=factorized, time_extent=3))
            y = block.forward(x, train=True)
            g = block.backward(np.ones_like(y))
            shapes.append((y.shape, g.shape))
        assert shapes[0] == shapes[1]

    def test_time_extent_one_has_no_temporal_kernels(self):
        block = MultiScaleBlock(2, 4, time_extent=1)
        assert all(spec.kernel[0] == 1 for _, spec in conv_specs_of(block))

    def test_preserves_thw(self):
        block = init_layer(MultiScaleBlock(
            2, 6, factorized=True, time_extent=4))
        x = np.random.default_rng(3).random((4, 8, 8, 2))
        assert block.forward(x).shape == (4, 8, 8, 6)

    def test_shift_equivariance_interior(self):
        # receptive-field radius: initial 3x3 (1) + 5x5 branch (2) = 3
        block = init_layer(MultiScaleBlock(
            1, 2, factorized=False, time_extent=1), seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 12, 12, 1))
        y = block.forward(x)
        y_shift = block.forward(np.roll(x, (1, 1), axis=(1, 2)))
        r = 3
        np.testing.assert_allclose(
            y_shift[:, r + 1:12 - r, r + 1:12 - r],
            y[:, r:12 - r - 1, r:12 - r - 1], rtol=1e-10, atol=1e-12)

    def test_gradient_check(self):
        block = MultiScaleBlock(2, 3, factorized=True, time_extent=2)
        report = grad_check(block, in_shape=(2, 6, 6, 2), tol=1e-4, seed=23)
        assert report.passed, report

    def test_identity_residual_gradient_check(self):
        # equal widths: the residual is the identity `Sequential([])`
        block = MultiScaleBlock(3, 3, factorized=True, time_extent=2)
        assert isinstance(block.project, Sequential)
        assert not block.project.layers
        report = grad_check(block, in_shape=(2, 6, 6, 3), tol=1e-4, seed=24)
        assert report.passed, report

    @pytest.mark.parametrize("block_index", [0, 5],
                             ids=["encoder", "decoder"])
    def test_feature_maps_are_branches_on_the_real_input(
            self, monkeypatch, block_index):
        model = build_broad_unet(mini_config()).initialize(seed=10)
        x = np.random.default_rng(10).standard_normal(
            (2, 16, 16, 1)).astype(np.float32)
        block = [layer for _, layer in model.root.walk()
                 if isinstance(layer, MultiScaleBlock)][block_index]
        seen, block_forward = [], MultiScaleBlock.forward

        def recording(layer, h, train=False, rng=None):
            if layer is block:
                seen.append(h)
            return block_forward(layer, h, train=train, rng=rng)

        monkeypatch.setattr(MultiScaleBlock, "forward", recording)
        maps = dump_feature_maps(model, x, block_index)
        monkeypatch.undo()
        assert "forward" not in vars(block)
        assert len(seen) == 1  # one forward; the rerun skips the block
        h = block.initial.forward(seen[0])
        expected = [branch.forward(h)
                    for _, branch in block.branches.children()]
        assert [label for label, _ in maps] == [
            "branch_1x1x1", "branch_3x3x3", "branch_5x5x5"]
        for (_, got), want in zip(maps, expected):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            MultiScaleBlock(0, 4)

    def test_sibling_convs_tape_one_array(self, monkeypatch):
        block = init_layer(MultiScaleBlock(2, 3, factorized=True,
                                           time_extent=2))
        assert isinstance(block.project, Conv3D)
        outs, initial_forward = [], block.initial.forward

        def recording(x, train=False, rng=None):
            outs.append(initial_forward(x, train=train, rng=rng))
            return outs[-1]

        monkeypatch.setattr(block.initial, "forward", recording)
        x = np.random.default_rng(14).standard_normal((2, 6, 6, 2))
        block.forward(x, train=True)
        assert first_conv(block.initial)._tape.padded is x
        assert block.project._tape.padded is x
        h, = outs
        for _, branch in block.branches.children():
            assert first_conv(branch)._tape.padded is h


class TestAspp:
    def test_default_branch_count(self):
        aspp = Aspp(4, 4)
        assert len(aspp.branches) == 5  # pointwise + 3 dilated + image level
        names = [name for name, _ in aspp.branches.children()]
        assert names == ["pointwise", "dilated6", "dilated12", "dilated18",
                         "image_level"]

    def test_no_temporal_mixing(self):
        aspp = Aspp(2, 3)
        assert all(spec.kernel[0] == 1 and spec.dilation[0] == 1
                   for _, spec in conv_specs_of(aspp))

    def test_dilated_branch_effective_extent(self):
        aspp = Aspp(1, 1)
        spec = dict(conv_specs_of(aspp))["dilated18"]
        assert spec.effective_extent == (1, 37, 37)

    def test_spatially_constant_input_stays_constant(self):
        aspp = init_layer(Aspp(2, 3), seed=7)
        x = np.broadcast_to(
            np.random.default_rng(8).random((2, 1, 1, 2)), (2, 6, 6, 2)).copy()
        y = aspp.forward(x)
        spread = y.max(axis=(1, 2)) - y.min(axis=(1, 2))
        assert float(np.abs(spread).max()) < 1e-9

    def test_preserves_thw(self):
        aspp = init_layer(Aspp(3, 5))
        x = np.random.default_rng(9).random((2, 4, 4, 3))
        assert aspp.forward(x).shape == (2, 4, 4, 5)

    def test_gradient_check(self):
        # at 19x19 the off-centre taps of every rate, 18 included, reach
        # inside the input, so every tap's gradient is checked
        assert max(ASPP_RATES) < 19
        aspp = Aspp(2, 2)
        report = grad_check(aspp, in_shape=(2, 19, 19, 2), tol=1e-4, seed=29)
        assert report.passed, report

    def test_pointwise_and_dilated_branches_tape_one_array(self):
        aspp = init_layer(Aspp(2, 3))
        # at 19x19 every rate reads padding, as in the gradient check
        x = np.random.default_rng(15).standard_normal((2, 19, 19, 2))
        aspp.forward(x, train=True)
        branches = dict(aspp.branches.children())
        for name in ["pointwise", *(f"dilated{d}" for d in ASPP_RATES)]:
            assert branches[name]._tape.padded is x

    def test_param_count_matches_closed_form(self):
        aspp = Aspp(3, 4)
        assert layer_param_total(aspp) == closed_form_conv_params(
            conv_specs_of(aspp))
