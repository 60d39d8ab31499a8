"""Channel concatenation on (T, H, W, C) arrays.

`layers.Parallel` is the one channel concat in the package; these cases
pin its concat order, its per-branch slicing and the `ShapeError` that
`broadunet.tensor` defines for mismatched extents.
"""
import numpy as np
import pytest

from broadunet.layers import Layer, Parallel, Sequential
from broadunet.tensor import ShapeError


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
        with pytest.raises(ShapeError):
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
