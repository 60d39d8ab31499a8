"""Composite building blocks: the multi-scale feature convolutional block
and the atrous spatial pyramid pooling (ASPP) module.

Both preserve (T, H, W) through same padding; only the channel count changes.
"""

from __future__ import annotations

from .layers import (
    Activation,
    Conv3D,
    ConvSpec,
    ImageLevelPool,
    Layer,
    Parallel,
    Sequential,
    conv_unit,
)


BRANCH_SIZES = (1, 3, 5)
ASPP_RATES = (6, 12, 18)


class MultiScaleBlock(Layer):
    """Initial conv, parallel 1/3/5 branches, concat-merge, residual, ReLU.

    The residual adds the block input back through `project`: a pointwise
    conv when in/out channel counts differ, else the identity `Sequential([])`.

    time_extent is the temporal extent of the data the block sees: the input
    lag count for encoder blocks, 1 for decoder blocks. Temporal kernel
    extents are clamped to min(N, time_extent).
    """

    def __init__(self, in_channels, out_channels, factorized=True,
                 time_extent=1):
        def kernel(n):
            return (min(n, time_extent), n, n)

        self.initial = conv_unit(kernel(3), in_channels, out_channels,
                                 factorized)
        self.branches = Parallel([
            (f"branch{n}", conv_unit(kernel(n), out_channels, out_channels,
                                     factorized))
            for n in BRANCH_SIZES
        ])
        self.merge = Conv3D(ConvSpec((1, 1, 1), 3 * out_channels,
                                     out_channels))
        self.project = (Conv3D(ConvSpec((1, 1, 1), in_channels, out_channels))
                        if in_channels != out_channels else Sequential([]))
        self.relu = Activation("relu")

    def children(self):
        return [("initial", self.initial), *self.branches.children(),
                ("merge", self.merge), ("project", self.project),
                ("relu", self.relu)]

    def out_shape(self, shape):
        merged = self.merge.out_shape(
            self.branches.out_shape(self.initial.out_shape(shape)))
        self.project.out_shape(shape)
        return merged

    def forward(self, x, train=False, rng=None):
        h = self.initial.forward(x, train=train, rng=rng)
        cat = self.branches.forward(h, train=train, rng=rng)
        merged = self.merge.forward(cat, train=train, rng=rng)
        residual = self.project.forward(x, train=train, rng=rng)
        return self.relu.forward(merged + residual, train=train, rng=rng)

    def backward(self, grad):
        g = self.relu.backward(grad)
        gx = self.initial.backward(self.branches.backward(self.merge.backward(g)))
        return gx + self.project.backward(g)


class Aspp(Layer):
    """The DeepLabv3 pyramid: a pointwise branch, 3x3 atrous branches at
    `ASPP_RATES` and an image-level branch, concatenated and merged.

    Kernels are spatial only (1 x 3 x 3), so no temporal mixing happens here.
    """

    def __init__(self, in_channels, out_channels):
        def pointwise():
            return Conv3D(ConvSpec((1, 1, 1), in_channels, out_channels))

        self.branches = Parallel([
            ("pointwise", pointwise()),
            *((f"dilated{d}", Conv3D(ConvSpec(
                (1, 3, 3), in_channels, out_channels, dilation=(1, d, d))))
              for d in ASPP_RATES),
            ("image_level", Sequential([ImageLevelPool(), pointwise()])),
        ])
        self.merge = Conv3D(ConvSpec(
            (1, 1, 1), len(self.branches) * out_channels, out_channels))

    def children(self):
        return [*self.branches.children(), ("merge", self.merge)]

    def out_shape(self, shape):
        return self.merge.out_shape(self.branches.out_shape(shape))

    def forward(self, x, train=False, rng=None):
        return self.merge.forward(self.branches.forward(x, train=train, rng=rng),
                                  train=train, rng=rng)

    def backward(self, grad):
        return self.branches.backward(self.merge.backward(grad))
