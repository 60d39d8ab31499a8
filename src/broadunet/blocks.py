"""Composite building blocks: the multi-scale feature convolutional block
and the atrous spatial pyramid pooling (ASPP) module.

Both preserve (T, H, W) through same padding; only the channel count changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    Conv3D,
    ConvSpec,
    ImageLevelPool,
    Layer,
    Parallel,
    Sequential,
    conv_unit,
)


@dataclass(frozen=True)
class BlockConfig:
    """Configuration of one multi-scale feature convolutional block.

    time_extent is the temporal extent of the data the block sees: the input
    lag count for encoder blocks, 1 for decoder blocks. Temporal kernel
    extents are clamped to min(N, time_extent).
    """

    in_channels: int
    out_channels: int
    factorized: bool = True
    time_extent: int = 1

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.time_extent < 1:
            raise ValueError("time_extent must be positive")


@dataclass(frozen=True)
class AsppConfig:
    in_channels: int
    out_channels: int
    dilation_rates: tuple = (6, 12, 18)
    include_pointwise_branch: bool = True
    spatial_kernel: int = 3

    def __post_init__(self):
        rates = tuple(int(r) for r in self.dilation_rates)
        object.__setattr__(self, "dilation_rates", rates)
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if not rates:
            raise ValueError("dilation rate list must be nonempty")
        if any(r < 1 for r in rates) or len(set(rates)) != len(rates):
            raise ValueError(f"dilation rates must be distinct and >= 1, got {rates}")
        if self.spatial_kernel < 1:
            raise ValueError("spatial_kernel must be positive")


BRANCH_SIZES = (1, 3, 5)


class MultiScaleBlock(Layer):
    """Initial conv, parallel 1/3/5 branches, concat-merge, residual, ReLU.

    The residual connection taps the block input; a pointwise projection is
    inserted when in/out channel counts differ. After each forward pass the
    per-branch activations stay available in `branch_maps` for inspection.
    """

    def __init__(self, cfg: BlockConfig):
        super().__init__()
        self.cfg = cfg
        te = cfg.time_extent

        def kernel(n):
            return (min(n, te), n, n)

        self.initial = conv_unit(kernel(3), cfg.in_channels, cfg.out_channels,
                                 cfg.factorized)
        self.branches = Parallel([
            (f"branch{n}", conv_unit(kernel(n), cfg.out_channels,
                                     cfg.out_channels, cfg.factorized))
            for n in BRANCH_SIZES
        ])
        self.merge = Conv3D(ConvSpec((1, 1, 1), 3 * cfg.out_channels,
                                     cfg.out_channels))
        if cfg.in_channels != cfg.out_channels:
            self.project = Conv3D(ConvSpec((1, 1, 1), cfg.in_channels,
                                           cfg.out_channels))
        else:
            self.project = None
        self.branch_maps = None

    def children(self):
        named = [("initial", self.initial), *self.branches.children(),
                 ("merge", self.merge)]
        if self.project is not None:
            named.append(("project", self.project))
        return named

    def out_shape(self, shape):
        merged = self.merge.out_shape(
            self.branches.out_shape(self.initial.out_shape(shape)))
        if self.project is not None:
            self.project.out_shape(shape)
        return merged

    def forward(self, x, train=False, rng=None):
        h = self.initial.forward(x, train=train, rng=rng)
        cat = self.branches.forward(h, train=train, rng=rng)
        # views into the concat that `merge` keeps for backward anyway
        self.branch_maps = {
            f"branch_{n}x{n}x{n}": view
            for n, view in zip(BRANCH_SIZES, self.branches.split(cat))
        }
        merged = self.merge.forward(cat, train=train, rng=rng)
        if self.project is not None:
            residual = self.project.forward(x, train=train, rng=rng)
        else:
            residual = x
        pre = merged + residual
        self._relu_mask = pre > 0
        return np.maximum(pre, 0)

    def backward(self, grad):
        g = grad * self._relu_mask
        gx = self.initial.backward(self.branches.backward(self.merge.backward(g)))
        if self.project is not None:
            gx = gx + self.project.backward(g)
        else:
            gx = gx + g
        return gx


class Aspp(Layer):
    """Parallel spatial-only dilated convolutions plus an image-level branch.

    Kernels are 1 x N x N throughout, so no temporal mixing happens here.
    """

    def __init__(self, cfg: AsppConfig):
        super().__init__()
        self.cfg = cfg
        n = cfg.spatial_kernel
        branches = []
        if cfg.include_pointwise_branch:
            branches.append(("pointwise", Conv3D(
                ConvSpec((1, 1, 1), cfg.in_channels, cfg.out_channels))))
        for d in cfg.dilation_rates:
            branches.append((f"dilated{d}", Conv3D(ConvSpec(
                (1, n, n), cfg.in_channels, cfg.out_channels,
                dilation=(1, d, d)))))
        branches.append(("image_level", Sequential([
            ImageLevelPool(),
            Conv3D(ConvSpec((1, 1, 1), cfg.in_channels, cfg.out_channels)),
        ])))
        self.branches = Parallel(branches)
        self.merge = Conv3D(ConvSpec(
            (1, 1, 1), len(branches) * cfg.out_channels, cfg.out_channels))

    def children(self):
        return [*self.branches.children(), ("merge", self.merge)]

    def out_shape(self, shape):
        return self.merge.out_shape(self.branches.out_shape(shape))

    def forward(self, x, train=False, rng=None):
        return self.merge.forward(self.branches.forward(x, train=train, rng=rng),
                                  train=train, rng=rng)

    def backward(self, grad):
        return self.branches.backward(self.merge.backward(grad))
