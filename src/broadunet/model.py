"""Broad-UNet and plain-UNet assembly, parameter accounting and inference.

The encoder runs on 3D (T, H, W, C) data; every skip connection and the
bottleneck output pass through a temporal-reduction convolution with kernel
(T, 1, 1) and valid padding, collapsing T time steps to 1, so the decoder
runs on 2D data. Input (T, H, W, F) maps to output (1, H, W, F).
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .archive import (FormatError, archive_load, archive_save, json_record,
                      read_json_record)
from .blocks import BRANCH_SIZES, Aspp, MultiScaleBlock
from .layers import (
    Activation,
    Conv3D,
    ConvSpec,
    Dropout,
    Layer,
    MaxPoolSpatial,
    Parallel,
    Sequential,
    UpsampleNearestSpatial,
)

LEVELS = 5
# H and W must be multiples of this: each level below the top pools 2x2
DIVISOR = 2 ** (LEVELS - 1)


@dataclass(frozen=True)
class ModelConfig:
    lags: int
    height: int
    width: int
    features: int = 1
    base_filters: int = 64
    dropout_rate: float = 0.5
    factorized: bool = True
    head: str = "regression"

    def __post_init__(self):
        if min(self.lags, self.height, self.width, self.features,
               self.base_filters) < 1:
            raise ValueError("lags, extents, features and base_filters must be positive")
        if self.height % DIVISOR or self.width % DIVISOR:
            raise ValueError(
                f"H and W must be divisible by {DIVISOR}, got "
                f"{self.height}x{self.width}")
        if self.head not in ("regression", "binary"):
            raise ValueError(f"head must be 'regression' or 'binary', got {self.head!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def channel_plan(self) -> list:
        return [self.base_filters * 2 ** i for i in range(LEVELS)]


def mini_config(lags=2, height=16, width=16, features=1, base_filters=2,
                **kwargs) -> ModelConfig:
    """Desk-scale configuration for gradient checks and fast tests."""
    return ModelConfig(lags=lags, height=height, width=width,
                       features=features, base_filters=base_filters, **kwargs)


class _UNetBase(Layer):
    """Shared encoder/decoder scaffolding; subclasses supply the level blocks.

    Level i runs enc<i>, then its temporally reduced skip and the pooled
    deeper levels side by side (concatenated skip first), then dec<i>. The
    bottom level is enc4, the named bottleneck layers and reduce_mid.
    """

    def __init__(self, cfg: ModelConfig, bottleneck=()):
        self.cfg = cfg
        plan = cfg.channel_plan
        self.named_layers = [
            *((f"enc{i}", self._level_block(
                cfg.features if i == 0 else plan[i - 1], plan[i], cfg.lags))
              for i in range(LEVELS)),
            *bottleneck,
            *((f"reduce_skip{i}" if i < LEVELS - 1 else "reduce_mid",
               Conv3D(ConvSpec((cfg.lags, 1, 1), c, c, padding="valid")))
              for i, c in enumerate(plan)),
            *((f"dec{i}", self._level_block(plan[i] + plan[i + 1], plan[i], 1))
              for i in range(LEVELS - 1)),
            ("head", Conv3D(ConvSpec((1, 1, 1), plan[0], cfg.features))),
        ]
        layer = dict(self.named_layers)
        level = Sequential([layer["enc4"], *(b for _, b in bottleneck),
                            layer["reduce_mid"]])
        for i in reversed(range(LEVELS - 1)):
            down = Sequential([MaxPoolSpatial(), level, UpsampleNearestSpatial()])
            level = Sequential([
                layer[f"enc{i}"],
                Parallel([("skip", layer[f"reduce_skip{i}"]), ("down", down)]),
                layer[f"dec{i}"]])
        tail = [Activation("sigmoid")] if cfg.head == "binary" else []
        self.graph = Sequential([level, layer["head"], *tail])

    def _level_block(self, in_channels, out_channels, time_extent) -> Layer:
        raise NotImplementedError

    def children(self):
        return self.named_layers

    def out_shape(self, shape):
        t, h, w, c = shape
        cfg = self.cfg
        if t != cfg.lags or c != cfg.features:
            raise ValueError(
                f"expected input ({cfg.lags}, H, W, {cfg.features}), got {shape}")
        return self.graph.out_shape(shape)

    def forward(self, x, train=False, rng=None):
        return self.graph.forward(x, train=train, rng=rng)

    def backward(self, grad):
        return self.graph.backward(grad)


class BroadUNet(_UNetBase):
    """Multi-scale blocks in encoder and decoder, ASPP + dropout bottleneck."""

    def __init__(self, cfg: ModelConfig):
        super().__init__(cfg, bottleneck=[
            ("aspp", Aspp(cfg.channel_plan[-1], cfg.channel_plan[-1])),
            *([("dropout", Dropout(cfg.dropout_rate))]
              if cfg.dropout_rate else []),
        ])

    def _level_block(self, in_channels, out_channels, time_extent):
        return MultiScaleBlock(in_channels, out_channels,
                               self.cfg.factorized, time_extent)


class PlainUNet(_UNetBase):
    """Classical UNet reference: double convs, no parallel branches, no ASPP."""

    def _level_block(self, in_channels, out_channels, time_extent):
        """Two plain 3x3 spatial convolutions, each followed by ReLU."""
        kernel = (min(3, time_extent), 3, 3)
        return Sequential([
            Conv3D(ConvSpec(kernel, in_channels, out_channels)),
            Activation("relu"),
            Conv3D(ConvSpec(kernel, out_channels, out_channels)),
            Activation("relu"),
        ])


class Model:
    """A built network plus its named parameter store.

    Building is cheap and symbolic; `initialize` allocates the parameter
    arrays. Shape queries and parameter counting work without allocation.
    """

    def __init__(self, root: Layer, config: ModelConfig, arch: str):
        self.root = root
        self.config = config
        self.arch = arch
        self.dtype = None

    # -- parameters ----------------------------------------------------------
    @property
    def initialized(self) -> bool:
        return self.dtype is not None

    def initialize(self, seed=0, dtype=np.float32) -> "Model":
        rng = np.random.default_rng(seed)
        for _, conv in self.root.convs():
            conv.init_params(rng, dtype=dtype)
        self.dtype = np.dtype(dtype)
        return self

    def named_params(self) -> dict:
        return self.root.named(lambda conv: conv.params)

    def named_grads(self) -> dict:
        return self.root.named(lambda conv: conv.grads)

    @functools.cached_property
    def _param_owners(self) -> dict:
        """Parameter name -> (owning conv, key in its params), one walk."""
        return self.root.named(
            lambda conv: {key: (conv, key) for key in conv.param_shapes()})

    def set_param(self, name: str, value: np.ndarray) -> None:
        conv, key = self._param_owners[name]
        shape = conv.param_shapes()[key]
        if value.shape != shape:
            raise ValueError(f"record {name} has shape {value.shape}, the "
                             f"architecture needs {shape}")
        if value.dtype != self.dtype:
            raise ValueError(f"record {name} holds {value.dtype}, the model "
                             f"holds {self.dtype}")
        conv.params[key] = value

    def zero_grads(self) -> None:
        self.root.zero_grads()

    def conv_specs(self) -> list:
        """(name, ConvSpec) for every convolution, in traversal order."""
        return [(name, conv.spec) for name, conv in self.root.convs()]

    # -- evaluation ------------------------------------------------------------
    def input_shape(self) -> tuple:
        c = self.config
        return (c.lags, c.height, c.width, c.features)

    def out_shape(self) -> tuple:
        return self.root.out_shape(self.input_shape())

    def forward(self, x, train=False, rng=None):
        if not self.initialized:
            raise RuntimeError("model parameters not initialized")
        # denormals are zero at the input, as in CPU deep-learning runtimes:
        # subnormal pixels (f32 casts of Gaussian tails) would slow the
        # first convs' GEMMs several-fold, so they enter as +0
        x = np.where(np.abs(x) < np.finfo(x.dtype).tiny, 0, x)
        return self.root.forward(x, train=train, rng=rng)

    def backward(self, grad):
        return self.root.backward(grad)

    def predict(self, x) -> np.ndarray:
        """Deterministic inference; regression output is clamped at 0."""
        if tuple(x.shape) != self.input_shape():
            raise ValueError(f"expected input {self.input_shape()}, got {x.shape}")
        y = self.forward(x, train=False)
        if self.config.head == "regression":
            y = np.maximum(y, 0)
        return y

    # -- accounting -------------------------------------------------------------
    def count_params(self):
        """(total, per-layer table); works before initialization."""
        shapes = self.root.named(lambda conv: conv.param_shapes())
        table = [(name, int(np.prod(shape))) for name, shape in shapes.items()]
        return sum(n for _, n in table), table

    # -- checkpointing -----------------------------------------------------------
    def save(self, path) -> None:
        if not self.initialized:
            raise RuntimeError("cannot checkpoint an uninitialized model")
        params = self.named_params()
        manifest = {
            "arch": self.arch,
            "config": asdict(self.config),
            "elem_type": {"float32": "f32", "float64": "f64"}[self.dtype.name],
            "param_names": list(params.keys()),
        }
        records = {"__manifest__": json_record(manifest), **params}
        archive_save(path, records)

    @classmethod
    def load(cls, path) -> "Model":
        """Build the checkpoint's architecture and fill every parameter
        from its records; nothing is initialized randomly."""
        records = archive_load(path)
        try:
            manifest = read_json_record(records.pop("__manifest__"),
                                        "the '__manifest__' record")
            cfg = ModelConfig(**manifest["config"])
            model = ARCHS[manifest["arch"]](cfg)
            model.dtype = np.dtype(
                {"f32": np.float32, "f64": np.float64}[manifest["elem_type"]])
            for name in manifest["param_names"]:
                model.set_param(name, records[name])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"bad checkpoint {path}: "
                f"{type(exc).__name__}: {exc}") from exc
        missing = [name for name, (conv, key) in model._param_owners.items()
                   if key not in conv.params]
        if missing:
            raise FormatError(
                f"checkpoint {path} lacks {len(missing)} parameter(s) of its "
                f"architecture: {', '.join(missing)}")
        return model


def build_broad_unet(cfg: ModelConfig) -> Model:
    return Model(BroadUNet(cfg), cfg, "broad-unet")


def build_plain_unet(cfg: ModelConfig) -> Model:
    return Model(PlainUNet(cfg), cfg, "unet")


ARCHS = {"broad-unet": build_broad_unet, "unet": build_plain_unet}


def persistence_predict(x: np.ndarray) -> np.ndarray:
    """Meteorological persistence baseline: repeat the last observed frame."""
    if x.ndim != 4:
        raise ValueError(f"expected a (T, H, W, F) tensor, got rank {x.ndim}")
    return x[-1:].copy()


def dump_feature_maps(model: Model, x: np.ndarray, block_index: int) -> list:
    """Per-branch activations of one multi-scale block on input `x`.

    Returns [(label, tensor)] for the 1x1x1, 3x3x3 and 5x5x5 branches of
    the `block_index`-th multi-scale block in `Layer.walk` order, rerun on
    the block's input as one `predict` recorded it.
    """
    blocks = [layer for _, layer in model.root.walk()
              if isinstance(layer, MultiScaleBlock)]
    if not 0 <= block_index < len(blocks):
        raise ValueError(
            f"block_index {block_index} out of range (model has {len(blocks)})")
    block, inputs = blocks[block_index], []

    def recording_forward(h, train=False, rng=None):
        inputs.append(h)
        return type(block).forward(block, h, train=train, rng=rng)

    block.forward = recording_forward  # shadows the class's, for one predict
    try:
        model.predict(x)
    finally:
        del block.forward
    h = block.initial.forward(inputs[0])
    return [(f"branch_{n}x{n}x{n}", branch.forward(h))
            for n, (_, branch) in zip(BRANCH_SIZES, block.branches.children())]
