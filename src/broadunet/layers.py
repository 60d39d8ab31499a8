"""Differentiable primitive layers with explicit forward/backward rules.

Backward state lives in `_tape`, the only attribute a forward writes:
`train=True` keeps it, `backward` consumes it once (raising `RuntimeError`
without it) and `train=False` leaves it `None`. Only `Conv3D` has
parameters: they live in its `params`, and its gradients accumulate into
its `grads` until zeroed. `Layer.convs()` finds every conv under a node.

Convolutions are anisotropic 3D with per-axis dilation, stride fixed at 1.
Downsampling is done exclusively by spatial max pooling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Convolution specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvSpec:
    """Full description of one convolution.

    Weights have shape (kt, kh, kw, in_channels, out_channels); the optional
    bias is a vector of length out_channels.
    """

    kernel: tuple
    in_channels: int
    out_channels: int
    dilation: tuple = (1, 1, 1)
    padding: str = "same"
    bias: bool = True

    def __post_init__(self):
        kernel = tuple(int(k) for k in self.kernel)
        dilation = tuple(int(d) for d in self.dilation)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "dilation", dilation)
        if len(kernel) != 3 or any(k < 1 for k in kernel):
            raise ValueError(f"kernel must be 3 positive extents, got {kernel}")
        if len(dilation) != 3 or any(d < 1 for d in dilation):
            raise ValueError(f"dilation must be 3 positive ints, got {dilation}")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {self.padding!r}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")

    @property
    def effective_extent(self) -> tuple:
        """Per-axis reach of the dilated kernel: (k-1)*d + 1."""
        return tuple((k - 1) * d + 1 for k, d in zip(self.kernel, self.dilation))

    def weight_shape(self) -> tuple:
        return (*self.kernel, self.in_channels, self.out_channels)

    def out_extents(self, extents) -> tuple:
        """(T', H', W') for input extents (T, H, W)."""
        if self.padding == "same":
            return tuple(extents)
        out = tuple(e - (eff - 1) for e, eff in zip(extents, self.effective_extent))
        if any(o < 1 for o in out):
            raise ValueError(
                f"effective kernel {self.effective_extent} exceeds input "
                f"extents {tuple(extents)} under valid padding"
            )
        return out

    def pad_pairs(self) -> tuple:
        """Per-axis (before, after) zero padding; floor before, remainder after."""
        if self.padding == "valid":
            return ((0, 0), (0, 0), (0, 0))
        total = tuple(eff - 1 for eff in self.effective_extent)
        return tuple((t // 2, t - t // 2) for t in total)


def factor_specs(spec: ConvSpec) -> list:
    """Per-axis factors for an arbitrary kernel, W then H then T axis order.

    The first factor takes spec.in_channels; subsequent factors run at
    spec.out_channels. The bias, when enabled, sits only on the last factor.
    Axes with extent 1 contribute no factor; an all-ones kernel is returned
    unchanged.
    """
    kt, kh, kw = spec.kernel
    dt, dh, dw = spec.dilation
    axes = []
    if kw > 1:
        axes.append(((1, 1, kw), (1, 1, dw)))
    if kh > 1:
        axes.append(((1, kh, 1), (1, dh, 1)))
    if kt > 1:
        axes.append(((kt, 1, 1), (dt, 1, 1)))
    if not axes:
        return [spec]
    specs = []
    for i, (kernel, dilation) in enumerate(axes):
        specs.append(ConvSpec(
            kernel=kernel,
            in_channels=spec.in_channels if i == 0 else spec.out_channels,
            out_channels=spec.out_channels,
            dilation=dilation,
            padding=spec.padding,
            bias=spec.bias and i == len(axes) - 1,
        ))
    return specs


# ---------------------------------------------------------------------------
# Functional convolution kernel
# ---------------------------------------------------------------------------
#
# A conv runs as a list of GEMMs on two row matrices, the input as
# (rows, Cin) and the output as (rows, Cout). Each plan lists its GEMMs as
# its work, one (tap, output rows, input rows, first) entry each, in run
# order. The forward runs out[o] = in[i] @ W[tap] where `first` is set and
# out[o] += in[i] @ W[tap] elsewhere; the backward runs
# grad_w[tap] += in[i].T @ g[o] and grad_in[i] += g[o] @ W[tap].T over the
# same list. Each output row sums its taps in row-major tap order. Taps whose
# window lies wholly in zero padding along some axis add exact zeros and get
# no entry. The plan's layout decides only the row matrices: the padded
# input and an unset output grid, or the input itself and a zeroed output.
#
# Grid layout. The input is zero-padded as far as the live taps read and
# flattened to rows; the output is computed on the padded grid, so tap
# (i, j, k) reads the row span [offset, offset + span) of that flat array,
# where offset = a_t * Hp * Wp + a_h * Wp + a_w for its per-axis start a.
# Grid rows outside the (T', H', W') output read wrapped data and are
# cropped. The span is cut into row blocks of about _BLOCK_BYTES of the wider
# side's f32 rows, and the work runs block by block, every tap within a
# block, so one block's accumulator, windows and per-tap temporaries stay in
# cache while every tap visits it (the cache tiling of GEMM-based
# convolution, Chetlur et al. 2014, arXiv:1410.0759). A block's first tap
# sets `first`, so the grid needs no zeroing. A plan with one live tap, or
# whose span fits one block, runs exactly the unblocked sequence. With
# several blocks the weight gradient is a sum of per-block partials and an
# input-gradient row takes its taps in block order, so those gradients, and
# outputs where the BLAS rounds a product by its row count, may differ from
# a one-block run in the last bits.
#
# Boxed layout. Along each axis, the outputs whose window of a live tap reads
# data form one range, so each tap has an output box and the input box those
# outputs read; every plan records its boxes, which are its data-touching
# MACs. A boxed plan's work is each tap's boxes as flat row indices of the
# unpadded input and of the output, with `first` never set, so it pads,
# builds and crops no grid. One test picks the layout: a plan boxes when its
# boxes hold at most 1/_BOX_MACS of the grid's MACs (live taps x span), as
# for the atrous ASPP taps on a bottleneck about as wide as their rate (Chen
# et al. 2017, arXiv:1706.05587, section 3.3). A plan with no live tap has no
# box and no grid MAC, so it boxes to the bias. Boxed GEMMs run over other
# row counts than the grid's, which may move last bits. On dense plans and on
# maps a few pixels wide the gathers and scatters of its index rows cost
# more than the padding they skip: the unet's 4x4 (3,3,3) convs at 32x32
# input would box 28.5% of the grid's MACs, yet run slower boxed.

_BLOCK_BYTES = 1 << 17
_BOX_MACS = 4  # grid MACs against boxed MACs


@dataclass(frozen=True)
class _TapPlan:
    """The GEMMs of one ConvSpec on fixed input extents, as work on the row
    matrices of the layout that runs them, and its tap boxes."""

    pads: tuple        # per-axis (before, after) zero padding of the grid
    padded_thw: tuple  # (Tp, Hp, Wp) extents of the padded input
    out_thw: tuple     # (T', H', W')
    boxes: tuple       # ((i, j, k), output box, input box) per live tap,
                       # row-major
    boxed: bool        # _BOX_MACS x box rows <= live taps x span
    work: tuple        # (tap, output rows, input rows, first) per GEMM, in
                       # run order: grid row slices, or boxes' flat rows


# a Broad-UNet uses 88 distinct (spec, extents) pairs per input shape
@functools.lru_cache(maxsize=1024)
def _tap_plan(spec: ConvSpec, in_thw: tuple) -> _TapPlan:
    """Tap plan of `spec` on input extents `in_thw`; cached per pair."""
    out_thw = spec.out_extents(in_thw)
    axes = []
    for n, o, k, d, (before, _) in zip(in_thw, out_thw, spec.kernel,
                                        spec.dilation, spec.pad_pairs()):
        # tap i reads input rows [i*d - before, i*d - before + o); it is live
        # when that window overlaps the data rows [0, n)
        axes.append({i: i * d - before for i in range(k)
                     if -o < i * d - before < n})
    pads, starts = [], []
    for n, o, offsets in zip(in_thw, out_thw, axes):
        lo = min([0, *offsets.values()])
        hi = max([n, *(a + o for a in offsets.values())])
        pads.append((-lo, hi - n))
        starts.append({i: a - lo for i, a in offsets.items()})
    padded_thw = tuple(n + b + a for n, (b, a) in zip(in_thw, pads))
    (to, ho, wo), (_, hp, wp) = out_thw, padded_thw
    taps = [((i, j, k), at * hp * wp + ah * wp + aw)
            for i, at in starts[0].items()
            for j, ah in starts[1].items()
            for k, aw in starts[2].items()]
    span = (to - 1) * hp * wp + (ho - 1) * wp + wo
    # along an axis, output row r of tap i reads input row r + a, so the
    # tap reaches outputs [max(0, -a), min(o, n - a)), which read inputs
    # [max(a, 0), min(o + a, n))
    clips = [{i: (slice(max(0, -a), min(o, n - a)),
                  slice(max(a, 0), min(o + a, n)))
              for i, a in offsets.items()}
             for n, o, offsets in zip(in_thw, out_thw, axes)]
    boxes = tuple(((i, j, k), (ot, oh, ow), (it, ih, iw))
                  for i, (ot, it) in clips[0].items()
                  for j, (oh, ih) in clips[1].items()
                  for k, (ow, iw) in clips[2].items())
    box_rows = sum((ot.stop - ot.start) * (oh.stop - oh.start)
                   * (ow.stop - ow.start) for _, (ot, oh, ow), _ in boxes)
    boxed = _BOX_MACS * box_rows <= len(taps) * span
    if boxed:
        flat = [np.arange(t * h * w).reshape(t, h, w)
                for t, h, w in (out_thw, in_thw)]
        work = tuple((tap, flat[0][o].ravel(), flat[1][i].ravel(), False)
                     for tap, o, i in boxes)
    else:
        # a lone tap has nothing to accumulate, so its span stays one block
        step = span if len(taps) < 2 else max(
            1, _BLOCK_BYTES // (4 * max(spec.in_channels, spec.out_channels)))
        blocks = [(s, min(s + step, span)) for s in range(0, span, step)]
        work = tuple((tap, slice(s, e), slice(off + s, off + e), n == 0)
                     for s, e in blocks
                     for n, (tap, off) in enumerate(taps))
    return _TapPlan(tuple(pads), padded_thw, out_thw, boxes, boxed, work)


def _widen(a, axis):
    """`a` with a zero slice appended along `axis` if that axis has length 1.

    NumPy's matmul takes a slow path for an inner dimension of 1: a
    (4096 x 1) @ (1 x 8) product takes about 10x as long as its K=2 form.
    A zero input channel with a zero weight row (or a zero output channel
    with a zero weight column) adds only exact zeros."""
    if a.shape[axis] != 1:
        return a
    return np.concatenate((a, np.zeros_like(a)), axis=axis)


def _pad(x, plan: _TapPlan):
    """Contiguous `x` zero-padded to the plan's grid; `x` itself when the
    plan pads nothing."""
    if plan.padded_thw == x.shape[:3]:
        return x
    xp = np.zeros((*plan.padded_thw, x.shape[3]), dtype=x.dtype)
    (pt, _), (ph, _), (pw, _) = plan.pads
    t, h, w, _ = x.shape
    xp[pt:pt + t, ph:ph + h, pw:pw + w] = x
    return xp


@dataclass
class ConvTape:
    """Forward activations cached for the matching backward call.

    The tape references the conv's own contiguous input, so sibling convs
    on one input share one array. A grid plan's backward pads it again; a
    boxed plan's backward reads its rows as they are. Nothing may write into
    a training forward's input before its backward.
    """

    padded: np.ndarray  # the unpadded input; perfbench/tracer.py reads this name
    weights: np.ndarray
    spec: ConvSpec
    in_shape: tuple


def conv3d_forward(x, weights, bias, spec: ConvSpec):
    """Dilated 3D convolution over a (T, H, W, Cin) tensor.

    Returns (output, tape). Summation over kernel taps runs in a fixed
    row-major tap order, so results are reproducible bitwise.
    """
    if x.ndim != 4:
        raise ValueError(f"input must be rank 4, got rank {x.ndim}")
    if x.shape[3] != spec.in_channels:
        raise ValueError(f"expected {spec.in_channels} input channels, got {x.shape[3]}")
    if weights.shape != spec.weight_shape():
        raise ValueError(f"weights shape {weights.shape} != {spec.weight_shape()}")
    x = np.ascontiguousarray(x)
    plan = _tap_plan(spec, x.shape[:3])
    to, ho, wo = plan.out_thw
    if plan.boxed:
        # outputs that no box reaches stay zero
        xp, y = x, np.zeros((to, ho, wo, spec.out_channels), dtype=x.dtype)
    else:
        _, hp, wp = plan.padded_thw
        xp = _pad(x, plan)
        y = np.empty((to, hp, wp, spec.out_channels), dtype=x.dtype)
    # each GEMM's inner dimension is Cin
    rows = _widen(xp.reshape(-1, spec.in_channels), 1)
    wk = _widen(weights, 3)
    out = y.reshape(-1, spec.out_channels)
    for tap, o, i, first in plan.work:
        if first:
            np.matmul(rows[i], wk[tap], out=out[o])
        else:
            out[o] += rows[i] @ wk[tap]
    if y.shape[1:3] != (ho, wo):
        y = np.ascontiguousarray(y[:, :ho, :wo])
    if bias is not None:
        _add_bias(y, bias)
    return y, ConvTape(x, weights, spec, x.shape)


def conv3d_backward(tape: ConvTape, grad_out):
    """Gradients of sum(grad_out * output) w.r.t. input, weights and bias."""
    spec, x = tape.spec, tape.padded
    plan = _tap_plan(spec, tape.in_shape[:3])
    to, ho, wo = plan.out_thw
    if grad_out.shape != (to, ho, wo, spec.out_channels):
        raise ValueError(f"grad shape {grad_out.shape} != output shape "
                         f"{(to, ho, wo, spec.out_channels)}")
    xp, grid = x, np.ascontiguousarray(grad_out)
    if not plan.boxed:
        xp = _pad(x, plan)
        _, hp, wp = plan.padded_thw
        if (hp, wp) != (ho, wo):
            # embed in the padded grid; zeros keep the cropped rows out of sums
            grid = np.zeros((to, hp, wp, spec.out_channels), dtype=grad_out.dtype)
            grid[:, :ho, :wo] = grad_out
    rows = xp.reshape(-1, spec.in_channels)
    g = grid.reshape(-1, spec.out_channels)
    # the input gradient's GEMMs have inner dimension Cout; the weight
    # gradient's take g as it is, so their sums keep their order
    wk = _widen(tape.weights, 4)
    grad_w = np.zeros(tape.weights.shape, dtype=tape.weights.dtype)
    whole = slice(0, len(rows))
    if not plan.boxed and len(plan.work) == 1 and plan.work[0][2] == whole:
        # a lone GEMM over every input row (a pointwise plan) gives the
        # whole input gradient; adding it into zeros costs two more passes
        # over rows that reach 95 MB at 288x288
        (tap, o, _, _), = plan.work
        grad_w[tap] = rows.T @ g[o]
        grad_rows = _widen(g[o], 1) @ wk[tap].T
    else:
        grad_rows = np.zeros(rows.shape, dtype=rows.dtype)
        for tap, o, i, _ in plan.work:
            part = g[o]
            grad_w[tap] += rows[i].T @ part
            grad_rows[i] += _widen(part, 1) @ wk[tap].T
    grad_x = grad_rows.reshape(xp.shape)
    if xp.shape != x.shape:
        (pt, _), (ph, _), (pw, _) = plan.pads
        t, h, w, _ = x.shape
        grad_x = np.ascontiguousarray(grad_x[pt:pt + t, ph:ph + h, pw:pw + w])
    grad_b = _bias_grad(grad_out) if spec.bias else None
    return grad_x, grad_w, grad_b


# NumPy loops over the last axis innermost, and a C-long inner loop is slow
# for the few channels of desk-scale maps. The two bias helpers therefore
# work on (T*H, W*C) rows of the map.

def _add_bias(y, bias):
    t, h, w, c = y.shape
    rows = y.reshape(t * h, w * c)
    rows += np.tile(bias, w)


def _bias_grad(grad_out):
    t, h, w, c = grad_out.shape
    return grad_out.reshape(t * h, w * c).sum(axis=0).reshape(w, c).sum(axis=0)


# ---------------------------------------------------------------------------
# Layer graph nodes
# ---------------------------------------------------------------------------

class Layer:
    """Base graph node. Composites own children; only `Conv3D` has parameters."""

    _tape = None  # what backward needs, kept by a training forward

    # -- structure ---------------------------------------------------------
    def children(self):
        return []

    # -- evaluation --------------------------------------------------------
    def out_shape(self, shape: tuple) -> tuple:
        return tuple(shape)

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    # -- traversal helpers ---------------------------------------------------
    def walk(self, prefix=""):
        yield prefix, self
        for name, child in self.children():
            sub = f"{prefix}.{name}" if prefix else name
            yield from child.walk(sub)

    def convs(self):
        """(path, conv) of every `Conv3D` under this node, in walk order."""
        return ((name, layer) for name, layer in self.walk()
                if isinstance(layer, Conv3D))

    def named(self, entries) -> dict:
        """`entries(conv)` of every conv in walk order, one dict keyed
        "<conv path>.<key>"."""
        return {f"{cname}.{key}" if cname else key: value
                for cname, conv in self.convs()
                for key, value in entries(conv).items()}

    def _take_tape(self):
        """The tape of the last training forward, consumed."""
        tape, self._tape = self._tape, None
        if tape is None:
            raise RuntimeError(f"{type(self).__name__}.backward without a training forward")
        return tape

    def zero_grads(self):
        for _, conv in self.convs():
            conv.grads = {}


class Conv3D(Layer):
    """Trainable dilated 3D convolution."""

    def __init__(self, spec: ConvSpec):
        self.spec = spec
        self.params: dict = {}
        self.grads: dict = {}

    def param_shapes(self):
        shapes = {"w": self.spec.weight_shape()}
        if self.spec.bias:
            shapes["b"] = (self.spec.out_channels,)
        return shapes

    def init_params(self, rng, dtype=np.float32):
        # Glorot uniform; fan_in-only scaling doubles activation variance at
        # every conv of the long linear factor chains and blows up the net.
        kt, kh, kw = self.spec.kernel
        taps = kt * kh * kw
        fan_in = taps * self.spec.in_channels
        fan_out = taps * self.spec.out_channels
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.params["w"] = rng.uniform(
            -limit, limit, self.spec.weight_shape()).astype(dtype)
        if self.spec.bias:
            self.params["b"] = np.zeros(self.spec.out_channels, dtype=dtype)

    def out_shape(self, shape):
        if len(shape) != 4:
            raise ValueError(f"conv input must be rank 4, got {shape}")
        if shape[3] != self.spec.in_channels:
            raise ValueError(
                f"expected {self.spec.in_channels} channels, got {shape[3]}")
        return (*self.spec.out_extents(shape[:3]), self.spec.out_channels)

    def forward(self, x, train=False, rng=None):
        y, tape = conv3d_forward(
            x, self.params["w"], self.params.get("b"), self.spec)
        self._tape = tape if train else None
        return y

    def backward(self, grad):
        gx, gw, gb = conv3d_backward(self._take_tape(), grad)
        for key, g in (("w", gw), ("b", gb)):
            if key in self.grads:
                self.grads[key] += g
            elif g is not None:
                self.grads[key] = g  # conv3d_backward's own fresh array
        return gx


class Sequential(Layer):
    def __init__(self, layers):
        self.layers = list(layers)

    def children(self):
        return [(str(i), layer) for i, layer in enumerate(self.layers)]

    def out_shape(self, shape):
        for layer in self.layers:
            shape = layer.out_shape(shape)
        return shape

    def forward(self, x, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class Parallel(Layer):
    """Named branches on one input, outputs concatenated on channels.

    The tape is the branch output widths. Backward slices the gradient by
    them and sums the branch input gradients left to right, in branch order.
    """

    def __init__(self, branches):
        self.named_branches = list(branches)

    def __len__(self):
        return len(self.named_branches)

    def children(self):
        return list(self.named_branches)

    def out_shape(self, shape):
        shapes = [b.out_shape(shape) for _, b in self.named_branches]
        if any(s[:-1] != shapes[0][:-1] for s in shapes):
            raise ValueError(f"branch outputs differ beyond channels: {shapes}")
        return (*shapes[0][:-1], sum(s[-1] for s in shapes))

    def forward(self, x, train=False, rng=None):
        outs = [b.forward(x, train=train, rng=rng)
                for _, b in self.named_branches]
        self._tape = [out.shape[-1] for out in outs] if train else None
        return np.concatenate(outs, axis=-1)

    def backward(self, grad):
        gx, end = None, 0
        for (_, branch), width in zip(self.named_branches, self._take_tape()):
            end += width
            gb = branch.backward(np.ascontiguousarray(grad[..., end - width:end]))
            gx = gb if gx is None else gx + gb
        return gx


# (row, column) offset of each element of a 2x2 window, row-major
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _bits(a):
    """Unsigned-integer view of `a`, for selecting values bit for bit."""
    return a.view(f"u{a.itemsize}")


class MaxPoolSpatial(Layer):
    """2x2 spatial max pooling, stride 2; T and C pass through.

    The tape is each window's maximum position. Ties route the gradient to
    the first maximal element in row-major window order, which keeps
    gradient checks deterministic. A NaN counts as maximal, as in
    `np.argmax`. The output holds that element's bits, so the sign of a
    zero maximum is the first zero's.
    """

    def out_shape(self, shape):
        t, h, w, c = shape
        if h % 2 or w % 2:
            raise ValueError(f"H and W must be even for 2x2 pooling, got {h}x{w}")
        return (t, h // 2, w // 2, c)

    def forward(self, x, train=False, rng=None):
        self.out_shape(x.shape)
        # the four window elements are the strided views x[:, i::2, j::2];
        # a later one replaces the running maximum only when it is greater.
        # The value is selected by its bits, since np.maximum may return
        # either zero of a -0.0/+0.0 tie.
        y = x[:, 0::2, 0::2].copy()
        y_bits, x_bits = _bits(y), _bits(x)
        index = np.zeros(y.shape, dtype=np.uint8) if train else None
        for k, (i, j) in enumerate(_WINDOW[1:], 1):
            later = x[:, i::2, j::2]
            better = ~(later <= y)  # also true for a NaN against a number
            better &= y == y        # a NaN maximum stays
            if train:
                np.maximum(index, better * np.uint8(k), out=index)
            y_bits ^= (y_bits ^ x_bits[:, i::2, j::2]) & -better.astype(y_bits.dtype)
        self._tape = index
        return y

    def backward(self, grad):
        index = self._take_tape()
        t, h, w, c = index.shape
        gx = np.empty((t, 2 * h, 2 * w, c), dtype=grad.dtype)
        g_bits, gx_bits = _bits(grad), _bits(gx)
        # every input element lies in exactly one view; the mask keeps the
        # gradient bits at the window's maximum and writes +0 elsewhere
        for k, (i, j) in enumerate(_WINDOW):
            mask = -(index == k).astype(g_bits.dtype)
            np.bitwise_and(g_bits, mask, out=gx_bits[:, i::2, j::2])
        return gx


class UpsampleNearestSpatial(Layer):
    """Replicate each pixel into a 2x2 spatial block."""

    def out_shape(self, shape):
        t, h, w, c = shape
        return (t, 2 * h, 2 * w, c)

    def forward(self, x, train=False, rng=None):
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)

    def backward(self, grad):
        t, h2, w2, c = grad.shape
        return grad.reshape(t, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


class Activation(Layer):
    KINDS = ("relu", "sigmoid")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown activation {kind!r}")
        self.kind = kind

    def forward(self, x, train=False, rng=None):
        if self.kind == "relu":
            self._tape = x > 0 if train else None
            return np.maximum(x, 0)
        with np.errstate(over="ignore"):  # exp(-x) = inf gives y = 0 exactly
            y = 1.0 / (1.0 + np.exp(-x))
        self._tape = y if train else None
        return y

    def backward(self, grad):
        tape = self._take_tape()
        if self.kind == "relu":
            return grad * tape
        return grad * tape * (1.0 - tape)


class Dropout(Layer):
    """Inverted dropout: survivors scaled by 1/(1-rate); inference is identity."""

    def __init__(self, rate: float):
        if not 0.0 < rate < 1.0:
            raise ValueError(f"dropout rate must be in (0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train:
            self._tape = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs a seeded rng")
        keep = 1.0 - self.rate
        self._tape = (rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._tape

    def backward(self, grad):
        return grad * self._take_tape()


class ImageLevelPool(Layer):
    """Global average over (H, W) per time step and channel, broadcast back."""

    def forward(self, x, train=False, rng=None):
        mean = x.mean(axis=(1, 2), keepdims=True)
        return np.broadcast_to(mean, x.shape).copy()

    def backward(self, grad):
        _, h, w, _ = grad.shape
        g = grad.sum(axis=(1, 2), keepdims=True) / (h * w)
        return np.broadcast_to(g, grad.shape).copy()


def conv_unit(kernel, in_channels, out_channels, factorized) -> Layer:
    """A same-padded convolution, optionally replaced by its factor chain."""
    spec = ConvSpec(kernel, in_channels, out_channels)
    if not factorized:
        return Conv3D(spec)
    specs = factor_specs(spec)
    if len(specs) == 1:
        return Conv3D(specs[0])
    return Sequential([Conv3D(s) for s in specs])
