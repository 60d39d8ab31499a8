"""Span tracer for the broadunet benchmark.

`Tracer.install` wraps the public functions of each broadunet module where
their callers look them up (module globals, class attributes and the
`training.LOSSES` table), so the library itself is unchanged. Each wrapped
call records a span: name, start, end, parent span and op id, plus a few
call-time counts (MACs, tape bytes, concat bytes, archive bytes) taken from
the shapes the call actually saw. Spans stay in memory; `write` saves them
when the run ends. `per_layer_metrics` turns them into the per-layer table.

Only calls made while `Tracer.op` is set are recorded, so set-up, timed ops
and correctness checks can be told apart (checks run with `op = None`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time

import numpy as np

# Span fields.
NAME, START, END, PARENT, OP, ATTRS = range(6)

CONV_KINDS = ("spatial", "temporal", "pointwise", "dilated", "reduce")
CONV_FIELDS = (("fwd_ms", "ms", "lower"), ("bwd_ms", "ms", "lower"),
               ("calls", "count", "lower"), ("gmac", "GMAC", "lower"),
               ("tape_mb", "MiB", "lower"), ("gflops", "GFLOP/s", "higher"))

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {}
for _kind, (_field, _unit, _better) in itertools.product(CONV_KINDS, CONV_FIELDS):
    PER_LAYER[f"layers.conv.{_kind}.{_field}"] = (_unit, _better)
PER_LAYER.update({
    "layers.conv.bwd_fwd_ratio": ("ratio", "lower"),
    "layers.conv.pad_only_tap_frac": ("fraction", "lower"),
    "layers.pool_ms": ("ms", "lower"),
    "layers.upsample_ms": ("ms", "lower"),
    "layers.act_ms": ("ms", "lower"),
    "layers.dropout_ms": ("ms", "lower"),
    "layers.image_pool_ms": ("ms", "lower"),
    "blocks.msblock.self_ms": ("ms", "lower"),
    "blocks.aspp.self_ms": ("ms", "lower"),
    "blocks.concat_mb": ("MiB", "lower"),
    "model.forward_ms": ("ms", "lower"),
    "model.backward_ms": ("ms", "lower"),
    "model.unet_self_ms": ("ms", "lower"),
    "model.load_ms": ("ms", "lower"),
    "model.save_ms": ("ms", "lower"),
    "model.init_ms": ("ms", "lower"),
    "model.params": ("count", "lower"),
    "model.tape_mb": ("MiB", "lower"),
    "model.minflt_per_op": ("count", "lower"),
    "training.adam_ms": ("ms", "lower"),
    "training.adam_calls": ("count", "lower"),
    "training.loss_ms": ("ms", "lower"),
    "training.val_ms": ("ms", "lower"),
    "datapipe.synth_ms": ("ms", "lower"),
    "datapipe.make_samples_ms": ("ms", "lower"),
    "datapipe.save_samples_ms": ("ms", "lower"),
    "datapipe.load_samples_ms": ("ms", "lower"),
    "archive.load_ms": ("ms", "lower"),
    "archive.load_mb": ("MiB", "lower"),
    "archive.save_ms": ("ms", "lower"),
    "archive.save_mb": ("MiB", "lower"),
    "pgm.write_ms": ("ms", "lower"),
    "cli.predict.self_ms": ("ms", "lower"),
    "trace.sample_ms": ("ms", "lower"),
    "trace.spans_per_op": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
})

# Spans of these names are set-up work: their metrics are per set-up, not
# per op.
SETUP_SPANS = {"datapipe.synth": "datapipe.synth_ms",
               "datapipe.make_samples": "datapipe.make_samples_ms",
               "datapipe.save_samples": "datapipe.save_samples_ms",
               "model.initialize": "model.init_ms"}

MIB = float(1 << 20)

# Attributes on which broadunet layers keep their tapes for backward.
TAPE_ATTRS = ("_tape", "_mask", "_argmax", "_relu_mask", "_out")


def conv_kind(spec) -> str:
    """Benchmark class of a convolution, as named in the per-layer table."""
    if spec.padding == "valid":
        return "reduce"
    if spec.kernel == (1, 1, 1):
        return "pointwise"
    if any(d > 1 for d in spec.dilation):
        return "dilated"
    kt, kh, kw = spec.kernel
    if kt > 1 and kh == kw == 1:
        return "temporal"
    return "spatial"


def conv_macs(spec, out_shape) -> int:
    """Multiply-accumulates of one forward call with output `out_shape`."""
    to, ho, wo, _ = out_shape
    kt, kh, kw = spec.kernel
    return to * ho * wo * kt * kh * kw * spec.in_channels * spec.out_channels


def pad_only_taps(spec, in_shape) -> int:
    """Taps whose window lies wholly in zero padding along some axis."""
    if spec.padding == "valid":
        return 0
    axes = []
    for n, k, d, (before, _) in zip(in_shape[:3], spec.kernel, spec.dilation,
                                    spec.pad_pairs()):
        # the window of tap i covers padded rows [i*d, i*d + n); data rows
        # are [before, before + n)
        axes.append([i * d + n <= before or i * d >= before + n
                     for i in range(k)])
    return sum(1 for flags in itertools.product(*axes) if any(flags))


@functools.lru_cache(maxsize=None)
def conv_counts(spec, in_shape) -> tuple:
    """(kind, MACs, taps, pad-only taps) of one forward call on `in_shape`."""
    out_shape = (*spec.out_extents(in_shape[:3]), spec.out_channels)
    return (conv_kind(spec), conv_macs(spec, out_shape),
            int(np.prod(spec.kernel)), pad_only_taps(spec, in_shape))


def tape_bytes(root) -> int:
    """Bytes of the arrays the layers under `root` keep for backward."""
    seen = {}
    for _, layer in root.walk():
        for attr in TAPE_ATTRS:
            value = layer.__dict__.get(attr)
            arr = getattr(value, "padded", value)
            if isinstance(arr, np.ndarray):
                seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def span_cost_s(calls=20000) -> float:
    """Measured cost of recording one span around a call that does nothing;
    call-time counts (`attrs`) are not included."""
    probe = Tracer()
    traced = probe.wrap("probe", _noop)
    probe.op = ("op", 0)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls


def _noop():
    return None


def _records_bytes(records) -> int:
    return sum(np.asarray(a).nbytes for a in records.values())


class Tracer:
    """In-memory span recorder around the public functions of broadunet."""

    def __init__(self):
        self.spans = []
        self.op = None        # ("setup", k) or ("op", k) while recording
        self._stack = []
        self._undo = []
        self._tape_op = None  # op whose first forward had its tape counted
        self.wrapped = set()  # span names of every installed wrapper

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name, fn, attrs=None):
        """`fn` wrapped so each call records a span; `attrs(args, kwargs,
        result)` may add call-time counts to it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.wrapped.add(name)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _patch(self, owner, attr, new):
        table = owner if isinstance(owner, dict) else owner.__dict__
        self._undo.append((owner, attr, table[attr]))
        self._set(owner, attr, new)

    def _patch_method(self, cls, meth, name, attrs=None):
        self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], attrs))

    def install(self):
        """Wrap every call site the benchmark's workloads reach."""
        from broadunet import archive, blocks, cli, datapipe, layers, model
        from broadunet import pgm, training

        # raw shapes only; counts are derived after the run so the tracer
        # adds little to the self time of the calling block
        def conv_fwd_attrs(args, kwargs, result):
            return args[3], args[0].shape, result[1].padded.nbytes

        def conv_bwd_attrs(args, kwargs, result):
            return args[0].spec, args[0].in_shape

        self._patch(layers, "conv3d_forward",
                    self.wrap("conv.fwd", layers.conv3d_forward, conv_fwd_attrs))
        self._patch(layers, "conv3d_backward",
                    self.wrap("conv.bwd", layers.conv3d_backward, conv_bwd_attrs))
        for cls, label in ((layers.MaxPoolSpatial, "pool"),
                           (layers.UpsampleNearestSpatial, "upsample"),
                           (layers.Activation, "act"),
                           (layers.Dropout, "dropout"),
                           (layers.ImageLevelPool, "image_pool")):
            self._patch_method(cls, "forward", f"{label}.fwd")
            self._patch_method(cls, "backward", f"{label}.bwd")

        def concat_attrs(args, kwargs, result):
            # the block concatenates one output-sized map per branch
            return len(args[0].branches) * result.nbytes

        for cls, label in ((blocks.MultiScaleBlock, "msblock"),
                           (blocks.Aspp, "aspp")):
            self._patch_method(cls, "forward", f"{label}.fwd", concat_attrs)
            self._patch_method(cls, "backward", f"{label}.bwd")
        self._patch_method(model._UNetBase, "forward", "unet.fwd")
        self._patch_method(model._UNetBase, "backward", "unet.bwd")

        def forward_attrs(args, kwargs, result):
            # one walk per op keeps the tracer's own cost small
            if self._tape_op == self.op:
                return None
            self._tape_op = self.op
            return tape_bytes(args[0].root)

        def init_attrs(args, kwargs, result):
            return sum(p.size for p in result.named_params().values())

        self._patch_method(model.Model, "forward", "model.forward", forward_attrs)
        self._patch_method(model.Model, "backward", "model.backward")
        self._patch_method(model.Model, "save", "model.save")
        self._patch_method(model.Model, "initialize", "model.initialize",
                           init_attrs)
        load = model.Model.__dict__["load"].__func__
        self._patch(model.Model, "load",
                    classmethod(self.wrap("model.load", load)))

        self._patch(training, "adam_step",
                    self.wrap("training.adam", training.adam_step))
        loss = self.wrap("training.loss", training.loss_mse)
        self._patch(training, "loss_mse", loss)
        self._patch(training.LOSSES, "mse", loss)
        self._patch(training, "_mean_loss",
                    self.wrap("training.val", training._mean_loss))
        self._patch(training, "train", self.wrap("training.train", training.train))

        for fn in ("synth_advection", "make_samples", "save_samples",
                   "load_samples"):
            label = "synth" if fn == "synth_advection" else fn
            self._patch(datapipe, fn,
                        self.wrap(f"datapipe.{label}", getattr(datapipe, fn)))

        # archive_load/archive_save are imported by name into model and
        # datapipe, so each of those globals gets the same wrapper
        load_fn = self.wrap("archive.load", archive.archive_load,
                            lambda a, k, r: _records_bytes(r))
        save_fn = self.wrap("archive.save", archive.archive_save,
                            lambda a, k, r: _records_bytes(a[1]))
        for module in (archive, model, datapipe):
            self._patch(module, "archive_load", load_fn)
            self._patch(module, "archive_save", save_fn)

        self._patch(pgm, "write_pgm", self.wrap("pgm.write", pgm.write_pgm))
        self._patch(cli, "run", self.wrap("cli.predict", cli.run))

    def uninstall(self):
        while self._undo:
            self._set(*self._undo.pop())

    # -- output ----------------------------------------------------------------
    def write(self, path):
        """Save the spans as columns, with op ids as "<phase>:<k>"."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(names)),
            name=np.array([index[s[NAME]] for s in self.spans], dtype=np.int16),
            start=np.array([s[START] for s in self.spans], dtype=np.float64),
            end=np.array([s[END] for s in self.spans], dtype=np.float64),
            parent=np.array([s[PARENT] for s in self.spans], dtype=np.int64),
            op=np.array([f"{s[OP][0]}:{s[OP][1]}" for s in self.spans]))

    def self_times(self) -> list:
        """Duration of each span minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def per_layer_metrics(self, n_setups, n_ops, sample_ms, minflt_per_op):
        """The per-layer table: op-phase figures per op, set-up spans per
        set-up."""
        self_s = self.self_times()
        total = {}     # (phase, name) -> summed duration, seconds
        selft = {}     # (phase, name) -> summed self time, seconds
        count = {}
        conv = {(k, f): 0.0 for k in CONV_KINDS
                for f in ("fwd", "bwd", "calls", "macs", "bwd_macs", "tape")}
        taps = pad_taps = concat = load_b = save_b = 0
        tape_total = params = 0
        for span, st in zip(self.spans, self_s):
            phase = span[OP][0]
            key = (phase, span[NAME])
            total[key] = total.get(key, 0.0) + span[END] - span[START]
            selft[key] = selft.get(key, 0.0) + st
            count[key] = count.get(key, 0) + 1
            attrs = span[ATTRS]
            if attrs is None:
                continue
            name = span[NAME]
            if name == "model.initialize":
                params = attrs
            elif phase != "op":
                continue
            elif name == "conv.fwd":
                spec, in_shape, tape = attrs
                kind, macs, n_taps, n_pad = conv_counts(spec, in_shape)
                conv[kind, "fwd"] += st
                conv[kind, "calls"] += 1
                conv[kind, "macs"] += macs
                conv[kind, "tape"] += tape
                if kind == "dilated":  # the ASPP taps
                    taps += n_taps
                    pad_taps += n_pad
            elif name == "conv.bwd":
                kind, macs, _, _ = conv_counts(*attrs)
                conv[kind, "bwd"] += st
                conv[kind, "bwd_macs"] += macs
            elif name in ("msblock.fwd", "aspp.fwd"):
                concat += attrs
            elif name == "archive.load":
                load_b += attrs
            elif name == "archive.save":
                save_b += attrs
            elif name == "model.forward":
                tape_total += attrs

        ops = max(n_ops, 1)
        setups = max(n_setups, 1)

        def op_ms(*names, self_time=False):
            table = selft if self_time else total
            return 1e3 * sum(table.get(("op", n), 0.0) for n in names) / ops

        out = {}
        for kind in CONV_KINDS:
            fwd, bwd = conv[kind, "fwd"], conv[kind, "bwd"]
            flops = 2 * conv[kind, "macs"] + 4 * conv[kind, "bwd_macs"]
            out[f"layers.conv.{kind}.fwd_ms"] = 1e3 * fwd / ops
            out[f"layers.conv.{kind}.bwd_ms"] = 1e3 * bwd / ops
            out[f"layers.conv.{kind}.calls"] = conv[kind, "calls"] / ops
            out[f"layers.conv.{kind}.gmac"] = conv[kind, "macs"] / 1e9 / ops
            out[f"layers.conv.{kind}.tape_mb"] = conv[kind, "tape"] / MIB / ops
            out[f"layers.conv.{kind}.gflops"] = (
                flops / 1e9 / (fwd + bwd) if fwd + bwd > 0 else 0.0)
        fwd_all = sum(conv[k, "fwd"] for k in CONV_KINDS)
        bwd_all = sum(conv[k, "bwd"] for k in CONV_KINDS)
        out["layers.conv.bwd_fwd_ratio"] = bwd_all / fwd_all if fwd_all else 0.0
        out["layers.conv.pad_only_tap_frac"] = pad_taps / taps if taps else 0.0
        for label in ("pool", "upsample", "act", "dropout", "image_pool"):
            out[f"layers.{label}_ms"] = op_ms(f"{label}.fwd", f"{label}.bwd",
                                              self_time=True)
        out["blocks.msblock.self_ms"] = op_ms("msblock.fwd", "msblock.bwd",
                                              self_time=True)
        out["blocks.aspp.self_ms"] = op_ms("aspp.fwd", "aspp.bwd",
                                           self_time=True)
        out["blocks.concat_mb"] = concat / MIB / ops
        out["model.forward_ms"] = op_ms("model.forward")
        out["model.backward_ms"] = op_ms("model.backward")
        out["model.unet_self_ms"] = op_ms("unet.fwd", "unet.bwd",
                                          self_time=True)
        out["model.load_ms"] = op_ms("model.load")
        out["model.save_ms"] = op_ms("model.save")
        out["model.params"] = float(params)
        out["model.tape_mb"] = tape_total / MIB / ops
        out["model.minflt_per_op"] = float(minflt_per_op)
        out["training.adam_ms"] = op_ms("training.adam")
        out["training.adam_calls"] = count.get(("op", "training.adam"), 0) / ops
        out["training.loss_ms"] = op_ms("training.loss")
        out["training.val_ms"] = op_ms("training.val")
        out["datapipe.load_samples_ms"] = op_ms("datapipe.load_samples")
        out["archive.load_ms"] = op_ms("archive.load")
        out["archive.load_mb"] = load_b / MIB / ops
        out["archive.save_ms"] = op_ms("archive.save")
        out["archive.save_mb"] = save_b / MIB / ops
        out["pgm.write_ms"] = op_ms("pgm.write")
        out["cli.predict.self_ms"] = op_ms("cli.predict", self_time=True)
        for span_name, metric in SETUP_SPANS.items():
            out[metric] = 1e3 * total.get(("setup", span_name), 0.0) / setups
        out["trace.sample_ms"] = sample_ms
        out["trace.spans_per_op"] = sum(
            n for (phase, _), n in count.items() if phase == "op") / ops
        out["trace.overhead_ms"] = 1e3 * span_cost_s() * out["trace.spans_per_op"]
        return {name: out[name] for name in PER_LAYER}
