"""Self-test of the benchmark itself; exits 0 when every check passes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  * a smoke-size run of each workload prints every end-to-end metric (trace 0)
    and every per-layer metric (trace 1) of BENCHMARK.json with its unit, and
    the workload's named metrics in its `detail` line;
  * every wrapped function records a span on the workloads that use it and
    none on the others (no conv backward and no Adam on predict_cli);
  * a deliberately perturbed prediction is counted as a failed op;
  * counts taken from call-time shapes agree with the model: 108 conv calls
    per forward, 14.60 GMAC per forward at (12, 288, 288, 1) with f0=8, the
    same total as a closed-form sum over `Model.conv_specs()`, and the
    pad-only ASPP taps (24 of 27 at desk scale, 8 of 27 at paper scale).
The paper-scale forward needs about 1 GiB of memory and a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import run as bench  # noqa: E402  (sets BRUNET_THREADS before numpy loads)
from tracer import PER_LAYER, Tracer, conv_counts  # noqa: E402

SMOKE = {
    "train_desk": dict(hw=16, lags=4, f0=2, n_train=32, n_val=8, epochs=2,
                       batch=8, min_ops=1),
    "step_paper": dict(t=4, hw=32, f0=2, n_samples=2, min_ops=2),
    "predict_cli": dict(t=4, hw=32, f0=2, n_samples=6, check_every=2,
                        min_ops=4),
}

DETAIL = {
    "train_desk": {"train_samples_per_s", "train_val_mse_ratio"},
    "step_paper": {"step_s_p50"},
    "predict_cli": {"predict_ms_p50", "predict_ms_p90"},
}
DETAIL_ALL = {"setup_s", "peak_rss_mb", "failed_op_frac"}

FORWARD = {"conv.fwd", "pool.fwd", "upsample.fwd", "act.fwd", "dropout.fwd",
           "image_pool.fwd", "msblock.fwd", "aspp.fwd", "unet.fwd",
           "model.forward", "model.initialize", "datapipe.synth",
           "datapipe.make_samples"}
BACKWARD = {"conv.bwd", "pool.bwd", "upsample.bwd", "act.bwd", "dropout.bwd",
            "image_pool.bwd", "msblock.bwd", "aspp.bwd", "unet.bwd",
            "model.backward", "training.adam", "training.loss"}
USED = {
    "train_desk": FORWARD | BACKWARD | {"training.train", "training.val",
                                        "model.save", "archive.save"},
    "step_paper": FORWARD | BACKWARD,
    "predict_cli": FORWARD | {"cli.predict", "model.load", "model.save",
                              "datapipe.load_samples", "datapipe.save_samples",
                              "archive.load", "archive.save", "pgm.write"},
}

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def smoke(name, trace):
    """(returned result, printed result, detail, failed-check messages)."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        result = bench.run_workload(name, seed=3, seconds=0.1, trace=trace,
                                    size=SMOKE[name], out=buf)
    lines = buf.getvalue().splitlines()
    detail = json.loads(lines[-2].partition(" ")[2])
    problems = [line for line in err.getvalue().splitlines()
                if line.startswith("check failed")]
    return result, json.loads(lines[-1]), detail, problems


def spans_by_name(name):
    import numpy as np
    with np.load(os.path.join(bench.TRACE_ROOT, f"{name}.npz")) as f:
        names = json.loads(str(f["names"]))
        return {names[i] for i in set(f["name"].tolist())}


def check_smoke_runs(spec):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(per_layer == {m: u for m, (u, _) in PER_LAYER.items()},
           "BENCHMARK.json per_layer matches tracer.PER_LAYER")
    expect(end_to_end == bench.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    for name in bench.WORKLOADS:
        result, printed, detail, problems = smoke(name, trace=0)
        expect(printed == json.loads(json.dumps(result)),
               f"{name}: last line is the result object")
        expect({m: v["unit"] for m, v in printed["metrics"].items()}
               == end_to_end, f"{name}: trace 0 prints every end-to-end metric")
        if name == "train_desk":
            # two epochs on 32 samples at 16x16 are too few to learn, so
            # only the persistence bar may fail at smoke size
            expect(all("does not beat persistence" in p for p in problems),
                   f"{name}: smoke run fails no check but the learning bar")
        else:
            expect(printed["failed"] == 0 and printed["correct"],
                   f"{name}: smoke run passes its checks")
        names = set(detail["metrics"])
        expect(DETAIL[name] | DETAIL_ALL <= names and all(
            v["unit"] for v in detail["metrics"].values()),
               f"{name}: detail line names {sorted(DETAIL[name])} with units")

        _, printed, _, _ = smoke(name, trace=1)
        expect({m: v["unit"] for m, v in printed["metrics"].items()}
               == per_layer, f"{name}: trace 1 prints every per-layer metric")
        metrics = {m: v["value"] for m, v in printed["metrics"].items()}
        expect(all(math.isfinite(v) for v in metrics.values()),
               f"{name}: per-layer metrics are finite")
        recorded = spans_by_name(name)
        expect(recorded == USED[name],
               f"{name}: spans recorded exactly where used "
               f"(missing {sorted(USED[name] - recorded)}, "
               f"unexpected {sorted(recorded - USED[name])})")
        if name == "predict_cli":
            expect(metrics["layers.conv.spatial.bwd_ms"] == 0
                   and metrics["training.adam_calls"] == 0,
                   "predict_cli: conv bwd_ms and adam_calls read 0")

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    expect(tracer.wrapped == set().union(*USED.values()),
           "every wrapped function is used by some workload")


def check_perturbed_prediction():
    from broadunet import model
    original = model.Model.predict

    def perturbed(self, x):
        y = original(self, x)
        y[..., : y.shape[2] // 2, :] += 0.01 * (float(y.max() - y.min()) + 1.0)
        return y

    model.Model.predict = perturbed
    try:
        _, printed, _, _ = smoke("predict_cli", trace=0)
    finally:
        model.Model.predict = original
    checked = len(range(0, printed["attempted"], SMOKE["predict_cli"]["check_every"]))
    expect(printed["failed"] == checked and not printed["correct"],
           f"perturbed prediction counted as failed ({printed['failed']} of "
           f"{checked} checked ops)")


def closed_form_macs(net) -> int:
    """MACs of one forward from `Model.conv_specs()` and level extents."""
    cfg = net.config
    bottom = len(cfg.channel_plan) - 1
    total = 0
    for name, spec in net.conv_specs():
        top = name.split(".")[0]
        digits = "".join(ch for ch in top if ch.isdigit())
        if top.startswith(("enc", "reduce_skip")):
            t, level = cfg.lags, int(digits)
        elif top in ("aspp", "reduce_mid"):
            t, level = cfg.lags, bottom
        elif top.startswith("dec"):
            t, level = 1, int(digits)
        else:  # head
            t, level = 1, 0
        out = spec.out_extents((t, cfg.height >> level, cfg.width >> level))
        kt, kh, kw = spec.kernel
        total += (math.prod(out) * kt * kh * kw
                  * spec.in_channels * spec.out_channels)
    return total


def traced_forward(lags, hw, f0):
    """Conv figures of one traced forward: (calls, MACs, reported
    `layers.conv.pad_only_tap_frac`, closed-form MACs)."""
    import numpy as np
    from broadunet import model
    net = model.build_broad_unet(model.ModelConfig(
        lags=lags, height=hw, width=hw, features=1, base_filters=f0))
    net.initialize(seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = ("op", 0)
        net.forward(np.zeros((lags, hw, hw, 1), dtype=np.float32))
        tracer.op = None
    finally:
        tracer.uninstall()
    calls = macs = 0
    for span in tracer.spans:
        if span[0] == "conv.fwd":
            spec, in_shape, _ = span[5]
            calls += 1
            macs += conv_counts(spec, in_shape)[1]
    frac = tracer.per_layer_metrics(0, 1, 0.0, 0.0)[
        "layers.conv.pad_only_tap_frac"]
    return calls, macs, frac, closed_form_macs(net)


def check_counts():
    calls, macs, frac, closed = traced_forward(4, 32, 4)
    expect(calls == 108, f"desk scale: {calls} conv calls per forward")
    expect(macs == closed, f"desk scale: traced MACs {macs} == closed form {closed}")
    expect(abs(frac - 24 / 27) < 1e-12,
           f"desk scale: pad-only ASPP tap fraction {frac:.4f} (want 24/27)")
    calls, macs, frac, closed = traced_forward(12, 288, 8)
    expect(calls == 108, f"paper scale: {calls} conv calls per forward")
    expect(round(macs / 1e9, 2) == 14.60,
           f"paper scale: {macs / 1e9:.4f} GMAC per forward (want 14.60)")
    expect(macs == closed, f"paper scale: traced MACs {macs} == closed form {closed}")
    expect(abs(frac - 8 / 27) < 1e-12,
           f"paper scale: pad-only ASPP tap fraction {frac:.4f} (want 8/27)")


def main() -> int:
    if not os.path.isfile(bench.SRC):
        print(f"error: {bench.SRC} not found; run from the checkout root",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    check_smoke_runs(spec)
    check_perturbed_prediction()
    check_counts()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
