"""Run every workload untraced and traced, and print one table.

Run from the root of a checkout:

    python3 perfbench/report.py [--seed N]

Every workload of BENCHMARK.json runs for its `run_seconds` in a fresh
process per mode, through `perfbench/run.py`.
The report prints the machine record, each workload's end-to-end and named
metrics with units, its per-layer table from the traced run, the tracing
overhead (traced over untraced `sample_ms`), the conv share of step time on
step_paper, and forward+backward times at the two configurations the
ROADMAP baseline quotes, measured here with the same settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

# ROADMAP "Recent": one forward+backward per sample, BRUNET_THREADS=1.
ROADMAP_BASELINE = (
    ("(4, 32, 32, 1) f0=4", dict(lags=4, hw=32, f0=4), 24.0, 20),
    ("(12, 64, 64, 1) f0=8", dict(lags=12, hw=64, f0=8), 229.0, 10),
)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    tagged = {line.partition(" ")[0]: json.loads(line.partition(" ")[2])
              for line in lines[:-1] if line.startswith(("machine ", "detail "))}
    return tagged["machine"], tagged["detail"], json.loads(lines[-1])


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def roadmap_baseline():
    """Median forward+backward ms per sample at the ROADMAP configs."""
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import run  # noqa: F401  (sets BRUNET_THREADS before numpy loads)
    import numpy as np
    from broadunet import model, training
    rows = []
    for label, c, roadmap_ms, reps in ROADMAP_BASELINE:
        net = model.build_broad_unet(model.ModelConfig(
            lags=c["lags"], height=c["hw"], width=c["hw"], features=1,
            base_filters=c["f0"])).initialize(seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((c["lags"], c["hw"], c["hw"], 1), dtype=np.float32)
        t = rng.random((1, c["hw"], c["hw"], 1), dtype=np.float32)
        times = []
        for _ in range(reps + 1):  # the first pass warms up and is dropped
            t0 = time.perf_counter()
            net.zero_grads()
            _, grad = training.loss_mse(net.forward(x, train=True, rng=rng), t)
            net.backward(grad)
            times.append(1e3 * (time.perf_counter() - t0))
        times = times[1:]
        q1, _, q3 = statistics.quantiles(times, n=4)
        rows.append((label, statistics.median(times), q1, q3, roadmap_ms, reps))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    for name in workloads:
        machine, detail, plain = run_once(name, args.seed, seconds, 0)
        if name == workloads[0]:
            print("machine", json.dumps(machine))
        _, _, traced = run_once(name, args.seed, seconds, 1)
        print(f"\n== {name} (seed {args.seed}, {seconds} s, "
              f"{plain['attempted']} ops, {plain['failed']} failed)")
        for metric, v in detail["metrics"].items():
            print(f"  {metric:34s} {fmt(v['value']):>14s} {v['unit']}")
        layers = {m: v["value"] for m, v in traced["metrics"].items()}
        print(f"  -- traced run ({traced['attempted']} ops, per op)")
        for metric, v in traced["metrics"].items():
            print(f"  {metric:34s} {fmt(v['value']):>14s} {v['unit']}")
        untraced_ms = plain["metrics"]["sample_ms"]["value"]
        overhead = layers["trace.sample_ms"] / untraced_ms - 1.0
        print(f"  {'tracing overhead':34s} {fmt(100 * overhead):>14s} % of "
              "untraced sample_ms (two runs; includes run-to-run drift)")
        if name == "step_paper":
            conv_ms = sum(v for m, v in layers.items()
                          if m.startswith("layers.conv.")
                          and m.endswith(("fwd_ms", "bwd_ms")))
            share = conv_ms / layers["trace.sample_ms"]
            print(f"  {'conv fwd+bwd self share of step':34s} "
                  f"{fmt(100 * share):>14s} %")
    print("\n== forward+backward per sample vs the ROADMAP baseline")
    for label, median, q1, q3, roadmap_ms, reps in roadmap_baseline():
        print(f"  {label:22s} {median:8.1f} ms (quartiles {q1:.1f}..{q3:.1f}, "
              f"{reps} reps)  ROADMAP {roadmap_ms:.0f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
