"""Command-line surface: synthesize, preprocess, train, evaluate, inspect.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure
or program fault (a failed gradient check, a diverging training run, a
non-finite model output, a `RuntimeError` such as a parameter that got no
gradient, a `MemoryError` or a stray `KeyError`). `run` writes a JSON
run manifest next to the outputs of every subcommand that writes any, with
the configuration, seed, wall time, peak RSS and artifact checksums.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from . import datapipe, pgm, training
from .archive import FormatError, atomic_write
from .datapipe import DataError, SynthConfig
from .layers import (
    Activation,
    Conv3D,
    ConvSpec,
    ImageLevelPool,
    MaxPoolSpatial,
    UpsampleNearestSpatial,
)
from .model import (
    ARCHS,
    DIVISOR,
    Model,
    ModelConfig,
    dump_feature_maps,
    mini_config,
    persistence_predict,
)

EVAL_COLUMNS = "horizon_minutes,mse,mse_binarized,accuracy,precision,recall"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_run_manifest(args, outputs, extra, wall_time):
    """`run-manifest.json` in `--out-dir`, or beside `--out`; `peak_rss_mb`
    is the process peak when it is written."""
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_checksums": {str(p): _sha256(p) for p in outputs
                               if os.path.isfile(p)},
        **extra,
    }
    directory = getattr(args, "out_dir", None) or os.path.dirname(args.out)
    path = os.path.join(directory or ".", "run-manifest.json")
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _load_model(checkpoint, samples, samples_path, last=(None, None)):
    """A checkpoint's model, which must take the windows of `samples`; the
    `(checkpoint, model)` pair `last` is reused, not reloaded, for its path.
    Only the last model is kept: one per distinct path would hold them all."""
    model = last[1] if last[0] == checkpoint else Model.load(checkpoint)
    if samples.inputs.shape[1:] != model.input_shape():
        raise DataError(
            f"samples in {samples_path} have windows of shape "
            f"{samples.inputs.shape[1:]}, but checkpoint {checkpoint} "
            f"takes {model.input_shape()}")
    return model


def _finite(out, checkpoint, samples_path):
    """`out`, a model output, which must be finite: NaN or inf is a numeric
    failure, raised before anything is written."""
    if not np.isfinite(out).all():
        raise FloatingPointError(f"checkpoint {checkpoint} gives non-finite "
                                 f"values on {samples_path}")
    return out


def _window(samples, index):
    """Input window `index` of `samples`; a bad index is a usage error."""
    if not 0 <= index < len(samples):
        raise ValueError(f"sample index {index} out of range 0..{len(samples) - 1}")
    return samples.inputs[index]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth_gen(args):
    try:
        vy, vx = (float(v) for v in args.velocity.split(","))
    except ValueError:
        raise ValueError(f"--velocity {args.velocity!r} must be two numbers "
                         f"dy,dx") from None
    seq = datapipe.synth_advection(SynthConfig(
        height=args.h, width=args.w, n_frames=args.frames,
        n_blobs=args.blobs, velocity=(vy, vx), blob_sigma=args.sigma,
        seed=args.seed))
    datapipe.save_frames(args.out, seq)
    print(f"wrote {len(seq)} frames of {args.h}x{args.w} to {args.out}")
    return [args.out], {}


def cmd_preprocess(args):
    records = datapipe.archive_load(args.frames)
    seq = datapipe.frames_from_records(records, args.frames)
    try:
        if args.task == "precip":
            out = datapipe.precip_preprocess(seq, args.rain_fraction,
                                             args.train_fraction)
        else:
            if "lats" not in records or "lons" not in records:
                raise DataError(
                    "cloud preprocessing needs 'lats'/'lons' records")
            out = datapipe.cloud_preprocess(seq, records["lats"],
                                            records["lons"])
    except DataError as exc:
        raise DataError(f"frames archive {args.frames}: {exc}") from None
    datapipe.save_frames(args.out, out)
    print(f"kept {len(out)} frames -> {args.out}")
    return [args.out], {"metadata": out.metadata}


def cmd_make_samples(args):
    seq = datapipe.load_frames(args.frames)
    try:
        samples = datapipe.make_samples(seq, args.lags, args.horizon)
    except DataError as exc:
        raise DataError(f"frames archive {args.frames}: {exc}") from None
    datapipe.save_samples(args.out, samples)
    print(f"{len(samples)} samples (lags={args.lags}, horizon={args.horizon}) "
          f"-> {args.out}")
    return [args.out], {}


def _missing_dirs(path) -> list:
    """The directories that `os.makedirs(path)` would make, deepest first."""
    missing, path = [], os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def cmd_train(args):
    checkpoint = os.path.join(args.out_dir, "checkpoint.btar")
    # training checkpoints its best epoch here; it becomes `checkpoint` only
    # once the whole run has succeeded
    staged = checkpoint + ".tmp"
    train_cfg = training.TrainConfig(
        loss=args.loss, learning_rate=args.lr, batch_size=args.batch,
        max_epochs=args.epochs, seed=args.seed, checkpoint_path=staged)
    samples = datapipe.load_samples(args.samples)
    train_set, val_set, test_set = datapipe.split_counts(
        samples, args.train_n, args.val_n, args.test_n)
    _, lags, h, w, f = train_set.inputs.shape
    if h % DIVISOR or w % DIVISOR:
        raise DataError(f"samples in {args.samples} have {h}x{w} frames; the "
                        f"network takes H and W divisible by {DIVISOR}")
    head = "binary" if args.loss == "bce" else "regression"
    cfg = ModelConfig(lags=lags, height=h, width=w, features=f,
                      base_filters=args.f0, factorized=args.factorized,
                      dropout_rate=args.dropout, head=head)
    model = ARCHS[args.arch](cfg).initialize(seed=args.seed)
    # every usage error above is raised before anything is written; a
    # failure below removes what the run wrote and the directories it made
    made = _missing_dirs(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    history_path = os.path.join(args.out_dir, "history.csv")
    try:
        result = training.train(model, train_set, val_set, train_cfg)
        best = Model.load(staged)
        # test MSE in the frames' own units, as `eval` scores it
        report = training.evaluate(best.predict, test_set)
        baseline = training.evaluate(persistence_predict, test_set)
        training.save_history_csv(result.history, history_path)
        os.replace(staged, checkpoint)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(staged)
        with contextlib.suppress(OSError):  # stop at one that is not empty
            for directory in made:
                os.rmdir(directory)
        raise
    print(f"best epoch {result.best_epoch}: val loss {result.best_val_loss:.6g}")
    print(f"test mse {report.mse:.6g} (persistence {baseline.mse:.6g})")
    return [checkpoint, history_path], {
        "lags": lags, "horizon": samples.horizon,
        "best_epoch": result.best_epoch, "best_val_loss": result.best_val_loss,
        "test_mse": report.mse, "persistence_test_mse": baseline.mse}


def cmd_eval(args):
    if not np.isfinite(args.threshold):
        raise ValueError(f"--threshold must be finite, got {args.threshold}")
    rows, last = [], (None, None)
    for path in args.samples:
        samples = datapipe.load_samples(path)
        meta = samples.metadata
        checkpoint = args.checkpoint.replace("{h}", str(samples.horizon))
        last = checkpoint, _load_model(checkpoint, samples, path, last)
        report = training.evaluate(
            lambda x: _finite(last[1].predict(x), checkpoint, path), samples,
            args.threshold)
        rows.append((samples.horizon * float(meta["cadence_minutes"]), report))
    with atomic_write(args.out, "w", newline="\n") as f:
        f.write(EVAL_COLUMNS + "\n")
        for minutes, r in rows:
            f.write(f"{minutes!r},{r.mse!r},{r.mse_binarized!r},"
                    f"{r.accuracy!r},{r.precision!r},{r.recall!r}\n")
    print(f"wrote {len(rows)} row(s) to {args.out}")
    return [args.out], {}


def cmd_predict(args):
    samples = datapipe.load_samples(args.samples)
    model = _load_model(args.checkpoint, samples, args.samples)
    y = _finite(model.predict(_window(samples, args.index)), args.checkpoint,
                args.samples)
    lo, hi = pgm.write_pgm(args.out, y[0, :, :, 0])
    print(f"prediction image -> {args.out} (scale {lo:.6g}..{hi:.6g})")
    return [args.out], {"pgm_scale": {"lo": lo, "hi": hi}}


def cmd_params(args):
    model = ARCHS[args.arch](ModelConfig(
        lags=args.t, height=args.hw, width=args.hw, features=args.f,
        base_filters=args.f0, factorized=args.factorized))
    total, table = model.count_params()
    for name, count in table:
        print(f"{name}\t{count}")
    out_shape = model.out_shape()
    print(f"input\t{model.input_shape()}")
    print(f"output\t{out_shape}")
    print(f"total\t{total}")
    return [], {}


def _primitive_layer_checks():
    # 32 channels on a 24x24 map: the plan spans two row blocks, the last
    # one partial, so the blocked backward is checked too
    conv = Conv3D(ConvSpec((2, 3, 3), 32, 4))
    dilated = Conv3D(ConvSpec((1, 3, 3), 2, 2, dilation=(1, 2, 2)))
    valid = Conv3D(ConvSpec((2, 3, 3), 2, 2, padding="valid"))
    # rate 6 boxes 8% of the grid's MACs on a 9x9 map, and 20.3% on one
    # 11x11 frame, just inside the boxed layout's bound of a quarter
    atrous = ConvSpec((1, 3, 3), 3, 2, dilation=(1, 6, 6))
    # every tap of this conv on one pixel reads padding, so it boxes to the
    # bias
    tapless = Conv3D(ConvSpec((1, 2, 2), 1, 1, dilation=(1, 3, 3)))
    return [
        ("conv3d_same", conv, (2, 24, 24, 32)),
        ("conv3d_dilated", dilated, (2, 8, 8, 2)),
        ("conv3d_atrous", Conv3D(atrous), (2, 9, 9, 3)),
        ("conv3d_atrous_edge", Conv3D(atrous), (1, 11, 11, 3)),
        ("conv3d_tapless", tapless, (1, 1, 1, 1)),
        ("conv3d_valid", valid, (4, 8, 8, 2)),
        ("maxpool", MaxPoolSpatial(), (2, 6, 6, 3)),
        ("upsample", UpsampleNearestSpatial(), (2, 4, 4, 3)),
        ("relu", Activation("relu"), (2, 5, 5, 2)),
        ("sigmoid", Activation("sigmoid"), (2, 5, 5, 2)),
        ("image_level_pool", ImageLevelPool(), (2, 6, 6, 3)),
    ]


def cmd_grad_check(args):
    if not 0 < args.tol < np.inf:
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    if args.arch == "layers":
        checks = _primitive_layer_checks()
    else:
        arch, _, binary = args.arch.partition("-mini")
        cfg = mini_config(head="binary" if binary else "regression")
        model = ARCHS[arch](cfg).initialize(seed=args.seed, dtype=np.float64)
        checks = [(args.arch, model.root, model.input_shape())]
    failed = False
    for name, layer, shape in checks:
        report = training.grad_check(layer, shape, tol=args.tol,
                                     seed=args.seed)
        status = "pass" if report.passed else "FAIL"
        print(f"{status} {name}: max rel err {report.max_rel_error:.3e} "
              f"(worst {report.worst})")
        failed |= not report.passed
    if failed:
        raise FloatingPointError("gradient check failed")
    return [], {}


def cmd_dump_features(args):
    samples = datapipe.load_samples(args.samples)
    model = _load_model(args.checkpoint, samples, args.samples)
    maps = dump_feature_maps(model, _window(samples, args.index), args.block)
    for _, arr in maps:
        _finite(arr, args.checkpoint, args.samples)
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = [os.path.join(args.out_dir, f"block{args.block}_features.btar")]
    datapipe.archive_save(outputs[0], dict(maps))
    scales = {}
    for label, arr in maps:
        path = os.path.join(args.out_dir, f"block{args.block}_{label}.pgm")
        lo, hi = pgm.write_pgm(path, arr[0, :, :, 0])
        scales[label] = {"lo": lo, "hi": hi}
        outputs.append(path)
    print(f"wrote {len(maps)} branch maps to {args.out_dir}")
    return outputs, {"pgm_scales": scales}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--arch", default="broad-unet", choices=list(ARCHS))
    p.add_argument("--t", type=int, default=12, help="input lags")
    p.add_argument("--hw", type=int, default=288, help="height = width")
    p.add_argument("--f", type=int, default=1, help="feature channels")
    p.add_argument("--f0", type=int, default=64, help="base filter count")
    p.add_argument("--factorized", action=argparse.BooleanOptionalAction,
                   default=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brunet", description="Broad-UNet nowcasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic advection sequence")
    p.add_argument("--out", required=True)
    p.add_argument("--h", type=int, default=32)
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--blobs", type=int, default=3)
    p.add_argument("--velocity", default="0,1", help="dy,dx per frame")
    p.add_argument("--sigma", type=float, default=2.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("preprocess", help="run a preprocessing pipeline")
    p.add_argument("--task", required=True, choices=["precip", "cloud"])
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rain-fraction", type=float, default=0.5)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("make-samples", help="window frames into samples")
    p.add_argument("--frames", required=True)
    p.add_argument("--lags", type=int, required=True)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_samples)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--samples", required=True)
    p.add_argument("--arch", default="broad-unet", choices=list(ARCHS))
    p.add_argument("--f0", type=int, default=2)
    p.add_argument("--train-n", type=int, default=24)
    p.add_argument("--val-n", type=int, default=8)
    p.add_argument("--test-n", type=int, default=8)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--loss", default="mse", choices=["mse", "bce"])
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--factorized", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint path; {h} is each samples file's horizon")
    p.add_argument("--samples", required=True, nargs="+",
                   help="samples files, one CSV row each")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict one sample and write a PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("params", help="parameter table and shape contract")
    _add_model_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("grad-check", help="finite-difference gradient checks")
    p.add_argument("--arch", default="broad-unet-mini",
                   choices=["layers", *(f"{arch}-mini{head}" for arch in ARCHS
                                        for head in ("", "-binary"))])
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("dump-features", help="branch feature maps of one block")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_dump_features)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        t0 = time.monotonic()
        outputs, extra = args.func(args)
        if outputs:
            _write_run_manifest(args, outputs, extra, time.monotonic() - t0)
        return 0
    except (FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, KeyError) as exc:
        # program faults too; their message alone ("'w'", or none) says little
        kind = "out of memory" if isinstance(exc, MemoryError) else "KeyError"
        print(f"error: {kind}" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
