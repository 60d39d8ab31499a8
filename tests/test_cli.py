import builtins
import dataclasses
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from broadunet import datapipe
from broadunet.archive import archive_load, archive_save, json_record
from broadunet.blocks import MultiScaleBlock
from broadunet.cli import EVAL_COLUMNS, run
from broadunet.datapipe import load_frames, load_samples
from broadunet.layers import Conv3D
from broadunet.model import ARCHS, Model, ModelConfig, persistence_predict
from broadunet.pgm import read_pgm, write_pgm
from broadunet.training import evaluate, save_history_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic frames, samples and a small trained run shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    frames = str(root / "frames.btar")
    samples = str(root / "samples.btar")
    run_dir = str(root / "run")
    assert run(["synth-gen", "--out", frames, "--h", "16", "--w", "16",
                "--frames", "15", "--seed", "3"]) == 0
    assert run(["make-samples", "--frames", frames, "--lags", "2",
                "--out", samples]) == 0
    assert run(["train", "--samples", samples, "--arch", "broad-unet",
                "--f0", "1", "--train-n", "8", "--val-n", "3", "--test-n", "2",
                "--epochs", "2", "--batch", "4", "--seed", "0",
                "--out-dir", run_dir]) == 0
    return {"root": root, "frames": frames, "samples": samples,
            "run_dir": run_dir,
            "checkpoint": os.path.join(run_dir, "checkpoint.btar")}


@pytest.fixture(scope="module")
def train_samples(tmp_path_factory):
    """36 windows of lags 4 from 40 synthetic 16x16 frames (seed 0), enough
    for an 8/4/4 split."""
    root = tmp_path_factory.mktemp("train")
    frames, samples = str(root / "frames.btar"), str(root / "samples.btar")
    assert run(["synth-gen", "--out", frames, "--h", "16", "--w", "16",
                "--frames", "40"]) == 0
    assert run(["make-samples", "--frames", frames, "--lags", "4",
                "--out", samples]) == 0
    return samples


@pytest.fixture
def archive_loads(monkeypatch):
    """The paths that `datapipe.archive_load` reads, in order."""
    loads = []

    def counting_load(path):
        loads.append(path)
        return archive_load(path)

    monkeypatch.setattr(datapipe, "archive_load", counting_load)
    return loads


def horizon_samples(workspace, folder, horizons=(1, 2)):
    """Paths of lags-2 samples files cut from the workspace frames, one per
    horizon."""
    paths = [str(folder / f"samples{h}.btar") for h in horizons]
    for h, path in zip(horizons, paths):
        assert run(["make-samples", "--frames", workspace["frames"],
                    "--lags", "2", "--horizon", str(h), "--out", path]) == 0
    return paths


def edit_metadata(**changes):
    """An edit of an archive's records that sets keys of its metadata; a
    None value drops the key."""
    def edit(records):
        meta = {**json.loads(bytes(records["metadata"])), **changes}
        records["metadata"] = json_record(
            {k: v for k, v in meta.items() if v is not None})
    return edit


def nan_checkpoint(workspace, path):
    """`path`, a copy of the workspace checkpoint with every weight NaN."""
    records = archive_load(workspace["checkpoint"])
    archive_save(path, {name: arr if name == "__manifest__"
                        else np.full_like(arr, np.nan)
                        for name, arr in records.items()})
    return path


def error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


@pytest.fixture(scope="module")
def raw_radar(tmp_path_factory):
    """Three synthetic frames at the radar's raw 765x700 extent."""
    path = str(tmp_path_factory.mktemp("raw") / "raw.btar")
    assert run(["synth-gen", "--out", path, "--h", "765", "--w", "700",
                "--frames", "3", "--sigma", "40"]) == 0
    return path


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run([]) == 1

    def test_help_is_success(self):
        assert run(["--help"]) == 0

    def test_unknown_flag(self):
        assert run(["synth-gen", "--out", "x.btar", "--bogus"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run(["make-samples", "--frames", str(tmp_path / "absent.btar"),
                    "--lags", "2", "--out", str(tmp_path / "s.btar")]) == 2

    def test_malformed_archive_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.btar"
        bad.write_bytes(b"not an archive at all")
        assert run(["make-samples", "--frames", str(bad), "--lags", "2",
                    "--out", str(tmp_path / "s.btar")]) == 2

    def test_invalid_value_is_usage_error(self, workspace, tmp_path):
        # more samples requested than exist
        assert run(["train", "--samples", workspace["samples"],
                    "--train-n", "99", "--val-n", "9", "--test-n", "9",
                    "--out-dir", str(tmp_path / "r")]) == 1

    def test_train_needs_samples_and_writes_no_out_dir(self, tmp_path):
        out_dir = tmp_path / "r"
        assert run(["train", "--out-dir", str(out_dir)]) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--batch", "-1", "batch_size"),
        ("--batch", "0", "batch_size"),
        ("--epochs", "0", "max_epochs"),
        *(("--lr", value, "learning_rate")
          for value in ("nan", "inf", "-1", "0")),
    ])
    def test_bad_training_count_is_usage_error(self, train_samples, tmp_path,
                                               capsys, flag, value, field):
        out_dir = tmp_path / "r"
        assert run(["train", "--samples", train_samples, "--train-n", "8",
                    "--val-n", "4", "--test-n", "4", flag, value,
                    "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--dropout", "1.5"), ("--f0", "0"), ("--train-n", "0"),
    ])
    def test_bad_model_or_split_writes_nothing(self, train_samples, tmp_path,
                                               capsys, flag, value):
        out_dir = tmp_path / "r"
        assert run(["train", "--samples", train_samples, "--train-n", "8",
                    "--val-n", "4", "--test-n", "4", "--epochs", "1", flag,
                    value, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value,named", [
        ("--sigma", "0", "sigma"), ("--sigma", "inf", "sigma"),
        ("--sigma", "-2", "sigma"), ("--sigma", "nan", "sigma"),
        ("--velocity", "nan,0", "velocity"), ("--velocity", "inf,0", "velocity"),
        *(("--velocity", value, f"--velocity '{value}' must be two numbers dy,dx")
          for value in ("1", "1,2,3", "a,b")),
    ], ids=["sigma_0", "sigma_inf", "sigma_negative", "sigma_nan",
            "velocity_nan", "velocity_inf", "velocity_one_value",
            "velocity_three_values", "velocity_not_numbers"])
    def test_bad_synth_values_are_usage_errors(self, tmp_path, capsys, flag,
                                               value, named):
        out = tmp_path / "f.btar"
        assert run(["synth-gen", "--out", str(out), "--frames", "2", flag,
                    value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert os.listdir(tmp_path) == []

    def test_train_has_no_threshold_flag(self, workspace, tmp_path):
        # the test report keeps only the MSE, so a threshold had no effect
        out_dir = tmp_path / "r"
        assert run(["train", "--samples", workspace["samples"],
                    "--threshold", "0.5",
                    "--out-dir", str(out_dir)]) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--train-fraction", "5"), ("--train-fraction", "-1"),
        ("--train-fraction", "0"), ("--train-fraction", "nan"),
        ("--rain-fraction", "1.5"), ("--rain-fraction", "nan"),
        ("--rain-fraction", "-0.5"),
    ])
    def test_bad_precip_fractions_are_usage_errors(
            self, raw_radar, tmp_path, capsys, flag, value):
        assert run(["preprocess", "--task", "precip", "--frames", raw_radar,
                    "--out", str(tmp_path / "clean.btar"), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[2:].replace("-", " ") in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,value", [
        ("--threshold", "nan"), ("--threshold", "inf"),
    ])
    def test_bad_eval_values_are_usage_errors(self, workspace, tmp_path,
                                              capsys, flag, value):
        assert run(["eval", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"],
                    "--out", str(tmp_path / "m.csv"), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be finite")
        assert os.listdir(tmp_path) == []

    def test_failed_grad_check_is_numeric_error(self, capsys):
        assert run(["grad-check", "--arch", "layers", "--tol", "1e-18"]) == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_bad_grad_check_tol_is_usage_error(self, capsys, tol):
        # nan, -1 and 0 would fail every check, inf would pass any error
        assert run(["grad-check", "--arch", "layers", "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: --tol must be finite and positive")
        assert out == ""  # no check ran


class TestSynthAndSamples:
    def test_synth_gen_output(self, workspace):
        seq = load_frames(workspace["frames"])
        assert seq.frames.shape == (15, 16, 16, 1)
        assert seq.cadence_minutes == 5.0

    def test_synth_gen_seeded(self, tmp_path):
        paths = [str(tmp_path / f"f{i}.btar") for i in range(2)]
        for p in paths:
            assert run(["synth-gen", "--out", p, "--h", "16", "--w", "16",
                        "--frames", "4", "--seed", "9"]) == 0
        a, b = (load_frames(p).frames for p in paths)
        np.testing.assert_array_equal(a, b)

    def test_make_samples_count(self, workspace):
        samples = load_samples(workspace["samples"])
        assert len(samples) == 15 - 2 - 1 + 1
        assert samples.inputs.shape == (13, 2, 16, 16, 1)
        assert samples.targets.shape == (13, 1, 16, 16, 1)

    def test_run_manifest_written(self, workspace, tmp_path, monkeypatch):
        """Each subcommand that writes an artifact writes a manifest beside
        it, in its own directory, listing and checksumming every output."""
        d = {name: tmp_path / name for name in (
            "synth-gen", "preprocess", "make-samples", "eval", "predict")}
        for path in d.values():
            path.mkdir()
        given = ["--checkpoint", workspace["checkpoint"],
                 "--samples", workspace["samples"]]
        commands = [
            ["synth-gen", "--out", f"{d['synth-gen']}/raw.btar", "--h", "765",
             "--w", "700", "--frames", "2", "--sigma", "40"],
            ["preprocess", "--task", "precip", "--frames",
             f"{d['synth-gen']}/raw.btar", "--out",
             f"{d['preprocess']}/clean.btar", "--rain-fraction", "0.1"],
            ["make-samples", "--frames", workspace["frames"], "--lags", "2",
             "--out", f"{d['make-samples']}/s.btar"],
            ["train", "--samples", workspace["samples"], "--f0", "1",
             "--epochs", "1", "--train-n", "4", "--val-n", "2", "--test-n", "2",
             "--out-dir", str(tmp_path / "train")],
            ["eval", *given, "--out", f"{d['eval']}/m.csv"],
            ["predict", *given, "--out", f"{d['predict']}/p.pgm"],
            ["dump-features", *given, "--out-dir",
             str(tmp_path / "dump-features")],
        ]
        for argv in commands:
            assert run(argv) == 0, argv
            folder = tmp_path / argv[0]
            manifest = json.loads((folder / "run-manifest.json").read_text())
            assert manifest["command"] == argv[0]
            assert manifest["config"]["command"] == argv[0]
            assert manifest["wall_time_s"] >= 0
            assert manifest["peak_rss_mb"] > 0
            outputs = manifest["outputs"]
            if "--out" in argv:  # one data file, and no side file beside it
                assert outputs == [argv[argv.index("--out") + 1]]
            assert sorted(os.listdir(folder)) == sorted(
                [os.path.basename(p) for p in outputs] + ["run-manifest.json"])
            assert manifest["artifact_checksums"] == {
                p: hashlib.sha256(open(p, "rb").read()).hexdigest()
                for p in outputs}
        # subcommands that write no artifact write no manifest either
        monkeypatch.chdir(tmp_path / "eval")
        assert run(["params", "--t", "2", "--hw", "16", "--f0", "1"]) == 0
        assert run(["grad-check", "--arch", "layers"]) == 0
        assert sorted(os.listdir()) == ["m.csv", "run-manifest.json"]


class TestPreprocess:
    @pytest.mark.parametrize("task", ["precip", "cloud"])
    def test_reads_the_frames_archive_once(self, raw_radar, tmp_path,
                                           archive_loads, task):
        frames = raw_radar
        if task == "cloud":
            rng = np.random.default_rng(3)
            frames = str(tmp_path / "cloud_raw.btar")
            archive_save(frames, {
                "frames": rng.integers(1, 16, (2, 20, 24, 1)).astype(np.float32),
                "metadata": json_record({"cadence_minutes": 15.0}),
                "lats": np.linspace(53, 40, 20),
                "lons": np.linspace(-7, 11, 24)})
        out = str(tmp_path / "clean.btar")
        assert run(["preprocess", "--task", task, "--frames", frames,
                    "--out", out]) == 0
        assert archive_loads == [frames]
        assert len(load_frames(out)) >= 1


class TestTrain:
    def test_outputs_exist(self, workspace):
        run_dir = workspace["run_dir"]
        assert os.path.isfile(workspace["checkpoint"])
        history = open(os.path.join(run_dir, "history.csv")).read().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 1 + 2  # header + one row per epoch
        manifest = json.loads(
            open(os.path.join(run_dir, "run-manifest.json")).read())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 0
        assert "test_mse" in manifest
        assert "persistence_test_mse" in manifest
        # the staged checkpoint became checkpoint.btar; no temp file is left
        assert sorted(os.listdir(run_dir)) == [
            "checkpoint.btar", "history.csv", "run-manifest.json"]

    # square and non-square frames; a given and a defaulted (1) horizon
    @pytest.mark.parametrize("w,horizon", [(16, 16), (32, None)])
    def test_manifest_records_the_samples_values(self, tmp_path, w, horizon):
        frames, samples = str(tmp_path / "f.btar"), str(tmp_path / "s.btar")
        assert run(["synth-gen", "--out", frames, "--h", "16", "--w", str(w),
                    "--frames", "32"]) == 0
        assert run(["make-samples", "--frames", frames, "--lags", "4",
                    "--out", samples]
                   + ([] if horizon is None else ["--horizon", str(horizon)])
                   ) == 0
        run_dir = tmp_path / "run"
        assert run(["train", "--samples", samples, "--f0", "1",
                    "--train-n", "6", "--val-n", "3", "--test-n", "2",
                    "--epochs", "1", "--out-dir", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "run-manifest.json").read_text())
        assert (manifest["lags"], manifest["horizon"]) == (4, horizon or 1)

    def test_checkpoint_loads_and_predicts(self, workspace):
        model = Model.load(workspace["checkpoint"])
        samples = load_samples(workspace["samples"])
        assert model.predict(samples.inputs[0]).shape == (1, 16, 16, 1)

    def test_byte_identical_reruns(self, workspace, tmp_path):
        dirs = [str(tmp_path / f"run{i}") for i in range(2)]
        for d in dirs:
            assert run(["train", "--samples", workspace["samples"],
                        "--arch", "unet", "--f0", "1", "--train-n", "6",
                        "--val-n", "2", "--test-n", "2",
                        "--epochs", "2", "--batch", "4", "--seed", "21",
                        "--out-dir", d]) == 0
        for name in ("history.csv", "checkpoint.btar"):
            blobs = [open(os.path.join(d, name), "rb").read() for d in dirs]
            assert blobs[0] == blobs[1], f"{name} differs between reruns"

    def test_divergence_is_numeric_error(self, train_samples, tmp_path,
                                         capsys):
        out_dir = tmp_path / "diverged"
        assert run(["train", "--samples", train_samples, "--train-n", "8",
                    "--val-n", "4", "--test-n", "4", "--epochs", "3",
                    "--lr", "1e6", "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged in epoch 1")
        # the directory train made is gone again
        assert os.listdir(tmp_path) == []

    def test_divergence_keeps_the_files_already_there(self, train_samples,
                                                      tmp_path, capsys):
        # the run diverges after a best epoch has been checkpointed
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        (out_dir / "checkpoint.btar").write_bytes(b"old!")
        (out_dir / "history.csv").write_bytes(b"epoch\n")
        before = _tree(tmp_path)
        capsys.readouterr()
        assert run(["train", "--samples", train_samples, "--train-n", "8",
                    "--val-n", "4", "--test-n", "4", "--epochs", "8",
                    "--batch", "4", "--lr", "0.3",
                    "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert len(error_lines(err)) == 1 and "Traceback" not in err
        epoch = int(err.split("diverged in epoch ")[1].split(":")[0])
        assert epoch >= 2, err
        assert _tree(tmp_path) == before

    def test_divergence_prints_no_numpy_warnings(self, train_samples,
                                                 tmp_path, capfd):
        # a child process shows stderr exactly as a user sees it, without
        # the test runner's own warning capture
        import broadunet
        src = os.path.dirname(os.path.dirname(broadunet.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = subprocess.run(
            [sys.executable, "-c",
             "import sys; from broadunet.cli import run; "
             "sys.exit(run(sys.argv[1:]))",
             "train", "--samples", train_samples, "--train-n", "8",
             "--val-n", "4", "--test-n", "4", "--epochs", "3",
             "--lr", "1e6", "--out-dir", str(tmp_path / "diverged")],
            env=env).returncode
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("error: training diverged in epoch 1")
        assert "RuntimeWarning" not in err

    def test_dropped_gradient_is_a_program_fault(self, train_samples, tmp_path,
                                                 monkeypatch, capsys):
        # a backward that never stores the block merge convs' bias gradient
        merges, build, backward = set(), MultiScaleBlock.__init__, Conv3D.backward

        def recording_build(block, *args, **kwargs):
            build(block, *args, **kwargs)
            merges.add(id(block.merge))

        def dropping_backward(conv, grad):
            gx = backward(conv, grad)
            if id(conv) in merges:
                del conv.grads["b"]
            return gx

        monkeypatch.setattr(MultiScaleBlock, "__init__", recording_build)
        monkeypatch.setattr(Conv3D, "backward", dropping_backward)
        out_dir = tmp_path / "runs" / "run"
        code = run(["train", "--samples", train_samples, "--arch",
                    "broad-unet", "--f0", "1", "--train-n", "8",
                    "--val-n", "3", "--test-n", "3", "--epochs", "1",
                    "--batch", "4", "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == [
            "error: parameter enc0.merge.b has no gradient"]
        assert "Traceback" not in err
        # both directories train made are gone again
        assert os.listdir(tmp_path) == []

    def test_precip_test_mse_is_denormalized(self, tmp_path):
        raw, clean = str(tmp_path / "raw.btar"), str(tmp_path / "clean.btar")
        samples, run_dir = str(tmp_path / "s.btar"), tmp_path / "run"
        assert run(["synth-gen", "--out", raw, "--h", "765", "--w", "700",
                    "--frames", "4", "--sigma", "40"]) == 0
        assert run(["preprocess", "--task", "precip", "--frames", raw,
                    "--out", clean]) == 0
        assert run(["make-samples", "--frames", clean, "--lags", "1",
                    "--out", samples]) == 0
        assert run(["train", "--samples", samples, "--arch", "unet",
                    "--f0", "1", "--train-n", "1", "--val-n", "1",
                    "--test-n", "1", "--epochs", "1",
                    "--out-dir", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "run-manifest.json").read_text())
        windows = load_samples(samples)
        norm_factor = windows.metadata["norm_factor"]
        assert norm_factor != 1.0
        best = Model.load(str(run_dir / "checkpoint.btar"))
        test_set = windows.subset(np.s_[2:3])
        unscaled = dataclasses.replace(test_set, metadata={})
        for key, predictor in [("test_mse", best.predict),
                               ("persistence_test_mse", persistence_predict)]:
            report = evaluate(predictor, test_set)
            assert manifest[key] == report.mse, key
            assert manifest[key] != evaluate(predictor, unscaled).mse, key

    def test_different_seed_changes_history(self, workspace, tmp_path):
        out = []
        for seed in ("21", "22"):
            d = str(tmp_path / f"s{seed}")
            assert run(["train", "--samples", workspace["samples"],
                        "--arch", "unet", "--f0", "1", "--train-n", "6",
                        "--val-n", "2", "--test-n", "2",
                        "--epochs", "2", "--batch", "4", "--seed", seed,
                        "--out-dir", d]) == 0
            out.append(open(os.path.join(d, "history.csv")).read())
        assert out[0] != out[1]


class TestEval:
    def test_csv_columns_and_values(self, workspace, tmp_path):
        out = str(tmp_path / "metrics.csv")
        assert run(["eval", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"],
                    "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == EVAL_COLUMNS
        assert lines[0] == ("horizon_minutes,mse,mse_binarized,accuracy,"
                            "precision,recall")
        assert len(lines) == 2
        values = [float(v) for v in lines[1].split(",")]
        assert values[0] == 5.0  # horizon 1 at 5-minute cadence
        assert all(np.isfinite(values))
        for v in values[3:]:
            assert 0.0 <= v <= 1.0

    # the shell brace forms that stand in for the old `--horizons 1-2` and
    # `--horizons 1,2` calls, as the README's eval example uses them
    @pytest.mark.parametrize("brace", ["{1..2}", "{1,2}"], ids=["1-2", "1,2"])
    def test_horizons_fill_templated_paths(self, workspace, tmp_path,
                                           archive_loads, brace):
        # each samples file is one row, scored by the checkpoint its own
        # horizon names
        for h in (1, 2):
            shutil.copyfile(workspace["checkpoint"], tmp_path / f"ckpt{h}.btar")
        samples = horizon_samples(workspace, tmp_path)
        single = []
        for h in (1, 2):
            out = tmp_path / f"single{h}.csv"
            assert run(["eval", "--checkpoint", str(tmp_path / f"ckpt{h}.btar"),
                        "--samples", str(tmp_path / f"samples{h}.btar"),
                        "--out", str(out)]) == 0
            single.append(out.read_text().splitlines()[1])
        archive_loads.clear()
        out = tmp_path / "metrics.csv"
        expanded = subprocess.run(
            ["bash", "-c", "printf '%s\\n' "
             f"{shlex.quote(str(tmp_path / 'samples'))}{brace}.btar"],
            capture_output=True, text=True, check=True).stdout.split()
        assert expanded == samples
        assert run(["eval", "--checkpoint", str(tmp_path / "ckpt{h}.btar"),
                    "--samples", *expanded, "--out", str(out)]) == 0
        assert archive_loads == samples
        lines = out.read_text().splitlines()
        assert lines == [EVAL_COLUMNS, *single]
        assert [float(line.split(",")[0]) for line in lines[1:]] == [5.0, 10.0]
        assert lines[1].split(",")[1] != lines[2].split(",")[1]

    def test_templated_checkpoint_takes_the_samples_horizon(
            self, workspace, tmp_path, archive_loads):
        # the samples file, not the template, names the horizon: one
        # horizon-1 file is one row at 5 minutes
        shutil.copyfile(workspace["checkpoint"], tmp_path / "ck1.btar")
        out = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", str(tmp_path / "ck{h}.btar"),
                    "--samples", workspace["samples"], "--out", str(out)]) == 0
        assert archive_loads == [workspace["samples"]]
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 5.0

    @pytest.mark.parametrize("template,loaded", [
        ("ck.btar", ["ck.btar"]), ("ck{h}.btar", ["ck1.btar", "ck2.btar"]),
    ], ids=["plain", "templated"])
    def test_each_checkpoint_is_loaded_once(self, workspace, tmp_path,
                                            monkeypatch, template, loaded):
        for name in ("ck.btar", "ck1.btar", "ck2.btar"):
            shutil.copyfile(workspace["checkpoint"], tmp_path / name)
        samples = horizon_samples(workspace, tmp_path)
        loads = []

        def counting_load(path):
            loads.append(os.path.basename(path))
            return archive_load(path)

        monkeypatch.setattr("broadunet.model.archive_load", counting_load)
        out = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", str(tmp_path / template),
                    "--samples", *samples, "--out", str(out)]) == 0
        assert loads == loaded
        assert len(out.read_text().splitlines()) == 3

    # 15-minute frames, as the cloud-cover task has, and an odd cadence
    @pytest.mark.parametrize("cadence,labels", [
        (15.0, ["15.0", "30.0"]), (2.5, ["2.5", "5.0"]),
    ], ids=["15min", "2.5min"])
    def test_rows_take_the_cadence_of_the_frames(self, workspace, tmp_path,
                                                 cadence, labels):
        records = archive_load(workspace["frames"])
        edit_metadata(cadence_minutes=cadence)(records)
        frames = str(tmp_path / "frames.btar")
        archive_save(frames, records)
        samples = horizon_samples({"frames": frames}, tmp_path)
        out = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", workspace["checkpoint"],
                    "--samples", *samples, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == labels

    def test_precip_mse_is_denormalized(self, raw_radar, tmp_path):
        clean, samples = str(tmp_path / "clean.btar"), str(tmp_path / "s.btar")
        assert run(["preprocess", "--task", "precip", "--frames", raw_radar,
                    "--out", clean]) == 0
        assert run(["make-samples", "--frames", clean, "--lags", "1",
                    "--out", samples]) == 0
        norm_factor = load_frames(clean).metadata["norm_factor"]
        assert norm_factor != 1.0
        checkpoint = str(tmp_path / "ck.btar")
        ARCHS["unet"](ModelConfig(lags=1, height=288, width=288, features=1,
                                  base_filters=1)).initialize(seed=0).save(
                                      checkpoint)
        out = tmp_path / "m.csv"
        assert run(["eval", "--checkpoint", checkpoint, "--samples", samples,
                    "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        model, windows = Model.load(checkpoint), load_samples(samples)
        assert windows.metadata["norm_factor"] == norm_factor
        report = evaluate(model.predict, windows)
        assert row[:2] == ["5.0", repr(report.mse)]
        unscaled = dataclasses.replace(windows, metadata={})
        assert report.mse != evaluate(model.predict, unscaled).mse

    def test_old_format_samples_name_the_metadata_record(
            self, workspace, tmp_path, capsys):
        # samples written before the metadata record held lags_horizon and
        # starts; they are remade with make-samples, not read
        windows = load_samples(workspace["samples"])
        old = str(tmp_path / "old.btar")
        archive_save(old, {
            "inputs": windows.inputs, "targets": windows.targets,
            "starts": np.arange(len(windows), dtype=np.float64),
            "lags_horizon": np.array([2.0, 1.0])})
        capsys.readouterr()
        assert run(["eval", "--checkpoint", workspace["checkpoint"],
                    "--samples", old, "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and old in err and "'metadata'" in err
        assert not (tmp_path / "m.csv").exists()

    def test_stacked_window_samples_name_the_frame_run_record(
            self, workspace, tmp_path, capsys):
        # samples that stored every window whole, beside a metadata record;
        # they are remade with make-samples, not read, and their frame run
        # is the 'frames' record
        windows = load_samples(workspace["samples"])
        old = str(tmp_path / "old.btar")
        archive_save(old, {
            "inputs": windows.inputs, "targets": windows.targets,
            "metadata": json_record({**windows.metadata, "horizon": 1})})
        capsys.readouterr()
        assert run(["eval", "--checkpoint", workspace["checkpoint"],
                    "--samples", old, "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and old in err and "'frames'" in err
        assert not (tmp_path / "m.csv").exists()

    def test_samples_without_a_path_is_usage_error(self, workspace, tmp_path):
        assert run(["eval", "--checkpoint", workspace["checkpoint"],
                    "--out", str(tmp_path / "m.csv"), "--samples"]) == 1
        assert os.listdir(tmp_path) == []

    def test_missing_checkpoint(self, workspace, tmp_path):
        assert run(["eval", "--checkpoint", str(tmp_path / "none.btar"),
                    "--samples", workspace["samples"],
                    "--out", str(tmp_path / "m.csv")]) == 2


class TestPredict:
    def test_writes_pgm(self, workspace, tmp_path):
        out = str(tmp_path / "pred.pgm")
        assert run(["predict", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"], "--index", "0",
                    "--out", out]) == 0
        img = read_pgm(out)
        assert img.shape == (16, 16)

    def test_saturated_sigmoid_head_prints_no_warning(self, workspace,
                                                      tmp_path, capsys):
        # a logit of -100 overflows exp(-x) in f32; the sigmoid's limit, 0,
        # is its exact value, so it is no numeric failure to warn of
        model = ARCHS["broad-unet"](ModelConfig(
            lags=2, height=16, width=16, features=1, base_filters=1,
            head="binary")).initialize(seed=0)
        bias = model.named_params()["head.b"]
        model.set_param("head.b", np.full_like(bias, -100.0))
        checkpoint, out = str(tmp_path / "ck.btar"), str(tmp_path / "p.pgm")
        model.save(checkpoint)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["predict", "--checkpoint", checkpoint,
                        "--samples", workspace["samples"], "--out", out]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["pgm_scale"] == {"lo": 0.0, "hi": 0.0}

    def test_index_out_of_range(self, workspace, tmp_path):
        assert run(["predict", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"], "--index", "999",
                    "--out", str(tmp_path / "x.pgm")]) == 1

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace('"config": {', '"config": {"bogus": 1, '),
        lambda text: text[:-1],
    ], ids=["unknown_config_key", "invalid_json"])
    def test_bad_manifest_is_data_error(self, workspace, tmp_path, capsys, edit):
        records = archive_load(workspace["checkpoint"])
        text = bytes(records["__manifest__"]).decode("utf-8")
        records["__manifest__"] = np.frombuffer(
            edit(text).encode("utf-8"), dtype=np.uint8)
        bad = str(tmp_path / "bad.btar")
        archive_save(bad, records)
        capsys.readouterr()
        assert run(["predict", "--checkpoint", bad,
                    "--samples", workspace["samples"], "--index", "0",
                    "--out", str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    def _predict_with_edited_checkpoint(self, workspace, tmp_path, capsys,
                                        drop_listed, drop_record):
        records = archive_load(workspace["checkpoint"])
        manifest = json.loads(bytes(records["__manifest__"]).decode("utf-8"))
        if drop_listed:
            manifest["param_names"].remove(drop_listed)
        records["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
        del records[drop_record]
        bad = str(tmp_path / "bad.btar")
        archive_save(bad, records)
        capsys.readouterr()
        code = run(["predict", "--checkpoint", bad,
                    "--samples", workspace["samples"], "--index", "0",
                    "--out", str(tmp_path / "x.pgm")])
        return code, capsys.readouterr().err

    def test_missing_parameter_is_data_error(self, workspace, tmp_path, capsys):
        name = "enc0.initial.0.w"
        code, err = self._predict_with_edited_checkpoint(
            workspace, tmp_path, capsys, drop_listed=name, drop_record=name)
        assert code == 2
        assert err.startswith("error: ") and name in err
        assert not (tmp_path / "x.pgm").exists()

    def test_listed_parameter_without_record_is_data_error(
            self, workspace, tmp_path, capsys):
        name = "head.b"
        code, err = self._predict_with_edited_checkpoint(
            workspace, tmp_path, capsys, drop_listed=None, drop_record=name)
        assert code == 2
        assert err.startswith("error: ") and name in err

    def test_parameter_of_wrong_shape_names_both_shapes(
            self, workspace, faulty_inputs, tmp_path, capsys):
        bad = faulty_inputs[1]["wrong_shape_checkpoint"]
        right = archive_load(workspace["checkpoint"])["enc0.merge.w"].shape
        wrong = archive_load(bad)["enc0.merge.w"].shape
        capsys.readouterr()
        assert run(["predict", "--checkpoint", bad,
                    "--samples", workspace["samples"],
                    "--out", str(tmp_path / "x.pgm")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad checkpoint {bad}: ValueError: record enc0.merge.w "
            f"has shape {wrong}, the architecture needs {right}\n")

    def test_samples_name_not_utf8_is_data_error(self, workspace, tmp_path,
                                                  capsys):
        with open(workspace["samples"], "rb") as f:
            blob = f.read()
        bad = tmp_path / "bad_samples.btar"
        bad.write_bytes(blob.replace(b"frames", b"\xfframes", 1))
        capsys.readouterr()
        assert run(["predict", "--checkpoint", workspace["checkpoint"],
                    "--samples", str(bad), "--out",
                    str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err


class TestParams:
    def test_table_and_total(self, capsys):
        assert run(["params", "--arch", "broad-unet", "--t", "2",
                    "--hw", "16", "--f0", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        total_line = [l for l in lines if l.startswith("total\t")]
        assert len(total_line) == 1
        total = int(total_line[0].split("\t")[1])
        rows = [int(l.split("\t")[1]) for l in lines
                if "\t" in l and l.split("\t")[1].isdigit()
                and not l.startswith("total")]
        assert total == sum(rows)
        assert "input\t(2, 16, 16, 1)" in out
        assert "output\t(1, 16, 16, 1)" in out

    def test_symbolic_full_size_is_fast(self, capsys):
        # full-size configuration: must run without allocating any weights
        assert run(["params", "--arch", "broad-unet"]) == 0
        out = capsys.readouterr().out
        assert "output\t(1, 288, 288, 1)" in out

    def test_extent_not_divisible_is_usage_error(self, capsys):
        assert run(["params", "--hw", "30"]) == 1
        out, err = capsys.readouterr()
        assert err == "error: H and W must be divisible by 16, got 30x30\n"
        assert out == ""


# faults of a run of frames, which frames and samples files share: each is
# read through make-samples --frames and through predict --samples
_FRAME_RUN_FAULTS = [pytest.param(edit, id=name) for name, edit in [
    *((f"{name}_cadence", edit_metadata(cadence_minutes=value))
      for name, value in [("empty", []), ("nan", np.nan), ("negative", -5),
                          ("zero", 0), ("infinite", np.inf), ("string", "5"),
                          ("bool", True), ("absent", None)]),
    *((f"{name}_norm_factor", edit_metadata(norm_factor=value))
      for name, value in [("zero", 0), ("negative", -1), ("nan", np.nan),
                          ("infinite", np.inf), ("string", "1")]),
    ("rank3_frames",
     lambda records: records.update(frames=records["frames"][..., 0])),
    ("rank5_frames",
     lambda records: records.update(frames=records["frames"][None])),
    ("metadata_not_utf8", lambda records: records.update(
        metadata=np.frombuffer(b'{"source": "\xff"}', dtype=np.uint8))),
    ("metadata_not_json", lambda records: records.update(
        metadata=np.frombuffer(b'{"cadence_minutes": ', dtype=np.uint8))),
    ("metadata_not_object",
     lambda records: records.update(metadata=json_record([1.0, "a"]))),
    *((f"{name}_pixel", lambda records, value=value: records[
        "frames"].__setitem__((4, 7, 2, 0), value))
      for name, value in [("nan", np.nan), ("infinite", np.inf),
                          ("negative_infinite", -np.inf)]),
]]

# faults of a samples file's lags and horizon; 15 frames hold no window of
# lags 2, horizon 1 once cut to 2, nor one of lags 15
_SAMPLES_FAULTS = [pytest.param(edit, id=name) for name, edit in [
    ("too_few_frames",
     lambda records: records.update(frames=records["frames"][:2])),
    ("lags_past_the_run", edit_metadata(lags=15)),
    *((f"{name}_horizon", edit_metadata(horizon=value))
      for name, value in [("list", [1, 7]), ("infinite", np.inf),
                          ("nan", np.nan), ("negative", -3),
                          ("fractional", 1.5), ("zero", 0), ("absent", None),
                          ("bool", True), ("string", "2")]),
    *((f"{name}_lags", edit_metadata(lags=value))
      for name, value in [("list", [2]), ("nan", np.nan), ("zero", 0),
                          ("float", 2.0), ("absent", None), ("bool", True),
                          ("string", "2")]),
]]


class TestWrongInputs:
    """Inputs of the wrong kind or shape exit 2 with an error naming them."""

    def _run(self, capsys, argv):
        capsys.readouterr()
        code = run(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command,code", [
        (["preprocess", "--task", "precip"], 2),
        (["make-samples", "--lags", "4", "--horizon", "2"], 0),
    ], ids=["preprocess", "make-samples"])
    def test_samples_given_as_frames(self, workspace, tmp_path, capsys,
                                     command, code):
        # a samples file is its frames file with lags and horizon added to
        # the metadata, so as --frames it reads as that frames file:
        # preprocess refuses its 16x16 frames, which are not raw radar
        # frames, and make-samples re-cuts it to the same bytes
        results = []
        for given in ("samples", "frames"):
            out = tmp_path / f"from_{given}.btar"
            got, err = self._run(capsys, [*command, "--frames", workspace[given],
                                          "--out", str(out)])
            results.append((got, err.replace(workspace[given], "<frames>"),
                            out.read_bytes() if out.exists() else None))
        assert results[0] == results[1]
        assert results[0][0] == code

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_frames_given_as_samples(self, workspace, tmp_path, capsys,
                                     command):
        code, err = self._run(capsys, [
            command, "--checkpoint", workspace["checkpoint"],
            "--samples", workspace["frames"], "--out", str(tmp_path / "out")])
        assert code == 2
        assert err.startswith("error: ") and workspace["frames"] in err
        assert "lags and horizon" in err

    def test_old_layout_archives_name_what_they_lack(self, workspace,
                                                     tmp_path, capsys):
        # a samples file whose frames were the 'frame_run' record, and a
        # frames file whose cadence was a record of its own
        samples, frames = (archive_load(workspace[kind])
                           for kind in ("samples", "frames"))
        samples["frame_run"] = samples.pop("frames")
        frames["cadence_minutes"] = np.array([5.0])
        edit_metadata(cadence_minutes=None)(frames)
        old_samples, old_frames = (str(tmp_path / f"old_{kind}.btar")
                                   for kind in ("samples", "frames"))
        archive_save(old_samples, samples)
        archive_save(old_frames, frames)
        code, err = self._run(capsys, [
            "predict", "--checkpoint", workspace["checkpoint"],
            "--samples", old_samples, "--out", str(tmp_path / "p.pgm")])
        assert (code, err) == (2, f"error: {old_samples} is not a samples "
                                  f"archive: it lacks the 'frames' record(s)\n")
        code, err = self._run(capsys, [
            "make-samples", "--frames", old_frames, "--lags", "2",
            "--out", str(tmp_path / "s.btar")])
        assert code == 2
        assert err.startswith(f"error: frames archive {old_frames} needs a "
                              f"finite positive cadence_minutes")
        assert "in its metadata; it holds None" in err
        assert sorted(os.listdir(tmp_path)) == ["old_frames.btar",
                                                "old_samples.btar"]

    @pytest.mark.parametrize("command", [
        ["predict", "--out", "out.pgm"],
        ["eval", "--out", "out.csv"],
        ["dump-features", "--out-dir", "feat"],
    ], ids=["predict", "eval", "dump-features"])
    def test_samples_that_do_not_fit_the_checkpoint(
            self, workspace, tmp_path, capsys, command):
        lags3 = str(tmp_path / "lags3.btar")
        assert run(["make-samples", "--frames", workspace["frames"],
                    "--lags", "3", "--out", lags3]) == 0
        out_flag, out_name = command[1:]
        code, err = self._run(capsys, [
            command[0], "--checkpoint", workspace["checkpoint"],
            "--samples", lags3, out_flag, str(tmp_path / out_name)])
        assert code == 2
        assert err.startswith("error: ")
        assert lags3 in err and workspace["checkpoint"] in err
        assert not (tmp_path / out_name).exists()

    def test_samples_the_network_cannot_take(self, faulty_inputs, tmp_path,
                                             capsys):
        # a samples file fixes the frame size, so this is bad data
        samples = faulty_inputs[1]["wrong_extent_samples"]
        code, err = self._run(capsys, [
            "train", "--samples", samples, "--train-n", "4", "--val-n", "2",
            "--test-n", "2", "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert err == (f"error: samples in {samples} have 24x24 frames; the "
                       f"network takes H and W divisible by 16\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("edit", _SAMPLES_FAULTS + _FRAME_RUN_FAULTS)
    def test_inconsistent_samples_archive(self, workspace, tmp_path, capsys,
                                          edit):
        records = archive_load(workspace["samples"])
        edit(records)
        bad = str(tmp_path / "bad_samples.btar")
        archive_save(bad, records)
        code, err = self._run(capsys, [
            "predict", "--checkpoint", workspace["checkpoint"],
            "--samples", bad, "--out", str(tmp_path / "p.pgm")])
        assert code == 2
        assert err.startswith("error: ") and bad in err
        assert not (tmp_path / "p.pgm").exists()

    @pytest.mark.parametrize("edit", _FRAME_RUN_FAULTS)
    def test_bad_frames_archive(self, workspace, tmp_path, capsys, edit):
        records = archive_load(workspace["frames"])
        edit(records)
        bad = str(tmp_path / "bad_frames.btar")
        archive_save(bad, records)
        code, err = self._run(capsys, [
            "make-samples", "--frames", bad, "--lags", "2",
            "--out", str(tmp_path / "s.btar")])
        assert code == 2
        assert err.startswith("error: ") and bad in err
        assert not (tmp_path / "s.btar").exists()

    @pytest.mark.parametrize("command", [
        ["make-samples", "--lags", "2"],
        ["preprocess", "--task", "precip"],
    ], ids=["make-samples", "preprocess"])
    def test_non_finite_frame_is_named(self, workspace, tmp_path, capsys,
                                       command):
        records = archive_load(workspace["frames"])
        records["frames"][9, 3, 3, 0] = np.nan
        records["frames"][11] = np.inf
        bad = str(tmp_path / "nan_frames.btar")
        archive_save(bad, records)
        code, err = self._run(capsys, [*command, "--frames", bad,
                                       "--out", str(tmp_path / "out.btar")])
        assert code == 2
        assert err.startswith(f"error: frames archive {bad} holds non-finite "
                              f"values, first in frame 9")
        assert not (tmp_path / "out.btar").exists()

    @pytest.mark.parametrize("command", [
        ["predict", "--checkpoint", "{checkpoint}", "--out", "{out}/p.pgm"],
        ["eval", "--checkpoint", "{checkpoint}", "--out", "{out}/m.csv"],
        ["dump-features", "--checkpoint", "{checkpoint}",
         "--out-dir", "{out}/feat"],
        ["train", "--f0", "1", "--train-n", "4", "--val-n", "2",
         "--test-n", "2", "--epochs", "1", "--out-dir", "{out}/run"],
    ], ids=["predict", "eval", "dump-features", "train"])
    def test_non_finite_samples_frame_is_named(self, workspace, tmp_path,
                                               capsys, command):
        records = archive_load(workspace["samples"])
        records["frames"][9, 3, 3, 0] = np.nan
        records["frames"][11] = -np.inf
        bad = str(tmp_path / "nan_samples.btar")
        archive_save(bad, records)
        out = tmp_path / "out"
        out.mkdir()
        code, err = self._run(capsys, [
            *(arg.format(checkpoint=workspace["checkpoint"], out=out)
              for arg in command), "--samples", bad])
        assert code == 2
        assert err.startswith(f"error: samples archive {bad} holds non-finite "
                              f"values, first in frame 9")
        # train exits before it makes its --out-dir
        assert os.listdir(out) == []

    @pytest.mark.parametrize("recorded", [True, False],
                             ids=["recorded_rates", "names_only"])
    def test_checkpoint_with_other_aspp_rates(self, workspace, tmp_path,
                                              capsys, recorded):
        # a checkpoint written while the ASPP rates were configurable, with
        # rates (7, 12, 18); its parameter names alone differ from the fixed
        # ASPP's, so it is rejected even without the recorded rates
        records = archive_load(workspace["checkpoint"])
        manifest = json.loads(bytes(records.pop("__manifest__")).decode())
        if recorded:
            manifest["config"]["aspp"] = {
                "in_channels": 16, "out_channels": 16,
                "dilation_rates": [7, 12, 18],
                "include_pointwise_branch": True, "spatial_kernel": 3}
        renamed = {name.replace("aspp.dilated6.", "aspp.dilated7."): arr
                   for name, arr in records.items()}
        manifest["param_names"] = list(renamed)
        assert "aspp.dilated7.w" in renamed
        bad = str(tmp_path / "rates7.btar")
        archive_save(bad, {"__manifest__": np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8), **renamed})
        code, err = self._run(capsys, [
            "predict", "--checkpoint", bad, "--samples", workspace["samples"],
            "--out", str(tmp_path / "x.pgm")])
        assert code == 2
        assert err.startswith("error: ") and bad in err
        assert not (tmp_path / "x.pgm").exists()


class TestGradCheckCommand:
    def test_primitive_layers_pass(self, capsys):
        assert run(["grad-check", "--arch", "layers"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("pass") == 11
        # the boxed conv kernel, at the edge of its bound and with no tap
        for name in ("conv3d_atrous", "conv3d_atrous_edge", "conv3d_tapless"):
            assert f"pass {name}:" in out

    def test_seed_moves_the_primitive_layer_checks(self, capsys):
        outs = []
        for seed in ("0", "1"):
            assert run(["grad-check", "--arch", "layers", "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]
        assert all(out.count("pass") == 11 for out in outs)

    @pytest.mark.parametrize("arch", ["broad-unet", "unet"])
    def test_mini_network_passes(self, capsys, arch):
        assert run(["grad-check", "--arch", f"{arch}-mini"]) == 0
        assert capsys.readouterr().out.startswith(f"pass {arch}-mini:")

    def test_binary_arch_checks_the_binary_head(self, capsys):
        outs = []
        for arch in ("broad-unet-mini", "broad-unet-mini-binary"):
            assert run(["grad-check", "--arch", arch]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[1].startswith("pass broad-unet-mini-binary:")
        assert outs[0].split(":", 1)[1] != outs[1].split(":", 1)[1]

    def test_has_no_head_flag(self):
        # the head is part of the --arch name, so no flag can go unread
        assert run(["grad-check", "--arch", "layers", "--head", "binary"]) == 1


class TestDumpFeatures:
    def test_branch_archive_and_images(self, workspace, tmp_path):
        out_dir = str(tmp_path / "feat")
        assert run(["dump-features", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"], "--index", "0",
                    "--block", "0", "--out-dir", out_dir]) == 0
        from broadunet.archive import archive_load
        records = archive_load(os.path.join(out_dir, "block0_features.btar"))
        assert set(records) == {"branch_1x1x1", "branch_3x3x3", "branch_5x5x5"}
        for label in records:
            img = read_pgm(os.path.join(out_dir, f"block0_{label}.pgm"))
            assert img.shape == (16, 16)

    @pytest.mark.parametrize("index", ["999", "-1"])
    def test_index_out_of_range(self, workspace, tmp_path, capsys, index):
        capsys.readouterr()
        assert run(["dump-features", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"], "--index", index,
                    "--out-dir", str(tmp_path / "f")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sample index {index} out of range")
        assert not (tmp_path / "f").exists()

    def test_bad_block_index(self, workspace, tmp_path):
        assert run(["dump-features", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"], "--block", "42",
                    "--out-dir", str(tmp_path / "f")]) == 1


class TestNonFiniteOutputs:
    """A checkpoint that gives NaN exits 3, naming it, before any write."""

    @pytest.mark.parametrize("command", [
        ["predict", "--out", "x.pgm"],
        ["eval", "--out", "m.csv"],
        ["dump-features", "--out-dir", "feat"],
    ], ids=["predict", "eval", "dump-features"])
    def test_nan_checkpoint_is_numeric_error(self, workspace, tmp_path, capsys,
                                             command):
        bad = nan_checkpoint(workspace, str(tmp_path / "nan.btar"))
        capsys.readouterr()
        assert run([command[0], "--checkpoint", bad,
                    "--samples", workspace["samples"],
                    command[1], str(tmp_path / command[2])]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: checkpoint {bad} gives non-finite values on "
                       f"{workspace['samples']}\n")
        assert sorted(os.listdir(tmp_path)) == ["nan.btar"]


def fail_forward(monkeypatch, fault):
    def failing_forward(model, x, train=False, rng=None):
        raise fault

    monkeypatch.setattr(Model, "forward", failing_forward)


class TestMemoryAndKeyFaults:
    """Running out of memory, or a stray KeyError, is a program fault: exit
    3 with one error line, and nothing written."""

    @pytest.mark.parametrize("fault,line", [
        (MemoryError("Unable to allocate 24.0 MiB for an array"),
         "error: out of memory: Unable to allocate 24.0 MiB for an array"),
        (MemoryError(), "error: out of memory"),
        (KeyError("w"), "error: KeyError: 'w'"),
    ], ids=["memory", "bare_memory", "key"])
    def test_predict_exits_3_and_writes_nothing(
            self, workspace, tmp_path, capsys, monkeypatch, fault, line):
        fail_forward(monkeypatch, fault)
        capsys.readouterr()
        assert run(["predict", "--checkpoint", workspace["checkpoint"],
                    "--samples", workspace["samples"],
                    "--out", str(tmp_path / "p.pgm")]) == 3
        assert capsys.readouterr().err.splitlines() == [line]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("existing", [True, False],
                             ids=["existing", "absent"])
    def test_train_leaves_the_out_dir_as_it_found_it(
            self, workspace, tmp_path, capsys, monkeypatch, existing):
        out_dir = tmp_path / "runs" / "run"
        if existing:
            out_dir.mkdir(parents=True)
            (out_dir / "history.csv").write_bytes(b"epoch\n")
        before = _tree(tmp_path)
        fail_forward(monkeypatch, MemoryError())
        capsys.readouterr()
        assert run(["train", "--samples", workspace["samples"], "--f0", "1",
                    "--train-n", "4", "--val-n", "2", "--test-n", "2",
                    "--epochs", "1", "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]
        assert _tree(tmp_path) == before


class Interrupted(BaseException):
    """A kill that lands mid-write: no `except Exception` handler stops it."""


class InterruptingFile:
    """A file whose first write lands, and then the process is killed."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data)
        raise Interrupted

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def interrupt_writes_to(monkeypatch, target):
    """Make every write-mode `open` of `target`, or of `<target>.tmp`,
    return an InterruptingFile; other opens are left alone."""
    real_open = builtins.open

    def interrupting_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        hit = (isinstance(file, (str, os.PathLike))
               and os.fspath(file) in (target, target + ".tmp")
               and not set(mode).isdisjoint("wax+"))
        return InterruptingFile(f) if hit else f

    monkeypatch.setattr(builtins, "open", interrupting_open)


def run_ok(argv):
    assert run(argv) == 0, argv


def _predict_beside(workspace, target):
    """`predict`, whose run manifest is `target`."""
    run_ok(["predict", "--checkpoint", workspace["checkpoint"],
            "--samples", workspace["samples"],
            "--out", os.path.join(os.path.dirname(target), "p.pgm")])


# writer name: (its call on the workspace and a target path, the target's
# file name)
ARTIFACT_WRITERS = {
    "archive_save": (lambda ws, target: archive_save(
        target, {"a": np.arange(6, dtype=np.float32)}), "a.btar"),
    "model_save": (lambda ws, target: Model.load(ws["checkpoint"]).save(
        target), "checkpoint.btar"),
    "write_pgm": (lambda ws, target: write_pgm(target, np.eye(4)), "a.pgm"),
    "save_history_csv": (lambda ws, target: save_history_csv(
        [(1, 0.5, 0.25)], target), "history.csv"),
    "eval_csv": (lambda ws, target: run_ok([
        "eval", "--checkpoint", ws["checkpoint"], "--samples", ws["samples"],
        "--out", target]), "metrics.csv"),
    "run_manifest": (_predict_beside, "run-manifest.json"),
}


class TestAtomicWrites:
    """Every artifact reaches disk whole or not at all."""

    OLD = b"old bytes\n"

    @pytest.mark.parametrize("existing", [True, False],
                             ids=["existing", "absent"])
    @pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
    def test_interrupted_write_keeps_the_target(
            self, workspace, tmp_path, monkeypatch, writer, existing):
        write, name = ARTIFACT_WRITERS[writer]
        target = str(tmp_path / name)
        if existing:
            with open(target, "wb") as f:
                f.write(self.OLD)
        interrupt_writes_to(monkeypatch, target)
        with pytest.raises(Interrupted):
            write(workspace, target)
        monkeypatch.undo()
        if existing:
            assert open(target, "rb").read() == self.OLD
        else:
            assert not os.path.exists(target)
        assert not os.path.exists(target + ".tmp")

    @pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
    def test_write_replaces_the_target(self, workspace, tmp_path, writer):
        write, name = ARTIFACT_WRITERS[writer]
        target = str(tmp_path / name)
        with open(target, "wb") as f:
            f.write(self.OLD)
        write(workspace, target)
        assert open(target, "rb").read() not in (b"", self.OLD)
        assert not os.path.exists(target + ".tmp")

    def test_missing_directory_error_names_the_target(self, workspace,
                                                      tmp_path, capsys):
        target = str(tmp_path / "absent" / "s.btar")
        capsys.readouterr()
        assert run(["make-samples", "--frames", workspace["frames"],
                    "--lags", "2", "--out", target]) == 2
        err = capsys.readouterr().err
        assert f"No such file or directory: '{target}'" in err
        assert ".tmp" not in err

    def test_unsupported_record_keeps_the_old_archive(self, tmp_path):
        # the int64 record fails after the f32 one has been written
        path = tmp_path / "a.btar"
        archive_save(path, {"a": np.arange(3, dtype=np.float32)})
        old = path.read_bytes()
        with pytest.raises(ValueError, match="unsupported dtype"):
            archive_save(path, {"b": np.zeros(1000, dtype=np.float32),
                                "c": np.zeros(1, dtype=np.int64)})
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["a.btar"]


@pytest.fixture(scope="module")
def faulty_inputs(workspace, raw_radar, tmp_path_factory):
    """Inputs of each fault, beside good ones; `{out}` is the case's own
    output directory."""
    root = tmp_path_factory.mktemp("faults")
    paths = {"frames": workspace["frames"], "samples": workspace["samples"],
             "checkpoint": workspace["checkpoint"], "raw": raw_radar}
    for kind in ("frames", "samples", "checkpoint"):
        blob = open(paths[kind], "rb").read()
        paths[f"truncated_{kind}"] = str(root / f"truncated_{kind}.btar")
        with open(paths[f"truncated_{kind}"], "wb") as f:
            f.write(blob[:len(blob) // 2])
    records = archive_load(workspace["frames"])
    records["frames"][5, 8, 8, 0] = np.nan
    paths["nan_frames"] = str(root / "nan_frames.btar")
    archive_save(paths["nan_frames"], records)
    records = archive_load(workspace["samples"])
    records["frames"][0] = np.nan
    paths["nan_samples"] = str(root / "nan_samples.btar")
    archive_save(paths["nan_samples"], records)
    paths["nan_checkpoint"] = nan_checkpoint(
        workspace, str(root / "nan_checkpoint.btar"))
    # the JSON record as valid JSON that is no object, or as f32 values
    for kind, name in [("frames", "metadata"), ("samples", "metadata"),
                       ("checkpoint", "__manifest__")]:
        for fault, edit in [("bad_metadata", lambda record: json_record([])),
                            ("wrong_dtype", lambda record: record.astype(
                                np.float32))]:
            records = archive_load(paths[kind])
            records[name] = edit(records[name])
            paths[f"{fault}_{kind}"] = str(root / f"{fault}_{kind}.btar")
            archive_save(paths[f"{fault}_{kind}"], records)
    # a second record named 'metadata', written under another name first
    records = archive_load(workspace["samples"])
    renamed = root / "renamed.btar"
    archive_save(renamed, {**records, "metadatX": records["metadata"]})
    paths["duplicate_record_samples"] = str(root / "duplicate_record.btar")
    with open(paths["duplicate_record_samples"], "wb") as f:
        f.write(renamed.read_bytes().replace(b"metadatX", b"metadata"))
    records = archive_load(workspace["checkpoint"])
    records["enc0.merge.w"] = records["enc0.merge.w"][..., :1, :]
    paths["wrong_shape_checkpoint"] = str(root / "wrong_shape_checkpoint.btar")
    archive_save(paths["wrong_shape_checkpoint"], records)
    # a checkpoint's config as written while the ASPP was configurable
    records = archive_load(workspace["checkpoint"])
    manifest = json.loads(bytes(records["__manifest__"]))
    manifest["config"]["aspp"] = {
        "in_channels": 16, "out_channels": 16, "dilation_rates": [6, 12, 18],
        "include_pointwise_branch": True, "spatial_kernel": 3}
    records["__manifest__"] = json_record(manifest)
    paths["recorded_aspp_checkpoint"] = str(root / "recorded_aspp.btar")
    archive_save(paths["recorded_aspp_checkpoint"], records)
    # the workspace frames are 16x16, not the radar's raw 765x700
    paths["wrong_extent_frames"] = workspace["frames"]
    # samples of frames no network takes, and raw radar frames all dry
    paths["wrong_extent_samples"] = str(root / "wrong_extent_samples.btar")
    datapipe.save_samples(paths["wrong_extent_samples"], datapipe.make_samples(
        datapipe.synth_advection(datapipe.SynthConfig(24, 24, n_frames=12)),
        lags=2, horizon=1))
    # frames no network takes: u8 values, or no columns; a frames archive
    # may hold them, but no samples file may be made of them or read
    for kind in ("frames", "samples"):
        records = archive_load(workspace[kind])
        frames = records.pop("frames")
        for fault, bad in [("u8_values", frames.astype(np.uint8)),
                           ("zero_extent", frames[:, :, :0])]:
            paths[f"{fault}_{kind}"] = str(root / f"{fault}_{kind}.btar")
            archive_save(paths[f"{fault}_{kind}"], {**records, "frames": bad})
    seq = load_frames(raw_radar)
    paths["all_dry_raw"] = str(root / "all_dry_raw.btar")
    datapipe.save_frames(paths["all_dry_raw"],
                         dataclasses.replace(seq, frames=0 * seq.frames))
    # cloud labels, with lats/lons that are absent, off the frame grid, or
    # outside the bounding box
    cloud = {"frames": np.random.default_rng(3).integers(
                 1, 16, (2, 20, 24, 1)).astype(np.float32),
             "metadata": json_record({"cadence_minutes": 15.0})}
    lats, lons = np.linspace(53, 40, 20), np.linspace(-7, 11, 24)
    for fault, geo in [("no_geolocation", {}),
                       ("off_grid", {"lats": lats, "lons": lons[:-1]}),
                       ("empty_bbox", {"lats": lats + 20, "lons": lons})]:
        paths[f"{fault}_cloud"] = str(root / f"{fault}_cloud.btar")
        archive_save(paths[f"{fault}_cloud"], {**cloud, **geo})
    return root, paths


_TRAIN = ["train", "--f0", "1", "--train-n", "4", "--val-n", "2",
          "--test-n", "2", "--epochs", "1", "--out-dir", "{out}/run"]
_PRECIP = ["preprocess", "--task", "precip", "--rain-fraction", "0.1"]


def _model_command(command, flag, out, fault):
    """(fault, argv, exit code) of `eval`, `predict` or `dump-features`
    under one fault of its checkpoint, samples or output directory."""
    # each fault of the checkpoint has the name of its faulty file
    checkpoint = (f"{{{fault}}}" if fault.endswith("_checkpoint")
                  else "{checkpoint}")
    samples = {"truncated_input": "{truncated_samples}",
               "nan_payload": "{nan_samples}",
               "bad_metadata": "{bad_metadata_samples}",
               "wrong_dtype": "{wrong_dtype_samples}",
               "duplicate_record": "{duplicate_record_samples}",
               "u8_values": "{u8_values_samples}",
               "zero_extent": "{zero_extent_samples}"}.get(
                   fault, "{samples}")
    if fault == "missing_dir":
        out = out.replace("{out}", "{out}/absent")
    return (fault, [command, "--checkpoint", checkpoint, "--samples", samples,
                    flag, out], 3 if fault == "nan_checkpoint" else 2)


FAULT_MATRIX = [
    ("missing_dir", ["synth-gen", "--out", "{out}/absent/f.btar"], 2),
    ("nan_payload", ["synth-gen", "--out", "{out}/f.btar", "--sigma", "nan"],
     1),
    ("missing_dir", [*_PRECIP, "--frames", "{raw}",
                     "--out", "{out}/absent/c.btar"], 2),
    ("truncated_input", [*_PRECIP, "--frames", "{truncated_frames}",
                         "--out", "{out}/c.btar"], 2),
    ("nan_payload", [*_PRECIP, "--frames", "{nan_frames}",
                     "--out", "{out}/c.btar"], 2),
    *((fault, [*_PRECIP, "--frames", f"{{{fault}_frames}}",
               "--out", "{out}/c.btar"], 2)
      for fault in ["bad_metadata", "wrong_dtype"]),
    ("wrong_extent", [*_PRECIP, "--frames", "{wrong_extent_frames}",
                      "--out", "{out}/c.btar"], 2),
    ("all_dry", ["preprocess", "--task", "precip", "--rain-fraction", "0",
                 "--frames", "{all_dry_raw}", "--out", "{out}/c.btar"], 2),
    *((fault, ["preprocess", "--task", "cloud", "--frames",
               f"{{{fault}_cloud}}", "--out", "{out}/c.btar"], 2)
      for fault in ["no_geolocation", "off_grid", "empty_bbox"]),
    *((fault, ["make-samples", "--frames", frames, "--lags", "2",
               "--out", out], 2)
      for fault, frames, out in [
          ("missing_dir", "{frames}", "{out}/absent/s.btar"),
          ("truncated_input", "{truncated_frames}", "{out}/s.btar"),
          ("nan_payload", "{nan_frames}", "{out}/s.btar"),
          ("bad_metadata", "{bad_metadata_frames}", "{out}/s.btar"),
          ("wrong_dtype", "{wrong_dtype_frames}", "{out}/s.btar"),
          ("u8_values", "{u8_values_frames}", "{out}/s.btar"),
          ("zero_extent", "{zero_extent_frames}", "{out}/s.btar")]),
    # train makes its --out-dir, so a missing one is no fault
    ("truncated_input", [*_TRAIN, "--samples", "{truncated_samples}"], 2),
    ("nan_payload", [*_TRAIN, "--samples", "{nan_samples}"], 2),
    ("bad_metadata", [*_TRAIN, "--samples", "{bad_metadata_samples}"], 2),
    ("wrong_dtype", [*_TRAIN, "--samples", "{wrong_dtype_samples}"], 2),
    ("u8_values", [*_TRAIN, "--samples", "{u8_values_samples}"], 2),
    ("zero_extent", [*_TRAIN, "--samples", "{zero_extent_samples}"], 2),
    # dump-features makes its --out-dir, so a missing one is no fault
    *(_model_command(command, flag, out, fault)
      for command, flag, out, faults in [
          ("eval", "--out", "{out}/m.csv", ["missing_dir"]),
          ("predict", "--out", "{out}/p.pgm", ["missing_dir"]),
          ("dump-features", "--out-dir", "{out}/feat", [])]
      for fault in [*faults, "truncated_input", "truncated_checkpoint",
                    "nan_payload", "nan_checkpoint", "bad_metadata",
                    "bad_metadata_checkpoint", "wrong_dtype",
                    "wrong_dtype_checkpoint", "duplicate_record",
                    "wrong_shape_checkpoint", "recorded_aspp_checkpoint",
                    "u8_values", "zero_extent"]),
]


def _tree(*roots):
    """Every file under `roots`, with its bytes' digest, and every
    directory, with None."""
    return {os.path.join(d, name): None if name in dirs else hashlib.sha256(
                open(os.path.join(d, name), "rb").read()).hexdigest()
            for root in roots for d, dirs, names in os.walk(root)
            for name in [*dirs, *names]}


class TestFaultMatrix:
    """Each artifact-writing subcommand under each fault that applies to
    it exits 1, 2 or 3 with one error line, which names the input file at
    fault, and writes nothing: no file and no directory."""

    @pytest.mark.parametrize(
        "fault,argv,code", FAULT_MATRIX,
        ids=[f"{argv[0]}-{fault}" for fault, argv, _ in FAULT_MATRIX])
    def test_fault_exits_with_one_error_and_writes_nothing(
            self, faulty_inputs, tmp_path, capsys, fault, argv, code):
        root, paths = faulty_inputs
        # the files at fault: every input but the good ones
        faulty = [paths[arg[1:-1]] for arg in argv if arg[1:-1] in paths.keys()
                  - {"frames", "samples", "checkpoint", "raw"}]
        argv = [arg.format(out=tmp_path, **paths) for arg in argv]
        if "missing_dir" in fault:
            assert not os.path.exists(tmp_path / "absent")
        before = _tree(root, tmp_path)
        capsys.readouterr()
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert len(error_lines(err)) == 1, err
        assert all(path in err for path in faulty), err
        assert "Traceback" not in out + err
        assert _tree(root, tmp_path) == before
