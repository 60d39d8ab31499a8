import dataclasses
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadunet.archive import (FormatError, archive_load, archive_save, json_record,
                               read_json_record)
from broadunet.datapipe import (
    DataError,
    FrameSequence,
    SampleSet,
    SynthConfig,
    cloud_preprocess,
    load_frames,
    load_samples,
    make_samples,
    precip_preprocess,
    save_frames,
    save_samples,
    split_counts,
    synth_advection,
)
from broadunet.pgm import read_pgm, write_pgm


def raw_archive(name: bytes, dims, payload=b"", code=1) -> bytes:
    """One-record BTAR bytes written field by field, valid or not."""
    return (b"BTAR" + struct.pack("<IIH", 1, 1, len(name)) + name
            + struct.pack(f"<BB{len(dims)}Q", code, len(dims), *dims) + payload)


VALID_ARCHIVE = raw_archive(b"x", (2, 1), struct.pack("<2f", 1.5, -2.0))


def edited(edits, keep) -> bytes:
    blob = bytearray(VALID_ARCHIVE)
    for pos, value in edits:
        blob[pos] = value
    return bytes(blob[:keep])


class TestArchive:
    @given(st.lists(
        st.tuples(st.text(min_size=1, max_size=12),
                  st.sampled_from(["f4", "f8", "u1"]),
                  st.lists(st.integers(1, 4), min_size=0, max_size=4)),
        min_size=0, max_size=5, unique_by=lambda r: r[0]))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bit_exact(self, tmp_path_factory, specs):
        rng = np.random.default_rng(0)
        records = {}
        for name, dt, shape in specs:
            if dt == "u1":
                records[name] = rng.integers(0, 256, shape).astype(np.uint8)
            else:
                records[name] = rng.standard_normal(shape).astype(dt)
        path = tmp_path_factory.mktemp("arch") / "t.btar"
        archive_save(path, records)
        loaded = archive_load(path)
        assert set(loaded) == set(records)
        for name, arr in records.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].shape == arr.shape
            np.testing.assert_array_equal(loaded[name], arr)

    @pytest.mark.parametrize("arr,code", [
        (np.arange(12, dtype="<f4").reshape(3, 4), 1),
        (np.arange(12, dtype="<f8").reshape(4, 3).T, 2),
        (np.arange(24, dtype="<f4").reshape(4, 6)[:, ::2], 1),
        (np.arange(6, dtype=np.uint8).reshape(2, 3)[::-1], 3),
        (np.zeros((0, 3), dtype="<f4"), 1),
        (np.zeros((2, 0), dtype="<f8"), 2),
        (np.array(2.5, dtype="<f4"), 1),
        (np.array(-1.25, dtype="<f8"), 2),
        (np.array(7, dtype=np.uint8), 3),
    ], ids=["f32", "f64_transposed", "f32_strided", "u8_reversed",
            "f32_empty", "f64_empty", "f32_rank0", "f64_rank0", "u8_rank0"])
    def test_record_bytes_follow_the_layout(self, tmp_path, arr, code):
        path = tmp_path / "t.btar"
        archive_save(path, {"x": arr})
        assert path.read_bytes() == raw_archive(b"x", arr.shape,
                                                arr.tobytes(), code)

    def test_save_makes_no_payload_copy(self, tmp_path):
        arr = np.ones(4 << 20, dtype=np.float32)  # 16 MiB
        tracemalloc.start()
        try:
            archive_save(tmp_path / "big.btar", {"x": arr})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bad.btar"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="offset 0"):
            archive_load(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.btar"
        archive_save(path, {"x": np.ones((4, 4), dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="truncated"):
            archive_load(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "t.btar"
        archive_save(path, {})
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            archive_load(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "t.btar"
        archive_save(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        # header (12) + name length (2) + name "x" (1) -> dtype code byte
        blob[15] = 77
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="dtype code 77"):
            archive_load(path)

    @pytest.mark.parametrize("cut", [4, 12, 15, -8])
    def test_format_error_names_the_file_once(self, tmp_path, cut):
        # cut in the header, the name length, the dtype/rank bytes and the
        # payload
        path = tmp_path / "t.btar"
        archive_save(path, {"x": np.zeros(4, dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FormatError) as info:
            archive_load(path)
        assert str(info.value).startswith(f"{path}: ")
        assert str(info.value).count(str(path)) == 1

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            archive_save(tmp_path / "t.btar", {"x": np.zeros(2, dtype=np.int32)})

    @pytest.mark.parametrize("dtype", [">f4", ">f8"])
    def test_rejects_big_endian(self, tmp_path, dtype):
        with pytest.raises(ValueError, match=f"unsupported dtype {dtype}"):
            archive_save(tmp_path / "t.btar", {"x": np.zeros(2, dtype=dtype)})

    @pytest.mark.parametrize("name,dims", [
        (b"\xff\xfe", (2,)),
        (b"x", (2 ** 62, 2 ** 62)),
        (b"x", (2 ** 63 + 5,)),
        (b"x", (0, 2 ** 63 + 5)),
    ], ids=["name_not_utf8", "dims_product_beyond_int64", "dim_beyond_int64",
            "zero_dim_beside_huge_dim"])
    def test_malformed_record_is_format_error(self, tmp_path, name, dims):
        path = tmp_path / "bad.btar"
        path.write_bytes(raw_archive(name, dims, b"\x00" * 8))
        with pytest.raises(FormatError):
            archive_load(path)

    @given(st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(
            lambda tail: b"BTAR" + struct.pack("<II", 1, 2) + tail),
        st.builds(edited,
                  st.lists(st.tuples(
                      st.integers(0, len(VALID_ARCHIVE) - 1),
                      st.integers(0, 255)), max_size=4),
                  st.integers(0, len(VALID_ARCHIVE))),
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_load_or_format_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.btar"
        path.write_bytes(blob)
        try:
            archive_load(path)
        except FormatError:
            pass

    def test_loaded_records_are_fresh_aligned_arrays(self, tmp_path):
        path = tmp_path / "kinds.btar"
        records = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "f64": np.linspace(-1.0, 1.0, 5),
            "u8": np.arange(7, dtype=np.uint8),
            "scalar": np.float64(2.5),
            "empty": np.zeros((0, 4), dtype=np.float32),
        }
        archive_save(path, records)
        loaded = archive_load(path)
        for name, arr in loaded.items():
            assert arr.flags.writeable, name
            assert arr.flags.c_contiguous, name
            assert arr.flags.aligned, name
            assert arr.base is None, name
            np.testing.assert_array_equal(arr, records[name])
        # writing one record leaves the others untouched
        loaded["u8"][:] = 255
        np.testing.assert_array_equal(loaded["f32"], records["f32"])

    def test_scalar_record(self, tmp_path):
        path = tmp_path / "s.btar"
        archive_save(path, {"s": np.float64(3.5)})
        loaded = archive_load(path)
        assert loaded["s"].shape == ()
        assert loaded["s"] == 3.5

    def test_json_record_round_trips_and_needs_u8(self):
        record = json_record({"b": [1, 2.5], "a": "é"})
        assert read_json_record(record, "it") == {"a": "é", "b": [1, 2.5]}
        for dtype in (np.float32, np.float64):
            with pytest.raises(FormatError,
                               match=f"the x record holds {np.dtype(dtype)}"):
                read_json_record(record.astype(dtype), "the x record")


class TestSamplesArchive:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_window_counts_load_or_data_error(
            self, tmp_path_factory, data):
        # each field is drawn valid half the time, so whole valid archives
        # and archives with one field wrong both come up often
        frames_dims = data.draw(st.one_of(
            st.integers(0, 6).map(lambda n: (n, 4, 4, 1)),
            st.lists(st.integers(1, 4), max_size=5).map(tuple)))
        # lags and horizon must be JSON integers of at least 1, the cadence
        # a finite positive number; near misses such as 1.5, true or "5"
        # come up, and None leaves the key out of the metadata
        lags_ok, horizon_ok, cadence_ok = (data.draw(st.booleans())
                                           for _ in range(3))
        lags = data.draw(st.integers(1, 4) if lags_ok else
                         st.sampled_from([0, 1.5, -3, True, "2", None]))
        horizon = data.draw(st.integers(1, 4) if horizon_ok else
                            st.sampled_from([0, 1.5, -3, True, "2", None]))
        cadence = data.draw(st.floats(0.5, 60.0) if cadence_ok else
                            st.sampled_from([0, -5, np.nan, np.inf, "5", None]))
        drawn = {"lags": lags, "horizon": horizon, "cadence_minutes": cadence}
        meta = {"source": "synthetic",
                **{k: v for k, v in drawn.items() if v is not None}}
        path = tmp_path_factory.getbasetemp() / "fuzz_samples.btar"
        frames = np.arange(np.prod(frames_dims), dtype=np.float32).reshape(
            frames_dims)
        archive_save(path, {"frames": frames, "metadata": json_record(meta)})
        consistent = (len(frames_dims) == 4 and lags_ok and horizon_ok
                      and cadence_ok and frames_dims[0] >= lags + horizon)
        try:
            samples = load_samples(path)
        except DataError:
            assert not consistent
        else:
            assert consistent
            count = frames_dims[0] - lags - horizon + 1
            assert (samples.lags, samples.horizon) == (lags, horizon)
            assert samples.inputs.shape == (count, lags, *frames_dims[1:])
            assert samples.targets.shape == (count, 1, *frames_dims[1:])
            np.testing.assert_array_equal(samples.inputs[:, 0], frames[:count])
            np.testing.assert_array_equal(samples.targets[:, 0],
                                          frames[lags - 1 + horizon:])
            assert samples.metadata == {"source": "synthetic",
                                        "cadence_minutes": cadence}


class TestFramesArchive:
    # as above, each field is drawn valid half the time, and the cadence is
    # drawn as the samples test draws it
    @given(st.one_of(st.lists(st.integers(1, 3), min_size=4, max_size=4),
                     st.lists(st.integers(1, 3), max_size=5)),
           st.one_of(st.floats(0.5, 60.0),
                     st.sampled_from([0, -5, np.nan, np.inf, "5", None])))
    @settings(max_examples=100, deadline=None)
    def test_any_frames_and_cadence_load_or_data_error(
            self, tmp_path_factory, dims, cadence):
        path = tmp_path_factory.getbasetemp() / "fuzz_frames.btar"
        meta = {} if cadence is None else {"cadence_minutes": cadence}
        archive_save(path, {"frames": np.zeros(dims, dtype=np.float32),
                            "metadata": json_record(meta)})
        consistent = (len(dims) == 4 and isinstance(cadence, float)
                      and 0 < cadence < np.inf)
        try:
            seq = load_frames(path)
        except DataError:
            assert not consistent
        else:
            assert consistent
            assert seq.frames.shape == tuple(dims)
            assert seq.cadence_minutes == cadence
            assert seq.metadata == {}


class TestPgm:
    def test_round_trip_scaling(self, tmp_path):
        img = np.array([[0.0, 0.5], [0.25, 1.0]])
        path = tmp_path / "a.pgm"
        lo, hi = write_pgm(path, img)
        assert (lo, hi) == (0.0, 1.0)
        back = read_pgm(path)
        np.testing.assert_array_equal(back, [[0, 128], [64, 255]])

    def test_constant_image(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.full((3, 3), 7.0))
        assert not read_pgm(path).any()

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


class TestFrameSequence:
    def test_rank_enforced(self):
        with pytest.raises(ValueError, match=r"frames must be \(N, H, W, C\)"):
            FrameSequence(np.zeros((4, 8, 8)), cadence_minutes=5)

    def test_cadence_positive(self):
        with pytest.raises(ValueError):
            FrameSequence(np.zeros((4, 8, 8, 1)), cadence_minutes=0)


class TestPrecipPreprocess:
    @staticmethod
    def _raw(values):
        """Frames where each raw 765x700 frame is a constant `value`."""
        frames = np.zeros((len(values), 765, 700, 1), dtype=np.float32)
        for i, v in enumerate(values):
            frames[i] += v
        return FrameSequence(frames, cadence_minutes=5)

    def test_crop_window(self):
        frames = np.zeros((1, 765, 700, 1), dtype=np.float32)
        frames[0, 238, 206, 0] = 4.0   # first kept pixel
        frames[0, 525, 493, 0] = 2.0   # last kept pixel
        frames[0, 237, 205, 0] = 99.0  # just outside the crop
        frames[0, 526, 494, 0] = 99.0
        out = precip_preprocess(FrameSequence(frames, 5), rain_fraction=0.0)
        assert out.frames.shape == (1, 288, 288, 1)
        assert out.metadata["norm_factor"] == 4.0
        assert out.frames[0, 0, 0, 0] == 1.0
        assert out.frames[0, 287, 287, 0] == 0.5
        assert out.frames.max() == 1.0  # the 99s never entered

    def test_rain_fraction_filter(self):
        frames = np.zeros((3, 765, 700, 1), dtype=np.float32)
        # frame 0: bone dry; frame 1: half the crop wet; frame 2: fully wet
        frames[1, 238:382, 206:494, 0] = 2.0
        frames[2, :, :, 0] = 1.0
        out = precip_preprocess(FrameSequence(frames, 5), rain_fraction=0.6)
        assert len(out) == 1  # only the fully wet frame survives
        out = precip_preprocess(FrameSequence(frames, 5), rain_fraction=0.5)
        assert len(out) == 2  # the half-wet frame sits exactly on the boundary

    def test_normalization_uses_training_portion_only(self):
        seq = self._raw([1.0, 2.0, 4.0, 8.0, 100.0])
        out = precip_preprocess(seq, rain_fraction=0.0, train_fraction=0.8)
        assert out.metadata["norm_factor"] == 8.0  # max over first 4 frames
        assert out.frames[-1, 0, 0, 0] == pytest.approx(100.0 / 8.0)

    def test_threshold_mean_matches_hand_value(self):
        seq = self._raw([1.0, 3.0])
        out = precip_preprocess(seq, rain_fraction=0.0, train_fraction=1.0)
        # normalized frames are constant 1/3 and 1; mean = 2/3
        assert out.metadata["threshold_mean"] == pytest.approx(2.0 / 3.0)

    def test_all_dry_raises(self):
        seq = self._raw([0.0, 0.0])
        with pytest.raises(DataError):
            precip_preprocess(seq, rain_fraction=0.1)

    def test_wrong_raw_shape(self):
        with pytest.raises(DataError, match=r"expected \(N, 765, 700, 1\)"):
            precip_preprocess(FrameSequence(np.zeros((1, 288, 288, 1)), 5), 0.0)


class TestCloudPreprocess:
    @staticmethod
    def _grid(n_lat=40, n_lon=50):
        lats = np.linspace(55.0, 38.0, n_lat)   # descending, like satellite rows
        lons = np.linspace(-10.0, 12.0, n_lon)
        return lats, lons

    def test_label_grouping_boundary(self):
        lats, lons = self._grid()
        frames = np.full((1, 40, 50, 1), 4.0)
        frames[0, 20:, :, 0] = 5.0
        out = cloud_preprocess(FrameSequence(frames, 15), lats, lons)
        assert set(np.unique(out.frames)) <= {0.0, 1.0}
        # labels 1..4 -> 0, labels 5..15 -> 1
        assert out.frames[0, 0, 0, 0] == 0.0
        assert out.frames[0, -1, -1, 0] == 1.0

    def test_output_size(self):
        lats, lons = self._grid()
        frames = np.full((2, 40, 50, 1), 7.0)
        out = cloud_preprocess(FrameSequence(frames, 15), lats, lons)
        assert out.frames.shape == (2, 256, 256, 1)

    def test_invalid_label_reports_position(self):
        lats, lons = self._grid(8, 8)
        frames = np.full((2, 8, 8, 1), 3.0)
        frames[1, 4, 6, 0] = 16.0
        with pytest.raises(DataError, match=r"frame 1.*\(4, 6\)"):
            cloud_preprocess(FrameSequence(frames, 15), lats, lons)

    def test_zero_label_rejected(self):
        lats, lons = self._grid(8, 8)
        frames = np.zeros((1, 8, 8, 1))
        with pytest.raises(DataError):
            cloud_preprocess(FrameSequence(frames, 15), lats, lons)

    def test_bbox_crop_excludes_outside(self):
        lats, lons = self._grid()
        frames = np.full((1, 40, 50, 1), 4.0)
        # cloud only on rows outside the latitude box
        outside = (lats > 51.896) | (lats < 41.104)
        frames[0, outside, :, 0] = 15.0
        out = cloud_preprocess(FrameSequence(frames, 15), lats, lons)
        assert not out.frames.any()

    def test_mismatched_geolocation(self):
        lats, lons = self._grid()
        frames = np.full((1, 40, 50, 1), 7.0)
        with pytest.raises(DataError, match="lats/lons must match"):
            cloud_preprocess(FrameSequence(frames, 15), lats[:-1], lons)

    def test_mismatched_geolocation_gives_both_shapes(self):
        lats, lons = self._grid()
        frames = np.full((1, 40, 50, 1), 7.0)
        with pytest.raises(DataError, match=r"lats \(39,\) and lons \(50,\) "
                                            r"for frames \(1, 40, 50, 1\)"):
            cloud_preprocess(FrameSequence(frames, 15), lats[:-1], lons)


class TestMakeSamples:
    def test_count_formula(self):
        seq = FrameSequence(np.arange(10.0).reshape(10, 1, 1, 1), 5)
        for lags, horizon, expect in [(2, 1, 8), (4, 1, 6), (4, 6, 1), (1, 1, 9)]:
            samples = make_samples(seq, lags, horizon)
            assert len(samples) == expect

    def test_window_alignment(self):
        seq = FrameSequence(np.arange(10.0).reshape(10, 1, 1, 1), 5)
        samples = make_samples(seq, lags=3, horizon=2)
        # sample i: inputs are frames i..i+2, target is frame i+4
        for i in range(len(samples)):
            np.testing.assert_array_equal(
                samples.inputs[i, :, 0, 0, 0], [i, i + 1, i + 2])
            assert samples.targets[i, 0, 0, 0, 0] == i + 4

    def test_horizon_steps_ahead(self):
        seq = FrameSequence(np.arange(12.0).reshape(12, 1, 1, 1), 5)
        for horizon in (1, 2, 3):
            samples = make_samples(seq, lags=4, horizon=horizon)
            assert samples.targets[0, 0, 0, 0, 0] == 3 + horizon

    def test_too_short(self):
        seq = FrameSequence(np.zeros((3, 1, 1, 1)), 5)
        with pytest.raises(ValueError):
            make_samples(seq, lags=3, horizon=1)

    def test_bad_args(self):
        seq = FrameSequence(np.zeros((10, 1, 1, 1)), 5)
        with pytest.raises(ValueError):
            make_samples(seq, lags=0, horizon=1)
        with pytest.raises(ValueError):
            make_samples(seq, lags=2, horizon=0)

    @pytest.mark.parametrize("frames", [
        np.ones((4, 2, 2, 1), dtype=np.uint8),
        np.ones((4, 2, 0, 1), dtype=np.float32),
        np.ones((4, 0, 2, 1), dtype=np.float64),
        np.ones((4, 2, 2, 0), dtype=np.float32),
    ], ids=["u8", "no_columns", "no_rows", "no_channels"])
    def test_frames_no_network_takes_make_no_samples(self, tmp_path, frames):
        # a frames archive keeps them: raw cloud labels are u8
        save_frames(tmp_path / "f.btar", FrameSequence(frames, 5))
        seq = load_frames(tmp_path / "f.btar")
        assert seq.frames.dtype == frames.dtype
        with pytest.raises(DataError, match="f32 or f64 frames with positive"):
            make_samples(seq, lags=2, horizon=1)


def _stacked(frames, lags, horizon):
    """Every window copied out of `frames` with np.stack, the way windows
    were built before they became views."""
    count = len(frames) - lags - horizon + 1
    inputs = np.stack([frames[i:i + lags] for i in range(count)])
    targets = np.stack([frames[i + lags - 1 + horizon][None]
                        for i in range(count)])
    return inputs, targets


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWindows:
    """Windows are read-only views of one frame run, and a samples file
    stores that run once."""

    @staticmethod
    def _seq(n):
        frames = np.random.default_rng(n).standard_normal((n, 3, 2, 2))
        return FrameSequence(frames.astype(np.float32), 5.0,
                             {"source": "synthetic"})

    # (frame count, lags, horizon); the last three have fewer windows than
    # the horizon, so some frames between the last input frame and the
    # first target frame are read by no window
    @pytest.mark.parametrize("n,lags,horizon", [
        (2, 1, 1), (10, 3, 2), (13, 4, 1), (12, 1, 3), (9, 2, 6), (6, 1, 5),
        (8, 3, 5)])
    def test_windows_are_the_stacked_arrays(self, tmp_path, n, lags, horizon):
        seq = self._seq(n)
        inputs, targets = _stacked(seq.frames, lags, horizon)
        made = make_samples(seq, lags, horizon)
        path = tmp_path / "s.btar"
        save_samples(path, made)
        loaded = load_samples(path)
        for samples in (made, loaded):
            assert _same_bits(samples.inputs, inputs)
            assert _same_bits(samples.targets, targets)
            # so the model's ascontiguousarray copies nothing
            assert all(x.flags.c_contiguous for x in samples.inputs)
        # every frame is stored as it is, even one that no window reads
        unread = np.s_[len(made) + lags - 1:lags - 1 + horizon]
        assert len(seq.frames[unread]) == max(0, horizon - len(made))
        assert _same_bits(archive_load(path)["frames"], seq.frames)

    def test_writing_into_a_window_raises(self, tmp_path):
        made = make_samples(self._seq(8), 3, 1)
        save_samples(tmp_path / "s.btar", made)
        loaded = load_samples(tmp_path / "s.btar")
        for samples in (made, loaded, split_counts(made, 2, 1, 1)[1]):
            for window in (samples.inputs, samples.targets, samples.inputs[0]):
                with pytest.raises(ValueError, match="read-only"):
                    window[...] = 0

    def test_splits_share_memory_with_the_frames(self):
        seq = self._seq(20)
        for part in split_counts(make_samples(seq, 3, 2), 8, 4, 3):
            assert np.shares_memory(part.inputs, seq.frames)
            assert np.shares_memory(part.targets, seq.frames)

    def test_split_subset_round_trips(self, tmp_path):
        seq = self._seq(20)
        _, val, _ = split_counts(make_samples(seq, 3, 2), 8, 4, 3)
        save_samples(tmp_path / "val.btar", val)
        # the val windows start at frame 8 and reach frame 8 + 3 + 3 + 1
        assert _same_bits(archive_load(tmp_path / "val.btar")["frames"],
                          seq.frames[8:16])
        loaded = load_samples(tmp_path / "val.btar")
        assert _same_bits(loaded.inputs, np.ascontiguousarray(val.inputs))
        assert _same_bits(loaded.targets, np.ascontiguousarray(val.targets))
        assert (loaded.lags, loaded.horizon) == (3, 2)
        assert loaded.metadata == val.metadata

    def test_a_set_is_its_frame_run(self):
        assert [f.name for f in dataclasses.fields(SampleSet)] == [
            "frame_run", "lags", "horizon", "metadata"]
        frames = self._seq(10).frames
        samples = SampleSet(frames, 3, 2)
        inputs, targets = _stacked(frames, 3, 2)
        assert _same_bits(samples.inputs, inputs)
        assert _same_bits(samples.targets, targets)
        assert samples.frame_run is frames

    def test_short_subset_stores_the_frames_no_window_reads(self, tmp_path):
        seq = self._seq(20)
        # windows 4 and 5 read frames 4..7 and target frames 11 and 12, so
        # frames 8..10 are read by no window; they are stored as they are
        part = make_samples(seq, 3, 5).subset(np.s_[4:6])
        save_samples(tmp_path / "s.btar", part)
        assert _same_bits(archive_load(tmp_path / "s.btar")["frames"],
                          seq.frames[4:13])
        loaded = load_samples(tmp_path / "s.btar")
        assert _same_bits(loaded.inputs, np.ascontiguousarray(part.inputs))
        assert _same_bits(loaded.targets, np.ascontiguousarray(part.targets))

    @pytest.mark.parametrize("window_slice", [np.s_[:0], np.s_[7:], np.s_[5:2]])
    def test_a_set_with_no_windows_is_not_saved(self, tmp_path, window_slice):
        empty = make_samples(self._seq(10), 3, 1).subset(window_slice)
        assert len(empty) == 0 and empty.inputs.shape[1:] == (3, 3, 2, 2)
        with pytest.raises(ValueError, match="at least one window"):
            save_samples(tmp_path / "s.btar", empty)
        assert os.listdir(tmp_path) == []

    def test_subset_takes_contiguous_windows(self):
        samples = make_samples(self._seq(10), 3, 1)
        for window_slice in (np.s_[::2], np.s_[::-1]):
            with pytest.raises(ValueError, match="contiguous"):
                samples.subset(window_slice)


class TestSplits:
    @staticmethod
    def _samples(n_frames=40, lags=3, horizon=2):
        seq = FrameSequence(np.arange(float(n_frames)).reshape(-1, 1, 1, 1), 5)
        return make_samples(seq, lags, horizon)

    def test_chronological_order_kept(self):
        # frame i holds the value i, so a window's first frame is its start
        train, val, test = split_counts(self._samples(), 20, 5, 4)
        for part, first in [(train, 0), (val, 20), (test, 25)]:
            np.testing.assert_array_equal(part.inputs[:, 0].ravel(),
                                          np.arange(first, first + len(part)))

    def test_empty_partition_raises(self):
        samples = self._samples()
        for counts in [(0, 5, 4), (20, 0, 4), (20, 5, 0)]:
            with pytest.raises(ValueError):
                split_counts(samples, *counts)

    def test_split_counts(self):
        samples = self._samples()
        train, val, test = split_counts(samples, 20, 5, 4)
        assert (len(train), len(val), len(test)) == (20, 5, 4)
        assert train.inputs[0, 0] == 0
        assert val.inputs[0, 0] == 20
        assert test.inputs[0, 0] == 25
        assert train.metadata == test.metadata == {"cadence_minutes": 5}

    def test_split_counts_overflow(self):
        samples = self._samples()
        with pytest.raises(ValueError):
            split_counts(samples, 30, 30, 30)


class TestSynthAdvection:
    def test_deterministic(self):
        cfg = SynthConfig(seed=5)
        a = synth_advection(cfg)
        b = synth_advection(cfg)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_integer_velocity_is_exact_shift(self):
        cfg = SynthConfig(height=16, width=16, n_frames=6, velocity=(1, 2),
                          seed=1)
        seq = synth_advection(cfg)
        for t in range(1, 6):
            expected = np.roll(seq.frames[0], (t, 2 * t), axis=(0, 1))
            np.testing.assert_allclose(seq.frames[t], expected, atol=1e-6)

    def test_zero_velocity_static(self):
        seq = synth_advection(SynthConfig(n_frames=4, velocity=(0, 0), seed=2))
        for t in range(1, 4):
            np.testing.assert_array_equal(seq.frames[t], seq.frames[0])

    def test_value_range_and_shape(self):
        cfg = SynthConfig(height=16, width=24, n_frames=5, seed=3)
        seq = synth_advection(cfg)
        assert seq.frames.shape == (5, 16, 24, 1)
        assert seq.frames.dtype == np.float32
        assert seq.frames.min() >= 0.0 and seq.frames.max() <= 1.0
        assert seq.frames.max() > 0.1  # blobs actually present

    def test_different_seeds_differ(self):
        a = synth_advection(SynthConfig(seed=1))
        b = synth_advection(SynthConfig(seed=2))
        assert not np.array_equal(a.frames, b.frames)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(height=4)
        with pytest.raises(ValueError):
            SynthConfig(n_frames=0)


class TestPersistenceIO:
    def test_frames_round_trip_with_manifest(self, tmp_path):
        seq = synth_advection(SynthConfig(n_frames=4, seed=7))
        seq.metadata["norm_factor"] = 2.5
        path = tmp_path / "frames.btar"
        save_frames(path, seq)
        loaded = load_frames(path)
        np.testing.assert_array_equal(loaded.frames, seq.frames)
        assert loaded.cadence_minutes == 5.0
        assert loaded.metadata == {"norm_factor": 2.5, "source": "synthetic"}
        assert os.listdir(tmp_path) == ["frames.btar"]  # no side file
        raw = np.ones((3, 765, 700, 1), dtype=np.float32)
        clean = precip_preprocess(
            FrameSequence(raw, 5.0, metadata={"source": "radar"}), 0.5)
        save_frames(path, clean)
        loaded = load_frames(path)
        assert loaded.metadata == {**clean.metadata, "crop_offsets": [238, 206]}
        assert loaded.metadata["source"] == "radar"
        # the cadence is a key of the metadata, and an archive of the old
        # layout, which kept it in a record of its own, names what it lacks
        assert json.loads(bytes(archive_load(path)["metadata"])) == {
            **loaded.metadata, "cadence_minutes": 5.0}
        archive_save(path, {"frames": seq.frames,
                            "cadence_minutes": np.array([5.0])})
        with pytest.raises(DataError, match="lacks the 'metadata' record"):
            load_frames(path)
        archive_save(path, {"frames": seq.frames,
                            "cadence_minutes": np.array([5.0]),
                            "metadata": json_record({"source": "synthetic"})})
        with pytest.raises(DataError, match="cadence_minutes and, if any, "
                                            "norm_factor in its metadata"):
            load_frames(path)

    def test_samples_round_trip(self, tmp_path):
        seq = synth_advection(SynthConfig(n_frames=8, seed=8))
        seq.metadata["norm_factor"] = 0.25
        samples = make_samples(seq, lags=3, horizon=2)
        path = tmp_path / "samples.btar"
        save_samples(path, samples)
        records = archive_load(path)
        assert set(records) == {"frames", "metadata"}
        # each of the 8 frames once, not 4 windows of 3 + 1 frames
        np.testing.assert_array_equal(records["frames"], seq.frames)
        loaded = load_samples(path)
        np.testing.assert_array_equal(loaded.inputs, samples.inputs)
        np.testing.assert_array_equal(loaded.targets, samples.targets)
        assert (loaded.lags, loaded.horizon) == (3, 2)
        assert loaded.metadata == samples.metadata == {
            "source": "synthetic", "norm_factor": 0.25, "cadence_minutes": 5.0}
