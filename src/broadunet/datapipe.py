"""Dataset containers, preprocessing pipelines and sample construction.

Covers the precipitation-radar and cloud-cover label pipelines, lag/horizon
sample windows, chronological splits and a synthetic advection generator for
desk-scale experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .archive import archive_load, archive_save, json_record, read_json_record

PRECIP_RAW_SHAPE = (765, 700)
PRECIP_CROP = 288
CLOUD_SIZE = 256
CLOUD_BBOX = (51.896, 41.104, -5.842, 9.842)  # upper lat, lower lat, left lon, right lon


class DataError(ValueError):
    """Raw input data violates the pipeline's contract."""


@dataclass
class FrameSequence:
    """Time-ordered frames of shape (N, H, W, C) plus pipeline metadata."""

    frames: np.ndarray
    cadence_minutes: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 4:
            raise ValueError(f"frames must be (N, H, W, C), got {self.frames.shape}")
        if self.cadence_minutes <= 0:
            raise ValueError("cadence must be positive")

    def __len__(self):
        return self.frames.shape[0]


@dataclass
class SampleSet:
    """(input, target) windows of one run of frames, plus the frames'
    metadata and cadence.

    `inputs` (N, T, H, W, F) and `targets` (N, 1, H, W, F) are read-only
    views of `frame_run`, derived at construction, so each frame is held
    once; see `_windows`. The frames must be ones a network takes, f32 or
    f64 with positive H, W and F, or construction raises `DataError`."""

    frame_run: np.ndarray   # (N + lags + horizon - 1, H, W, F)
    lags: int
    horizon: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        run = self.frame_run
        if run.dtype not in (np.float32, np.float64) or 0 in run.shape[1:]:
            raise DataError(f"samples need f32 or f64 frames with positive H, "
                            f"W and C, not {run.dtype} frames of shape "
                            f"{run.shape}")
        self.inputs, self.targets = _windows(self.frame_run, self.lags,
                                             self.horizon)

    def __len__(self):
        return self.inputs.shape[0]

    def subset(self, windows: slice) -> "SampleSet":
        """The contiguous `windows`, over just the frames they read."""
        picked = range(len(self))[windows]
        if picked.step != 1:
            raise ValueError(f"a subset takes contiguous windows, not {windows}")
        end = picked.start + len(picked) + self.lags + self.horizon - 1
        return SampleSet(self.frame_run[picked.start:end], self.lags,
                         self.horizon, self.metadata)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def precip_preprocess(seq: FrameSequence, rain_fraction: float,
                      train_fraction: float = 0.8) -> FrameSequence:
    """Central 288x288 crop, rain-fraction filter, training-max normalization.

    Crop offsets are floor((dim - 288) / 2): rows [238, 526), cols [206, 494).
    Frames are kept when the fraction of pixels with value > 0 is at least
    `rain_fraction`. All kept frames are divided by the maximum value over the
    first `train_fraction` of them; that maximum lands in the metadata.
    """
    if not 0 < train_fraction <= 1:
        raise ValueError(f"train fraction must be in (0, 1], got {train_fraction}")
    if not 0 <= rain_fraction <= 1:
        raise ValueError(f"rain fraction must be in [0, 1], got {rain_fraction}")
    frames = seq.frames
    if frames.shape[1:3] != PRECIP_RAW_SHAPE or frames.shape[3] != 1:
        raise DataError(
            f"expected (N, 765, 700, 1) radar frames, got {frames.shape}")
    r0 = (PRECIP_RAW_SHAPE[0] - PRECIP_CROP) // 2
    c0 = (PRECIP_RAW_SHAPE[1] - PRECIP_CROP) // 2
    cropped = frames[:, r0:r0 + PRECIP_CROP, c0:c0 + PRECIP_CROP, :]
    wet = (cropped > 0).mean(axis=(1, 2, 3))
    kept = cropped[wet >= rain_fraction].astype(np.float32)
    if len(kept) == 0:
        raise DataError(f"no frame passes the rain fraction {rain_fraction}")
    n_train = max(1, int(len(kept) * train_fraction))
    norm = float(kept[:n_train].max())
    if norm <= 0:
        raise DataError("training portion has no positive rainfall value")
    normalized = kept / norm
    threshold_mean = float(normalized[:n_train].mean())
    return FrameSequence(
        normalized, seq.cadence_minutes,
        metadata={
            "norm_factor": norm,
            "rain_fraction": rain_fraction,
            "threshold_mean": threshold_mean,
            "crop_offsets": (r0, c0),
            "source": seq.metadata.get("source", "precipitation"),
        })


def cloud_preprocess(seq: FrameSequence, lats: np.ndarray,
                     lons: np.ndarray) -> FrameSequence:
    """Label grouping, geographic crop and nearest-neighbor resize to 256x256.

    Labels 1..4 become 0 (no cloud), 5..15 become 1 (cloud). `lats`/`lons`
    give the geolocation of the source grid's rows and columns; the crop
    keeps the France bounding box. Nearest-neighbor resizing preserves the
    binary label space exactly.
    """
    frames = seq.frames
    bad = (frames < 1) | (frames > 15)
    if bad.any():
        i, h, w, c = np.argwhere(bad)[0]
        raise DataError(
            f"label {int(frames[i, h, w, c])} outside 1..15 in frame {i} "
            f"at pixel ({h}, {w})")
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != (frames.shape[1],) or lons.shape != (frames.shape[2],):
        raise DataError(f"lats/lons must match the frame grid: lats "
                        f"{lats.shape} and lons {lons.shape} for frames "
                        f"{frames.shape}")
    upper, lower, left, right = CLOUD_BBOX
    rows = np.flatnonzero((lats >= lower) & (lats <= upper))
    cols = np.flatnonzero((lons >= left) & (lons <= right))
    if rows.size == 0 or cols.size == 0:
        raise DataError("bounding box selects no pixels")
    binary = (frames >= 5).astype(np.float32)
    cropped = binary[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1, :]
    hc, wc = cropped.shape[1:3]
    ri = np.minimum((np.arange(CLOUD_SIZE) + 0.5) * hc / CLOUD_SIZE, hc - 1).astype(int)
    ci = np.minimum((np.arange(CLOUD_SIZE) + 0.5) * wc / CLOUD_SIZE, wc - 1).astype(int)
    resized = cropped[:, ri][:, :, ci]
    return FrameSequence(
        resized, seq.cadence_minutes,
        metadata={"norm_factor": 1.0,
                  "source": seq.metadata.get("source", "cloud_cover")})


# ---------------------------------------------------------------------------
# Samples and splits
# ---------------------------------------------------------------------------

def _windows(frames, lags, horizon):
    """(inputs, targets): read-only (N, T, ...) and (N, 1, ...) views of
    `frames`. Window i reads frames i..i+lags-1 and targets frame
    i+lags-1+horizon, so N = len(frames) - lags - horizon + 1."""
    count = len(frames) - lags - horizon + 1
    step, *rest = frames.strides

    def view(first, length):
        return np.lib.stride_tricks.as_strided(
            frames[first:], (count, length, *frames.shape[1:]),
            (step, step, *rest), writeable=False)

    return view(0, lags), view(lags - 1 + horizon, 1)


def make_samples(seq: FrameSequence, lags: int, horizon: int) -> SampleSet:
    """One sample per start index: T consecutive input frames, target
    exactly `horizon` steps after the last input frame. The windows are
    views of the frames; nothing is copied."""
    if lags < 1 or horizon < 1:
        raise ValueError("lags and horizon must be positive")
    if len(seq) < lags + horizon:
        raise ValueError(f"sequence of {len(seq)} frames too short for "
                         f"lags={lags}, horizon={horizon}")
    return SampleSet(seq.frames, lags, horizon,
                     {**seq.metadata, "cadence_minutes": seq.cadence_minutes})


def split_counts(samples: SampleSet, n_train: int, n_val: int, n_test: int):
    """Chronological split by sample counts: the first `n_train` windows,
    then `n_val`, then `n_test`."""
    if n_train + n_val + n_test > len(samples):
        raise ValueError(
            f"requested {n_train + n_val + n_test} samples, have {len(samples)}")
    if min(n_train, n_val, n_test) < 1:
        raise ValueError("all partitions must be nonempty")
    a, b = n_train, n_train + n_val
    return (samples.subset(np.s_[:a]), samples.subset(np.s_[a:b]),
            samples.subset(np.s_[b:b + n_test]))


# ---------------------------------------------------------------------------
# Synthetic advection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    height: int = 32
    width: int = 32
    n_frames: int = 64
    n_blobs: int = 3
    velocity: tuple = (0.0, 1.0)   # (dy, dx) per frame
    blob_sigma: float = 2.5
    seed: int = 0

    def __post_init__(self):
        if self.height < 8 or self.width < 8:
            raise ValueError("H and W must be at least 8")
        if self.n_frames < 1 or self.n_blobs < 1:
            raise ValueError("need at least one frame and one blob")
        if not 0 < self.blob_sigma < np.inf:
            raise ValueError(f"blob sigma must be finite and positive, "
                             f"got {self.blob_sigma}")
        if not np.isfinite(self.velocity).all():
            raise ValueError(f"velocity must be finite, got {self.velocity}")


_SYNTH_CHUNK_PIXELS = 1 << 16


def _profiles(centers, velocity, extent, n_frames, inv):
    """exp(-d^2 * inv) per blob, frame and position along one axis, shape
    (n_blobs, n_frames, extent), where d is the toroidal distance from each
    position to the blob's center moved `velocity` per frame."""
    pos = np.arange(extent, dtype=np.float64)
    t = np.arange(n_frames, dtype=np.float64)[:, None]
    d = (pos - centers[:, None, None] - velocity * t) % extent
    d = np.minimum(d, extent - d)
    return np.exp(-(d * d) * inv)


def synth_advection(cfg: SynthConfig) -> FrameSequence:
    """Gaussian blobs translated by `velocity` per frame with toroidal wrap.

    Blob intensity uses the toroidal distance to each center, so an integer
    velocity produces frames that are exact circular shifts of each other.
    Values are clipped to [0, 1]; the sequence is deterministic per seed.

    A Gaussian is separable, exp(-(dy^2 + dx^2) inv) = exp(-dy^2 inv)
    exp(-dx^2 inv), so each blob's row and column profiles are computed once
    for all frames, and a frame is the sum, in blob order, of their outer
    products. Frames are summed in chunks of about 2^16 pixels, which keeps
    the float64 working set small and pays the Python overhead once per
    chunk rather than once per frame and blob.
    """
    rng = np.random.default_rng(cfg.seed)
    centers = rng.uniform((0, 0), (cfg.height, cfg.width), size=(cfg.n_blobs, 2))
    vy, vx = cfg.velocity
    inv = 1.0 / (2.0 * cfg.blob_sigma ** 2)
    row_profiles = _profiles(centers[:, 0], vy, cfg.height, cfg.n_frames, inv)
    col_profiles = _profiles(centers[:, 1], vx, cfg.width, cfg.n_frames, inv)
    frames = np.empty((cfg.n_frames, cfg.height, cfg.width, 1), dtype=np.float32)
    step = max(1, _SYNTH_CHUNK_PIXELS // (cfg.height * cfg.width))
    for start in range(0, cfg.n_frames, step):
        chunk = np.s_[start:start + step]
        rows = row_profiles[:, chunk, :, None]
        cols = col_profiles[:, chunk, None, :]
        total = rows[0] * cols[0]
        for blob in range(1, cfg.n_blobs):
            total += rows[blob] * cols[blob]
        frames[chunk, :, :, 0] = np.clip(total, 0.0, 1.0, out=total)
    return FrameSequence(frames, cadence_minutes=5.0,
                         metadata={"norm_factor": 1.0, "source": "synthetic"})


# ---------------------------------------------------------------------------
# On-disk helpers
# ---------------------------------------------------------------------------

def save_frames(path, seq: FrameSequence) -> None:
    archive_save(path, {
        "frames": seq.frames,
        "metadata": json_record({**seq.metadata,
                                 "cadence_minutes": seq.cadence_minutes}),
    })


def _finite_positive(value) -> bool:
    """Whether a metadata value is a finite positive JSON number; a JSON
    true loads as a bool, which is an int but no number here."""
    return type(value) in (int, float) and 0 < value < np.inf


def _frame_run(records, path, kind) -> tuple:
    """(frames, metadata) that the records of `kind` archive `path` hold:
    its `frames` record, which must be (N, H, W, C) and finite, and the JSON
    object in its `metadata` record, which must hold a finite positive
    cadence_minutes and may hold a finite positive norm_factor."""
    missing = [name for name in ("frames", "metadata") if name not in records]
    if missing:
        raise DataError(f"{path} is not a {kind} archive: it lacks the "
                        f"{', '.join(map(repr, missing))} record(s)")
    meta = read_json_record(records["metadata"], f"the metadata of {path}")
    if not isinstance(meta, dict):
        raise DataError(f"{kind} archive {path} needs its metadata to be a "
                        f"JSON object; it holds {meta!r:.60}")
    cadence, norm = meta.get("cadence_minutes"), meta.get("norm_factor", 1.0)
    if not (_finite_positive(cadence) and _finite_positive(norm)):
        raise DataError(
            f"{kind} archive {path} needs a finite positive cadence_minutes "
            f"and, if any, norm_factor in its metadata; it holds {cadence!r} "
            f"and {meta.get('norm_factor')!r}")
    frames = records["frames"]
    if frames.ndim != 4:
        raise DataError(f"{kind} archive {path} needs (N, H, W, C) frames; "
                        f"it holds frames of shape {frames.shape}")
    finite = np.isfinite(frames).all(axis=(1, 2, 3))
    if not finite.all():
        raise DataError(f"{kind} archive {path} holds non-finite values, "
                        f"first in frame {int(np.argmin(finite))}")
    return frames, meta


def load_frames(path) -> FrameSequence:
    return frames_from_records(archive_load(path), path)


def frames_from_records(records, path) -> FrameSequence:
    """The frames that the records of archive `path` hold."""
    frames, meta = _frame_run(records, path, "frames")
    return FrameSequence(frames, meta.pop("cadence_minutes"), metadata=meta)


def save_samples(path, samples: SampleSet) -> None:
    """The set's frame run, each frame once, as a frames archive whose
    metadata adds the lags and horizon; its windows follow from those. A
    set with no windows is not written."""
    if len(samples) < 1:
        raise ValueError("a samples file needs at least one window")
    archive_save(path, {
        "frames": samples.frame_run,
        "metadata": json_record({**samples.metadata, "lags": samples.lags,
                                 "horizon": samples.horizon}),
    })


def load_samples(path) -> SampleSet:
    frames, meta = _frame_run(archive_load(path), path, "samples")
    lags, horizon = meta.pop("lags", None), meta.pop("horizon", None)
    if not (type(lags) is int and lags >= 1 and type(horizon) is int
            and horizon >= 1):
        raise DataError(
            f"samples archive {path} needs a whole lags and horizon >= 1 in "
            f"its metadata; it holds {lags!r} and {horizon!r}")
    if len(frames) < lags + horizon:
        raise DataError(
            f"samples archive {path} holds {len(frames)} frames, too few for "
            f"one window of lags={lags}, horizon={horizon}")
    try:
        return SampleSet(frames, lags, horizon, meta)
    except DataError as exc:
        raise DataError(f"samples archive {path}: {exc}") from None
