"""8-bit binary NetPBM (P5) grayscale output with min-max scaling."""

from __future__ import annotations

import numpy as np

from .archive import atomic_write


def write_pgm(path, img: np.ndarray):
    """Write a 2D array as P5, min-max scaled to 0..255.

    Returns (lo, hi), the values mapped to 0 and 255, so the scale can be
    recorded alongside the image. A constant image maps to all zeros.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"PGM output needs a 2D array, got shape {img.shape}")
    lo = float(img.min())
    hi = float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    h, w = img.shape
    with atomic_write(path) as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(scaled.astype(np.uint8).tobytes())
    return lo, hi


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P5":
            raise ValueError(f"not a binary PGM file: {magic!r}")
        dims = f.readline().split()
        w, h = int(dims[0]), int(dims[1])
        maxval = int(f.readline())
        if maxval != 255:
            raise ValueError(f"only 8-bit PGM supported, got maxval {maxval}")
        data = f.read(w * h)
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)
