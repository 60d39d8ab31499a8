"""BTAR: a tiny binary container for named tensors.

Layout (all integers little-endian):
    magic "BTAR" | version u32 = 1 | record count u32
    per record: name length u16 | name UTF-8 | dtype code u8 | rank u8
                | dims u64 each | raw little-endian payload

dtype codes: 1 = f32, 2 = f64, 3 = u8. Round trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"BTAR"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
_CODES_BY_KIND = {dtype.str: code for code, dtype in _DTYPE_CODES.items()}


class FormatError(ValueError):
    """Malformed archive bytes; the message carries the byte offset."""


def _dtype_code(arr: np.ndarray) -> int:
    code = _CODES_BY_KIND.get(arr.dtype.str)
    if code is None:
        raise ValueError(f"unsupported dtype {arr.dtype} (use f32, f64 or u8)")
    return code


@contextlib.contextmanager
def atomic_write(path, mode="wb", **open_kwargs):
    """A file that becomes `path` whole when the block ends, or not at all:
    it is written as `<path>.tmp` beside it, which any exception removes.
    An OSError about the temp file is raised as one about `path`."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def archive_save(path, records: dict) -> None:
    """Write named arrays to `path`. Names must be unique (dict guarantees it)."""
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(records)))
        for name, arr in records.items():
            arr = np.asarray(arr)
            code = _dtype_code(arr)
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"record name too long: {name[:32]}...")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<BB", code, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            # the buffer itself, so a contiguous payload is written uncopied
            f.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).data)


def json_record(value) -> np.ndarray:
    """`value` as a u8 record of its UTF-8 JSON text, keys sorted."""
    return np.frombuffer(json.dumps(value, sort_keys=True).encode("utf-8"),
                         dtype=np.uint8)


def read_json_record(arr, what):
    """The value of a `json_record`; a record that is not u8 UTF-8 JSON
    text is a FormatError naming `what`."""
    if arr.dtype != np.uint8:
        raise FormatError(f"{what} holds {arr.dtype} values, not u8 JSON text")
    try:
        return json.loads(arr.tobytes().decode("utf-8"))
    except ValueError as exc:  # a bad byte or bad JSON
        raise FormatError(f"{what} is not UTF-8 JSON: {exc}") from exc


@contextlib.contextmanager
def _naming(path):
    """A FormatError raised in the block is raised again with `path` first."""
    try:
        yield
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def archive_load(path) -> dict:
    """Read all records from `path`; raises FormatError, naming `path`, on
    malformed input.

    Each payload is checked against the file size, then read straight into
    its own fresh array.
    """
    with open(path, "rb") as f, _naming(path):
        size = os.fstat(f.fileno()).st_size
        offset = 0

        def take(n, what):
            nonlocal offset
            chunk = f.read(n)
            if len(chunk) != n:
                raise FormatError(f"truncated archive: {what} at offset {offset}")
            offset += n
            return chunk

        if take(4, "magic") != MAGIC:
            raise FormatError("bad magic at offset 0")
        version, count = struct.unpack("<II", take(8, "header"))
        if version != VERSION:
            raise FormatError(f"unsupported version {version} at offset 4")
        records = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            try:
                name = take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"record name is not UTF-8 at offset {offset - name_len}") from exc
            code, rank = struct.unpack("<BB", take(2, "dtype/rank"))
            if code not in _DTYPE_CODES:
                raise FormatError(f"unknown dtype code {code} at offset {offset - 2}")
            dims = struct.unpack(f"<{rank}Q", take(8 * rank, "dims"))
            dtype = _DTYPE_CODES[code]
            # Python ints cannot overflow, so huge dims fail the size check
            # before anything is allocated
            nbytes = math.prod(dims) * dtype.itemsize
            truncated = f"truncated archive: payload of {name!r} at offset {offset}"
            if offset + nbytes > size:
                raise FormatError(truncated)
            offset += nbytes
            if name in records:
                raise FormatError(f"duplicate record name {name!r} at offset {offset}")
            try:
                arr = np.empty(dims, dtype=dtype)
            except ValueError as exc:  # a zero dim beside dims numpy cannot index
                raise FormatError(
                    f"unsupported dims {dims} of {name!r} at offset {offset}") from exc
            if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise FormatError(truncated)  # the file shrank meanwhile
            records[name] = arr
    return records
