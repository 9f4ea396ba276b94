"""CBNW: a little-endian binary container for named float64 arrays.

Layout, all integers little-endian:

    magic "CBNW" | u32 version (=1) | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 ndim | ndim * u32 dims
                | row-major float64 payload

Round trips are byte-exact: loading preserves entry order, so saving a
loaded mapping reproduces the original file bit for bit.  Names are
non-empty and payloads finite: both directions reject NaN and inf.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

MAGIC = b"CBNW"
VERSION = 1
_MAX_NDIM = 64  # numpy's limit on array dims
_token = os.urandom  # the random bytes of a temporary file's name


class WeightFormatError(ValueError):
    """A CBNW file (or mapping destined for one) is malformed."""


def create_beside(path):
    """Create a new file `<path>.<random>.tmp` beside `path`, with the mode `open()`
    gives (0o666 less the umask), and return (fd, name).  Refuses a `path` that
    exists and is not a regular file.  O_EXCL never follows a link or opens a file
    that is there, so a name that any entry takes is drawn again."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"{os.fspath(path)!r} exists and is not a regular file")
    while True:
        name = f"{os.fspath(path)}.{_token(8).hex()}.tmp"
        with contextlib.suppress(FileExistsError):
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name


def write_atomic(path, write):
    """Call `write(fh)` on the file `create_beside(path)` makes, then rename it over
    `path`: on any error the file is closed and removed and `path` is left as it
    was.  Durability is the caller's: a `write` that must survive a crash fsyncs."""
    fd, tmp = create_beside(path)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_weights(named, path):
    """Write a name -> array mapping in insertion order.

    Names, dims and finiteness are checked before anything is written; the file
    goes through `write_atomic`, fsynced before the rename (a checkpoint costs a
    training run)."""
    entries = []
    for name, arr in named.items():
        raw = name.encode("utf-8")
        if not raw or len(raw) > 0xFFFF:
            raise WeightFormatError(f"bad tensor name {name!r}")
        arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
        if any(d > 0xFFFFFFFF for d in arr.shape):
            raise WeightFormatError(f"tensor {name!r} has a dim above 2**32 - 1")
        if not np.isfinite(arr).all():
            raise WeightFormatError(f"tensor {name!r} holds NaN or inf")
        entries.append((raw, arr))

    def write(fh):
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for raw, arr in entries:
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())
        fh.flush()
        os.fsync(fh.fileno())

    write_atomic(path, write)


class _Reader:
    """Cursor over the file's bytes; `take` returns a view, not a copy."""

    def __init__(self, blob):
        self.blob = memoryview(blob)
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.blob):
            raise WeightFormatError(f"truncated file while reading {what}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, fmt, what):
        (v,) = struct.unpack("<" + fmt, self.take(struct.calcsize(fmt), what))
        return v


def load_weights(path):
    """Read a CBNW file back into an ordered name -> array dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4, "magic") != MAGIC:
        raise WeightFormatError(f"{path}: not a CBNW file (bad magic)")
    version = r.u("I", "version")
    if version != VERSION:
        raise WeightFormatError(f"{path}: unsupported version {version}")
    count = r.u("I", "tensor count")
    named = {}
    for _ in range(count):
        nlen = r.u("H", "name length")
        try:
            name = bytes(r.take(nlen, "tensor name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFormatError(f"{path}: undecodable tensor name") from exc
        if not name:
            raise WeightFormatError(f"{path}: empty tensor name")
        if name in named:
            raise WeightFormatError(f"{path}: duplicate tensor {name!r}")
        ndim = r.u("B", f"ndim of {name!r}")
        if ndim > _MAX_NDIM:
            raise WeightFormatError(f"{path}: tensor {name!r} has {ndim} dims, "
                                    f"more than the {_MAX_NDIM} numpy supports")
        dims = tuple(r.u("I", f"dims of {name!r}") for _ in range(ndim))
        size = 1
        for d in dims:
            size *= d
        payload = r.take(8 * size, f"payload of {name!r}")
        # the one copy of the payload: out of the file's bytes, native-endian
        arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        if not np.isfinite(arr).all():
            raise WeightFormatError(f"{path}: tensor {name!r} holds NaN or inf")
        named[name] = arr
    if r.pos != len(blob):
        raise WeightFormatError(f"{path}: trailing data after last tensor")
    return named
