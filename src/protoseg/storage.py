"""Binary tensor records and the multi-tensor checkpoint files built from them.

Layout of one tensor record, all integers little-endian:

    magic   4 bytes  b"LTSR"
    version u8       currently 1
    dtype   u8       0 = float32, 1 = float64
    rank    u8
    zero    u8       reserved, must be 0
    extents rank * u32
    payload product(extents) elements, row-major

A checkpoint file is a single JSON header line (terminated by \\n) followed by
one tensor record per parameter, in the order the header lists them.
"""

from __future__ import annotations

import io
import json
import os
from typing import BinaryIO, Union

import numpy as np

from .errors import FormatError

MAGIC = b"LTSR"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_tensor(fh: BinaryIO, array: np.ndarray) -> None:
    """Serialize one array onto a binary stream."""
    # np.ascontiguousarray would promote rank 0 to rank 1; asarray keeps it
    arr = np.asarray(array, order="C")
    dt = arr.dtype.newbyteorder("<")
    if dt not in _DTYPE_CODES:
        raise FormatError("dtype: unsupported dtype %s (need float32 or float64)"
                          % arr.dtype.name)
    if arr.ndim > 255:
        raise FormatError("rank: %d exceeds the format limit of 255" % arr.ndim)
    for ext in arr.shape:
        if ext >= 2 ** 32:
            raise FormatError("extents: extent %d does not fit in u32" % ext)
    header = bytearray()
    header += MAGIC
    header += bytes([VERSION, _DTYPE_CODES[dt], arr.ndim, 0])
    header += np.asarray(arr.shape, dtype="<u4").tobytes()
    fh.write(bytes(header))
    fh.write(arr.astype(dt, copy=False).tobytes(order="C"))


def _take(fh: BinaryIO, n: int, field: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError("%s: truncated record (wanted %d bytes, got %d)"
                          % (field, n, len(buf)))
    return buf


def read_tensor(fh: BinaryIO) -> np.ndarray:
    """Read one tensor record from a seekable binary stream. Every header
    field is checked, and the payload size against the bytes left in the
    stream, before the payload is read."""
    magic = _take(fh, 4, "magic")
    if magic != MAGIC:
        raise FormatError("magic: expected %r, found %r" % (MAGIC, magic))
    version, dtype_code, rank, reserved = _take(fh, 4, "header")
    if version != VERSION:
        raise FormatError("version: unsupported version %d" % version)
    if dtype_code not in _CODE_DTYPES:
        raise FormatError("dtype: unknown dtype code %d" % dtype_code)
    if reserved != 0:
        raise FormatError("reserved: byte must be 0, found %d" % reserved)
    extents = np.frombuffer(_take(fh, 4 * rank, "extents"), dtype="<u4")
    shape = tuple(int(e) for e in extents)
    dt = _CODE_DTYPES[dtype_code]
    nbytes = dt.itemsize
    for e in shape:
        nbytes *= e
    here = fh.tell()
    left = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    if nbytes > left:
        raise FormatError("payload: extents %s need %d bytes, %d remain"
                          % (shape, nbytes, left))
    payload = _take(fh, nbytes, "payload")
    return np.frombuffer(payload, dtype=dt).reshape(shape).copy()


# ---------------------------------------------------------------------------
# checkpoints


def _parameter_names(header: dict) -> list[str]:
    names = header.get("parameters")
    if not isinstance(names, list):
        raise FormatError("parameters: header field missing or not a list")
    if (not all(isinstance(n, str) for n in names)
            or len(set(names)) != len(names)):
        raise FormatError("parameters: entries must be distinct strings")
    return names


def write_checkpoint(path: Union[str, os.PathLike], header: dict,
                     arrays: dict[str, np.ndarray]) -> None:
    """header must carry a 'parameters' name list matching `arrays` exactly."""
    names = _parameter_names(header)
    if set(names) != set(arrays):
        raise FormatError("parameters: header list does not match supplied arrays")
    buf = io.BytesIO()
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    buf.write(line.encode("utf-8"))
    buf.write(b"\n")
    for name in names:
        write_tensor(buf, arrays[name])
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_checkpoint(path: Union[str, os.PathLike]) -> tuple[dict, dict[str, np.ndarray]]:
    """Header object plus every listed array; bytes after the last record
    are rejected."""
    with open(path, "rb") as raw:
        fh = io.BytesIO(raw.read())
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError("header: missing newline-terminated JSON header")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError("header: %s" % e) from e
    if not isinstance(header, dict):
        raise FormatError("header: expected a JSON object, found %s"
                          % type(header).__name__)
    arrays = {name: read_tensor(fh) for name in _parameter_names(header)}
    if fh.read(1):
        raise FormatError("payload: trailing bytes after final tensor record")
    return header, arrays
