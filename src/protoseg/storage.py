"""Checkpoint files: one JSON header line, then the raw tensors.

The header is a sorted JSON object on one line, terminated by \\n. Its
`tensors` list, which this module owns, is the file's only table of
contents: one `[name, dtype, shape]` entry per array, in file order, where
dtype is "<f4" or "<f8" and shape is a list of non-negative extents. The
payloads follow the header back to back, each row-major and little-endian,
with nothing between them and nothing after the last.
"""

from __future__ import annotations

import json
import math
import os
from typing import Union

import numpy as np

from .errors import FormatError

DTYPES = ("<f4", "<f8")


def write_checkpoint(path: Union[str, os.PathLike], header: dict,
                     arrays: dict[str, np.ndarray]) -> None:
    """Write header, with a `tensors` entry per array added, then the arrays
    in the mapping's order. Every check runs before the file is opened, so a
    refused write leaves an existing file as it was."""
    if "tensors" in header:
        raise FormatError("tensors: header field is written by storage")
    tensors, payloads = [], []
    for name, array in arrays.items():
        if not isinstance(name, str):
            raise FormatError("tensors: name %r is not a string" % (name,))
        # np.ascontiguousarray would promote rank 0 to rank 1; asarray keeps it
        arr = np.asarray(array, order="C")
        dt = arr.dtype.newbyteorder("<")
        if dt.str not in DTYPES:
            raise FormatError("tensors: %r has unsupported dtype %s (need "
                              "float32 or float64)" % (name, arr.dtype.name))
        tensors.append([name, dt.str, list(arr.shape)])
        payloads.append(arr.astype(dt, copy=False))
    line = json.dumps(dict(header, tensors=tensors), sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"
    with open(path, "wb") as fh:
        fh.write(line)
        for arr in payloads:
            fh.write(arr)


def read_checkpoint(path: Union[str, os.PathLike]) -> tuple[dict, dict[str, np.ndarray]]:
    """The header without `tensors`, plus every listed array in file order.
    Each payload is checked against the bytes left before it is read, and
    bytes after the last one are rejected."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    if end < 0:
        raise FormatError("header: missing newline-terminated JSON header")
    try:
        header = json.loads(data[:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError("header: %s" % e) from e
    if not isinstance(header, dict):
        raise FormatError("header: expected a JSON object, found %s"
                          % type(header).__name__)
    tensors = header.pop("tensors", None)
    if not isinstance(tensors, list):
        raise FormatError("tensors: header field missing or not a list")
    arrays: dict[str, np.ndarray] = {}
    offset = end + 1
    for entry in tensors:
        if not isinstance(entry, list) or len(entry) != 3:
            raise FormatError("tensors: entry %r is not [name, dtype, shape]"
                              % (entry,))
        name, dtype, shape = entry
        if not isinstance(name, str) or name in arrays:
            raise FormatError("tensors: names must be distinct strings, "
                              "found %r" % (name,))
        if dtype not in DTYPES:
            raise FormatError("tensors: %r has dtype %r, not one of %s"
                              % (name, dtype, DTYPES))
        # bool is an int subclass
        if not (isinstance(shape, list)
                and all(type(e) is int and e >= 0 for e in shape)):
            raise FormatError("tensors: %r has shape %r, not a list of "
                              "non-negative integers" % (name, shape))
        dt, count = np.dtype(dtype), math.prod(shape)
        nbytes, left = count * dt.itemsize, len(data) - offset
        if nbytes > left:
            raise FormatError("payload: %r of shape %s needs %d bytes, %d remain"
                              % (name, shape, nbytes, left))
        arrays[name] = np.frombuffer(data, dt, count, offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise FormatError("payload: %d trailing bytes after the last tensor"
                          % (len(data) - offset))
    return header, arrays
