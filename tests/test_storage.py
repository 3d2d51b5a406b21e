"""Tensor record and checkpoint container: round trips and corruption."""

import io
import json

import numpy as np
import pytest

from protoseg.errors import FormatError
from protoseg.storage import (read_checkpoint, read_tensor, write_checkpoint,
                              write_tensor)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), (2, 3, 4), (1, 2, 3, 4)])
def test_tensor_round_trip(dtype, shape):
    rng = np.random.default_rng(hash(shape) % 100)
    arr = rng.normal(size=shape).astype(dtype)
    buf = io.BytesIO()
    write_tensor(buf, arr)
    buf.seek(0)
    back = read_tensor(buf)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)
    assert buf.read() == b""


def test_tensor_round_trip_stream():
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    buf = io.BytesIO()
    write_tensor(buf, arr)
    buf.seek(0)
    assert np.array_equal(read_tensor(buf), arr)


def test_write_rejects_unsupported_dtype():
    with pytest.raises(FormatError):
        write_tensor(io.BytesIO(), np.zeros(3, dtype=np.int64))


def _record_bytes(arr):
    buf = io.BytesIO()
    write_tensor(buf, arr)
    return bytearray(buf.getvalue())


def _expect_corrupt(raw, field):
    with pytest.raises(FormatError) as err:
        read_tensor(io.BytesIO(bytes(raw)))
    assert field in str(err.value)


def test_corrupt_magic():
    raw = _record_bytes(np.ones((2, 2), dtype=np.float32))
    raw[0] = ord(b"X")
    _expect_corrupt(raw, "magic")


def test_corrupt_version():
    raw = _record_bytes(np.ones((2, 2), dtype=np.float32))
    raw[4] = 9
    _expect_corrupt(raw, "version")


def test_corrupt_dtype_code():
    raw = _record_bytes(np.ones((2, 2), dtype=np.float32))
    raw[5] = 7
    _expect_corrupt(raw, "dtype")


def test_corrupt_reserved_byte():
    raw = _record_bytes(np.ones((2, 2), dtype=np.float32))
    raw[7] = 1
    _expect_corrupt(raw, "reserved")


def test_truncated_extents():
    raw = _record_bytes(np.ones((2, 2), dtype=np.float32))
    _expect_corrupt(raw[:10], "extent")


def test_truncated_payload():
    raw = _record_bytes(np.ones((2, 2), dtype=np.float32))
    _expect_corrupt(raw[:-3], "payload")


def test_payload_is_row_major():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    raw = bytes(_record_bytes(arr))
    payload = raw[-arr.nbytes:]
    assert payload == arr.tobytes(order="C")


# ---------------------------------------------------------------------------
# checkpoint container


def _sample_ckpt(tmp_path):
    arrays = {
        "enc.w": np.arange(4, dtype=np.float32).reshape(2, 2),
        "cls.b": np.array([1.5], dtype=np.float32),
    }
    header = {"format": "demo", "version": 1,
              "parameters": sorted(arrays)}
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, header, arrays)
    return path, header, arrays


def test_checkpoint_round_trip(tmp_path):
    path, header, arrays = _sample_ckpt(tmp_path)
    got_header, got_arrays = read_checkpoint(path)
    assert got_header == header
    assert set(got_arrays) == set(arrays)
    for name in arrays:
        assert np.array_equal(got_arrays[name], arrays[name])


def test_checkpoint_header_is_sorted_json_line(tmp_path):
    path, header, _ = _sample_ckpt(tmp_path)
    first = open(path, "rb").readline().decode()
    assert first == json.dumps(header, sort_keys=True,
                               separators=(",", ":")) + "\n"


def test_checkpoint_byte_identical(tmp_path):
    p1, _, arrays = _sample_ckpt(tmp_path)
    p2 = tmp_path / "again.ckpt"
    write_checkpoint(p2, {"format": "demo", "version": 1,
                          "parameters": sorted(arrays)}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_header_must_list_arrays(tmp_path):
    arrays = {"a": np.zeros(1, dtype=np.float32)}
    with pytest.raises(FormatError):
        write_checkpoint(tmp_path / "x.ckpt",
                         {"parameters": ["a", "b"]}, arrays)
    with pytest.raises(FormatError):
        write_checkpoint(tmp_path / "y.ckpt", {"parameters": []}, arrays)


def test_checkpoint_corrupt_record(tmp_path):
    path, _, _ = _sample_ckpt(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # damage last payload byte: still parses, values differ
    nl = raw.index(b"\n")
    raw[nl + 1] = ord(b"X")  # damage first record magic
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_checkpoint(path)


def test_trailing_garbage(tmp_path):
    path, _, _ = _sample_ckpt(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert "trailing" in str(err.value)


def test_checkpoint_header_must_be_object(tmp_path):
    path = tmp_path / "list.ckpt"
    path.write_bytes(b"[1, 2]\n")
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert "header" in str(err.value)


@pytest.mark.parametrize("saturated", [1, 4])
def test_checkpoint_oversized_extents(tmp_path, saturated):
    # Extents of 2^32 - 1: one asks for a 16 GB payload, four for more
    # bytes than a C size can hold. Both must be caught before the read.
    path = tmp_path / "big.ckpt"
    write_checkpoint(path, {"parameters": ["w"]},
                     {"w": np.ones((1, 1, 1, 1), dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    extents = raw.index(b"\n") + 1 + 8
    raw[extents:extents + 4 * saturated] = b"\xff" * (4 * saturated)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert "payload" in str(err.value)


def test_checkpoint_missing_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not json\n")
    with pytest.raises(FormatError):
        read_checkpoint(path)


@pytest.mark.parametrize("names", [["w", "w"], ["w", 1], [["w"]]])
def test_checkpoint_parameter_names_must_be_distinct_strings(tmp_path, names):
    # A repeated name would load silently, its last record winning.
    buf = io.BytesIO()
    buf.write(json.dumps({"parameters": names}).encode() + b"\n")
    for value in range(len(names)):
        write_tensor(buf, np.full(2, value, dtype=np.float32))
    path = tmp_path / "names.ckpt"
    path.write_bytes(buf.getvalue())
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert str(err.value).startswith("parameters:")
    with pytest.raises(FormatError) as err:
        write_checkpoint(tmp_path / "out.ckpt", {"parameters": names},
                         {"w": np.zeros(2, dtype=np.float32)})
    assert str(err.value).startswith("parameters:")
