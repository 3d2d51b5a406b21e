"""Checkpoint files: round trips, the header's tensor list, and corruption."""

import json

import numpy as np
import pytest

from protoseg.errors import FormatError
from protoseg.storage import read_checkpoint, write_checkpoint


def _sample_ckpt(tmp_path):
    arrays = {
        "enc.w": np.arange(4, dtype=np.float32).reshape(2, 2),
        "cls.b": np.array([1.5], dtype=np.float64),
    }
    header = {"format": "demo", "version": 1}
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, header, arrays)
    return path, header, arrays


def _header_line(path):
    return json.loads(path.read_bytes().partition(b"\n")[0])


def _write_raw(path, header, payload=b""):
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), (2, 3, 4), (1, 2, 3, 4)])
def test_tensor_round_trip(tmp_path, dtype, shape):
    rng = np.random.default_rng(hash(shape) % 100)
    arr = rng.normal(size=shape).astype(dtype)
    path = tmp_path / "one.ckpt"
    write_checkpoint(path, {}, {"w": arr})
    header, arrays = read_checkpoint(path)
    assert header == {}
    back = arrays["w"]
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)
    assert back.flags.writeable and back.flags.owndata


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError) as err:
        write_checkpoint(tmp_path / "x.ckpt", {},
                         {"w": np.zeros(3, dtype=np.int64)})
    assert str(err.value).startswith("tensors:")
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("header, arrays", [
    ({"format": "demo"}, {"enc.w": np.ones(2, dtype=np.float32),
                          "cls.b": np.zeros(3, dtype=np.int64)}),
    ({"format": "demo", "tensors": []}, {"enc.w": np.ones(2, dtype=np.float32)}),
], ids=["int64-listed-last", "header-holds-tensors"])
def test_refused_write_leaves_existing_file_unchanged(tmp_path, header, arrays):
    # Every check runs before the file is opened for writing.
    path, _, _ = _sample_ckpt(tmp_path)
    before = path.read_bytes()
    with pytest.raises(FormatError) as err:
        write_checkpoint(path, header, arrays)
    assert str(err.value).startswith("tensors:")
    assert path.read_bytes() == before


def test_truncated_extents(tmp_path):
    # Extents live in the header line; a file cut inside it has no header.
    path, _, _ = _sample_ckpt(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.index(b'"<f4",[2,') + 8])
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert str(err.value).startswith("header:")


def test_truncated_payload(tmp_path):
    path, _, _ = _sample_ckpt(tmp_path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert str(err.value).startswith("payload:")
    assert "'cls.b'" in str(err.value)


def test_payload_is_row_major(tmp_path):
    arr = np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3))
    path = tmp_path / "rm.ckpt"
    write_checkpoint(path, {}, {"w": arr})
    payload = path.read_bytes().partition(b"\n")[2]
    assert payload == arr.astype("<f8").tobytes(order="C")


def test_checkpoint_round_trip(tmp_path):
    path, header, arrays = _sample_ckpt(tmp_path)
    got_header, got_arrays = read_checkpoint(path)
    assert got_header == header
    assert list(got_arrays) == list(arrays)
    for name in arrays:
        assert got_arrays[name].dtype == arrays[name].dtype
        assert np.array_equal(got_arrays[name], arrays[name])


def test_checkpoint_header_is_sorted_json_line(tmp_path):
    path, header, arrays = _sample_ckpt(tmp_path)
    first = open(path, "rb").readline().decode()
    listed = dict(header, tensors=[["enc.w", "<f4", [2, 2]],
                                   ["cls.b", "<f8", [1]]])
    assert first == json.dumps(listed, sort_keys=True,
                               separators=(",", ":")) + "\n"
    assert path.stat().st_size == len(first) + 16 + 8


def test_checkpoint_byte_identical(tmp_path):
    p1, _, arrays = _sample_ckpt(tmp_path)
    p2 = tmp_path / "again.ckpt"
    write_checkpoint(p2, {"format": "demo", "version": 1}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_header_must_list_arrays(tmp_path):
    # The tensor list is the only table of contents: a file whose header
    # lacks it, as every file before version 4 does, is refused.
    path = tmp_path / "old.ckpt"
    _write_raw(path, {"parameters": ["w"]}, np.zeros(2, "<f4").tobytes())
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert str(err.value) == "tensors: header field missing or not a list"


def test_checkpoint_corrupt_record(tmp_path):
    # An entry that lists the wrong extents puts every later payload off.
    path, _, _ = _sample_ckpt(tmp_path)
    header = _header_line(path)
    header["tensors"][0][2] = [2, 1]
    _write_raw(path, header, path.read_bytes().partition(b"\n")[2])
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert "trailing" in str(err.value)


@pytest.mark.parametrize("entry, detail", [
    (["w", "<i8", [2]], "dtype"),
    (["w", "<f4", [True]], "shape"),
    (["w", "<f4", [-1]], "shape"),
    (["w", "<f4", [2.0]], "shape"),
    (["w", "<f4", 2], "shape"),
    (["w", "<f4"], "[name, dtype, shape]"),
    ({"w": "<f4"}, "[name, dtype, shape]"),
], ids=["dtype", "bool-extent", "negative-extent", "float-extent",
        "shape-not-list", "short-entry", "entry-not-list"])
def test_checkpoint_rejects_malformed_tensor_entry(tmp_path, entry, detail):
    path = tmp_path / "bad.ckpt"
    _write_raw(path, {"tensors": [entry]}, np.zeros(2, "<f4").tobytes())
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert str(err.value).startswith("tensors:")
    assert detail in str(err.value)


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
    write_checkpoint(path, {}, {"w": np.ones((1, 1, 1, 1), dtype=np.float32)})
    header = _header_line(path)
    header["tensors"][0][2][:saturated] = [2 ** 32 - 1] * saturated
    _write_raw(path, header, path.read_bytes().partition(b"\n")[2])
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
    # A repeated name would load silently, its last payload winning.
    path = tmp_path / "names.ckpt"
    _write_raw(path, {"tensors": [[n, "<f4", [2]] for n in names]},
               np.zeros(2 * len(names), "<f4").tobytes())
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert str(err.value).startswith("tensors: names must be distinct strings")
    # A dict cannot repeat a key, so the writer checks only for strings.
    with pytest.raises(FormatError) as err:
        write_checkpoint(tmp_path / "out.ckpt", {},
                         {1: np.zeros(2, dtype=np.float32)})
    assert str(err.value).startswith("tensors:")
