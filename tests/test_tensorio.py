import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from helpers import traced_peak
from vsci.errors import BadMagicError, DtypeMismatchError, TruncatedError
from vsci.tensorio import WRITE_BLOCK, read_kv, read_tensor, write_kv, write_tensor


def test_roundtrip_small(tmp_path):
    t = np.array([[1.5, -2.25], [0.0, 3.125]])
    path = str(tmp_path / "t.vsci")
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, t)


def test_roundtrip_bytes_identical(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    p1, p2 = str(tmp_path / "a.vsci"), str(tmp_path / "b.vsci")
    write_tensor(p1, t)
    write_tensor(p2, read_tensor(p1))
    assert open(p1, "rb").read() == open(p2, "rb").read()


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5),
        elements=st.floats(-1e12, 1e12, allow_nan=False),
    )
)
def test_roundtrip_property(tmp_path_factory, t):
    path = str(tmp_path_factory.mktemp("io") / "t.vsci")
    write_tensor(path, t)
    np.testing.assert_array_equal(read_tensor(path), t)


def test_float32_supported(tmp_path):
    t = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = str(tmp_path / "f32.vsci")
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, t)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bad.vsci")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = str(tmp_path / "t.vsci")
    write_tensor(path, np.ones((2, 2)))
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-8])  # drop one float64
    with pytest.raises(TruncatedError):
        read_tensor(path)


def test_header_dims_disagree_with_payload(tmp_path):
    path = str(tmp_path / "t.vsci")
    write_tensor(path, np.ones(4))
    blob = bytearray(open(path, "rb").read())
    blob[7] = 5  # claim dim 5, payload holds 4
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(TruncatedError):
        read_tensor(path)


def test_unknown_dtype_code(tmp_path):
    path = str(tmp_path / "t.vsci")
    write_tensor(path, np.ones(2))
    blob = bytearray(open(path, "rb").read())
    blob[5] = 9
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(DtypeMismatchError):
        read_tensor(path)


def test_kv_roundtrip(tmp_path):
    path = str(tmp_path / "meta.txt")
    entries = {"kind": "mask", "gamma": repr(0.1), "n": 3}
    write_kv(path, entries)
    back = read_kv(path)
    assert back == {"kind": "mask", "gamma": "0.1", "n": "3"}
    assert float(back["gamma"]) == 0.1


def test_round_trip_holds_one_payload(tmp_path):
    # the read parses the header, then reads the payload straight into the
    # returned array; the write passes the array's own buffer to the file
    t = np.random.default_rng(3).random(1 << 17)  # 1 MiB
    path = str(tmp_path / "t.vsci")
    assert traced_peak(write_tensor, path, t) <= 1.1 * t.nbytes
    assert traced_peak(read_tensor, path) <= 1.1 * t.nbytes
    assert np.array_equal(read_tensor(path), t)


@pytest.mark.parametrize("make", [
    lambda r: r.random((256, 256, 8)) < 0.5,  # a paper-scale bool mask
    lambda r: (r.random((9, 7, 3)) < 0.5).transpose(2, 0, 1),  # not contiguous
    lambda r: r.integers(-5, 5, size=(2 * WRITE_BLOCK + 3,), dtype=np.int32),
    lambda r: r.random((4, 5)).astype(np.float16),
    lambda r: np.zeros((0, 3), dtype=bool),
    lambda r: r.random((6, 5)).T,
    lambda r: r.random((4, 5, 3))[:, :, 0],  # flattens to a strided view
    lambda r: r.random((3, 4)).astype(">f8"),
], ids=["bool-256x256x8", "bool-transposed", "int32-ragged", "float16", "empty",
        "float64-transposed", "float64-strided", "float64-big-endian"])
def test_non_float_written_as_its_float64_copy(tmp_path, make):
    # a tensor that is not float32/float64 in C order is converted block by
    # block as it is written, into the bytes of its whole float64 copy
    t = make(np.random.default_rng(5))
    p1, p2 = str(tmp_path / "a.vsci"), str(tmp_path / "b.vsci")
    write_tensor(p1, t)
    write_tensor(p2, t.astype(np.float64))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_bool_mask_write_allocates_one_block(tmp_path):
    # a 256x256x8 bool mask is converted one WRITE_BLOCK-entry block at a
    # time, far below the float64 cube (4 MiB) that a whole cast allocates
    frames = np.random.default_rng(6).random((256, 256, 8)) < 0.5
    cube_bytes = 8 * frames.size
    assert 8 * WRITE_BLOCK <= cube_bytes // 8
    peak = traced_peak(write_tensor, str(tmp_path / "m.vsci"), frames)
    assert peak <= 8 * WRITE_BLOCK + (16 << 10)
