"""Flat binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  b"CKVT"
    version u32      currently 1
    count   u32      number of tensors
    then per tensor, in order:
      name_len u16, name utf-8 bytes,
      dtype    u8   (0 = float64, 1 = float32),
      ndim     u8,  dims ndim x u32,
      data     raw IEEE754 little-endian, C order

Order is preserved on round trip, so a model can be restored by walking
its parameter list.
"""

from __future__ import annotations

import os
import struct

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "VERSION"]

MAGIC = b"CKVT"
VERSION = 1

_DTYPE_CODES = {np.dtype("float64"): 0, np.dtype("float32"): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def save_checkpoint(arrays: dict, path) -> None:
    """Write named arrays (float32/float64) to `path`."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, order="C")  # ascontiguousarray would make a 0-d array 1-d
            if arr.dtype not in _DTYPE_CODES:
                raise TypeError(f"{name}: unsupported dtype {arr.dtype}")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def _read(fh, n: int, path, what: str) -> bytes:
    # checked against the file size first, so a corrupt shape cannot ask
    # read() for an allocation larger than the file
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"{path}: truncated at {what} (wanted {n} bytes, {left} left)")
    return fh.read(n)


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into an ordered {name: array} dict. A short
    file or an unknown dtype code raises ValueError."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", _read(fh, 8, path, "header"))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for index in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2, path, f"tensor {index} name length"))
            name = _read(fh, name_len, path, f"tensor {index} name").decode("utf-8")
            code, ndim = struct.unpack("<BB", _read(fh, 2, path, f"{name} dtype"))
            if code not in _CODE_DTYPES:
                raise ValueError(f"{path}: {name}: unknown dtype code {code}")
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, path, f"{name} shape")) if ndim else ()
            dtype = _CODE_DTYPES[code]
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read(fh, n * dtype.itemsize, path, f"{name} data"), dtype=dtype)
            out[name] = data.reshape(shape).astype(dtype.newbyteorder("="))
        return out
