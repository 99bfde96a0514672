"""Dense-tensor substrate: seeded RNG and binary serialization.

Tensors are plain float64 numpy ndarrays in (batch, channel, height, width)
layout.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox): identical seed, identical
    stream, on every platform."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Binary serialization: rank and extents as little-endian uint64, then the
# row-major float64 payload. Float32 arrays are widened on write (lossless).
# ---------------------------------------------------------------------------


def write_tensor(fileobj: BinaryIO, arr: np.ndarray) -> int:
    """Write one tensor to an open binary file; returns the byte count."""
    arr = np.asarray(arr, dtype=np.float64)  # asarray keeps rank; ascontiguousarray would lift 0-d to 1-d
    header = struct.pack("<Q", arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype("<f8", copy=False).tobytes()  # tobytes emits C order regardless of layout
    fileobj.write(header)
    fileobj.write(payload)
    return len(header) + len(payload)


def read_tensor(fileobj: BinaryIO) -> np.ndarray:
    """Read one tensor written by :func:`write_tensor`."""
    raw = fileobj.read(8)
    if len(raw) != 8:
        raise ValueError("truncated tensor header")
    (rank,) = struct.unpack("<Q", raw)
    raw = fileobj.read(8 * rank)
    if len(raw) != 8 * rank:
        raise ValueError("truncated tensor shape header")
    shape = struct.unpack(f"<{rank}Q", raw) if rank else ()
    count = int(np.prod(shape)) if rank else 1
    data = np.frombuffer(fileobj.read(8 * count), dtype="<f8")
    if data.size != count:
        raise ValueError("truncated tensor payload")
    return data.reshape(shape).astype(np.float64)
