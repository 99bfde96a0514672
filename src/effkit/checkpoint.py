"""Single-file checkpoint container; the only module that knows its layout.

Layout, all integers little-endian uint64:

- the byte length of a UTF-8 JSON index, then the index. It maps each
  tensor name to its ``offset`` (from the end of the index), ``shape`` and
  ``dtype`` (always ``"f64"``), and carries a free-form ``meta`` object;
- per tensor, in sorted name order: its rank, its extents, then its
  row-major ``<f8`` payload, ``8 * (1 + ndim + size)`` bytes in all.

Other float dtypes are widened to float64 on save (losslessly for
float32). Writes go to a temporary file in the target directory followed
by an atomic rename. Loading checks that the index, its ``tensors`` and its
``meta`` are JSON objects, then each index entry (a non-negative integer
offset and extents, dtype ``"f64"``, a blob that ends inside the file)
before it allocates anything, then each blob's header against the index,
and reads each payload straight into a fresh writeable float64 array.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np


def _header(shape: tuple[int, ...]) -> bytes:
    return struct.pack(f"<{1 + len(shape)}Q", len(shape), *shape)


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    # np.array keeps 0-d arrays 0-d (ascontiguousarray would lift them to 1-d)
    # and copies only what is not already C-ordered little-endian float64.
    tensors = {
        name: np.array(arrays[name], dtype="<f8", order="C", copy=None)
        for name in sorted(arrays)
    }
    index_tensors = {}
    offset = 0
    for name, arr in tensors.items():
        index_tensors[name] = {"offset": offset, "shape": list(arr.shape), "dtype": "f64"}
        offset += 8 * (1 + arr.ndim + arr.size)
    index = {"meta": meta or {}, "tensors": index_tensors}
    index_bytes = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(struct.pack("<Q", len(index_bytes)))
            fh.write(index_bytes)
            for arr in tensors.values():
                fh.write(_header(arr.shape))
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _entry_shape(name: str, entry, room: int) -> tuple[int, ...]:
    """The shape of a well-formed index entry whose blob fits in the ``room``
    bytes after the index; ``ValueError`` otherwise."""
    if not isinstance(entry, dict) or entry.get("dtype") != "f64":
        raise ValueError(f"{name}: index entry {entry!r} is not an f64 tensor")
    shape, offset = entry.get("shape"), entry.get("offset")
    if not (isinstance(shape, list) and all(map(_is_count, shape)) and _is_count(offset)):
        raise ValueError(f"{name}: offset and extents must be non-negative integers, "
                         f"got offset {offset!r} and shape {shape!r}")
    if offset + 8 * (1 + len(shape) + math.prod(shape)) > room:
        raise ValueError(f"{name}: a blob of shape {shape} at offset {offset} "
                         "runs past the end of the file")
    return tuple(shape)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(8)
        if len(raw) != 8:
            raise ValueError("truncated checkpoint header")
        (index_len,) = struct.unpack("<Q", raw)
        index = json.loads(fh.read(index_len).decode())
        if not isinstance(index, dict):
            raise ValueError(f"checkpoint index must be a JSON object, not {type(index).__name__}")
        for part in ("tensors", "meta"):
            if not isinstance(index.get(part), dict):
                raise ValueError(f"checkpoint index {part!r} must be a JSON object, "
                                 f"not {type(index.get(part)).__name__}")
        base = fh.tell()
        arrays = {}
        for name, entry in index["tensors"].items():
            shape = _entry_shape(name, entry, size - base)
            fh.seek(base + entry["offset"])
            header = _header(shape)
            if fh.read(len(header)) != header:
                raise ValueError(f"{name}: blob header does not match index shape {list(shape)}")
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{name}: truncated tensor payload")
            arrays[name] = arr
    return arrays, index["meta"]
