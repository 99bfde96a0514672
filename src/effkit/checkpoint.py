"""Single-file checkpoint container and the training ``Checkpoint`` it
carries; the only module that knows its layout.

Layout, all integers little-endian uint64:

- the byte length of a UTF-8 JSON index, then the index. It maps each
  tensor name to its ``offset`` (from the end of the index), ``shape`` and
  ``dtype`` (always ``"f64"``), and carries a free-form ``meta`` object;
- one blob per distinct array object (by identity, not by shared memory or
  equal contents), in the sorted order of each object's first name: its
  rank, its extents, then its row-major ``<f8`` payload,
  ``8 * (1 + ndim + size)`` bytes in all. Every name of one object shares
  its blob's offset, so arrays that are all distinct give one blob each.

Other float dtypes are widened to float64 on save (losslessly for float32),
once per object. Writes go to a temporary file in the target directory
followed by an atomic rename. Loading checks that the index ends inside the
file and that it, its ``tensors`` and its ``meta`` are JSON objects, then
each index entry (a non-negative integer offset and extents, dtype
``"f64"``, a blob that ends inside the file) before it allocates anything,
then the blob's header against that entry's own shape, so names that share
an offset must share a shape. Payloads are not read at load. The returned
mapping keeps the file open and reads an offset's payload the first time
one of its names is asked for, once, by a positioned read into a fresh
writeable float64 array; every name at the offset then gives that one
array. A name nobody asks for is never read or allocated. The open file is
the one that was loaded: a checkpoint written to the same path since (an
atomic rename) does not change what is read, and a payload that the file no
longer holds raises ``ValueError`` naming the tensor. The file closes when
the last mapping that reads from it is dropped.

A ``Checkpoint`` file names its tensors ``state/<name>`` (parameters plus
buffers) and ``ema/<name>`` (averaged parameters). Its meta holds
``epoch`` (a non-negative int, not a bool), ``fingerprint`` (a str) and
``model_config`` (a dict); ``Checkpoint.load`` raises ``ValueError`` naming
the key when one is missing or of another type. Files written before the
optimizer state left the format also hold ``opt/<name>`` entries, which
``Checkpoint.load`` checks and never reads; any other group is refused.
The two groups may share arrays: a fine-tune keeps no average, so its
``ema`` maps each parameter name to the very array ``state`` holds under
it. Such an array is written once and read back as one array, so a
reloaded fine-tune shares them too.

``Checkpoint.from_model`` makes a run's checkpoint: it refuses non-finite
values, copies the model's state once and, for a fine-tune, aliases each
``ema`` entry to that copy. ``Checkpoint.build_model`` builds the averaged
model, through ``Checkpoint.load_average``, the checked way to read the
average back into a model; a fine-tune thus reads ``ema`` and the buffers
of ``state``, never the raw parameters.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from .model import EfficientNet, config_from_dict, config_to_dict


def _header(shape: tuple[int, ...]) -> bytes:
    return struct.pack(f"<{1 + len(shape)}Q", len(shape), *shape)


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    # One blob per distinct array object, keyed by identity (``arrays`` holds
    # every object alive meanwhile), placed at its first name in sorted order.
    # np.array keeps 0-d arrays 0-d (ascontiguousarray would lift them to 1-d)
    # and copies only what is not already C-ordered little-endian float64.
    blobs = {}
    index_tensors = {}
    offset = 0
    for name in sorted(arrays):
        key = id(arrays[name])
        if key not in blobs:
            arr = np.array(arrays[name], dtype="<f8", order="C", copy=None)
            blobs[key] = (offset, arr)
            offset += 8 * (1 + arr.ndim + arr.size)
        at, arr = blobs[key]
        index_tensors[name] = {"offset": at, "shape": list(arr.shape), "dtype": "f64"}
    index = {"meta": meta or {}, "tensors": index_tensors}
    index_bytes = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(struct.pack("<Q", len(index_bytes)))
            fh.write(index_bytes)
            for _, arr in blobs.values():
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


def _read_payload(fd: int, arr: np.ndarray, position: int) -> int:
    """Fill ``arr`` from the file at ``position`` by positioned reads; the
    number of bytes read, short only at the end of the file."""
    view = memoryview(arr.reshape(-1).view(np.uint8))
    done = 0
    while done < len(view):
        got = os.preadv(fd, [view[done:]], position + done)
        if not got:
            break
        done += got
    return done


class _Blobs:
    """A loaded checkpoint's open file and the payloads read from it so
    far, one array per offset. The file closes when the last mapping that
    reads from it is dropped."""

    def __init__(self, fh, base: int):
        self._fh, self._base, self._read = fh, base, {}
        weakref.finalize(self, fh.close)

    def array(self, name: str, offset: int, shape: tuple[int, ...]) -> np.ndarray:
        if offset not in self._read:
            arr = np.empty(shape, dtype="<f8")
            at = self._base + offset + 8 * (1 + len(shape))
            if _read_payload(self._fh.fileno(), arr, at) != arr.nbytes:
                raise ValueError(f"{name}: truncated tensor payload")
            self._read[offset] = arr
        return self._read[offset]


class _Tensors(Mapping):
    """Tensor names mapped to arrays that are read on first access."""

    def __init__(self, blobs: _Blobs, entries: dict[str, tuple[int, tuple[int, ...]]]):
        self._blobs, self._entries = blobs, entries

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blobs.array(name, *self._entries[name])

    def __contains__(self, name) -> bool:  # Mapping's would read the payload
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def group(self, prefix: str) -> "_Tensors":
        """The names under ``prefix/``, without it, reading from the same file."""
        n = len(prefix) + 1
        return _Tensors(self._blobs, {name[n:]: entry for name, entry in self._entries.items()
                                      if name.startswith(prefix + "/")})


def load_checkpoint(path) -> tuple[Mapping[str, np.ndarray], dict]:
    fh = open(path, "rb", buffering=0)
    try:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        raw = os.pread(fd, 8, 0)
        if len(raw) != 8:
            raise ValueError("truncated checkpoint header")
        (index_len,) = struct.unpack("<Q", raw)
        if index_len > size - 8:
            raise ValueError(f"a checkpoint index of {index_len} bytes runs past the end of the file")
        index = json.loads(os.pread(fd, index_len, 8).decode())
        if not isinstance(index, dict):
            raise ValueError(f"checkpoint index must be a JSON object, not {type(index).__name__}")
        for part in ("tensors", "meta"):
            if not isinstance(index.get(part), dict):
                raise ValueError(f"checkpoint index {part!r} must be a JSON object, "
                                 f"not {type(index.get(part)).__name__}")
        base = 8 + index_len
        entries = {}
        for name, entry in index["tensors"].items():
            shape = _entry_shape(name, entry, size - base)
            header = _header(shape)
            if os.pread(fd, len(header), base + entry["offset"]) != header:
                raise ValueError(f"{name}: blob header does not match index shape {list(shape)}")
            entries[name] = (entry["offset"], shape)
    except BaseException:
        fh.close()
        raise
    return _Tensors(_Blobs(fh, base), entries), index["meta"]


@dataclass
class Checkpoint:
    """A run's state (parameters plus buffers) and averaged parameters
    (``ema``), what a fine-tune reads back; a run's optimizer state is not
    kept. Treat a checkpoint's arrays as read-only. ``from_model`` makes one
    at the end of a run, ``build_model`` builds the averaged model it is
    read for, and ``load_average`` loads that average into a given model.
    A loaded checkpoint reads each array from its file the first time it is
    asked for, so what a fine-tune never asks for is never read."""

    state: Mapping[str, np.ndarray]  # parameters plus buffers
    ema: Mapping[str, np.ndarray]
    epoch: int
    fingerprint: str
    model_config: dict

    @classmethod
    def from_model(cls, model: EfficientNet, epoch: int, fingerprint: str,
                   ema: dict[str, np.ndarray] | None) -> "Checkpoint":
        """The checkpoint of a finished run: one copy of ``model``'s state and
        the average ``ema``. A fine-tune keeps no average and passes ``None``;
        each parameter name of ``ema`` then maps to the copy's own array.
        Raises ``FloatingPointError`` on a non-finite state or average entry,
        which the last update can leave after a finite loss."""
        final = model.state()
        for group, arrays in (("state", final), ("average", ema or {})):
            bad = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
            if bad:
                raise FloatingPointError(f"{len(bad)} non-finite {group} entries after the "
                                         f"last step, first {bad[0]!r}")
        state = {k: v.copy() for k, v in final.items()}
        if ema is None:
            ema = {k: state[k] for k in model.params()}
        return cls(state, ema, epoch, fingerprint, config_to_dict(model.config))

    def save(self, path) -> None:
        arrays = {}
        arrays.update({f"state/{k}": v for k, v in self.state.items()})
        arrays.update({f"ema/{k}": v for k, v in self.ema.items()})
        meta = {
            "epoch": self.epoch,
            "fingerprint": self.fingerprint,
            "model_config": self.model_config,
        }
        save_checkpoint(path, arrays, meta)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        arrays, meta = load_checkpoint(path)
        for key, valid, named in (
            ("epoch", _is_count(meta.get("epoch")), "a non-negative int"),
            ("fingerprint", isinstance(meta.get("fingerprint"), str), "a str"),
            ("model_config", isinstance(meta.get("model_config"), dict), "a dict"),
        ):
            if key not in meta:
                raise ValueError(f"checkpoint meta has no {key!r} entry")
            if not valid:
                raise ValueError(f"checkpoint meta {key!r} must be {named}, not {meta[key]!r}")
        for name in arrays:  # opt/: an older file's optimizer state, never read
            if name.partition("/")[0] not in ("state", "ema", "opt"):
                raise ValueError(f"unknown checkpoint entry {name!r}")
        return cls(
            state=arrays.group("state"),
            ema=arrays.group("ema"),
            epoch=meta["epoch"],
            fingerprint=meta["fingerprint"],
            model_config=meta["model_config"],
        )

    def build_model(self, rng: np.random.Generator | None = None) -> EfficientNet:
        """The model ``model_config`` describes, holding the parameters of
        ``ema`` over the buffers of ``state``: the averaged model a checkpoint
        is read for. Its layers are allocated without drawing any weight
        (``EfficientNet(config, None)``), and ``load_average`` then writes
        every entry through its checks; ``load_state`` raises ``KeyError`` on
        a missing buffer and ``ValueError`` on a wrong shape, so no unloaded
        weight reaches the caller. ``rng`` is not read: a generator passed
        here is left as it was."""
        model = EfficientNet(config_from_dict(self.model_config), None)
        self.load_average(model)
        return model

    def load_average(self, model: EfficientNet) -> None:
        """Load ``model`` once with the parameters of ``ema`` over the buffers
        of ``state``. Raises ``ValueError`` when ``model_config`` describes
        another model, and ``KeyError`` when ``ema`` does not name exactly the
        model's parameters, so a missing average never falls back to the raw
        weights. Of ``state`` only the model's buffers are read."""
        saved = config_from_dict(self.model_config)
        if saved != model.config:
            differ = [f.name for f in fields(saved)
                      if getattr(saved, f.name) != getattr(model.config, f.name)]
            raise ValueError(f"checkpoint was trained with another model config "
                             f"(it differs in {differ})")
        params = model.params()
        if set(self.ema) != set(params):
            missing, extra = sorted(set(params) - set(self.ema)), sorted(set(self.ema) - set(params))
            raise KeyError(f"checkpoint average does not match the model's parameters: "
                           f"missing {missing[:5]}, unknown {extra[:5]}")
        buffers = {name: self.state[name] for name in model.buffers() if name in self.state}
        model.load_state({**buffers, **self.ema})
