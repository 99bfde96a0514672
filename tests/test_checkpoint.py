"""Checkpoint container format and the trained-state wrapper."""

import collections
import hashlib
import json
import os
import struct
from dataclasses import fields

import numpy as np
import pytest

from effkit import checkpoint, train
from effkit.data import as_batches, blob_dataset
from effkit.model import ModelConfig, build_model, config_from_dict
from effkit.norms import NormSpec
from effkit.tensor import make_rng


def test_save_load_round_trip(tmp_path):
    rng = make_rng(0)
    f32 = np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4)
    arrays = {
        "a/weight": rng.normal(size=(4, 2, 3, 3)),
        "b/bias": rng.normal(size=(7,)),
        "scalar": np.array(2.5),
        "f32": f32,
        "f32/again": f32,  # one object under two names: one blob, one array
        "transposed": rng.normal(size=(3, 5)).T,
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "ckpt.bin"
    checkpoint.save_checkpoint(path, arrays, meta={"epoch": 3, "note": "x"})
    offsets = {name: entry["offset"] for name, entry in _index(path.read_bytes())["tensors"].items()}
    assert offsets["f32"] == offsets["f32/again"]
    assert len(set(offsets.values())) == len(arrays) - 1
    back, meta = checkpoint.load_checkpoint(path)
    assert meta == {"epoch": 3, "note": "x"}
    assert sorted(back) == sorted(arrays)
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape, name
        # float32 is widened losslessly, so it compares equal after widening
        np.testing.assert_array_equal(back[name], arr.astype(np.float64))
        assert back[name].dtype == np.float64
        assert back[name].flags.writeable, name
    assert back["f32"] is back["f32/again"]


def _index(data: bytes) -> dict:
    """The JSON index of checkpoint bytes."""
    return json.loads(data[8 : 8 + struct.unpack("<Q", data[:8])[0]])


def _fixed_arrays():
    grid = np.arange(12.0).reshape(3, 4) / 8
    return {
        "block/weight": grid,
        "block/weight_t": grid.T,
        "f32": np.linspace(-1, 1, 6, dtype=np.float32),
        "empty": np.zeros((0, 3)),
        "scalar": np.array(-2.5),
    }


def test_layout_is_pinned(tmp_path):
    # Any change to the on-disk layout changes this digest, and files
    # already written would no longer load.
    path = tmp_path / "fixed.bin"
    checkpoint.save_checkpoint(path, _fixed_arrays(), meta={"epoch": 1, "note": "pinned"})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "f519ac43ea51735339cc58e158f6484c6dee84b27c90fcf003b097e230256ed6"


def test_save_is_deterministic(tmp_path):
    rng = make_rng(1)
    arrays = {f"p{i}": rng.normal(size=(3, 3)) for i in range(5)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    checkpoint.save_checkpoint(p1, arrays, meta={"k": 1})
    checkpoint.save_checkpoint(p2, arrays, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_corruption(tmp_path):
    path = tmp_path / "ckpt.bin"
    checkpoint.save_checkpoint(path, {"w": np.ones((4, 4))})
    data = path.read_bytes()
    (tmp_path / "short.bin").write_bytes(data[:4])
    with pytest.raises(ValueError):
        checkpoint.load_checkpoint(tmp_path / "short.bin")
    (tmp_path / "cut.bin").write_bytes(data[:-16])
    with pytest.raises(ValueError):
        checkpoint.load_checkpoint(tmp_path / "cut.bin")
    # cut inside a float of the payload, and inside the blob header
    blob = 8 + struct.unpack("<Q", data[:8])[0]
    for cut in (len(data) - 12, blob + 4):
        (tmp_path / "mid.bin").write_bytes(data[:cut])
        with pytest.raises(ValueError):
            checkpoint.load_checkpoint(tmp_path / "mid.bin")
    # a blob header that disagrees with the index: other extents, other rank
    for header in (struct.pack("<3Q", 2, 2, 8), struct.pack("<2Q", 1, 16)):
        bad = data[:blob] + header + data[blob + len(header):]
        (tmp_path / "bad.bin").write_bytes(bad)
        with pytest.raises(ValueError, match="w: blob .* index"):
            checkpoint.load_checkpoint(tmp_path / "bad.bin")
    # a second name at w's offset with another shape, of the same or another
    # rank: each entry's header is checked, not only the first at an offset
    index = _index(data)
    for shape in ([2, 8], [16]):
        shared = {**index["tensors"], "x": {**index["tensors"]["w"], "shape": shape}}
        (tmp_path / "bad.bin").write_bytes(with_index(data, {**index, "tensors": shared}))
        with pytest.raises(ValueError, match="x: blob .* index"):
            checkpoint.load_checkpoint(tmp_path / "bad.bin")
    # a malformed index is refused before anything is allocated: a negative
    # or fractional extent, a blob larger than the file (8 TiB), another dtype
    for change, named in (({"shape": [-4, 4]}, "non-negative integers"),
                          ({"shape": [4, 2.5]}, "non-negative integers"),
                          ({"shape": [1 << 20, 1 << 20]}, "past the end of the file"),
                          ({"offset": -8}, "non-negative integers"),
                          ({"dtype": "f32"}, "not an f64 tensor")):
        path = tmp_path / "index.bin"
        path.write_bytes(with_index_entry(data, "w", **change))
        with pytest.raises(ValueError, match=f"w: .*{named}"):
            checkpoint.load_checkpoint(path)
    # an index of the wrong JSON shape: a list, or tensors or meta not an object
    for shaped, named in (([index], "index must be a JSON object, not list"),
                          ({**index, "tensors": []}, "'tensors' must be a JSON object"),
                          ({**index, "meta": []}, "'meta' must be a JSON object")):
        path.write_bytes(with_index(data, shaped))
        with pytest.raises(ValueError, match=named):
            checkpoint.load_checkpoint(path)


def test_load_refuses_an_index_longer_than_the_file(tmp_path):
    # Refused before the index is read: a 1 TiB length is not allocated.
    path = tmp_path / "ckpt.bin"
    path.write_bytes(struct.pack("<Q", 1 << 40) + b"{}")
    with pytest.raises(ValueError, match="index of 1099511627776 bytes runs past the end"):
        checkpoint.load_checkpoint(path)


def with_index(data: bytes, index) -> bytes:
    """Checkpoint bytes with ``index`` in place of their own, blobs unchanged."""
    raw = json.dumps(index).encode()
    return struct.pack("<Q", len(raw)) + raw + data[8 + struct.unpack("<Q", data[:8])[0]:]


def with_index_entry(data: bytes, name: str, **change) -> bytes:
    """Checkpoint bytes whose index entry for ``name`` takes ``change``. A
    changed shape of the same rank and of non-negative integers is written
    into the blob header too, so that only the extents are at fault."""
    blob = 8 + struct.unpack("<Q", data[:8])[0]
    index = json.loads(data[8:blob])
    entry = index["tensors"][name]
    body = bytearray(data[blob:])
    shape = change.get("shape", entry["shape"])
    if len(shape) == len(entry["shape"]) and all(isinstance(n, int) and n >= 0 for n in shape):
        at = entry["offset"] + 8
        body[at : at + 8 * len(shape)] = struct.pack(f"<{len(shape)}Q", *shape)
    entry.update(change)
    raw = json.dumps(index).encode()
    return struct.pack("<Q", len(raw)) + raw + bytes(body)


def test_no_temp_files_left_behind(tmp_path):
    path = tmp_path / "ckpt.bin"
    checkpoint.save_checkpoint(path, {"w": np.zeros(3)})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_empty_meta_defaults(tmp_path):
    path = tmp_path / "ckpt.bin"
    checkpoint.save_checkpoint(path, {"w": np.ones(2)})
    _, meta = checkpoint.load_checkpoint(path)
    assert meta == {}


# ---------------------------------------------------------------------------
# Trained-state wrapper
# ---------------------------------------------------------------------------


def _trained_checkpoint():
    cfg = ModelConfig.tiny()
    net = build_model(cfg, make_rng(2))
    x, y = blob_dataset(16, size=32, classes=2, seed=2)
    recipe = train.TrainRecipe(global_batch=8, epochs=1)
    return train.train_loop(net, as_batches(x, y, 8), recipe, seed=0, max_steps=2)


def test_training_checkpoint_round_trip(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "train.bin"
    ckpt.save(path)
    back = train.Checkpoint.load(path)
    assert back.epoch == ckpt.epoch
    assert back.fingerprint == ckpt.fingerprint
    # JSON returns lists where the dataclass had tuples; parse to compare
    assert config_from_dict(back.model_config) == config_from_dict(ckpt.model_config)
    for group in ("state", "ema"):
        a, b = getattr(ckpt, group), getattr(back, group)
        assert sorted(a) == sorted(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name]), (group, name)


def test_training_checkpoint_holds_only_state_and_average(tmp_path):
    # The RMSProp state stays inside train_loop: no field, no file entry.
    assert [f.name for f in fields(train.Checkpoint)] == [
        "state", "ema", "epoch", "fingerprint", "model_config"]
    ckpt = _trained_checkpoint()
    path = tmp_path / "train.bin"
    ckpt.save(path)
    index = _index(path.read_bytes())
    assert sorted(index["tensors"]) == sorted(
        [f"state/{name}" for name in ckpt.state] + [f"ema/{name}" for name in ckpt.ema])
    # train_loop's average is its own arrays, so no two entries share a blob
    offsets = [entry["offset"] for entry in index["tensors"].values()]
    assert len(set(offsets)) == len(offsets)


def test_a_file_with_optimizer_state_loads_and_fine_tunes_the_same(tmp_path):
    # Files written before the format dropped the optimizer state hold it
    # under opt/; those entries are read and dropped.
    ckpt = _trained_checkpoint()
    ckpt.save(tmp_path / "new.bin")
    arrays = {f"state/{name}": arr for name, arr in ckpt.state.items()}
    arrays.update({f"ema/{name}": arr for name, arr in ckpt.ema.items()})
    opt = train.init_rmsprop_state(ckpt.ema)
    assert {name.split("/")[0] for name in opt} == {"acc", "vel"}
    arrays.update({f"opt/{name}": arr + 0.5 for name, arr in opt.items()})
    meta = {"epoch": ckpt.epoch, "fingerprint": ckpt.fingerprint,
            "model_config": ckpt.model_config}
    checkpoint.save_checkpoint(tmp_path / "old.bin", arrays, meta)
    x, y = blob_dataset(16, size=32, classes=2, seed=3)
    recipe = train.FinetuneRecipe(scope="last-2", epochs=2, batch=8)
    tuned = []
    for name in ("old.bin", "new.bin"):
        back = train.Checkpoint.load(tmp_path / name)
        assert sorted(back.state) == sorted(ckpt.state) and sorted(back.ema) == sorted(ckpt.ema)
        result = train.finetune(back.build_model(), back, recipe, as_batches(x, y, 8))
        result.save(tmp_path / f"ft_{name}")
        tuned.append((tmp_path / f"ft_{name}").read_bytes())
    assert tuned[0] == tuned[1]
    # Any other group is still refused.
    arrays["adam/m"] = np.zeros(2)
    checkpoint.save_checkpoint(tmp_path / "other.bin", arrays, meta)
    with pytest.raises(ValueError, match="unknown checkpoint entry 'adam/m'"):
        train.Checkpoint.load(tmp_path / "other.bin")


@pytest.mark.parametrize("key", ["epoch", "fingerprint", "model_config"])
def test_checkpoint_load_names_a_missing_meta_key(key, tmp_path):
    meta = {"epoch": 1, "fingerprint": "0" * 64, "model_config": {}}
    del meta[key]
    checkpoint.save_checkpoint(tmp_path / "ckpt.bin", {"state/w": np.ones(2)}, meta)
    with pytest.raises(ValueError, match=f"meta has no '{key}'"):
        train.Checkpoint.load(tmp_path / "ckpt.bin")


@pytest.mark.parametrize("key, value", [
    ("epoch", [1]), ("epoch", 2.7), ("epoch", True), ("epoch", -1),
    ("fingerprint", 7), ("model_config", ["tiny"]),
], ids=["epoch-list", "epoch-float", "epoch-bool", "epoch-negative", "fingerprint-int",
        "model_config-list"])
def test_checkpoint_load_refuses_meta_of_the_wrong_type(key, value, tmp_path):
    meta = {"epoch": 1, "fingerprint": "0" * 64, "model_config": {}, key: value}
    checkpoint.save_checkpoint(tmp_path / "ckpt.bin", {"state/w": np.ones(2)}, meta)
    with pytest.raises(ValueError, match=f"meta '{key}' must be "):
        train.Checkpoint.load(tmp_path / "ckpt.bin")


def test_checkpoint_rebuilds_a_working_model(tmp_path):
    ckpt = _trained_checkpoint()
    path = tmp_path / "train.bin"
    ckpt.save(path)
    back = train.Checkpoint.load(path)
    net = back.build_model(make_rng(3))
    x, _ = blob_dataset(4, size=32, classes=2, seed=9)
    logits = net.forward(x, train=False)
    assert logits.shape == (4, 2)
    # rebuilt twice gives identical outputs: state fully determines the model
    net2 = train.Checkpoint.load(path).build_model(make_rng(99))
    np.testing.assert_array_equal(net2.forward(x, train=False), logits)


def _two_epoch_checkpoint(norm: str):
    """A tiny model trained for two epochs of two batches: the average is
    updated after the first epoch's copy, so ``ema`` differs from the raw
    parameters under ``state``."""
    net = build_model(ModelConfig.tiny(norm=NormSpec(norm), proxy=norm != "bn"), make_rng(4))
    x, y = blob_dataset(16, size=32, classes=2, seed=4)
    ckpt = train.train_loop(net, as_batches(x, y, 8), train.TrainRecipe(global_batch=8, epochs=2),
                            seed=0)
    assert any(ckpt.ema[name].tobytes() != ckpt.state[name].tobytes() for name in ckpt.ema)
    return ckpt, x, y


def test_checkpoint_build_draws_nothing_and_holds_the_average_bit_for_bit(tmp_path):
    # A bn model, so that the running-moment buffers are loaded too.
    ckpt, _, _ = _two_epoch_checkpoint("bn")
    assert any("running_var" in name for name in ckpt.state)
    ckpt.save(tmp_path / "ckpt.bin")
    rng = make_rng(5)

    def generator_state():  # Philox's state holds arrays: compare it as JSON
        return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)

    before = generator_state()
    for source in (ckpt, train.Checkpoint.load(tmp_path / "ckpt.bin")):
        built = source.build_model(rng)
        assert generator_state() == before
        state, params = built.state(), built.params()
        assert sorted(state) == sorted(ckpt.state)
        assert sorted(params) == sorted(ckpt.ema)
        for name, arr in state.items():
            want = ckpt.ema[name] if name in params else ckpt.state[name]
            assert arr.tobytes() == want.tobytes(), name


def _payload_names(path) -> dict[int, set[str]]:
    """The file position of each payload mapped to the names that share it."""
    data = path.read_bytes()
    base = 8 + struct.unpack("<Q", data[:8])[0]
    names = collections.defaultdict(set)
    for name, entry in _index(data)["tensors"].items():
        names[base + entry["offset"] + 8 * (1 + len(entry["shape"]))].add(name)
    return names


@pytest.fixture
def payload_reads(monkeypatch) -> list[int]:
    """The file positions of the payloads read, in order."""
    positions = []
    read = checkpoint._read_payload

    def recorded(fd, arr, position):
        positions.append(position)
        return read(fd, arr, position)

    monkeypatch.setattr(checkpoint, "_read_payload", recorded)
    return positions


@pytest.mark.parametrize("norm", ["ln", "bn"])
def test_a_fine_tune_reads_the_average_and_the_buffers_once(norm, tmp_path, payload_reads):
    ckpt, x, y = _two_epoch_checkpoint(norm)
    path = tmp_path / "ckpt.bin"
    ckpt.save(path)
    back = train.Checkpoint.load(path)
    assert all(name in back.state for name in ckpt.state) and "x" not in back.state
    assert payload_reads == []
    recipe = train.FinetuneRecipe(scope="last-1", epochs=2, batch=8)
    train.finetune(back.build_model(), back, recipe, as_batches(x, y, 8))
    assert len(set(payload_reads)) == len(payload_reads)
    names = _payload_names(path)
    read = set().union(*(names[at] for at in payload_reads))
    buffers = {f"state/{name}" for name in set(ckpt.state) - set(ckpt.ema)}
    assert bool(buffers) == (norm == "bn")
    assert read == {f"ema/{name}" for name in ckpt.ema} | buffers


def test_the_state_alone_reads_no_average(tmp_path, payload_reads):
    ckpt, _, _ = _two_epoch_checkpoint("ln")
    path = tmp_path / "ckpt.bin"
    ckpt.save(path)
    state = dict(train.Checkpoint.load(path).state)
    assert sorted(state) == sorted(ckpt.state)
    names = _payload_names(path)
    assert set().union(*(names[at] for at in payload_reads)) == {f"state/{n}" for n in ckpt.state}


def test_a_loaded_checkpoint_reads_the_file_it_loaded(tmp_path):
    path = tmp_path / "ckpt.bin"
    old = {"a": np.arange(6.0).reshape(2, 3), "b": np.full(4, 2.5)}
    checkpoint.save_checkpoint(path, old)
    back, _ = checkpoint.load_checkpoint(path)
    # Replaced by an atomic rename: the loaded file's bytes, never the new ones.
    checkpoint.save_checkpoint(path, {name: arr + 1.0 for name, arr in old.items()})
    assert back["a"].tobytes() == old["a"].tobytes()
    # Cut in place under the open file: a payload it no longer holds is refused.
    data = path.read_bytes()
    back, _ = checkpoint.load_checkpoint(path)
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="b: truncated tensor payload"):
        back["b"]
    assert back["a"].tobytes() == (old["a"] + 1.0).tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_loaded_checkpoints_close_their_files(tmp_path):
    ckpt, _, _ = _two_epoch_checkpoint("ln")
    path, bad = tmp_path / "ckpt.bin", tmp_path / "bad.bin"
    ckpt.save(path)
    bad.write_bytes(path.read_bytes()[:-8])
    name = next(iter(ckpt.ema))
    open_files = len(os.listdir("/proc/self/fd"))
    for _ in range(500):
        back = train.Checkpoint.load(path)
        assert back.ema[name].tobytes() == ckpt.ema[name].tobytes()
        del back
        with pytest.raises(ValueError, match="past the end of the file"):
            train.Checkpoint.load(bad)
    assert len(os.listdir("/proc/self/fd")) == open_files


def test_checkpoint_is_one_class_with_its_methods_in_its_own_body():
    # perfbench's tracer patches vars(train.Checkpoint)["save"] and ["load"]: the name
    # train re-exports must be the class itself, holding both in its body.
    assert train.Checkpoint is checkpoint.Checkpoint
    for name in ("save", "load", "build_model"):
        assert name in vars(checkpoint.Checkpoint), name
