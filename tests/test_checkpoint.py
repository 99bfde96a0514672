"""Checkpoint container format and the trained-state wrapper."""

import hashlib
import struct

import numpy as np
import pytest

from effkit import checkpoint, train
from effkit.data import as_batches, blob_dataset
from effkit.model import ModelConfig, build_model, config_from_dict
from effkit.tensor import make_rng


def test_save_load_round_trip(tmp_path):
    rng = make_rng(0)
    arrays = {
        "a/weight": rng.normal(size=(4, 2, 3, 3)),
        "b/bias": rng.normal(size=(7,)),
        "scalar": np.array(2.5),
        "f32": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
        "transposed": rng.normal(size=(3, 5)).T,
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "ckpt.bin"
    checkpoint.save_checkpoint(path, arrays, meta={"epoch": 3, "note": "x"})
    back, meta = checkpoint.load_checkpoint(path)
    assert meta == {"epoch": 3, "note": "x"}
    assert sorted(back) == sorted(arrays)
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape, name
        # float32 is widened losslessly, so it compares equal after widening
        np.testing.assert_array_equal(back[name], arr.astype(np.float64))
        assert back[name].dtype == np.float64
        assert back[name].flags.writeable, name


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
    for group in ("state", "opt_state", "ema"):
        a, b = getattr(ckpt, group), getattr(back, group)
        assert sorted(a) == sorted(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name]), (group, name)


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
