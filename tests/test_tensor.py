"""Seeded RNG and tensor serialization."""

import io

import numpy as np
import pytest

from effkit import tensor


def test_make_rng_is_deterministic():
    a = tensor.make_rng(42).normal(size=16)
    b = tensor.make_rng(42).normal(size=16)
    c = tensor.make_rng(43).normal(size=16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tensor_stream_round_trip():
    rng = tensor.make_rng(5)
    arrays = [
        rng.normal(size=(2, 3, 4, 5)),
        np.float64(3.5).reshape(()),
        rng.normal(size=(7,)),
    ]
    buf = io.BytesIO()
    for arr in arrays:
        tensor.write_tensor(buf, arr)
    buf.seek(0)
    for arr in arrays:
        back = tensor.read_tensor(buf)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)


def test_tensor_round_trip_reads_float64():
    rng = tensor.make_rng(9)
    arr = rng.normal(size=(3, 2, 5, 5))
    buf = io.BytesIO()
    tensor.write_tensor(buf, arr)
    buf.seek(0)
    back = tensor.read_tensor(buf)
    np.testing.assert_array_equal(back, arr)
    assert back.dtype == np.float64


def test_read_tensor_rejects_truncation():
    buf = io.BytesIO()
    tensor.write_tensor(buf, np.ones((4, 4)))
    data = buf.getvalue()
    with pytest.raises(ValueError):
        tensor.read_tensor(io.BytesIO(data[:-8]))
    with pytest.raises(ValueError):
        tensor.read_tensor(io.BytesIO(data[:4]))


def test_write_tensor_widens_f32_losslessly():
    arr = np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4)
    buf = io.BytesIO()
    tensor.write_tensor(buf, arr)
    buf.seek(0)
    back = tensor.read_tensor(buf)
    np.testing.assert_array_equal(back, arr.astype(np.float64))
