"""Seeded RNG."""

import numpy as np

from effkit import tensor


def test_make_rng_is_deterministic():
    a = tensor.make_rng(42).normal(size=16)
    b = tensor.make_rng(42).normal(size=16)
    c = tensor.make_rng(43).normal(size=16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
