"""Dense-tensor substrate: the seeded RNG.

Tensors are plain float64 numpy ndarrays in (batch, channel, height, width)
layout; :mod:`effkit.checkpoint` writes and reads them.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox): identical seed, identical
    stream, on every platform."""
    return np.random.Generator(np.random.Philox(seed))
