"""Desk-scale synthetic image data.

Classes are Gaussian bumps at class-specific image locations with additive
noise, rendered into 3-channel square images. Linearly separable enough to
smoke-test a training loop in a couple hundred steps, with everything
derived from one seed.
"""

from __future__ import annotations

import numpy as np

from .tensor import make_rng

#: standard deviation of the additive Gaussian pixel noise
NOISE = 0.1


def blob_dataset(
    n: int, size: int = 32, classes: int = 2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Returns images (n, 3, size, size) float64 and labels (n,) int64."""
    if n < 1 or size < 8 or classes < 2:
        raise ValueError("need n >= 1, size >= 8, classes >= 2")
    rng = make_rng(seed)
    labels = rng.integers(0, classes, size=n)
    # Class centers spread along the diagonal.
    centers = (np.arange(classes) + 1.0) / (classes + 1.0) * size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    sigma = size / 8.0
    x = np.empty((n, 3, size, size))
    jitter = rng.normal(0.0, size / 32.0, size=(n, 2))
    for i in range(n):
        cy = centers[labels[i]] + jitter[i, 0]
        cx = centers[labels[i]] + jitter[i, 1]
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        x[i] = bump[None, :, :]
    x += NOISE * rng.standard_normal(x.shape)
    return x, labels.astype(np.int64)


def as_batches(x: np.ndarray, y: np.ndarray, batch_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguous full batches in order; a short remainder is dropped so
    every step sees the same batch size."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    n = (len(y) // batch_size) * batch_size
    if n == 0:
        raise ValueError(f"dataset of {len(y)} smaller than one batch of {batch_size}")
    return [
        (x[i : i + batch_size], y[i : i + batch_size])
        for i in range(0, n, batch_size)
    ]
