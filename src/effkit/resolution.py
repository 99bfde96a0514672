"""Train/test resolution tools: congruence rule, parity profiles, and half
resolution selection.

A model with n stride-2 layers aliases differently depending on where odd
spatial extents appear during downsampling. Two resolutions place those odd
extents at the same depths exactly when they are congruent mod 2^n, so test
and fine-tune resolutions are chosen from the train resolution's congruence
class. n = ``N_DOWNSAMPLES`` = 5 for every variant of this model family
(``model.min_resolution`` derives 2^n from a config's strides), so no function here
takes it; every resolution must be at least 2^n.

Half-resolution training targets about half the native pixel count. The six
canonical pairs are embedded as golden data since no single selection rule
reproduces them all; the heuristic used for other sizes picks the congruent
resolution whose pixel count is nearest to half, ties toward the smaller.
"""

from __future__ import annotations

from .model import ConvDims

N_DOWNSAMPLES = 5
#: the congruence modulus, and the smallest resolution the stride-2 layers admit
MODULUS = 2**N_DOWNSAMPLES
#: the default upper bound of ``valid_test_resolutions``
MAX_TEST_RESOLUTION = 704

#: native training resolution -> canonical half-resolution choice
HALF_RESOLUTIONS = {224: 160, 240: 176, 260: 192, 300: 204, 380: 252, 456: 328}


def congruent(train_r: int, test_r: int) -> bool:
    """True when the two resolutions downsample with identical parity paths."""
    if min(train_r, test_r) < MODULUS:
        raise ValueError(f"resolutions must be at least {MODULUS} for {N_DOWNSAMPLES} downsamples")
    return (test_r - train_r) % MODULUS == 0


def parity_profile(resolution: int) -> list[str]:
    """Parity ('even'/'odd') of the input extent at each stride-2 layer.

    Spatial extent halves as ceil(size/2) at every stride-2 layer and is
    preserved elsewhere, so the profile is read off the ceil-halving chain.
    """
    if resolution < MODULUS:
        raise ValueError(f"resolution {resolution} below 2^{N_DOWNSAMPLES}")
    out = []
    size = resolution
    for _ in range(N_DOWNSAMPLES):
        out.append("even" if size % 2 == 0 else "odd")
        size = -(-size // 2)
    return out


def plan_parity_profile(plan) -> list[str]:
    """Parity profile read from an actual layer plan's stride-2 inputs."""
    return [
        "even" if entry.in_size % 2 == 0 else "odd"
        for entry in plan
        if isinstance(entry, ConvDims) and entry.stride == 2
    ]


def valid_test_resolutions(train_r: int, max_r: int = MAX_TEST_RESOLUTION) -> list[int]:
    """Ascending test/fine-tune resolutions congruent with ``train_r``,
    from ``train_r`` up to ``max_r``."""
    if train_r < MODULUS:
        raise ValueError(f"train resolution {train_r} below 2^{N_DOWNSAMPLES}")
    if max_r < train_r:
        raise ValueError(f"max resolution {max_r} below train resolution {train_r}")
    return list(range(train_r, max_r + 1, MODULUS))


def half_resolution(native_r: int) -> int:
    """Training resolution with about half the native pixel count.
    Canonical sizes use the embedded table, whose published 260 -> 192
    pair is not congruent (260 - 192 = 68); other sizes minimize
    |r^2 - native^2/2| over the congruence class, preferring the smaller
    resolution on ties."""
    if native_r < 64:
        raise ValueError(f"native resolution must be at least 64, got {native_r}")
    if native_r in HALF_RESOLUTIONS:
        return HALF_RESOLUTIONS[native_r]
    target = native_r * native_r / 2.0
    # min keeps the first, so the smallest, of equally near resolutions
    candidates = range(MODULUS + native_r % MODULUS, native_r + 1, MODULUS)
    return min(candidates, key=lambda r: abs(r * r - target))
