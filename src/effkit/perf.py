"""Arithmetic-intensity model and per-layer roofline classification.

For a grouped convolution with batch B, kernel k x k, field f x f, group
size G, N groups and stride s, the intensity in FLOPs per transferred
element is

    I = G k^2 B f^2 / (s (G k^2 + B f^2))

under the assumption that weights (k^2 G^2 N elements) and input
activations (B f^2 G N elements) are both always transferred; output
activations are not counted. N cancels, so ``intensity(g, k, b, f, s)``
takes the other five factors and the model is flat in N by construction.
The numerator amortizes the stride once (f^2/s), exactly as the closed form
is stated; conversion to bytes happens only through
HardwareProfile.bytes_per_element. ``roofline`` evaluates it for every
convolution of a ``model_plan``.

The closed form counts k^2 G^2 N weights, which assumes a convolution keeps
its width (C_out = C_in = G N). Pointwise convolutions that expand or
project, and the stem, change it, so their ``roofline.csv`` ``flops`` and
``elements`` differ from ``count_cost``'s. For b0 G=16 E=4 @224 at batch 8,
``blocks/1/expand_conv`` (16 -> 64 channels) reads 3,211,264 FLOPs per
sample here against 12,845,056 in ``cost.csv``, and
``blocks/0/project_conv`` (32 -> 16) reads 12,845,056 against 6,422,528.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .model import ConvDims, ModelConfig, model_plan, rows_csv

MONOTONIC_FIELDS = ("G", "k", "B", "f", "s", "N")


def intensity(g: float, k: float, b: float, f: float, s: float) -> float:
    """FLOPs per transferred element for one convolution workload."""
    if min(g, k, b, f, s) <= 0:
        raise ValueError("all intensity factors must be positive")
    compute = g * k * k * b * f * f
    transfer = g * k * k + b * f * f
    return compute / (s * transfer)


def monotonicity_check(factors, field: str) -> tuple[float, float]:
    """Evaluate I before and after incrementing one factor and assert the
    expected direction: increasing in G, k, B, f; decreasing in s; flat in N.

    ``factors`` maps each of ``MONOTONIC_FIELDS`` to its value. Returns
    (before, after).
    """
    if field not in MONOTONIC_FIELDS:
        raise ValueError(f"unknown field {field!r}; use one of {MONOTONIC_FIELDS}")
    before = intensity(*(factors[n] for n in "GkBfs"))
    bumped = dict(factors)
    bumped[field] += 1
    after = intensity(*(bumped[n] for n in "GkBfs"))
    if field == "N":
        ok = after == before
    elif field == "s":
        ok = after < before
    else:
        ok = after > before
    if not ok:
        raise AssertionError(f"monotonicity violated for {field}: {before} -> {after}")
    return before, after


@dataclass(frozen=True)
class HardwareProfile:
    peak_flops: float
    mem_bandwidth: float
    bytes_per_element: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.peak_flops, self.mem_bandwidth)):
            raise ValueError("peak_flops and mem_bandwidth must be positive and finite")
        if self.bytes_per_element not in (2, 4, 8):
            raise ValueError(f"bytes_per_element must be 2, 4 or 8, got {self.bytes_per_element}")

    @property
    def ridge_elements(self) -> float:
        """Intensity (FLOPs per element) above which a kernel is compute bound."""
        return self.peak_flops * self.bytes_per_element / self.mem_bandwidth

    @classmethod
    def from_json(cls, path) -> "HardwareProfile":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("hardware profile must hold a JSON object")
        known = {"peak_flops", "mem_bandwidth", "bytes_per_element"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown hardware profile keys: {unknown}")
        missing = sorted(known - set(raw))
        if missing:
            raise ValueError(f"hardware profile missing keys: {missing}")
        try:
            peak_flops = float(raw["peak_flops"])
            mem_bandwidth = float(raw["mem_bandwidth"])
            bytes_per_element = int(raw["bytes_per_element"])
        except TypeError as exc:
            raise ValueError(f"hardware profile values must be numbers: {exc}") from None
        except OverflowError as exc:  # int() of an infinite JSON number
            raise ValueError(f"hardware profile values must be finite: {exc}") from None
        if bytes_per_element != raw["bytes_per_element"]:
            raise ValueError(
                f"bytes_per_element must be an integer, got {raw['bytes_per_element']!r}"
            )
        return cls(peak_flops, mem_bandwidth, bytes_per_element)


@dataclass(frozen=True)
class RooflineRow:
    layer: str
    G: int
    N: int
    k: int
    s: int
    f: int
    B: int
    flops: float
    elements: float
    intensity: float
    bound: str


@dataclass(frozen=True)
class IntensityReport:
    rows: tuple[RooflineRow, ...]
    ridge: float

    def to_csv(self) -> str:
        return rows_csv(RooflineRow, self.rows)

    def summary(self) -> str:
        memory = sum(1 for r in self.rows if r.bound == "memory")
        return (
            f"{len(self.rows)} convolution layers, ridge {self.ridge:.3f} "
            f"FLOPs/element, {memory} memory-bound / {len(self.rows) - memory} compute-bound"
        )


def roofline(
    config: ModelConfig, hw: HardwareProfile, batch: int, resolution: int
) -> IntensityReport:
    """Classify every convolution in the model against the ridge point,
    using each layer's actual input field size."""
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    ridge = hw.ridge_elements
    rows = []
    for entry in model_plan(config, resolution):
        if not isinstance(entry, ConvDims):
            continue
        g = entry.group_size
        n = entry.in_channels // entry.group_size
        k, s, f = entry.kernel, entry.stride, entry.in_size
        flops = g * g * k * k * batch * f * f * n / s
        elements = k * k * g * g * n + batch * f * f * g * n
        i = intensity(g, k, batch, f, s)
        rows.append(
            RooflineRow(
                layer=entry.name, G=g, N=n, k=k, s=s, f=f, B=batch,
                flops=flops, elements=float(elements), intensity=i,
                bound="compute" if i >= ridge else "memory",
            )
        )
    return IntensityReport(rows=tuple(rows), ridge=ridge)
