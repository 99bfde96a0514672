"""Grouped spatial convolution in numpy.

Group size G is the number of input channels feeding each output channel;
G = 1 is a depthwise convolution and G = C_in is a dense one. Weights are
laid out (C_out, G, k, k). Every convolution, 1x1 included, unrolls the
input into columns (im2col, Chellapilla et al. 2006) and multiplies them
with ``np.matmul`` stacked over (sample, group).

Per-sample results are bit-identical whatever batch a sample sits in. The
rule that keeps them so: never fold the batch axis into a GEMM dimension.
BLAS may round one row or column of a product differently when the
product's size changes, so ``x @ w`` over a flattened batch, or
``np.einsum(..., optimize=True)`` (which lowers to such a product), makes a
sample's output depend on its batch. A ``matmul`` stacked over the batch
runs one product per sample whose shape is fixed by the layer. Only the
weight gradient, a sum over the batch by definition, combines samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PADDINGS = ("same", "valid")


def round_group_size(requested: int, channels: int) -> int:
    """Nearest divisor of ``channels`` to ``requested``; ties go to the larger."""
    if channels < 1:
        raise ValueError(f"channels must be positive, got {channels}")
    if requested < 1:
        raise ValueError(f"requested group size must be positive, got {requested}")
    best = 1
    for d in range(1, channels + 1):
        if channels % d != 0:
            continue
        if abs(d - requested) < abs(best - requested) or (
            abs(d - requested) == abs(best - requested) and d > best
        ):
            best = d
    return best


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one grouped convolution.

    ``batch`` and ``field`` do not affect the kernel math (they come from the
    input tensor); they carry the workload context that the intensity model
    in :mod:`effkit.perf` needs.
    """

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    group_size: int | None = None  # None means dense (G = in_channels)
    padding: str = "same"
    batch: int | None = None
    field: int | None = None

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1:
            raise ValueError(f"conv dimensions must be positive: {self}")
        if self.batch is not None and self.batch < 1:
            raise ValueError(f"batch must be positive, got {self.batch}")
        if self.field is not None and self.field < 1:
            raise ValueError(f"field must be positive, got {self.field}")
        if self.padding not in PADDINGS:
            raise ValueError(f"unknown padding {self.padding!r}; use one of {PADDINGS}")
        g = self.resolved_group_size
        if self.in_channels % g != 0:
            raise ValueError(
                f"group size {g} does not divide {self.in_channels} input channels"
            )
        if self.out_channels % self.groups != 0:
            raise ValueError(
                f"{self.groups} groups do not divide {self.out_channels} output channels"
            )

    @property
    def resolved_group_size(self) -> int:
        return self.in_channels if self.group_size is None else self.group_size

    @property
    def groups(self) -> int:
        return self.in_channels // self.resolved_group_size

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.resolved_group_size, self.kernel, self.kernel)

    def out_size(self, size: int) -> int:
        if self.padding == "same":
            return -(-size // self.stride)
        if size < self.kernel:
            raise ValueError(f"input size {size} below kernel {self.kernel} with valid padding")
        return (size - self.kernel) // self.stride + 1

    def pad_amounts(self, size: int) -> tuple[int, int]:
        """(before, after) padding for one spatial axis; extra goes after."""
        if self.padding == "valid":
            return 0, 0
        total = max((self.out_size(size) - 1) * self.stride + self.kernel - size, 0)
        return total // 2, total - total // 2


def _pad_input(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    ph = spec.pad_amounts(x.shape[2])
    pw = spec.pad_amounts(x.shape[3])
    if ph == (0, 0) and pw == (0, 0):
        return x
    return np.pad(x, ((0, 0), (0, 0), ph, pw))


def _columns(xp: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """(B, groups, G*k*k, OH*OW) im2col matrix of the padded input."""
    k, s = spec.kernel, spec.stride
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    b, _, oh, ow = win.shape[:4]
    # (B, C, OH, OW, k, k) -> (B, C, k, k, OH, OW); the reshape copies.
    cols = win.transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(b, spec.groups, spec.resolved_group_size * k * k, oh * ow)


def _grouped_weight(weight: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """(groups, C_out/groups, G*k*k) view of the weights."""
    return weight.reshape(spec.groups, spec.out_channels // spec.groups, -1)


def conv_forward(x: np.ndarray, weight: np.ndarray, spec: ConvSpec):
    """Returns (y, cache) with y of shape (B, C_out, OH, OW)."""
    if x.ndim != 4 or x.shape[1] != spec.in_channels:
        raise ValueError(f"input shape {x.shape} does not match {spec}")
    if weight.shape != spec.weight_shape:
        raise ValueError(f"weight shape {weight.shape}, expected {spec.weight_shape}")
    xp = np.ascontiguousarray(_pad_input(x, spec), dtype=np.float64)
    weight = np.ascontiguousarray(weight, dtype=np.float64)
    # (groups, opg, G*k*k) @ (B, groups, G*k*k, OH*OW): one GEMM per
    # (sample, group), each of a shape that does not depend on B.
    y = np.matmul(_grouped_weight(weight, spec), _columns(xp, spec))
    y = y.reshape(
        x.shape[0], spec.out_channels, spec.out_size(x.shape[2]), spec.out_size(x.shape[3])
    )
    cache = {"xp": xp, "weight": weight, "spec": spec, "in_shape": x.shape}
    return y, cache


def conv_backward(cache, dy: np.ndarray):
    """Returns (dx, dweight)."""
    spec: ConvSpec = cache["spec"]
    xp, weight = cache["xp"], cache["weight"]
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    b, _, hp, wp = xp.shape
    k, s = spec.kernel, spec.stride
    oh, ow = dy.shape[2], dy.shape[3]
    dg = dy.reshape(b, spec.groups, spec.out_channels // spec.groups, oh * ow)
    # The weight gradient is a sum over the batch anyway: one product per
    # (sample, group), then the sum over samples.
    dw = np.matmul(dg, _columns(xp, spec).transpose(0, 1, 3, 2)).sum(axis=0)
    dw = dw.reshape(spec.weight_shape)
    # dx: the transposed per-(sample, group) GEMM, then col2im over the taps
    # in a fixed order.
    dcols = np.matmul(_grouped_weight(weight, spec).transpose(0, 2, 1), dg)
    dcols = dcols.reshape(b, spec.in_channels, k, k, oh, ow)
    dxp = np.zeros((b, spec.in_channels, hp, wp))
    for ky in range(k):
        for kx in range(k):
            dxp[:, :, ky : ky + oh * s : s, kx : kx + ow * s : s] += dcols[:, :, ky, kx]
    in_shape = cache["in_shape"]
    ph, _ = spec.pad_amounts(in_shape[2])
    pw, _ = spec.pad_amounts(in_shape[3])
    dx = dxp[:, :, ph : ph + in_shape[2], pw : pw + in_shape[3]]
    return np.ascontiguousarray(dx), dw
