"""Grouped spatial convolution in numpy.

Group size G is the number of input channels feeding each output channel;
G = 1 is a depthwise convolution and G = C_in is a dense one. Weights are
laid out (C_out, G, k, k). Every convolution is "same"-padded and, 1x1
included, unrolls the padded input into columns (im2col, Chellapilla et
al. 2006) and multiplies them with ``np.matmul`` stacked over (sample, group).

The columns are filled and multiplied in blocks of (sample, group) pairs,
in order, about ``BLOCK_BYTES`` (512 KB) at a time, so that a block is
still in L2 when its GEMMs read it; the next block overwrites it. Where an
output row has at most ``GATHER_WIDTH`` (8) positions, a block is one
``np.take`` over a flat index of the padded field, cached per (Hp, Wp, k,
s): a strided copy of such rows moves only 2 to 8 elements per inner loop
and runs at loop speed, not copy speed. Wider rows are copied window by
window from a strided view. A 1x1 convolution at stride 1 multiplies views
of its input. Both constants come from timing every spatial convolution of
b0 (``benchmarks/bench_convs.py --model``, ``BENCH_im2col.json``). Blocks
change neither a column value nor a GEMM: every (sample, group) product
has the operands and the shape it would have with all columns built at
once, so every output bit is the same.

The input gradient is itself one forward convolution, the transposed
convolution of Dumoulin & Visin 2016 ("A guide to convolution
arithmetic"): dy convolved with the flipped weights, C_in and C_out
swapped within each group. A stride s is split into s*s phases: the
kernel is zero-padded to s*ceil(k/s) taps and cut into s*s sub-kernels,
which become extra output channels of one stride-1 convolution; the
phases are then interleaved (depth to space). Only the rows and columns
of dx that lie inside the unpadded input are computed.

The weight gradient picks its GEMM by shape. Where the output field is
small (OH*OW <= 16) and each group has more than one output, the batch
is folded into the products' inner axis; elsewhere there is one product
per (sample, group), block by block, added to a zero sum in sample order,
as ``sum(axis=0)`` over the stacked products adds them.

Per-sample results are bit-identical whatever batch a sample sits in. The
rule that keeps them so: never fold the batch axis into a GEMM dimension.
BLAS may round one row or column of a product differently when the
product's size changes, so ``x @ w`` over a flattened batch, or
``np.einsum(..., optimize=True)`` (which lowers to such a product), makes a
sample's output depend on its batch. A ``matmul`` stacked over the batch
runs one product per sample whose shape is fixed by the layer, and a block
only decides which of those products run in one call. The input
gradient, being a forward convolution, keeps the rule by construction.
Only the weight gradient, a sum over the batch by definition, combines
samples, and only it may fold the batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# How im2col blocks are sized and filled; see the module docstring.
GATHER_WIDTH = 8
BLOCK_BYTES = 512 * 1024


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
    """Geometry of one grouped convolution: channels, kernel, stride and
    group size, always "same"-padded. Batch and spatial size come from the
    input tensor."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    group_size: int | None = None  # None means dense (G = in_channels)

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1:
            raise ValueError(f"conv dimensions must be positive: {self}")
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
        return -(-size // self.stride)

    def pad_amounts(self, size: int) -> tuple[int, int]:
        """(before, after) padding for one spatial axis; extra goes after."""
        total = max((self.out_size(size) - 1) * self.stride + self.kernel - size, 0)
        return total // 2, total - total // 2


def _padded(a: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """``a`` (B, C, H, W) zero-padded by (before, after) ``rows`` and ``cols``
    as a C-contiguous float64 array; ``a`` itself when it already is one and
    needs no padding (every 1x1 convolution). Every convolution pads here:
    the input for forward and weight gradient, dy for the input gradient,
    and the kernel (C_out, G, k, k) of the input gradient to s*ceil(k/s)
    taps per axis."""
    (top, bottom), (left, right) = rows, cols
    if top == bottom == left == right == 0:
        return np.ascontiguousarray(a, dtype=np.float64)
    # A copy into zeros is exact, and half the time of numpy.pad on b0's
    # spatial convolutions.
    b, c, h, w = a.shape
    out = np.zeros((b, c, top + h + bottom, left + w + right))
    out[:, :, top : top + h, left : left + w] = a
    return out


@functools.lru_cache(maxsize=128)
def _gather_index(hp: int, wp: int, k: int, s: int) -> np.ndarray:
    """Positions in one channel's flattened (Hp, Wp) padded field of its
    im2col entries, in column order (ky, kx, OH, OW)."""
    ky, kx, i, j = np.ogrid[:k, :k, : (hp - k) // s + 1, : (wp - k) // s + 1]
    index = ((i * s + ky) * wp + j * s + kx).ravel()
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=128)
def _folded_index(hp: int, wp: int, k: int, s: int, g: int) -> np.ndarray:
    """Positions in one group's flattened (G, Hp, Wp) padded input of the
    folded weight gradient's columns, in order (OH*OW, G*k*k)."""
    taps = _gather_index(hp, wp, k, s).reshape(k * k, -1)
    index = (np.arange(g)[:, None, None] * (hp * wp) + taps).reshape(g * k * k, -1).T.copy()
    index.setflags(write=False)
    return index


def _column_blocks(xp: np.ndarray, groups: int, k: int, s: int):
    """Yields (samples, groups, columns) over the (sample, group) pairs of
    the padded, C-contiguous input, in order: two slices and the (samples,
    groups, C/groups*k*k, OH*OW) im2col matrix of those pairs, about
    ``BLOCK_BYTES`` at a time. A block holds whole samples or part of one,
    and each block overwrites the last one's columns. Narrow output rows
    are gathered, wide ones copied window by window, and a 1x1 convolution
    at stride 1 multiplies views of its input."""
    b, c, hp, wp = xp.shape
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    g, entries = c // groups, k * k * oh * ow
    pairs = max(1, BLOCK_BYTES // (g * entries * xp.itemsize))
    per_block, group_step = max(1, pairs // groups), min(pairs, groups)
    copies = k * s > 1
    narrow = copies and ow <= GATHER_WIDTH
    if narrow:
        src, index = xp.reshape(b, c, hp * wp), _gather_index(hp, wp, k, s)
    else:
        sb, sc, sh, sw = xp.strides
        src = as_strided(xp, (b, c, k, k, oh, ow), (sb, sc, sh, sw, sh * s, sw * s),
                         writeable=False)
    buf = np.empty(min(per_block, b) * group_step * g * entries) if copies else None
    for i in range(0, b, per_block):
        samples = slice(i, min(i + per_block, b))
        for g0 in range(0, groups, group_step):
            block = slice(g0, min(g0 + group_step, groups))
            part = src[samples, g0 * g : block.stop * g]
            if narrow:
                cols = buf[: part.shape[0] * part.shape[1] * entries]
                # The index is in range by construction; "clip" lets take
                # write into ``out`` without a buffered copy.
                np.take(part, index, axis=2, out=cols.reshape(*part.shape[:2], -1), mode="clip")
            elif copies:
                cols = buf[: part.size].reshape(part.shape)
                np.copyto(cols, part)
            else:
                cols = part
            yield samples, block, cols.reshape(
                samples.stop - i, block.stop - g0, g * k * k, oh * ow
            )


def _product(xp: np.ndarray, weight: np.ndarray, groups: int, s: int) -> np.ndarray:
    """(B, C_out, OH, OW) convolution at stride s of an already padded input
    with weights (C_out, C/groups, k, k), both C-contiguous float64: one GEMM
    per (sample, group), each of a shape that does not depend on B."""
    c_out, _, k, _ = weight.shape
    b, _, hp, wp = xp.shape
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    wg = weight.reshape(groups, c_out // groups, -1)
    y = np.empty((b, groups, c_out // groups, oh * ow))
    for samples, block, cols in _column_blocks(xp, groups, k, s):
        np.matmul(wg[block], cols, out=y[samples, block])
    return y.reshape(b, c_out, oh, ow)


def conv_forward(x: np.ndarray, weight: np.ndarray, spec: ConvSpec):
    """Returns (y, cache) with y of shape (B, C_out, OH, OW)."""
    if x.ndim != 4 or x.shape[1] != spec.in_channels:
        raise ValueError(f"input shape {x.shape} does not match {spec}")
    if weight.shape != spec.weight_shape:
        raise ValueError(f"weight shape {weight.shape}, expected {spec.weight_shape}")
    weight = np.ascontiguousarray(weight, dtype=np.float64)
    xp = _padded(x, spec.pad_amounts(x.shape[2]), spec.pad_amounts(x.shape[3]))
    y = _product(xp, weight, spec.groups, spec.stride)
    # The cache keeps the unpadded input, not the padded copy: the layer
    # before often keeps the same array (a proxy NormAct's output), and
    # backward pads it again.
    cache = {"x": x, "weight": weight, "spec": spec, "out_shape": y.shape}
    return y, cache


def folds_batch_for_dw(spec: ConvSpec, positions: int) -> bool:
    """Whether the weight gradient folds the batch into its GEMMs' inner axis.

    Per (sample, group) the product has inner size ``positions`` = OH*OW,
    only 4 or 16 on late stages, where BLAS is far from its peak; one
    product per group over all samples is then faster. A depthwise layer
    (one output per group) gains nothing from it, its products being
    matrix-vector either way.
    """
    return positions <= 16 and spec.out_channels // spec.groups > 1


def _transposed_weight(weight: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """C-contiguous weights of the stride-1 convolution of dy that yields
    every stride phase of dx.

    With T = ceil(k/s), the kernel is zero-padded to s*T taps per axis and
    split into s*s sub-kernels of T*T taps, flipped; output channel
    c*s*s + ry*s + rx holds the rows ry::s, columns rx::s of dx channel c.
    Groups keep their number, with the roles of C_in and C_out swapped:
    (C_out, G, k, k) becomes (C_in*s*s, C_out/groups, T, T).
    """
    k, s = spec.kernel, spec.stride
    t = -(-k // s)
    opg, g = spec.out_channels // spec.groups, spec.resolved_group_size
    padded = _padded(weight, (0, s * t - k), (0, s * t - k))
    # (groups, opg, G, T, s, T, s), taps flipped -> (groups, G, s, s, opg, T, T)
    split = padded.reshape(spec.groups, opg, g, t, s, t, s)[:, :, :, ::-1, :, ::-1, :]
    wt = split.transpose(0, 2, 4, 6, 1, 3, 5).reshape(spec.in_channels * s * s, opg, t, t)
    # The reshape is often a strided view (a dense 1x1 kernel's is transposed),
    # which matmul may round differently from a C-ordered copy.
    return np.ascontiguousarray(wt)


def _phase_span(spec: ConvSpec, size: int) -> tuple[int, int, int]:
    """(first, end, offset) along one axis of dx.

    Phase row m holds rows m*s .. m*s + s-1 of the padded input's gradient.
    Rows first..end-1 are the ones that overlap the unpadded input, which
    starts ``offset`` rows into their interleave.
    """
    s = spec.stride
    before, _ = spec.pad_amounts(size)
    first, end = before // s, -(-(before + size) // s)
    return first, end, before - first * s


def _weight_grad(xp: np.ndarray, dy: np.ndarray, spec: ConvSpec) -> np.ndarray:
    b, _, oh, ow = dy.shape
    groups, opg, k, s = spec.groups, spec.out_channels // spec.groups, spec.kernel, spec.stride
    dg = dy.reshape(b, groups, opg, oh * ow)
    if folds_batch_for_dw(spec, oh * ow):
        # (groups, opg, B*OH*OW) @ (groups, B*OH*OW, G*k*k): the sum over
        # samples happens inside each product. The columns are gathered
        # straight into that layout from the group-major view of the input,
        # which a 1x1 convolution at stride 1 copies transposed instead.
        _, c, hp, wp = xp.shape
        src = xp.reshape(b, groups, -1).transpose(1, 0, 2)
        if k == s == 1:
            cols = src.reshape(groups, b, c // groups, -1).transpose(0, 1, 3, 2)
        else:
            cols = np.take(src, _folded_index(hp, wp, k, s, c // groups), axis=2, mode="clip")
        dw = np.matmul(
            dg.transpose(1, 2, 0, 3).reshape(groups, opg, -1),
            cols.reshape(groups, b * oh * ow, -1),
        )
    else:
        # One product per (sample, group), summed over samples in order.
        dw = np.zeros((groups, opg, spec.resolved_group_size * k * k))
        for samples, block, cols in _column_blocks(xp, groups, k, s):
            for product in np.matmul(dg[samples, block], cols.transpose(0, 1, 3, 2)):
                dw[block] += product
    return dw.reshape(spec.weight_shape)


def _input_grad(dy: np.ndarray, weight: np.ndarray, spec: ConvSpec, in_shape) -> np.ndarray:
    """The transposed convolution: one forward convolution of dy that yields
    every stride phase of dx, over only the rows and columns of dx that lie
    in the unpadded input, then the phases interleaved (depth to space)."""
    b, c, h, w = in_shape
    s = spec.stride
    wt = _transposed_weight(weight, spec)
    t = wt.shape[-1]
    r0, r1, roff = _phase_span(spec, h)
    c0, c1, coff = _phase_span(spec, w)
    # Phase row m reads dy rows m-t+1 .. m, so dy is zero-padded to cover
    # rows r0-t+1 .. r1-1; for every geometry r0 < t and r1 >= OH.
    window = _padded(dy, (t - 1 - r0, r1 - dy.shape[2]), (t - 1 - c0, c1 - dy.shape[3]))
    phases = _product(window, wt, spec.groups, 1)
    if s == 1:
        return phases  # the one phase is dx
    # dx row i is phase row (i + roff) // s of phase (i + roff) % s: each
    # phase fills every s-th row and column of dx, written there once.
    phases = phases.reshape(b, c, s, s, r1 - r0, c1 - c0)
    dx = np.empty(in_shape)
    for ry in range(s):
        i0 = (ry - roff) % s
        for rx in range(s):
            j0 = (rx - coff) % s
            dst = dx[:, :, i0::s, j0::s]
            m0, n0 = (i0 + roff) // s, (j0 + coff) // s
            dst[...] = phases[:, :, ry, rx, m0 : m0 + dst.shape[2], n0 : n0 + dst.shape[3]]
    return dx


def conv_backward(cache, dy: np.ndarray, input_grad: bool = True):
    """Returns (dx, dweight); dx is ``None`` with ``input_grad=False``,
    which computes the weight gradient only."""
    if dy.shape != cache["out_shape"]:
        raise ValueError(
            f"dy shape {dy.shape} does not match the forward output shape {cache['out_shape']}"
        )
    spec: ConvSpec = cache["spec"]
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    x = cache["x"]
    xp = _padded(x, spec.pad_amounts(x.shape[2]), spec.pad_amounts(x.shape[3]))
    dw = _weight_grad(xp, dy, spec)
    if not input_grad:
        return None, dw
    return _input_grad(dy, cache["weight"], spec, x.shape), dw
