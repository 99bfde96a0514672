"""Grouped convolution (the one numpy im2col path) and padding arithmetic."""

import itertools
import re

import numpy as np
import pytest

from effkit import convs
from effkit.tensor import make_rng
from effkit.verify import fd_check

from oracles import (
    im2col_product,
    im2col_weight_grad,
    naive_grouped_conv,
    naive_grouped_conv_backward,
)


def oracle_conv(x, w, spec):
    pt, pb = spec.pad_amounts(x.shape[2])
    pl, pr = spec.pad_amounts(x.shape[3])
    return naive_grouped_conv(x, w, spec.stride, spec.resolved_group_size, pt, pl, pb, pr)


# ---------------------------------------------------------------------------
# Group-size rounding
# ---------------------------------------------------------------------------


def test_round_group_size_published_examples():
    assert convs.round_group_size(16, 48) == 16
    assert convs.round_group_size(16, 40) == 20
    assert convs.round_group_size(3, 8) == 4  # tie between 2 and 4; larger wins


def test_round_group_size_always_divides():
    rng = make_rng(0)
    for _ in range(500):
        channels = int(rng.integers(1, 512))
        requested = int(rng.integers(1, 128))
        g = convs.round_group_size(requested, channels)
        assert channels % g == 0
        # no divisor sits strictly closer
        for d in range(1, channels + 1):
            if channels % d == 0:
                assert abs(d - requested) >= abs(g - requested)


def test_round_group_size_validation():
    with pytest.raises(ValueError):
        convs.round_group_size(0, 8)
    with pytest.raises(ValueError):
        convs.round_group_size(4, 0)


# ---------------------------------------------------------------------------
# ConvSpec geometry
# ---------------------------------------------------------------------------


def test_conv_spec_validation():
    with pytest.raises(ValueError):
        convs.ConvSpec(6, 4, 3, group_size=4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        convs.ConvSpec(6, 4, 3, group_size=2)  # 3 groups, 4 outputs
    with pytest.raises(ValueError):
        convs.ConvSpec(0, 4, 3)


def test_conv_spec_group_accessors():
    spec = convs.ConvSpec(8, 12, 3, group_size=2)
    assert spec.groups == 4
    assert spec.weight_shape == (12, 2, 3, 3)
    dense = convs.ConvSpec(8, 12, 1)
    assert dense.resolved_group_size == 8
    assert dense.groups == 1


def test_same_padding_output_sizes():
    spec = convs.ConvSpec(4, 4, 3, stride=2)
    assert spec.out_size(224) == 112
    assert spec.out_size(15) == 8  # ceil semantics on odd extents
    spec5 = convs.ConvSpec(4, 4, 5, stride=2)
    assert spec5.out_size(17) == 9
    assert spec5.pad_amounts(17) == (2, 2)
    # odd total padding puts the extra row after
    spec_even = convs.ConvSpec(4, 4, 3, stride=2)
    assert spec_even.pad_amounts(16) == (0, 1)


# ---------------------------------------------------------------------------
# Forward correctness against the loop oracle
# ---------------------------------------------------------------------------


def test_pointwise_dense_conv_equals_matmul():
    rng = make_rng(1)
    x = rng.normal(size=(3, 5, 4, 4))
    spec = convs.ConvSpec(5, 7, 1)
    w = rng.normal(size=spec.weight_shape)
    y, _ = convs.conv_forward(x, w, spec)
    m = w[:, :, 0, 0]  # (7, 5)
    ref = np.einsum("oc,bchw->bohw", m, x)
    np.testing.assert_allclose(y, ref, atol=1e-12, rtol=0)


def test_depthwise_identity_kernel_is_identity():
    rng = make_rng(2)
    x = rng.normal(size=(2, 6, 5, 5))
    spec = convs.ConvSpec(6, 6, 1, group_size=1)
    w = np.ones(spec.weight_shape)
    y, _ = convs.conv_forward(x, w, spec)
    np.testing.assert_array_equal(y, x)


@pytest.mark.parametrize(
    "cin,cout,k,stride,gs,field",
    [
        (6, 6, 3, 1, 2, 7),       # two groups of three
        (6, 6, 3, 1, 1, 6),       # depthwise
        (4, 8, 3, 2, None, 9),    # dense, strided, odd field
        (8, 8, 5, 2, 4, 11),      # k=5 grouped strided
        (6, 4, 3, 1, 3, 8),       # fewer outputs than inputs
        (4, 4, 3, 2, 2, 8),       # strided, even field: padding only after
        (3, 9, 1, 1, 3, 5),       # pointwise dense
    ],
)
def test_conv_forward_matches_loop_oracle(cin, cout, k, stride, gs, field):
    rng = make_rng(hash((cin, cout, k, stride, field)) % 2**31)
    spec = convs.ConvSpec(cin, cout, k, stride=stride, group_size=gs)
    x = rng.normal(size=(3, cin, field, field))
    w = rng.normal(size=spec.weight_shape)
    y, _ = convs.conv_forward(x, w, spec)
    ref = oracle_conv(x, w, spec)
    assert y.shape == ref.shape
    np.testing.assert_allclose(y, ref, atol=1e-12, rtol=0)


def test_conv_forward_shape_errors():
    spec = convs.ConvSpec(4, 4, 3)
    rng = make_rng(3)
    with pytest.raises(ValueError):
        convs.conv_forward(rng.normal(size=(2, 5, 6, 6)), np.zeros(spec.weight_shape), spec)
    with pytest.raises(ValueError):
        convs.conv_forward(rng.normal(size=(2, 4, 6, 6)), np.zeros((4, 4, 3, 2)), spec)


def test_conv_is_linear_in_input():
    rng = make_rng(4)
    spec = convs.ConvSpec(4, 6, 3, stride=2, group_size=2)
    w = rng.normal(size=spec.weight_shape)
    x1 = rng.normal(size=(2, 4, 7, 7))
    x2 = rng.normal(size=(2, 4, 7, 7))
    y1, _ = convs.conv_forward(x1, w, spec)
    y2, _ = convs.conv_forward(x2, w, spec)
    y, _ = convs.conv_forward(1.5 * x1 - 0.25 * x2, w, spec)
    np.testing.assert_allclose(y, 1.5 * y1 - 0.25 * y2, atol=1e-12, rtol=0)


def test_group_locality():
    # Perturbing the channels of one input group moves only that group's
    # output channels.
    rng = make_rng(5)
    spec = convs.ConvSpec(8, 8, 3, group_size=4)  # 2 groups
    w = rng.normal(size=spec.weight_shape)
    x = rng.normal(size=(1, 8, 6, 6))
    y0, _ = convs.conv_forward(x, w, spec)
    x2 = x.copy()
    x2[:, :4] += 1.0
    y1, _ = convs.conv_forward(x2, w, spec)
    assert not np.allclose(y0[:, :4], y1[:, :4])
    np.testing.assert_array_equal(y0[:, 4:], y1[:, 4:])


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def test_conv_backward_zero_gradient():
    rng = make_rng(6)
    spec = convs.ConvSpec(4, 6, 3, group_size=2)
    x = rng.normal(size=(2, 4, 5, 5))
    w = rng.normal(size=spec.weight_shape)
    y, cache = convs.conv_forward(x, w, spec)
    dx, dw = convs.conv_backward(cache, np.zeros_like(y))
    np.testing.assert_array_equal(dx, np.zeros_like(x))
    np.testing.assert_array_equal(dw, np.zeros_like(w))


@pytest.mark.parametrize(
    "cin,cout,k,stride,gs",
    [
        (4, 6, 3, 1, 2),
        (6, 6, 3, 2, 1),
        (4, 8, 5, 2, None),
        (6, 4, 1, 2, 3),  # 1x1 stride 2: odd rows and columns of x unread
    ],
)
def test_conv_backward_matches_finite_differences(cin, cout, k, stride, gs):
    rng = make_rng(hash((cin, cout, k, stride)) % 2**31)
    spec = convs.ConvSpec(cin, cout, k, stride=stride, group_size=gs)
    x = rng.normal(size=(2, cin, 6, 6))
    w = rng.normal(size=spec.weight_shape)
    y, cache = convs.conv_forward(x, w, spec)
    dy = rng.normal(size=y.shape)
    dx, dw = convs.conv_backward(cache, dy)

    def loss():
        yy, _ = convs.conv_forward(x, w, spec)
        return float((yy * dy).sum())

    assert fd_check(loss, x, dx, rng, 30) <= 1e-6
    assert fd_check(loss, w, dw, rng, 30) <= 1e-6


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("kind", ["depthwise", "grouped", "dense"])
def test_conv_backward_matches_loop_oracle(kind, padding):
    # Every kernel 1-5 and stride 1-3 on odd, even and non-square fields,
    # small fields included (late-stage 2x3: the crop of dx matters most
    # there), on both sides of the weight-gradient batch-fold rule. The
    # geometries split by whether same padding adds zeros ("same") or adds
    # none, so that the convolution is a valid one ("valid").
    cin, cout, gs = {"depthwise": (6, 6, 1), "grouped": (8, 12, 2), "dense": (4, 6, None)}[kind]
    rng = make_rng(10)
    folds, uncovered, cases = set(), 0, 0
    for k, stride, (h, w) in itertools.product(
        range(1, 6), (1, 2, 3), ((7, 7), (8, 6), (5, 9), (2, 3))
    ):
        case = (k, stride, h, w)
        spec = convs.ConvSpec(cin, cout, k, stride=stride, group_size=gs)
        pt, pb = spec.pad_amounts(h)
        pl, pr = spec.pad_amounts(w)
        if (pt + pb + pl + pr > 0) != (padding == "same"):
            continue
        cases += 1
        x = rng.normal(size=(3, cin, h, w))
        weight = rng.normal(size=spec.weight_shape)
        y, cache = convs.conv_forward(x, weight, spec)
        dy = rng.normal(size=y.shape)
        dx, dw = convs.conv_backward(cache, dy)
        ref_dx, ref_dw = naive_grouped_conv_backward(x, weight, dy, stride, pt, pl, pb, pr)
        np.testing.assert_allclose(dx, ref_dx, atol=1e-12, rtol=0, err_msg=str(case))
        np.testing.assert_allclose(dw, ref_dw, atol=1e-12, rtol=0, err_msg=str(case))
        folds.add(convs.folds_batch_for_dw(spec, y.shape[2] * y.shape[3]))
        # input rows or columns that no output reads (a kernel smaller than
        # its stride leaves some, e.g. k=1, s=2 on a field of 7) get a zero
        # gradient
        unread = ref_dx == 0
        uncovered += unread.all(axis=(0, 1, 3)).any() or unread.all(axis=(0, 1, 2)).any()
    assert cases >= 10
    assert folds == ({False} if kind == "depthwise" else {False, True})
    assert uncovered > 0


def test_pointwise_input_grad_is_the_product_over_c_ordered_weights():
    # dx of a dense 1x1 convolution is W^T @ dy per sample, bit for bit, with
    # W^T copied to C order: matmul rounds the transposed view differently at
    # b0's late shapes, which would move every trained bit.
    rng = make_rng(12)
    for cin, cout in ((112, 672), (192, 1152), (672, 192)):
        spec = convs.ConvSpec(cin, cout, 1)
        x = rng.normal(size=(4, cin, 2, 2))
        w = rng.normal(size=spec.weight_shape)
        y, cache = convs.conv_forward(x, w, spec)
        dy = rng.normal(size=y.shape)
        dx, _ = convs.conv_backward(cache, dy)
        ref = np.matmul(np.ascontiguousarray(w[:, :, 0, 0].T), dy.reshape(4, cout, 4))
        assert np.array_equal(dx, ref.reshape(x.shape)), (cin, cout)


def test_conv_backward_rejects_wrong_dy_shape():
    rng = make_rng(11)
    spec = convs.ConvSpec(4, 6, 3, stride=2, group_size=2)
    x = rng.normal(size=(2, 4, 7, 7))
    y, cache = convs.conv_forward(x, rng.normal(size=spec.weight_shape), spec)
    assert y.shape == (2, 6, 4, 4)
    for shape in [(2, 6, 3, 4), (2, 6, 4, 5), (1, 6, 4, 4), (2, 4, 4, 4), (2, 6, 16)]:
        pattern = re.escape(str(shape)) + ".*" + re.escape(str(y.shape))
        with pytest.raises(ValueError, match=pattern):
            convs.conv_backward(cache, np.zeros(shape))


def test_grouped_backward_equals_stitched_dense_backwards():
    rng = make_rng(7)
    spec = convs.ConvSpec(8, 8, 3, group_size=4)  # 2 groups
    x = rng.normal(size=(2, 8, 6, 6))
    w = rng.normal(size=spec.weight_shape)
    y, cache = convs.conv_forward(x, w, spec)
    dy = rng.normal(size=y.shape)
    dx, dw = convs.conv_backward(cache, dy)
    dense = convs.ConvSpec(4, 4, 3)
    for n in range(2):
        xs = x[:, 4 * n : 4 * n + 4]
        ws = w[4 * n : 4 * n + 4]
        ys, cs = convs.conv_forward(xs, ws, dense)
        np.testing.assert_allclose(ys, y[:, 4 * n : 4 * n + 4], atol=1e-12, rtol=0)
        dxs, dws = convs.conv_backward(cs, dy[:, 4 * n : 4 * n + 4])
        np.testing.assert_allclose(dxs, dx[:, 4 * n : 4 * n + 4], atol=1e-12, rtol=0)
        np.testing.assert_allclose(dws, dw[4 * n : 4 * n + 4], atol=1e-12, rtol=0)


def test_forward_is_deterministic_and_per_sample_stable():
    # Per-sample outputs must not depend on which batch they sit in: the
    # forward output and the input gradient of each sample stay bit-identical
    # under subsetting, permutation and duplication of the batch, for every
    # kind of conv, kernel, stride and odd or even field, and for a field
    # of 2 at stride 2, which leaves a single output position.
    rng = make_rng(9)
    kinds = {"depthwise": (8, 8, 1), "grouped": (8, 12, 2), "dense": (6, 12, None)}
    selections = {
        "subset": np.array([1, 3]),
        "solo": np.array([4]),
        "permutation": np.array([3, 1, 5, 0, 4, 2]),
        "duplication": np.array([2, 2, 0, 5, 5, 5]),
    }
    for kind, (cin, cout, gs) in kinds.items():
        for k in (1, 3, 5):
            for stride, field in [*itertools.product((1, 2), (5, 6)), (2, 2)]:
                case = (kind, k, stride, field)
                spec = convs.ConvSpec(cin, cout, k, stride=stride, group_size=gs)
                x = rng.normal(size=(6, cin, field, field))
                w = rng.normal(size=spec.weight_shape)
                y, cache = convs.conv_forward(x, w, spec)
                dy = rng.normal(size=y.shape)
                dx, _ = convs.conv_backward(cache, dy)
                y2, cache2 = convs.conv_forward(x, w, spec)
                assert np.array_equal(y, y2), case
                assert np.array_equal(convs.conv_backward(cache2, dy)[0], dx), case
                for name, idx in selections.items():
                    ys, cs = convs.conv_forward(x[idx], w, spec)
                    dxs, _ = convs.conv_backward(cs, dy[idx])
                    assert np.array_equal(ys, y[idx]), (name, "forward", case)
                    assert np.array_equal(dxs, dx[idx]), (name, "dx", case)


def _strided_oracle(monkeypatch, x, w, spec, dy):
    """(y, dx, dw) with every im2col matrix copied whole from the strided
    window view and every product run in one stacked ``matmul``."""
    def weight_grad(xp, dy, spec):
        fold = convs.folds_batch_for_dw(spec, dy.shape[2] * dy.shape[3])
        return im2col_weight_grad(xp, dy, spec, fold)

    with monkeypatch.context() as m:
        m.setattr(convs, "_product", im2col_product)
        m.setattr(convs, "_weight_grad", weight_grad)
        y, cache = convs.conv_forward(x, w, spec)
        return (y, *convs.conv_backward(cache, dy))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_blocked_columns_keep_every_bit_and_stay_per_sample(monkeypatch):
    # Gathered and blocked columns give y, dx and dw bit-identical to whole
    # strided columns, and per-sample y and dx stay bit-identical under
    # subset, permutation and duplication of the batch: on narrow and wide
    # output rows, non-square fields, one block per call or several, and
    # blocks of whole samples or of part of one. Dense layers stay small;
    # at 144 or 1152 channels they would take too long here.
    rng = make_rng(26)
    kinds = {"depthwise": (8, 8, 1), "G=16": (32, 32, 16), "dense": (8, 12, None)}
    fields = [(2, 2), (4, 4), (8, 8), (16, 16), (32, 32), (4, 32), (32, 4)]
    cases = [
        (cin, cout, gs, k, s, field)
        for (cin, cout, gs), k, s, field in itertools.product(
            kinds.values(), (1, 3, 5), (1, 2), fields
        )
    ]
    cases += [
        (144, 144, 1, 3, 1, (32, 32)),
        (144, 144, 16, 3, 2, (32, 32)),
        (1152, 1152, 1, 5, 1, (2, 2)),
        (1152, 1152, 16, 5, 1, (2, 2)),
    ]
    seen = set()
    for cin, cout, gs, k, s, (h, w_) in cases:
        spec = convs.ConvSpec(cin, cout, k, stride=s, group_size=gs)
        b = int(rng.integers(1, 7))
        case = (cin, cout, gs, k, s, h, w_, b)
        x = rng.normal(size=(b, cin, h, w_))
        w = rng.normal(size=spec.weight_shape)
        y, cache = convs.conv_forward(x, w, spec)
        dy = rng.normal(size=y.shape)
        dx, dw = convs.conv_backward(cache, dy)
        for name, got, ref in zip("y dx dw".split(), (y, dx, dw),
                                  _strided_oracle(monkeypatch, x, w, spec, dy)):
            assert _same_bits(got, ref), (name, case)
        perm = rng.permutation(b)
        for idx in (perm[: max(1, b // 2)], perm, np.repeat(perm, 2)[: b + 1]):
            ys, cs = convs.conv_forward(x[idx], w, spec)
            assert _same_bits(ys, y[idx]), ("y", idx, case)
            assert _same_bits(convs.conv_backward(cs, dy[idx])[0], dx[idx]), ("dx", idx, case)
        if k > 1:
            xp = convs._padded(x, spec.pad_amounts(h), spec.pad_amounts(w_))
            blocks = list(convs._column_blocks(xp, spec.groups, k, s))
            seen.add("narrow" if y.shape[3] <= convs.GATHER_WIDTH else "wide")
            seen.add("several blocks" if len(blocks) > b else "one block a sample")
            if any(samples.stop - samples.start > 1 for samples, _, _ in blocks):
                seen.add("whole samples")
            if any(group.stop - group.start < spec.groups for _, group, _ in blocks):
                seen.add("part of a sample")
    assert seen == {"narrow", "wide", "several blocks", "one block a sample",
                    "whole samples", "part of a sample"}
