"""Layer-level gradient checks, batch norm buffers, and batch independence."""

import collections

import numpy as np
import pytest

from effkit import layers, norms
from effkit.convs import ConvSpec
from effkit.model import ModelConfig, build_model
from effkit.norms import EPSILON, EPSILON_TILDE, QUAD_RULE, NormSpec
from effkit.tensor import make_rng
from effkit.verify import check_layer

from oracles import reference_normact, reference_normact_backward


def test_conv_layer_gradients_dense_grouped_depthwise():
    rng = make_rng(0)
    for spec in (
        ConvSpec(4, 6, 3),                       # dense
        ConvSpec(8, 8, 3, stride=2, group_size=4),  # grouped strided
        ConvSpec(6, 6, 5, group_size=1),         # depthwise k=5
    ):
        layer = layers.Conv(spec, rng)
        x = rng.normal(size=(2, spec.in_channels, 6, 6))
        assert check_layer(layer, x, rng, probes=25) <= 1e-6


def test_linear_layer_gradients():
    rng = make_rng(1)
    layer = layers.Linear(5, 3, rng)
    x = rng.normal(size=(4, 5))
    assert check_layer(layer, x, rng, probes=25) <= 1e-6


def test_normact_gradients_every_kind_and_activation():
    rng = make_rng(2)
    cases = [
        (NormSpec("bn"), "swish", False),
        (NormSpec("ln"), "swish", False),
        (NormSpec("gn", groups=2), "swish", True),
        (NormSpec("in"), "swish", True),
        (NormSpec("ln"), "identity", True),
    ]
    for spec, act, proxy in cases:
        layer = layers.NormAct(4, spec, act, proxy=proxy)
        x = rng.normal(size=(2, 4, 5, 5))
        err = check_layer(layer, x, rng, probes=25)
        assert err <= 1e-6, (spec.kind, act, proxy, err)


def test_normact_relu_proxy_gradients_away_from_kink():
    # Relu gradients are checked at inputs pushed away from zero crossings
    # so the finite differences do not straddle the kink.
    rng = make_rng(3)
    layer = layers.NormAct(4, NormSpec("ln"), "relu", proxy=True)
    x = rng.normal(size=(2, 4, 5, 5))
    layer.forward(x, train=True)
    y = layer._cache[1]["y"]  # the normalized input; the pre-activation is recomputed
    pre = layer.gamma.reshape(1, -1, 1, 1) * y + layer.beta.reshape(1, -1, 1, 1)
    mask = np.abs(pre) < 1e-2
    assert mask.mean() < 0.05
    x = x + 0.3 * np.sign(x)  # widen the margin
    err = check_layer(layer, x, rng, probes=20)
    assert err <= 1e-4


def test_squeeze_excite_gradients():
    rng = make_rng(4)
    layer = layers.SqueezeExcite(6, 2, rng)
    x = rng.normal(size=(2, 6, 4, 4))
    assert check_layer(layer, x, rng, probes=25) <= 1e-6


def test_global_avg_pool_gradients():
    rng = make_rng(5)
    layer = layers.GlobalAvgPool()
    x = rng.normal(size=(3, 4, 5, 5))
    assert check_layer(layer, x, rng, probes=25) <= 1e-6


def test_gradients_accumulate_across_backward_calls():
    rng = make_rng(6)
    layer = layers.Linear(4, 3, rng)
    x = rng.normal(size=(2, 4))
    dy = rng.normal(size=(2, 3))
    layer.zero_grads()
    layer.forward(x)
    layer.backward(dy)
    once = {k: v.copy() for k, v in layer.grads().items()}
    layer.forward(x)
    layer.backward(dy)
    for name, g in layer.grads().items():
        np.testing.assert_allclose(g, 2.0 * once[name], atol=1e-12, rtol=0)
    layer.zero_grads()
    for g in layer.grads().values():
        assert not g.any()


def test_bn_running_moments_update_in_train_only():
    rng = make_rng(7)
    layer = layers.NormAct(4, NormSpec("bn"))
    x = rng.normal(size=(8, 4, 6, 6)) * 2.0 + 1.0
    rm0 = layer.running_mean.copy()
    rv0 = layer.running_var.copy()
    layer.forward(x, train=True)
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(layer.running_mean, 0.99 * rm0 + 0.01 * mean, atol=1e-12)
    np.testing.assert_allclose(layer.running_var, 0.99 * rv0 + 0.01 * var, atol=1e-12)
    frozen_mean = layer.running_mean.copy()
    layer.forward(x, train=False)
    np.testing.assert_array_equal(layer.running_mean, frozen_mean)


def test_bn_eval_uses_running_stats():
    rng = make_rng(8)
    layer = layers.NormAct(3, NormSpec("bn"), "identity")
    for _ in range(200):
        layer.forward(rng.normal(size=(16, 3, 4, 4)) * 1.5 - 0.5, train=True)
    x = rng.normal(size=(4, 3, 4, 4)) * 1.5 - 0.5
    y_eval = layer.forward(x, train=False)
    mean = layer.running_mean.reshape(1, 3, 1, 1)
    var = layer.running_var.reshape(1, 3, 1, 1)
    ref = (x - mean) / np.sqrt(var + EPSILON)
    np.testing.assert_allclose(y_eval, ref, atol=1e-12, rtol=0)


def test_state_round_trip_via_load_state():
    rng = make_rng(9)
    layer = layers.NormAct(4, NormSpec("bn"))
    layer.forward(rng.normal(size=(4, 4, 5, 5)), train=True)
    snapshot = {k: v.copy() for k, v in layer.state().items()}
    fresh = layers.NormAct(4, NormSpec("bn"))
    fresh.load_state(snapshot)
    for name, arr in fresh.state().items():
        np.testing.assert_array_equal(arr, snapshot[name])
    with pytest.raises(KeyError):
        fresh.load_state({"gamma": snapshot["gamma"]})
    bad = dict(snapshot)
    bad["gamma"] = np.zeros(5)
    with pytest.raises(ValueError):
        fresh.load_state(bad)


def test_batch_independent_layers_are_per_sample_bit_stable():
    rng = make_rng(10)
    x = rng.normal(size=(6, 4, 5, 5))
    builders = {
        "conv": lambda: layers.Conv(ConvSpec(4, 8, 3, group_size=2), make_rng(1)),
        "ln+pn": lambda: layers.NormAct(4, NormSpec("ln"), proxy=True),
        "gn": lambda: layers.NormAct(4, NormSpec("gn", groups=2)),
        "in+pn-relu": lambda: layers.NormAct(4, NormSpec("in"), "relu", proxy=True),
        "se": lambda: layers.SqueezeExcite(4, 2, make_rng(2)),
        "pool": lambda: layers.GlobalAvgPool(),
    }
    perm = np.array([3, 1, 5, 0, 4, 2])
    for name, build in builders.items():
        layer = build()
        full = layer.forward(x, train=True)
        shuffled = layer.forward(x[perm], train=True)
        assert np.array_equal(shuffled, full[perm]), name
        subset = layer.forward(x[:2], train=True)
        assert np.array_equal(subset, full[:2]), name


def test_batch_norm_is_the_batch_dependent_witness():
    rng = make_rng(11)
    x = rng.normal(size=(6, 4, 5, 5))
    layer = layers.NormAct(4, NormSpec("bn"))
    full = layer.forward(x, train=True)
    subset = layer.forward(x[:2], train=True)
    assert not np.array_equal(subset, full[:2])


def test_decay_param_names_on_composites():
    rng = make_rng(12)
    root = layers.Layer()
    root.add_child("conv", layers.Conv(ConvSpec(4, 4, 3), rng))
    root.add_child("norm", layers.NormAct(4, NormSpec("ln"), proxy=True))
    root.add_child("se", layers.SqueezeExcite(4, 2, rng))
    names = set(layers.decay_param_names(root))
    assert names == {"conv/weight", "norm/proxy_beta", "norm/proxy_gamma"}


def test_composite_runs_children_in_registration_order():
    rng = make_rng(13)
    root = layers.Layer()
    a = root.add_child("a", layers.Linear(5, 4, rng))
    sub = root.add_child("sub", layers.Layer())
    b = sub.add_child("b", layers.Linear(4, 3, rng))
    assert [p for p, _ in root.walk()] == ["", "a/", "sub/", "sub/b/"]
    assert list(root.params()) == ["a/weight", "a/bias", "sub/b/weight", "sub/b/bias"]
    x = rng.normal(size=(2, 5))
    y = root.forward(x)
    np.testing.assert_array_equal(y, b.forward(a.forward(x)))
    dy = rng.normal(size=y.shape)
    root.zero_grads()
    dx = root.backward(dy)
    # Each backward reads its own forward's caches, so run forward again.
    root.forward(x)
    np.testing.assert_array_equal(dx, a.backward(b.backward(dy)))
    h = root.forward(x, stop=1)
    np.testing.assert_array_equal(root.forward(h, start=1), y)
    root.zero_grads()
    dh = root.backward(dy, stop=1)
    root.forward(h, start=1)
    np.testing.assert_array_equal(dh, b.backward(dy))
    assert not a.grads()["weight"].any()


class _SkewedLinear(layers.Linear):
    """A Linear whose backward is off by 0.01 in one gradient."""

    def __init__(self, wrong, rng):
        super().__init__(5, 3, rng)
        self.wrong = wrong

    def backward(self, dy):
        dx = super().backward(dy)
        if self.wrong == "<input>":
            return dx + 0.01
        self._grads[self.wrong] += 0.01
        return dx


@pytest.mark.parametrize("wrong", ["<input>", "weight", "bias"])
def test_shared_fd_harness_catches_a_wrong_gradient(wrong):
    # verify's check_layer backs criterion 5 and the gradient suite; it
    # must see an error in the input gradient and in every parameter's.
    rng = make_rng(13)
    x = rng.normal(size=(4, 5))
    assert check_layer(layers.Linear(5, 3, make_rng(14)), x, rng) <= 1e-6
    assert check_layer(_SkewedLinear(wrong, make_rng(14)), x, rng) > 1e-3


# Each leaf layer with an input of its shape.
LEAVES = {
    "conv": lambda rng: (layers.Conv(ConvSpec(4, 6, 3, stride=2, group_size=2), rng), (2, 4, 6, 6)),
    "normact bn": lambda rng: (layers.NormAct(4, NormSpec("bn")), (2, 4, 5, 5)),
    "normact ln+proxy": lambda rng: (layers.NormAct(4, NormSpec("ln"), proxy=True), (2, 4, 5, 5)),
    "squeeze-excite": lambda rng: (layers.SqueezeExcite(6, 2, rng), (2, 6, 4, 4)),
    "linear": lambda rng: (layers.Linear(5, 3, rng), (4, 5)),
    "pool": lambda rng: (layers.GlobalAvgPool(), (2, 4, 3, 3)),
}


@pytest.mark.parametrize("forward_only", [{"train": False}, {"train": True, "grad": False}],
                         ids=["eval", "grad-false"])
@pytest.mark.parametrize("leaf", LEAVES)
def test_backward_after_a_forward_only_pass_raises(leaf, forward_only):
    # A training forward leaves a cache; the forward-only pass after it
    # must drop it, so the backward cannot read the older pass's cache.
    rng = make_rng(15)
    layer, shape = LEAVES[leaf](rng)
    x = rng.normal(size=shape)
    y = layer.forward(x, train=True)
    assert layer._cache is not None
    out = layer.forward(x, **forward_only)
    if forward_only["train"]:
        np.testing.assert_array_equal(out, y)
    assert all(node._cache is None for _, node in layer.walk())
    layer.zero_grads()
    with pytest.raises(RuntimeError, match="train=False or grad=False"):
        layer.backward(np.ones_like(y))
    assert not any(g.any() for g in layer.grads().values())


@pytest.mark.parametrize("leaf", LEAVES)
def test_backward_releases_the_cache_and_a_second_backward_raises(leaf):
    # A cache lives from a training forward to its backward: the backward
    # releases it, so a second backward on the same forward raises and
    # accumulates nothing.
    rng = make_rng(17)
    layer, shape = LEAVES[leaf](rng)
    x = rng.normal(size=shape)
    dy = rng.normal(size=layer.forward(x, train=True).shape)
    layer.zero_grads()
    layer.backward(dy)
    assert all(node._cache is None for _, node in layer.walk())
    once = {k: v.copy() for k, v in layer.grads().items()}
    with pytest.raises(RuntimeError, match="backward already ran"):
        layer.backward(dy)
    for name, g in layer.grads().items():
        np.testing.assert_array_equal(g, once[name], err_msg=name)


@pytest.mark.parametrize("leaf", LEAVES)
def test_backward_without_input_grad_returns_none_and_the_same_parameter_grads(leaf):
    rng = make_rng(16)
    layer, shape = LEAVES[leaf](rng)
    x = rng.normal(size=shape)
    dy = rng.normal(size=layer.forward(x, train=True).shape)
    layer.zero_grads()
    assert layer.backward(dy).shape == x.shape
    want = {k: v.copy() for k, v in layer.grads().items()}
    layer.forward(x, train=True)
    layer.zero_grads()
    assert layer.backward(dy, input_grad=False) is None
    for name, g in layer.grads().items():
        np.testing.assert_array_equal(g, want[name], err_msg=name)


# ---------------------------------------------------------------------------
# NormAct against its whole-array reference
# ---------------------------------------------------------------------------

NORM_KINDS = ("bn", "ln", "gn", "in")


def _normact(kind, activation, proxy, channels, rng):
    """A NormAct with drawn parameters, so that no affine or proxy term is
    the identity."""
    layer = layers.NormAct(channels, NormSpec(kind), activation, proxy=proxy)
    layer.gamma[...] = 1.0 + 0.3 * rng.normal(size=channels)
    layer.beta[...] = 0.3 * rng.normal(size=channels)
    if proxy:
        layer.proxy_beta[...] = 0.2 * rng.normal(size=channels)
        layer.proxy_gamma[...] = 0.2 * rng.normal(size=channels)
    return layer


# Largest deviation from the reference, relative to the reference's largest
# magnitude, over the 24 cases below: 5.9e-16 for z, 6.0e-16 for dx and
# 5.3e-15 for a parameter gradient, so the bound is about 190 times the
# worst. Wrong terms are far above it: dropping gamma's proxy derivative
# read 14, and dropping bn's mean(dy) from dx read 0.055.
REFERENCE_TOLERANCE = 1e-12


@pytest.mark.parametrize("proxy", [False, True], ids=["plain", "proxy"])
@pytest.mark.parametrize("activation", ["swish", "relu", "identity"])
@pytest.mark.parametrize("kind", NORM_KINDS)
def test_normact_matches_the_whole_array_reference(kind, activation, proxy):
    rng = make_rng(20)
    layer = _normact(kind, activation, proxy, 8, rng)
    x = 2.0 * rng.normal(size=(3, 8, 5, 4)) + 0.5
    dz = rng.normal(size=x.shape)
    params = {name: p.copy() for name, p in layer.params().items()}
    want_z, cache = reference_normact(x, layer.spec, params, activation, QUAD_RULE,
                                      EPSILON, EPSILON_TILDE)
    want_dx, want_grads = reference_normact_backward(cache, dz)
    layer.zero_grads()
    z = layer.forward(x, train=True)
    dx = layer.backward(dz)

    def deviation(got, want):
        # Relative to the largest magnitude, or absolute below 1: bn's
        # shift cancels an identity's proxy, so its beta gradient is 0.
        return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))

    assert deviation(z, want_z) <= REFERENCE_TOLERANCE
    assert deviation(dx, want_dx) <= REFERENCE_TOLERANCE
    assert set(layer.grads()) == set(want_grads)
    for name, g in layer.grads().items():
        assert deviation(g, want_grads[name]) <= REFERENCE_TOLERANCE, name


@pytest.mark.parametrize("shape", [(5, 1152, 2, 2), (5, 96, 32, 32)], ids=["1152x2x2", "96x32x32"])
@pytest.mark.parametrize("proxy", [False, True], ids=["plain", "proxy"])
@pytest.mark.parametrize("kind", ["ln", "gn", "in"])
def test_normact_is_per_sample_bit_stable_at_b0_widths(kind, proxy, shape):
    # b0's widest late stage and its widest early field: a sample's output
    # and input gradient must not depend on the batch it sits in.
    rng = make_rng(21)
    layer = _normact(kind, "swish", proxy, shape[1], rng)
    x = rng.normal(size=shape)
    dz = rng.normal(size=shape)
    z = layer.forward(x, train=True)
    dx = layer.backward(dz)
    for b in range(shape[0]):
        solo_z = layer.forward(x[b : b + 1], train=True)
        solo_dx = layer.backward(dz[b : b + 1])
        assert np.array_equal(solo_z[0], z[b]), b
        assert np.array_equal(solo_dx[0], dx[b]), b


def test_forward_only_passes_call_no_derivative(monkeypatch):
    # Evaluation and the fine-tune's frozen prefix (grad=False) keep no
    # cache, so they must not pay for what only a backward reads.
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name, act in list(norms.ACTIVATIONS.items()):
        monkeypatch.setitem(norms.ACTIVATIONS, name,
                            norms.Activation(act.fn, counting(name, act.grad)))
    monkeypatch.setattr(norms, "proxy_moment_grads",
                        counting("proxy_moment_grads", norms.proxy_moment_grads))
    rng = make_rng(22)
    for kind in NORM_KINDS:
        net = build_model(ModelConfig.tiny(norm=NormSpec(kind), proxy=kind != "bn"), rng)
        x = rng.normal(size=(2, 3, 16, 16))
        net.forward(x, train=True)  # moves bn's running moments off their start
        net.forward(x, train=False)
        net.forward(x, train=True, grad=False)
        assert not calls, (kind, calls)
        y = net.forward(x, train=True)
        net.backward(np.ones_like(y))
        # The projection NormAct's identity backward copies dz and takes no
        # derivative (test_identity_normact_backward_recomputes_nothing).
        assert calls["swish"] and not calls["identity"], kind
        assert bool(calls["proxy_moment_grads"]) == (kind != "bn"), kind
        calls.clear()


def test_identity_normact_backward_recomputes_nothing(monkeypatch):
    # act' = 1, so an identity NormAct's backward recomputes no gamma*y + beta;
    # it copies dz, which a residual path may read after it.
    calls = []
    pre_activation = norms._pre_activation

    def counted(*args):
        calls.append(args)
        return pre_activation(*args)

    monkeypatch.setattr(norms, "_pre_activation", counted)
    rng = make_rng(23)
    for kind in NORM_KINDS:
        for activation in ("identity", "swish"):
            layer = layers.NormAct(6, NormSpec(kind), activation)
            x = rng.normal(size=(3, 6, 4, 5))
            z = layer.forward(x, train=True)
            assert len(calls) == 1, (kind, activation)
            dz = rng.normal(size=z.shape)
            kept = dz.copy()
            layer.backward(dz)
            assert len(calls) == 1 + (activation != "identity"), (kind, activation)
            assert np.array_equal(dz, kept), (kind, activation)
            calls.clear()
