"""Normalizers, Gauss-Hermite quadrature, and proxy-normalized activations."""

import math

import numpy as np
import pytest

from effkit import norms
from effkit.tensor import make_rng
from effkit.verify import fd_check

from oracles import (
    gaussian_monomial,
    naive_group_moments,
    piecewise_sigmoid,
    quadrature_expect,
    rectified_moments,
)


# ---------------------------------------------------------------------------
# NormSpec
# ---------------------------------------------------------------------------


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        norms.NormSpec("rms")
    with pytest.raises(ValueError):
        norms.NormSpec("gn", groups=0)


@pytest.mark.parametrize("kind", ["bn", "ln", "in"])
def test_norm_spec_takes_groups_for_gn_only(kind):
    # Only gn reads groups; any other kind given a group count would ignore it.
    with pytest.raises(ValueError, match="gn only"):
        norms.NormSpec(kind, groups=2)
    assert norms.NormSpec(kind, groups=norms.GN_GROUPS) == norms.NormSpec(kind)


def test_norm_spec_batch_dependence_flag():
    assert norms.NormSpec("bn").batch_dependent
    for kind in ("ln", "gn", "in"):
        assert not norms.NormSpec(kind).batch_dependent


def test_resolved_groups():
    spec = norms.NormSpec("gn", groups=4)
    assert spec.resolved_groups(16) == 4
    assert spec.resolved_groups(6) == 3  # falls back to the next divisor
    assert spec.resolved_groups(3) == 3
    assert spec.resolved_groups(1) == 1
    assert norms.NormSpec("ln").resolved_groups(40) == 1
    assert norms.NormSpec("in").resolved_groups(40) == 40
    with pytest.raises(ValueError):
        norms.NormSpec("bn").resolved_groups(8)


# ---------------------------------------------------------------------------
# normalize forward
# ---------------------------------------------------------------------------


def test_bn_constant_input_normalizes_to_zero():
    x = np.empty((3, 4, 5, 5))
    for c in range(4):
        x[:, c] = 2.0 * c - 3.0
    y, _ = norms.normalize(x, norms.NormSpec("bn"))
    np.testing.assert_array_equal(y, np.zeros_like(x))


def test_bn_idempotent_on_standardized_input():
    rng = make_rng(0)
    x = rng.normal(size=(8, 4, 6, 6))
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    std = x.std(axis=(0, 2, 3), keepdims=True)
    x = (x - mean) / std
    y, _ = norms.normalize(x, norms.NormSpec("bn"))
    np.testing.assert_allclose(y, x / np.sqrt(1.0 + norms.EPSILON), atol=1e-12, rtol=0)


def test_bn_moments_after_normalization():
    rng = make_rng(1)
    x = 3.0 * rng.normal(size=(8, 4, 6, 6)) + 1.0
    eps = norms.EPSILON
    y, _ = norms.normalize(x, norms.NormSpec("bn"))
    mean, var = norms.batch_moments(y)
    sigma2 = x.var(axis=(0, 2, 3))
    assert np.abs(mean).max() <= 1e-12
    np.testing.assert_allclose(var, sigma2 / (sigma2 + eps), atol=1e-10, rtol=0)


def test_batch_moments_matches_loop_oracle():
    rng = make_rng(7)
    x = rng.uniform(-2.0, 2.0, size=(4, 3, 8, 8))
    mean, var = norms.batch_moments(x)
    for c in range(3):
        vals = [
            x[b, c, i, j]
            for b in range(4)
            for i in range(8)
            for j in range(8)
        ]
        m = sum(vals) / len(vals)
        v = sum((t - m) ** 2 for t in vals) / len(vals)
        assert abs(mean[c] - m) <= 1e-12
        assert abs(var[c] - v) <= 1e-12


def test_bn_static_stats_mode():
    rng = make_rng(2)
    x = rng.normal(size=(4, 3, 5, 5))
    mean = np.array([0.5, -1.0, 2.0])
    var = np.array([1.0, 4.0, 0.25])
    y, cache = norms.normalize(x, norms.NormSpec("bn"), stats=(mean, var))
    eps = norms.EPSILON
    ref = (x - mean.reshape(1, 3, 1, 1)) / np.sqrt(var.reshape(1, 3, 1, 1) + eps)
    np.testing.assert_allclose(y, ref, atol=1e-12, rtol=0)


def test_bn_given_batch_moments_equals_train_mode():
    # Evaluation with the batch's own moments takes the same path as training.
    rng = make_rng(12)
    spec = norms.NormSpec("bn")
    for shape in ((1, 1, 1, 1), (2, 3, 5, 5), (4, 8, 1, 1), (3, 16, 7, 4), (8, 5, 2, 9)):
        x = rng.normal(size=shape) * rng.uniform(0.1, 10.0) + rng.normal()
        moments = norms.batch_moments(x)
        y_eval, eval_cache = norms.normalize(x, spec, stats=moments)
        y_train, train_cache = norms.normalize(x, spec)
        assert np.array_equal(y_eval, y_train), shape
        assert np.array_equal(eval_cache["inv"], train_cache["inv"]), shape
        for got, want in zip(train_cache["moments"], moments):
            assert np.array_equal(got, want), shape


def test_ln_idempotent_on_standardized_sample():
    rng = make_rng(3)
    x = rng.normal(size=(1, 4, 6, 6))
    x = (x - x.mean()) / x.std()
    y, _ = norms.normalize(x, norms.NormSpec("ln"))
    np.testing.assert_allclose(y, x / np.sqrt(1.0 + norms.EPSILON), atol=1e-12, rtol=0)


def test_gn_degenerate_group_identities():
    rng = make_rng(4)
    x = rng.normal(size=(3, 8, 5, 5))
    y_in, _ = norms.normalize(x, norms.NormSpec("in"))
    y_gc, _ = norms.normalize(x, norms.NormSpec("gn", groups=8))
    np.testing.assert_allclose(y_gc, y_in, atol=1e-12, rtol=0)
    y_ln, _ = norms.normalize(x, norms.NormSpec("ln"))
    y_g1, _ = norms.normalize(x, norms.NormSpec("gn", groups=1))
    np.testing.assert_allclose(y_g1, y_ln, atol=1e-12, rtol=0)


def test_gn_matches_naive_loop_oracle():
    rng = make_rng(5)
    x = rng.normal(size=(2, 8, 4, 4))
    spec = norms.NormSpec("gn", groups=4)
    y, _ = norms.normalize(x, spec)
    mean, var = naive_group_moments(x, 4)
    ref = np.empty_like(x)
    per = 8 // 4
    for b in range(2):
        for g in range(4):
            sl = x[b, g * per : (g + 1) * per]
            ref[b, g * per : (g + 1) * per] = (sl - mean[b, g]) / math.sqrt(
                var[b, g] + norms.EPSILON
            )
    np.testing.assert_allclose(y, ref, atol=1e-12, rtol=0)


def test_batch_independent_kinds_are_per_sample_functions():
    rng = make_rng(6)
    x = rng.normal(size=(5, 8, 4, 4))
    for kind in ("ln", "gn", "in"):
        spec = norms.NormSpec(kind)
        full, _ = norms.normalize(x, spec)
        for b in range(5):
            solo, _ = norms.normalize(x[b : b + 1], spec)
            assert np.array_equal(full[b], solo[0]), kind
    # batch norm is the counterexample
    spec = norms.NormSpec("bn")
    full, _ = norms.normalize(x, spec)
    solo, _ = norms.normalize(x[:1], spec)
    assert not np.array_equal(full[0], solo[0])


def test_normalize_backward_all_kinds():
    rng = make_rng(7)
    x = rng.normal(size=(2, 4, 5, 5))
    dy = rng.normal(size=x.shape)
    for kind in ("bn", "ln", "gn", "in"):
        spec = norms.NormSpec(kind)
        _, cache = norms.normalize(x, spec)
        dx = norms.normalize_backward(cache, dy)

        def value(spec=spec):
            y, _ = norms.normalize(x, spec)
            return float((y * dy).sum())

        err = fd_check(value, x, dx, rng, 40)
        assert err <= 1e-6, f"{kind}: {err}"


def test_zero_upstream_gradient_gives_zero():
    rng = make_rng(9)
    x = rng.normal(size=(2, 4, 3, 3))
    for kind in ("bn", "ln", "gn", "in"):
        _, cache = norms.normalize(x, norms.NormSpec(kind))
        dx = norms.normalize_backward(cache, np.zeros_like(x))
        np.testing.assert_array_equal(dx, np.zeros_like(x))


# ---------------------------------------------------------------------------
# Activations and quadrature
# ---------------------------------------------------------------------------


def test_get_activation():
    assert norms.get_activation("swish") is norms.ACTIVATIONS["swish"]
    with pytest.raises(ValueError):
        norms.get_activation("gelu")


def test_sigmoid_stability_and_values():
    assert norms.sigmoid(np.array([0.0]))[0] == 0.5
    big = norms.sigmoid(np.array([800.0, -800.0]))
    assert big[0] == 1.0
    assert big[1] == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(big).all()


def test_sigmoid_never_raises_and_accepts_scalars_and_lists():
    with np.errstate(all="raise"):
        tails = norms.sigmoid(np.array([-800.0, 800.0, -1e308, 1e308, -720.0, -709.0]))
    assert np.isfinite(tails).all()
    assert tails[1] == tails[3] == 1.0
    assert tails[0] == tails[2] == 0.0
    for x in (-800.0, 3.0, np.float64(-2.5), np.array(0.75), [[-1.0, 2.0]], [700, -700]):
        with np.errstate(all="raise"):
            got = norms.sigmoid(x)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == np.shape(x)
        np.testing.assert_allclose(got, piecewise_sigmoid(x), rtol=2e-15, atol=0.0)


def test_sigmoid_tails_match_piecewise_reference():
    x = np.concatenate([np.linspace(-700.0, 700.0, 200_001), [-700.0, -1e-300, 0.0, 700.0]])
    np.testing.assert_allclose(norms.sigmoid(x), piecewise_sigmoid(x), rtol=2e-15, atol=0.0)
    far = -np.array([710.0, 720.0, 745.0, 800.0, 1e4, 1e308])
    got = norms.sigmoid(far)
    assert ((got >= 0.0) & (got <= 1e-300)).all()


def test_activation_derivatives_match_finite_differences():
    rng = make_rng(10)
    x = rng.normal(size=128) * 2.0
    h = 1e-6
    for name in ("relu", "swish", "identity"):
        act = norms.get_activation(name)
        if name == "relu":
            x = x[np.abs(x) > 1e-3]  # keep probes away from the kink
        num = (act.fn(x + h) - act.fn(x - h)) / (2 * h)
        np.testing.assert_allclose(act.deriv(x), num, atol=1e-8, rtol=1e-6)


def test_quadrature_monomial_exactness():
    quad = norms.QuadratureRule.gauss_hermite(30)
    for p in range(0, 12):
        got = quadrature_expect(quad, lambda t, p=p: t**p, 0.0, 1.0)
        assert abs(got - gaussian_monomial(p)) <= 1e-9, p


def test_quadrature_shifted_gaussian():
    quad = norms.QuadratureRule.gauss_hermite(30)
    mu, sigma = 0.7, 1.3
    # E[(mu + sigma t)^2] = mu^2 + sigma^2
    got = quadrature_expect(quad, lambda t: t**2, mu, sigma)
    assert abs(got - (mu**2 + sigma**2)) <= 1e-10
    got3 = quadrature_expect(quad, lambda t: t**3, mu, sigma)
    ref3 = mu**3 + 3 * mu * sigma**2
    assert abs(got3 - ref3) <= 1e-10


def test_quadrature_order_validation():
    with pytest.raises(ValueError):
        norms.QuadratureRule.gauss_hermite(0)


# ---------------------------------------------------------------------------
# Proxy moments
# ---------------------------------------------------------------------------


def test_proxy_moments_identity_affine():
    quad = norms.QuadratureRule.gauss_hermite(30)
    gamma = np.array([0.5, 1.0, 2.0])
    beta = np.array([-1.0, 0.0, 3.0])
    zeros = np.zeros(3)
    mean, var = norms.proxy_moments(
        gamma, beta, zeros, zeros, norms.get_activation("identity"), quad
    )
    np.testing.assert_allclose(mean, beta, atol=1e-12, rtol=0)
    np.testing.assert_allclose(var, gamma**2, atol=1e-12, rtol=0)


def test_proxy_moments_relu_standard_normal():
    # The relu kink limits Gauss-Hermite accuracy to O(1/order); order 30
    # lands near 6e-3, hence the loose bound here. Smooth activations hit
    # 1e-10 on the same rule.
    quad = norms.QuadratureRule.gauss_hermite(30)
    one = np.ones(1)
    zero = np.zeros(1)
    mean, var = norms.proxy_moments(
        one, zero, zero, zero, norms.get_activation("relu"), quad
    )
    assert abs(mean[0] - 1.0 / math.sqrt(2 * math.pi)) <= 1e-2
    assert abs(var[0] - (0.5 - 1.0 / (2 * math.pi))) <= 1e-2


def test_proxy_moments_relu_general_params_vs_closed_form():
    quad = norms.QuadratureRule.gauss_hermite(200)
    gamma = np.array([0.8, 1.5])
    beta = np.array([0.3, -0.4])
    pbeta = np.array([0.1, -0.2])
    pgamma = np.array([0.05, -0.1])
    mean, var = norms.proxy_moments(
        gamma, beta, pbeta, pgamma, norms.get_activation("relu"), quad
    )
    for c in range(2):
        mu = gamma[c] * pbeta[c] + beta[c]
        sigma = abs(gamma[c] * (1.0 + pgamma[c]))
        ref_mean, ref_var = rectified_moments(mu, sigma)
        assert abs(mean[c] - ref_mean) <= 2e-3
        assert abs(var[c] - ref_var) <= 2e-3


def test_proxy_moments_smooth_activation_is_order_stable():
    gamma = np.array([0.9, 1.2, 1.7])
    beta = np.array([0.0, 0.5, -0.3])
    pbeta = np.array([0.2, -0.1, 0.0])
    pgamma = np.array([-0.05, 0.1, 0.0])
    act = norms.get_activation("swish")
    lo = norms.QuadratureRule.gauss_hermite(30)
    hi = norms.QuadratureRule.gauss_hermite(120)
    m30, v30 = norms.proxy_moments(gamma, beta, pbeta, pgamma, act, lo)
    m120, v120 = norms.proxy_moments(gamma, beta, pbeta, pgamma, act, hi)
    # Wide gammas stretch the effective sigma, so order 30 drifts near 1e-7
    # on the second moment; still ten thousand times tighter than the kink.
    np.testing.assert_allclose(m30, m120, atol=1e-6, rtol=0)
    np.testing.assert_allclose(v30, v120, atol=1e-6, rtol=0)


def test_proxy_moments_rejects_single_node():
    quad = norms.QuadratureRule.gauss_hermite(1)
    one = np.ones(1)
    with pytest.raises(ValueError):
        norms.proxy_moments(one, one, one, one, norms.get_activation("swish"), quad)


def test_proxy_moment_grads_match_finite_differences():
    quad = norms.QuadratureRule.gauss_hermite(40)
    act = norms.get_activation("swish")
    rng = make_rng(11)
    gamma = 1.0 + 0.2 * rng.normal(size=4)
    beta = 0.3 * rng.normal(size=4)
    pbeta = 0.2 * rng.normal(size=4)
    pgamma = 0.1 * rng.normal(size=4)
    params = {"gamma": gamma, "beta": beta, "proxy_beta": pbeta, "proxy_gamma": pgamma}
    dm, dvar = norms.proxy_moment_grads(gamma, beta, pbeta, pgamma, act, quad)
    h = 1e-6
    for name in params:
        for c in range(4):
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[name][c] += h
            mp, vp = norms.proxy_moments(
                bumped["gamma"], bumped["beta"], bumped["proxy_beta"],
                bumped["proxy_gamma"], act, quad,
            )
            bumped[name][c] -= 2 * h
            mm, vm = norms.proxy_moments(
                bumped["gamma"], bumped["beta"], bumped["proxy_beta"],
                bumped["proxy_gamma"], act, quad,
            )
            assert abs(dm[name][c] - (mp[c] - mm[c]) / (2 * h)) <= 1e-7
            assert abs(dvar[name][c] - (vp[c] - vm[c]) / (2 * h)) <= 1e-7


# ---------------------------------------------------------------------------
# Proxy-normalized activation
# ---------------------------------------------------------------------------


def test_pn_identity_standard_proxy_is_a_no_op():
    rng = make_rng(12)
    y = rng.normal(size=(2, 3, 4, 4))
    one = np.ones(3)
    zero = np.zeros(3)
    quad = norms.QuadratureRule.gauss_hermite(30)
    z, _ = norms.pn_activation(y, one, zero, zero, zero, norms.get_activation("identity"), quad)
    # The proxy of an identity is N(0, 1): z = y / sqrt(1 + eps~).
    np.testing.assert_allclose(z, y / np.sqrt(1.0 + norms.EPSILON_TILDE), atol=1e-12, rtol=0)


def test_pn_identity_affine_cancellation():
    rng = make_rng(13)
    y = rng.normal(size=(2, 3, 4, 4))
    gamma = np.array([0.5, 1.3, 2.5])
    beta = np.array([-2.0, 0.7, 4.0])
    zero = np.zeros(3)
    quad = norms.QuadratureRule.gauss_hermite(30)
    z, _ = norms.pn_activation(y, gamma, beta, zero, zero, norms.get_activation("identity"), quad)
    # The shift cancels, and the proxy scale is |gamma|: z = gamma y / sqrt(gamma^2 + eps~).
    g = gamma.reshape(1, 3, 1, 1)
    np.testing.assert_allclose(z, g * y / np.sqrt(g**2 + norms.EPSILON_TILDE), atol=1e-12, rtol=0)


def test_pn_matches_naive_composition():
    rng = make_rng(14)
    y = rng.normal(size=(2, 4, 5, 5))
    gamma = 1.0 + 0.1 * rng.normal(size=4)
    beta = 0.2 * rng.normal(size=4)
    pbeta = 0.1 * rng.normal(size=4)
    pgamma = 0.1 * rng.normal(size=4)
    act = norms.get_activation("relu")
    quad = norms.QuadratureRule.gauss_hermite(30)
    z, _ = norms.pn_activation(y, gamma, beta, pbeta, pgamma, act, quad)
    m, var = norms.proxy_moments(gamma, beta, pbeta, pgamma, act, quad)
    ref = np.empty_like(z)
    for b in range(2):
        for c in range(4):
            for i in range(5):
                for j in range(5):
                    a = gamma[c] * y[b, c, i, j] + beta[c]
                    ref[b, c, i, j] = (max(a, 0.0) - m[c]) / math.sqrt(
                        var[c] + norms.EPSILON_TILDE
                    )
    np.testing.assert_allclose(z, ref, atol=1e-12, rtol=0)


def test_pn_batch_independence_is_bit_exact():
    rng = make_rng(15)
    y = rng.normal(size=(6, 4, 3, 3))
    gamma = 1.0 + 0.1 * rng.normal(size=4)
    beta = 0.1 * rng.normal(size=4)
    pbeta = 0.1 * rng.normal(size=4)
    pgamma = 0.1 * rng.normal(size=4)
    act = norms.get_activation("swish")
    quad = norms.QuadratureRule.gauss_hermite(30)
    full, _ = norms.pn_activation(y, gamma, beta, pbeta, pgamma, act, quad)
    for b in range(6):
        solo, _ = norms.pn_activation(
            y[b : b + 1], gamma, beta, pbeta, pgamma, act, quad
        )
        assert np.array_equal(full[b], solo[0])


def test_pn_backward_matches_finite_differences():
    rng = make_rng(16)
    y = rng.normal(size=(2, 3, 4, 4))
    gamma = 1.0 + 0.1 * rng.normal(size=3)
    beta = 0.1 * rng.normal(size=3)
    pbeta = 0.1 * rng.normal(size=3)
    pgamma = 0.1 * rng.normal(size=3)
    act = norms.get_activation("swish")
    quad = norms.QuadratureRule.gauss_hermite(40)
    dz = rng.normal(size=y.shape)
    z, cache = norms.pn_activation(y, gamma, beta, pbeta, pgamma, act, quad)
    dy, dgamma, dbeta, dpbeta, dpgamma = norms.pn_activation_backward(cache, dz)

    def loss():
        zz, _ = norms.pn_activation(y, gamma, beta, pbeta, pgamma, act, quad)
        return float((zz * dz).sum())

    assert fd_check(loss, y, dy, rng, 30) <= 1e-6
    for arr, grad in (
        (gamma, dgamma),
        (beta, dbeta),
        (pbeta, dpbeta),
        (pgamma, dpgamma),
    ):
        assert fd_check(loss, arr, grad, rng, arr.size) <= 1e-6


def test_scaled_activation_backward():
    rng = make_rng(17)
    y = rng.normal(size=(2, 4, 3, 3))
    gamma = 1.0 + 0.2 * rng.normal(size=4)
    beta = 0.2 * rng.normal(size=4)
    act = norms.get_activation("swish")
    dz = rng.normal(size=y.shape)
    z, cache = norms.scaled_activation(y, gamma, beta, act)
    dy, dgamma, dbeta = norms.scaled_activation_backward(cache, dz)

    def loss():
        zz, _ = norms.scaled_activation(y, gamma, beta, act)
        return float((zz * dz).sum())

    assert fd_check(loss, y, dy, rng, 30) <= 1e-6
    assert fd_check(loss, gamma, dgamma, rng, gamma.size) <= 1e-6
    assert fd_check(loss, beta, dbeta, rng, beta.size) <= 1e-6
