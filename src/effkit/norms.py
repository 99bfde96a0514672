"""Normalization and proxy-normalized activations.

Two normalization families share one formula and one backward:

* batch normalization: per-channel moments over batch and spatial axes, or
  fixed running moments in evaluation mode;
* batch-independent norms (layer, group, instance): per-sample moments over
  channel groups, expressed as a single grouped reduction with 1, ``groups``
  or ``C`` groups.

Only the reduction axes differ; batch norm's cache also carries the (C,)
moments it used, which feed the running statistics. After normalizing, a
channel affine (gamma, beta) feeds the activation. The proxy-normalized
variant is that scaled activation, recentered and rescaled by its moments
under a Gaussian proxy variable distributed as N(proxy_beta,
(1 + proxy_gamma)^2), evaluated per channel with Gauss-Hermite quadrature.
All forwards return an opaque cache consumed by the matching backward.

Every sigmoid (swish, its derivative, the squeeze-excite gate, the
quadrature nodes) goes through ``sigmoid``: 1 / (1 + exp(-x)) in a single
float64 buffer, whose overflowing and underflowing tails are the exact
limits 0 and 1 and raise no floating-point error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Fixed settings: the normalizers' epsilon, the proxy's epsilon~, gn's default
# group count and the order of ``QUAD_RULE`` (Labatie et al. 2021).
EPSILON = 1e-3
EPSILON_TILDE = 3e-2
GN_GROUPS = 4
QUAD_ORDER = 30

NORM_KINDS = ("bn", "ln", "gn", "in")


@dataclass(frozen=True)
class NormSpec:
    """Which normalizer to apply and with what grouping; ``groups`` is gn's
    group count, and every other kind keeps its default."""

    kind: str
    groups: int = GN_GROUPS

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; use one of {NORM_KINDS}")
        if self.groups < 1:
            raise ValueError(f"groups must be positive, got {self.groups}")
        if self.kind != "gn" and self.groups != GN_GROUPS:
            raise ValueError(f"groups={self.groups} applies to gn only, not {self.kind}")

    @property
    def batch_dependent(self) -> bool:
        return self.kind == "bn"

    def resolved_groups(self, channels: int) -> int:
        """Concrete group count for a channel width; must divide it."""
        if self.kind == "ln":
            g = 1
        elif self.kind == "in":
            g = channels
        elif self.kind == "gn":
            # Narrow widths fall back to fewer groups rather than failing.
            g = min(self.groups, channels)
            while channels % g != 0:
                g -= 1
        else:
            raise ValueError("batch norm has no group structure")
        return g


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Activation:
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) in one buffer; relative error under 3e-16 wherever
    # the result exceeds 1e-300 (checked against long double). Below
    # x = -709.78, exp(-x) overflows to inf and the result is 0 (the true
    # value is under 1e-308); above x = 745 it underflows to 0 and the
    # result is 1. Both limits are intended, so neither flag is raised.
    out = np.array(x, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    return out


def _swish(x: np.ndarray) -> np.ndarray:
    out = sigmoid(x)
    out *= x
    return out


def _swish_deriv(x: np.ndarray) -> np.ndarray:
    # s * (1 + x * (1 - s)), evaluated in one buffer beside s.
    s = sigmoid(x)
    out = np.subtract(1.0, s)
    out *= x
    out += 1.0
    out *= s
    return out


ACTIVATIONS = {
    "identity": Activation(lambda x: x, lambda x: np.ones_like(x)),
    "relu": Activation(lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(np.float64)),
    "swish": Activation(_swish, _swish_deriv),
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; use one of {sorted(ACTIVATIONS)}")


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature against a unit Gaussian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights prescaled so E[f(N(mu, s^2))] = sum(w * f(mu + s*node))."""

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_hermite(cls, order: int) -> "QuadratureRule":
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        x, w = np.polynomial.hermite.hermgauss(order)
        return cls(nodes=x * np.sqrt(2.0), weights=w / np.sqrt(np.pi))

    def expect(self, fn: Callable[[np.ndarray], np.ndarray], mu, sigma) -> np.ndarray:
        """E[fn(X)] for X ~ N(mu, sigma^2), broadcasting over leading axes."""
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        pts = mu[..., None] + sigma[..., None] * self.nodes
        return fn(pts) @ self.weights


#: The rule of every proxy-normalized activation, built once: ``NormAct``
#: reads it rather than building one per layer.
QUAD_RULE = QuadratureRule.gauss_hermite(QUAD_ORDER)


# ---------------------------------------------------------------------------
# Normalization (moment removal only; affine and activation live downstream)
# ---------------------------------------------------------------------------


def normalize(x: np.ndarray, spec: NormSpec, stats=None):
    """Subtract mean, divide by sqrt(var + eps); returns (y, cache).

    For ``bn`` the moments are per channel over batch and spatial axes
    (``batch_moments``), or the fixed ``stats=(mean, var)`` pair when given
    (evaluation mode); the cache keeps the (C,) pair used under
    ``"moments"``. For the batch-independent kinds the moments are per
    sample per channel group, over axis 2 of the (B, groups, -1) view.
    Every kind shares one formula; the cache records the reduction
    ``"axes"``. The backward differentiates through the moments, so fixed
    ``stats`` are for forward-only evaluation.
    """
    if x.ndim != 4:
        raise ValueError(f"expected a 4-D tensor, got shape {x.shape}")
    shape = x.shape
    if spec.kind == "bn":
        moments = batch_moments(x) if stats is None else stats
        mean, var = (m.reshape(1, shape[1], 1, 1) for m in moments)
        cache = {"axes": (0, 2, 3), "moments": moments}
    else:
        x = x.reshape(shape[0], spec.resolved_groups(shape[1]), -1)
        mean = x.mean(axis=2, keepdims=True)
        var = x.var(axis=2, keepdims=True)
        cache = {"axes": 2}
    inv = 1.0 / np.sqrt(var + EPSILON)
    y = (x - mean) * inv
    cache.update(y=y, inv=inv)
    return y.reshape(shape), cache


def normalize_backward(cache, dy: np.ndarray) -> np.ndarray:
    y, inv, axes = cache["y"], cache["inv"], cache["axes"]
    dg = dy.reshape(y.shape)
    dmean = dg.mean(axis=axes, keepdims=True)
    dproj = (dg * y).mean(axis=axes, keepdims=True)
    return (inv * (dg - dmean - y * dproj)).reshape(dy.shape)


def batch_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (mean, var) over batch and spatial axes, shape (C,)."""
    return x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# Channel affine feeding an activation
# ---------------------------------------------------------------------------


def scaled_activation(y: np.ndarray, gamma: np.ndarray, beta: np.ndarray, act: Activation):
    """z = act(gamma * y + beta) with per-channel gamma/beta; (z, cache)."""
    c = y.shape[1]
    gs = gamma.reshape(1, c, 1, 1)
    bs = beta.reshape(1, c, 1, 1)
    z = act.fn(_pre_activation(y, gs, bs))
    # The cache keeps beta, not the pre-activation: backward recomputes it.
    return z, {"y": y, "gamma": gs, "beta": bs, "act": act}


def _pre_activation(y: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """gamma * y + beta in one buffer. Forward and backward both compute it
    here, so backward's recomputed pre-activation has the forward's bits."""
    a = gamma * y
    a += beta
    return a


def scaled_activation_backward(cache, dz: np.ndarray):
    """Returns (dy, dgamma, dbeta)."""
    a = _pre_activation(cache["y"], cache["gamma"], cache["beta"])
    da = dz * cache["act"].deriv(a)
    dy = da * cache["gamma"]
    dgamma = (da * cache["y"]).sum(axis=(0, 2, 3))
    dbeta = da.sum(axis=(0, 2, 3))
    return dy, dgamma, dbeta


# ---------------------------------------------------------------------------
# Proxy-normalized activations
# ---------------------------------------------------------------------------


def _proxy_points(gamma, beta, proxy_beta, proxy_gamma, act, quad):
    """Per channel and quadrature node, the proxy variable u, the activation
    input a = gamma * u + beta and phi = act(a); returns (u, a, phi, E[phi])."""
    if quad.nodes.size < 2:
        # One node cannot capture second moments; the variance would be 0.
        raise ValueError(f"quadrature order must be at least 2, got {quad.nodes.size}")
    u = proxy_beta[:, None] + (1.0 + proxy_gamma)[:, None] * quad.nodes[None, :]
    a = gamma[:, None] * u + beta[:, None]
    phi = act.fn(a)
    return u, a, phi, phi @ quad.weights


def proxy_moments(
    gamma: np.ndarray,
    beta: np.ndarray,
    proxy_beta: np.ndarray,
    proxy_gamma: np.ndarray,
    act: Activation,
    quad: QuadratureRule,
):
    """Per-channel mean/variance of act(gamma * Y + beta) for the proxy
    variable Y ~ N(proxy_beta, (1 + proxy_gamma)^2); returns (mean, var)."""
    _, _, phi, m = _proxy_points(gamma, beta, proxy_beta, proxy_gamma, act, quad)
    e2 = (phi * phi) @ quad.weights
    return m, e2 - m * m


def proxy_moment_grads(
    gamma: np.ndarray,
    beta: np.ndarray,
    proxy_beta: np.ndarray,
    proxy_gamma: np.ndarray,
    act: Activation,
    quad: QuadratureRule,
):
    """Analytic derivatives of the proxy mean and variance.

    Returns (dm, dvar), each mapping parameter name to the per-channel
    derivative array, for names gamma, beta, proxy_beta, proxy_gamma.
    """
    u, a, phi, m = _proxy_points(gamma, beta, proxy_beta, proxy_gamma, act, quad)
    dphi = act.deriv(a)
    w = quad.weights
    da = {
        "gamma": u,
        "beta": np.ones_like(u),
        "proxy_beta": np.broadcast_to(gamma[:, None], u.shape),
        "proxy_gamma": gamma[:, None] * quad.nodes[None, :],
    }
    dm = {}
    dvar = {}
    for name, d in da.items():
        dm[name] = (dphi * d) @ w
        de2 = (2.0 * phi * dphi * d) @ w
        dvar[name] = de2 - 2.0 * m * dm[name]
    return dm, dvar


def pn_activation(
    y: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    proxy_beta: np.ndarray,
    proxy_gamma: np.ndarray,
    act: Activation,
    quad: QuadratureRule,
):
    """z = (act(gamma*y + beta) - m) / sqrt(v + eps~) with (m, v) the proxy
    moments: ``scaled_activation`` recentered and rescaled; returns
    (z, cache)."""
    z0, cache = scaled_activation(y, gamma, beta, act)
    proxy = (gamma, beta, proxy_beta, proxy_gamma, act, quad)
    m, var = proxy_moments(*proxy)
    s = np.sqrt(var + EPSILON_TILDE)
    c = y.shape[1]
    z = (z0 - m.reshape(1, c, 1, 1)) / s.reshape(1, c, 1, 1)
    cache.update(z=z, s=s, proxy=proxy)
    return z, cache


def pn_activation_backward(cache, dz: np.ndarray):
    """Returns (dy, dgamma, dbeta, dproxy_beta, dproxy_gamma).

    The data terms are ``scaled_activation_backward`` of dz / s. The proxy
    moments depend on the affine and proxy parameters, so their quadrature
    derivatives add to the parameter gradients.
    """
    s = cache["s"]
    dy, dgamma, dbeta = scaled_activation_backward(cache, dz / s.reshape(1, -1, 1, 1))
    # z = (z0 - m)/s: dL/dm = -sum(dz)/s and dL/dvar = -sum(dz * z)/(2 s^2).
    dl_dm = -dz.sum(axis=(0, 2, 3)) / s
    dl_dvar = -(dz * cache["z"]).sum(axis=(0, 2, 3)) / (2.0 * s**2)
    dm, dvar = proxy_moment_grads(*cache["proxy"])
    d = {name: dl_dm * dm[name] + dl_dvar * dvar[name] for name in dm}
    return dy, dgamma + d["gamma"], dbeta + d["beta"], d["proxy_beta"], d["proxy_gamma"]
