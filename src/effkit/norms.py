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

Each stage writes into one buffer. ``normalize`` makes one centred copy of
its input and scales it in place; the pre-activation gamma * y + beta is one
buffer and the activation one more, and the proxy recentring works in
place. Backward makes one buffer da = dz * act'(a), and ``normalize_backward``
turns it into dx in place, with the cache's normalized input as scratch.
Batch norm's backward takes its two reductions, the means of dy and of
dy * y, from the sums that give dgamma and dbeta. Forward-only passes make
no derivative and no proxy-moment gradient.

Reductions run along the contiguous rows of a (B, rows, N) view: a row sum
is ``np.matvec`` against ones, one product per sample, and a row dot
product is ``np.vecdot``, one per row. Neither depends on the batch, so a
sample's moments do not either; ``einsum`` over a (B, 1, N) operand rounds
a row differently as B changes.

Swish is a / (1 + exp(-a)), one division where a sigmoid and a product
took two passes more, and its derivative takes 1 - sigmoid(a) = 1 / (1 +
exp(a)) in one buffer beside ``a``. The squeeze-excite gate goes through
``sigmoid``: 1 / (1 + exp(-x)) in a single float64 buffer. In all three,
overflowing and underflowing tails give the exact limits and raise no
floating-point error.
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
    """``fn(a)`` is act(a) in a new buffer. ``grad(a, dz)`` is dz * act'(a)
    written into ``a``, which every caller recomputes or holds for this use
    alone; ``dz`` broadcasts against ``a`` (a scalar 1.0 gives act'(a))."""

    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) in one buffer; relative error under 3e-16 wherever
    # the result exceeds 1e-300 (checked against long double). Below
    # x = -709.78, exp(-x) overflows to inf and the result is 0 (the true
    # value is under 1e-308); above x = 745 it underflows to 0 and the
    # result is 1. Both limits are intended, so neither flag is raised.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    with np.errstate(over="ignore", under="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    return out


def _swish(x: np.ndarray) -> np.ndarray:
    # x / (1 + exp(-x)) in one buffer. Below x = -709.78 the denominator
    # overflows to inf and the result is -0 (the true value is under 1e-305
    # in magnitude); above x = 745 it is 1 and the result is x.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    with np.errstate(over="ignore", under="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(x, out, out=out)
    return out


def _swish_grad(a: np.ndarray, dz) -> np.ndarray:
    # dz * s * (1 + a * (1 - s)) with s = sigmoid(a), in ``a`` and one buffer
    # t beside it: t = 1 - s = 1 / (1 + exp(a)), then s = 1 - t. Where s is
    # tiny (a far below 0) that s carries the absolute error of t, about
    # 1e-16, and reads 0 below a = -36.7. Against long double over [-800,
    # 800] the derivative's absolute error stays under 4.0e-15, as the
    # form s * (1 + a * (1 - s)) over a whole sigmoid does. The tails are
    # the exact limits 0 and 1, and raise nothing.
    with np.errstate(over="ignore", under="ignore"):
        t = np.exp(a)
        t += 1.0
        np.reciprocal(t, out=t)
    a *= t
    a += 1.0
    np.subtract(1.0, t, out=t)
    a *= t
    a *= dz
    return a


def _relu_grad(a: np.ndarray, dz) -> np.ndarray:
    return np.multiply(a > 0.0, dz, out=a)


def _identity_grad(a: np.ndarray, dz) -> np.ndarray:
    a[...] = dz
    return a


ACTIVATIONS = {
    "identity": Activation(lambda x: x, _identity_grad),
    "relu": Activation(lambda x: np.maximum(x, 0.0), _relu_grad),
    "swish": Activation(_swish, _swish_grad),
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


#: The rule of every proxy-normalized activation, built once: ``NormAct``
#: reads it rather than building one per layer.
QUAD_RULE = QuadratureRule.gauss_hermite(QUAD_ORDER)


# ---------------------------------------------------------------------------
# Normalization (moment removal only; affine and activation live downstream)
# ---------------------------------------------------------------------------


def normalize(x: np.ndarray, spec: NormSpec, stats=None):
    """Subtract mean, divide by sqrt(var + eps); returns (y, cache).

    Each population is one row of a view of ``x``. For ``bn`` the rows are
    (B, C, H*W) and a channel's moments add over the batch, or are the fixed
    ``stats=(mean, var)`` pair when given (evaluation mode); the cache keeps
    the (C,) pair used under ``"moments"``. For the batch-independent kinds
    the moments are per sample per channel group, over the rows of the
    (B, groups, -1) view. The mean is a row sum, and the variance a row dot
    product of the one centred copy with itself; that copy, scaled in place,
    is y. The cache holds y in row form and ``"inv"`` = 1/sqrt(var + eps).
    The backward differentiates through the moments, so fixed ``stats`` are
    for forward-only evaluation.
    """
    if x.ndim != 4:
        raise ValueError(f"expected a 4-D tensor, got shape {x.shape}")
    bn = spec.kind == "bn"
    b, c = x.shape[:2]
    rows = x.reshape(b, c if bn else spec.resolved_groups(c), -1)
    n = rows.shape[2] * (b if bn else 1)
    fixed = bn and stats is not None
    mean = stats[0] if fixed else _population_sum(_row_sums(rows), bn) / n
    y = rows - mean[..., None]
    var = stats[1] if fixed else _population_sum(np.vecdot(y, y), bn) / n
    inv = 1.0 / np.sqrt(var + EPSILON)
    y *= inv[..., None]
    cache = {"y": y, "inv": inv}
    if bn:
        cache["moments"] = (mean, var)
    return y.reshape(x.shape), cache


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Sums along the last axis as one matrix-vector product per sample
    against ones; its shape does not depend on the batch, and on short rows
    it is several times faster than ``sum``."""
    return np.matvec(rows, np.ones(rows.shape[-1]))


def _population_sum(row_values: np.ndarray, bn: bool) -> np.ndarray:
    """Per-row values (B, rows) added into per-population ones: over the
    batch for bn's channels, unchanged for per-sample rows."""
    return row_values.sum(axis=0) if bn else row_values


def normalize_backward(cache, da: np.ndarray, scale: np.ndarray, sums) -> np.ndarray:
    """dx for the upstream gradient dy = scale * da, ``scale`` per channel.

    dx = inv * (dy - mean(dy) - y * mean(dy * y)) over each population,
    computed in place in ``da`` (returned) with the cache's y as scratch,
    so the cache is spent. For bn the two means are scale *
    dbeta / n and scale * dgamma / n, from ``sums`` = (sum(da * y),
    sum(da)) per channel over batch and spatial axes: the sums that the
    activation backward makes for the parameter gradients. The
    batch-independent kinds reduce over their own rows, after scaling da by
    scale * inv per (sample, channel), which is constant along each row.
    """
    y, inv = cache["y"], cache["inv"]
    b, c = da.shape[:2]
    if "moments" in cache:
        n = b * y.shape[2]
        dproj, dmean = sums
        d = da.reshape(y.shape)
        d -= (dmean / n)[:, None]
        y *= (dproj / n)[:, None]
        d -= y
        d *= (scale * inv)[:, None]
    else:
        groups, n = y.shape[1:]
        d = da.reshape(b, c, -1)
        d *= (scale.reshape(groups, -1) * inv[..., None]).reshape(b, c, 1)
        d = d.reshape(y.shape)
        dmean = _row_sums(d) / n
        dproj = np.vecdot(d, y) / n
        d -= dmean[..., None]
        y *= dproj[..., None]
        d -= y
    return d.reshape(da.shape)


def _channel_sums(d: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum(d * v), sum(d)) per channel over batch and spatial axes."""
    b, c = d.shape[:2]
    rows = d.reshape(b, c, -1)
    return np.vecdot(rows, v.reshape(rows.shape)).sum(axis=0), _row_sums(rows).sum(axis=0)


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
    """Returns (da, scale, sums, grads).

    da = dz * act'(a) is one new buffer, and the gradient of y is scale * da
    with ``scale`` = gamma per channel; ``normalize_backward`` forms it.
    ``sums`` = (sum(da * y), sum(da)) per channel are the gradients of gamma
    and beta, which ``grads`` maps by parameter name.
    """
    y, gamma, act = cache["y"], cache["gamma"], cache["act"]
    if act is ACTIVATIONS["identity"]:
        # act' = 1 reads no pre-activation. dz also feeds the residual path,
        # so da is a copy of it, not dz itself.
        da = dz.copy()
    else:
        da = act.grad(_pre_activation(y, gamma, cache["beta"]), dz)
    sums = _channel_sums(da, y)
    return da, gamma.reshape(-1), sums, {"gamma": sums[0], "beta": sums[1]}


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
    dphi = act.grad(a.copy(), 1.0)  # phi may be ``a`` itself (identity)
    # E[phi' da/dp] and E[phi phi' da/dp] for da/dp = u, 1, gamma and
    # gamma * node; the last two are gamma times the beta and node terms.
    w, wn = quad.weights, quad.weights * quad.nodes
    pd = phi * dphi
    e1 = {"gamma": (dphi * u) @ w, "beta": dphi @ w}
    e2 = {"gamma": (pd * u) @ w, "beta": pd @ w}
    for e, f in ((e1, dphi), (e2, pd)):
        e["proxy_beta"] = gamma * e["beta"]
        e["proxy_gamma"] = gamma * (f @ wn)
    dvar = {name: 2.0 * e2[name] - 2.0 * m * e1[name] for name in e1}
    return e1, dvar


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
    moments: ``scaled_activation`` recentered and rescaled in place; returns
    (z, cache)."""
    z, cache = scaled_activation(y, gamma, beta, act)
    proxy = (gamma, beta, proxy_beta, proxy_gamma, act, quad)
    m, var = proxy_moments(*proxy)
    s = np.sqrt(var + EPSILON_TILDE)
    c = y.shape[1]
    z -= m.reshape(1, c, 1, 1)
    z /= s.reshape(1, c, 1, 1)
    cache.update(z=z, s=s, proxy=proxy)
    return z, cache


def pn_activation_backward(cache, dz: np.ndarray):
    """Returns (da, scale, sums, grads) as ``scaled_activation_backward``
    does, with grads for gamma, beta, proxy_beta and proxy_gamma.

    The data terms are ``scaled_activation_backward`` of dz / s. The 1/s
    goes into ``scale`` and the parameter gradients, per channel, not into
    a pass over dz, so da and ``sums`` are those of dz itself. The proxy
    moments depend on the affine and proxy parameters, so their quadrature
    derivatives add to the parameter gradients.
    """
    s = cache["s"]
    # z = (z0 - m)/s: dL/dm = -sum(dz)/s and dL/dvar = -sum(dz * z)/(2 s^2).
    dz_z, dz_sum = _channel_sums(dz, cache["z"])
    dl_dm = -dz_sum / s
    dl_dvar = -dz_z / (2.0 * s**2)
    da, scale, sums, _ = scaled_activation_backward(cache, dz)
    dm, dvar = proxy_moment_grads(*cache["proxy"])
    d = {name: dl_dm * dm[name] + dl_dvar * dvar[name] for name in dm}
    grads = {
        "gamma": sums[0] / s + d["gamma"],
        "beta": sums[1] / s + d["beta"],
        "proxy_beta": d["proxy_beta"],
        "proxy_gamma": d["proxy_gamma"],
    }
    return da, scale / s, sums, grads
