"""Independent reference implementations the tests check against.

Everything here is deliberately naive: plain loops, textbook formulas,
closed forms, or Monte Carlo. None of it imports the corresponding fast
paths from the package beyond basic dataclasses, so an agreement between
the two is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def naive_grouped_conv(x, w, stride, group_size, pad_top, pad_left, pad_bottom, pad_right):
    """Loop-based grouped convolution; x (B,C,H,W), w (C_out, G, k, k)."""
    b, c, h, wid = x.shape
    c_out, g, kh, kw = w.shape
    groups = c // g
    out_per_group = c_out // groups
    xp = np.zeros((b, c, h + pad_top + pad_bottom, wid + pad_left + pad_right))
    xp[:, :, pad_top : pad_top + h, pad_left : pad_left + wid] = x
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    y = np.zeros((b, c_out, oh, ow))
    for bi in range(b):
        for n in range(groups):
            for oc in range(out_per_group):
                for i in range(oh):
                    for j in range(ow):
                        acc = 0.0
                        for ci in range(g):
                            for ky in range(kh):
                                for kx in range(kw):
                                    acc += (
                                        xp[bi, n * g + ci, i * stride + ky, j * stride + kx]
                                        * w[n * out_per_group + oc, ci, ky, kx]
                                    )
                        y[bi, n * out_per_group + oc, i, j] = acc
    return y


def naive_grouped_conv_backward(x, w, dy, stride, pad_top, pad_left, pad_bottom, pad_right):
    """Adjoint of naive_grouped_conv: (dx, dw) for the output gradient dy.

    Explicit loops over output positions and kernel taps; each (position,
    tap) pair scatters dy into the padded input gradient and gathers the
    weight gradient, vectorized over samples and channels only.
    """
    b, c, h, wid = x.shape
    c_out, g, kh, kw = w.shape
    groups = c // g
    out_per_group = c_out // groups
    oh, ow = dy.shape[2], dy.shape[3]
    xp = np.zeros((b, c, h + pad_top + pad_bottom, wid + pad_left + pad_right))
    xp[:, :, pad_top : pad_top + h, pad_left : pad_left + wid] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    xg = xp.reshape(b, groups, g, *xp.shape[2:])
    dxg = dxp.reshape(xg.shape)
    wg = w.reshape(groups, out_per_group, g, kh, kw)
    dwg = dw.reshape(wg.shape)
    dyg = dy.reshape(b, groups, out_per_group, oh, ow)
    for i in range(oh):
        for j in range(ow):
            d = dyg[:, :, :, i, j]
            for ky in range(kh):
                for kx in range(kw):
                    r, q = i * stride + ky, j * stride + kx
                    dxg[:, :, :, r, q] += np.einsum("bno,nog->bng", d, wg[:, :, :, ky, kx])
                    dwg[:, :, :, ky, kx] += np.einsum("bno,bng->nog", d, xg[:, :, :, r, q])
    return dxp[:, :, pad_top : pad_top + h, pad_left : pad_left + wid], dw


def strided_columns(xp, groups, k, s):
    """(B, groups, C/groups*k*k, OH*OW) im2col matrix of the padded input,
    copied whole from its strided window view."""
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    b, c, oh, ow = win.shape[:4]
    # (B, C, OH, OW, k, k) -> (B, C, k, k, OH, OW); the reshape copies.
    cols = win.transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(b, groups, c // groups * k * k, oh * ow)


def im2col_product(xp, weight, groups, s):
    """The convolution of a padded input as one ``matmul`` stacked over
    (sample, group) of whole ``strided_columns``; a stand-in for
    ``convs._product``, whose GEMMs it runs with the same operands."""
    c_out, _, k, _ = weight.shape
    b, _, hp, wp = xp.shape
    y = np.matmul(weight.reshape(groups, c_out // groups, -1), strided_columns(xp, groups, k, s))
    return y.reshape(b, c_out, (hp - k) // s + 1, (wp - k) // s + 1)


def im2col_weight_grad(xp, dy, spec, fold):
    """The weight gradient over whole ``strided_columns``; a stand-in for
    ``convs._weight_grad``. With ``fold`` the batch is folded into each
    group's product, otherwise the stacked (sample, group) products are
    summed with ``sum(axis=0)``."""
    b, _, oh, ow = dy.shape
    groups, opg = spec.groups, spec.out_channels // spec.groups
    cols = strided_columns(xp, groups, spec.kernel, spec.stride)
    dg = dy.reshape(b, groups, opg, oh * ow)
    if fold:
        dw = np.matmul(
            dg.transpose(1, 2, 0, 3).reshape(groups, opg, -1),
            cols.transpose(1, 0, 3, 2).reshape(groups, b * oh * ow, -1),
        )
    else:
        dw = np.matmul(dg, cols.transpose(0, 1, 3, 2)).sum(axis=0)
    return dw.reshape(spec.weight_shape)


def conv_macs(x_shape, w_shape, stride, pads):
    """Multiply-accumulate count of the naive loop above."""
    b, c, h, wid = x_shape
    c_out, g, kh, kw = w_shape
    oh = (h + pads[0] + pads[2] - kh) // stride + 1
    ow = (wid + pads[1] + pads[3] - kw) // stride + 1
    return b * c_out * oh * ow * g * kh * kw


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def naive_group_moments(x, groups):
    """Per-sample per-group mean/var via explicit loops."""
    b, c, h, w = x.shape
    size = c // groups
    mean = np.zeros((b, groups))
    var = np.zeros((b, groups))
    for bi in range(b):
        for gi in range(groups):
            vals = []
            for ci in range(gi * size, (gi + 1) * size):
                for i in range(h):
                    for j in range(w):
                        vals.append(x[bi, ci, i, j])
            vals = np.array(vals)
            mean[bi, gi] = vals.mean()
            var[bi, gi] = vals.var()
    return mean, var


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def piecewise_sigmoid(x):
    """Logistic function in two branches, each calling exp() only on a
    non-positive argument: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x))
    below. Never overflows; far tails underflow (to 1 or a subnormal)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# normalize-activate (NormAct), one whole-array pass per stage
# ---------------------------------------------------------------------------

#: (act, act') of each activation, swish through ``piecewise_sigmoid``.
REFERENCE_ACTIVATIONS = {
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(np.float64)),
    "swish": (
        lambda x: x * piecewise_sigmoid(x),
        lambda x: piecewise_sigmoid(x) * (1.0 + x * (1.0 - piecewise_sigmoid(x))),
    ),
}


def reference_proxy_moments(gamma, beta, proxy_beta, proxy_gamma, activation, rule):
    """Proxy mean and variance of act(gamma * u + beta), u ~ N(proxy_beta,
    (1 + proxy_gamma)^2), under a ``norms.QuadratureRule``, with their
    derivatives: (m, var, dm, dvar), the last two mapping parameter names
    to per-channel arrays."""
    fn, deriv = REFERENCE_ACTIVATIONS[activation]
    u = proxy_beta[:, None] + (1.0 + proxy_gamma)[:, None] * rule.nodes[None, :]
    a = gamma[:, None] * u + beta[:, None]
    phi, dphi = fn(a), deriv(a)
    m = phi @ rule.weights
    var = (phi * phi) @ rule.weights - m * m
    da = {
        "gamma": u,
        "beta": np.ones_like(u),
        "proxy_beta": np.broadcast_to(gamma[:, None], u.shape),
        "proxy_gamma": gamma[:, None] * rule.nodes[None, :],
    }
    dm = {name: (dphi * d) @ rule.weights for name, d in da.items()}
    dvar = {name: (2.0 * phi * dphi * d) @ rule.weights - 2.0 * m * dm[name]
            for name, d in da.items()}
    return m, var, dm, dvar


def reference_normact(x, spec, params, activation, rule, eps, eps_tilde):
    """z = act(gamma * normalize(x) + beta), recentred and rescaled by the
    proxy moments when ``params`` holds proxy_beta/proxy_gamma; returns (z,
    cache). ``normalize`` is the textbook (x - mean) / sqrt(var + eps), with
    batch norm's moments per channel over (B, H, W) and the other kinds'
    per sample over ``spec.resolved_groups(C)`` channel groups."""
    shape = x.shape
    if spec.kind == "bn":
        axes, xg = (0, 2, 3), x
    else:
        axes, xg = 2, x.reshape(shape[0], spec.resolved_groups(shape[1]), -1)
    mean = xg.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(xg.var(axis=axes, keepdims=True) + eps)
    y = ((xg - mean) * inv).reshape(shape)
    g = params["gamma"].reshape(1, -1, 1, 1)
    a = g * y + params["beta"].reshape(1, -1, 1, 1)
    fn, deriv = REFERENCE_ACTIVATIONS[activation]
    z = fn(a)
    cache = {"axes": axes, "rows": xg.shape, "inv": inv, "y": y, "a": a, "deriv": deriv,
             "params": params}
    if "proxy_beta" in params:
        m, var, dm, dvar = reference_proxy_moments(
            params["gamma"], params["beta"], params["proxy_beta"], params["proxy_gamma"],
            activation, rule)
        s = np.sqrt(var + eps_tilde)
        z = (z - m.reshape(1, -1, 1, 1)) / s.reshape(1, -1, 1, 1)
        cache.update(z=z, s=s, dm=dm, dvar=dvar)
    return z, cache


def reference_normact_backward(cache, dz):
    """(dx, grads) of ``reference_normact`` for the upstream gradient dz."""
    y, params = cache["y"], cache["params"]
    grads = {}
    if "s" in cache:
        s = cache["s"]
        dl_dm = -dz.sum(axis=(0, 2, 3)) / s
        dl_dvar = -(dz * cache["z"]).sum(axis=(0, 2, 3)) / (2.0 * s**2)
        grads = {name: dl_dm * cache["dm"][name] + dl_dvar * cache["dvar"][name]
                 for name in cache["dm"]}
        dz = dz / s.reshape(1, -1, 1, 1)
    da = dz * cache["deriv"](cache["a"])
    grads["gamma"] = grads.get("gamma", 0.0) + (da * y).sum(axis=(0, 2, 3))
    grads["beta"] = grads.get("beta", 0.0) + da.sum(axis=(0, 2, 3))
    dy = (da * params["gamma"].reshape(1, -1, 1, 1)).reshape(cache["rows"])
    yg = y.reshape(cache["rows"])
    axes = cache["axes"]
    dmean = dy.mean(axis=axes, keepdims=True)
    dproj = (dy * yg).mean(axis=axes, keepdims=True)
    return (cache["inv"] * (dy - dmean - yg * dproj)).reshape(y.shape), grads


# ---------------------------------------------------------------------------
# Gaussian expectations
# ---------------------------------------------------------------------------


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def rectified_moments(mu, sigma):
    """Closed-form mean/variance of relu(a) with a ~ N(mu, sigma^2)."""
    z = mu / sigma
    mean = mu * normal_cdf(z) + sigma * normal_pdf(z)
    second = (mu * mu + sigma * sigma) * normal_cdf(z) + mu * sigma * normal_pdf(z)
    return mean, second - mean * mean


def gaussian_monomial(p):
    """E[t^p] for t ~ N(0,1): (p-1)!! for even p, 0 for odd."""
    if p % 2 == 1:
        return 0.0
    out = 1.0
    for k in range(p - 1, 0, -2):
        out *= k
    return out


def quadrature_expect(rule, fn, mu, sigma):
    """E[fn(X)] for X ~ N(mu, sigma^2) under a ``norms.QuadratureRule``,
    broadcasting over leading axes."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    pts = mu[..., None] + sigma[..., None] * rule.nodes
    return fn(pts) @ rule.weights


def mc_activation_moments(act_fn, mu, sigma, n=10_000_000, seed=0):
    """Monte-Carlo mean/variance of act_fn(mu + sigma*t), t ~ N(0,1).

    Polynomial control variates (fit on the first tenth of the draws,
    applied to the rest) push the standard error a couple of orders below
    the plain sqrt(1/n) rate, which the 1e-4 comparisons need.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n_fit = n // 10
    t = rng.standard_normal(n_fit)
    phi = act_fn(mu + sigma * t)
    v = np.vander(t, 9, increasing=True)
    c1, *_ = np.linalg.lstsq(v[:, :5], phi, rcond=None)
    c2, *_ = np.linalg.lstsq(v, phi * phi, rcond=None)
    known = np.array([gaussian_monomial(p) for p in range(9)])
    base1 = float(c1 @ known[:5])
    base2 = float(c2 @ known)
    total = 0.0
    total2 = 0.0
    remaining = n - n_fit
    chunk = 1_000_000
    done = 0
    while done < remaining:
        m = min(chunk, remaining - done)
        t = rng.standard_normal(m)
        phi = act_fn(mu + sigma * t)
        v = np.vander(t, 9, increasing=True)
        total += float(np.sum(phi - v[:, :5] @ c1))
        total2 += float(np.sum(phi * phi - v @ c2))
        done += m
    mean = base1 + total / remaining
    second = base2 + total2 / remaining
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# training arithmetic
# ---------------------------------------------------------------------------


def rmsprop_reference(param, grads, lr, rho, momentum, delta):
    """Step-by-step scalar RMSProp trace; returns the parameter trajectory."""
    acc = 0.0
    vel = 0.0
    out = []
    p = param
    for g in grads:
        acc = rho * acc + (1.0 - rho) * g * g
        vel = momentum * vel + lr * g / math.sqrt(acc + delta)
        p = p - vel
        out.append(p)
    return out


def rmsprop_whole_array(params, grads, state, rho, momentum, delta, weight_decay, lr,
                        decay_names=frozenset()):
    """RMSProp written as whole-array numpy expressions, one pass per
    operation, in the package's floating-point order; updates params and
    the ``acc/``/``vel/`` state in place."""
    for name, p in params.items():
        g = grads[name]
        if name in decay_names:
            g = g + weight_decay * p
        acc = state[f"acc/{name}"]
        vel = state[f"vel/{name}"]
        acc *= rho
        acc += (1.0 - rho) * g * g
        vel *= momentum
        vel += lr * g / np.sqrt(acc + delta)
        p -= vel


def ema_reference(values, decay):
    """First call copies, later calls blend."""
    shadow = None
    out = []
    for v in values:
        shadow = v if shadow is None else decay * shadow + (1.0 - decay) * v
        out.append(shadow)
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def naive_train(model, recipe, batches, max_steps, decay_names):
    """The plain training loop, without augmentation; returns the final
    state, the weight average and the number of epochs begun.

    Every step zeroes every gradient, runs the whole network forward and
    backward under the label-smoothed loss, and applies
    ``rmsprop_whole_array`` at the staircase learning rate. After every
    epoch begun, the one ``max_steps`` cuts short included, the average
    takes in the parameters as ``ema_reference`` does. The loss gradient,
    the schedule and the average are written out in the package's
    floating-point order, so the package's loop must agree bit for bit.
    """
    params = model.params()
    state = {f"{kind}/{name}": np.zeros_like(p) for kind in ("acc", "vel")
             for name, p in params.items()}
    ema = None
    step = epochs = 0
    smoothing = recipe.label_smoothing
    while epochs < recipe.epochs and step < max_steps:
        epochs += 1
        for x, y in batches:
            period = math.floor(step / len(batches) / recipe.lr_decay_epochs)
            lr = recipe.base_lr * recipe.lr_decay_factor**period
            model.zero_grads()
            logits = model.forward(x, train=True)
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            target = np.zeros_like(logits)
            target[np.arange(len(y)), y] = 1.0
            target = (1.0 - smoothing) * target + smoothing / logits.shape[1]
            model.backward((np.exp(log_probs) - target) / len(y))
            rmsprop_whole_array(params, model.grads(), state, recipe.rmsprop_decay,
                                recipe.rmsprop_momentum, recipe.rmsprop_delta,
                                recipe.weight_decay, lr, decay_names)
            step += 1
            if step == max_steps:
                break
        decay = recipe.ema_decay
        ema = ({name: p.copy() for name, p in params.items()} if ema is None else
               {name: decay * ema[name] + (1.0 - decay) * p for name, p in params.items()})
    return {name: arr.copy() for name, arr in model.state().items()}, ema, epochs


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------


def naive_finetune(model, ckpt, last_k, epochs, initial_lr, batches):
    """The plain fine-tuning loop; returns the model's final state.

    Every step zeroes every gradient, runs the whole network forward and
    backward, and applies cosine-scheduled SGD to the parameters of the last
    ``last_k`` segments. The loss gradient, the schedule and the update are
    written out here in the package's floating-point order, so a loop that
    skips only work whose result goes unused must agree bit for bit.
    """
    model.load_state(ckpt.state)
    params = model.params()
    for name, arr in params.items():
        arr[...] = ckpt.ema[name]
    scoped = sorted(model.scope_param_names(last_k))
    total = epochs * len(batches)
    step = 0
    for _ in range(epochs):
        for x, y in batches:
            lr = initial_lr * 0.5 * (1.0 + math.cos(math.pi * step / total))
            model.zero_grads()
            logits = model.forward(x, train=True)
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            target = np.zeros_like(logits)
            target[np.arange(len(y)), y] = 1.0
            model.backward((np.exp(log_probs) - target) / len(y))
            grads = model.grads()
            for name in scoped:
                params[name] -= lr * grads[name]
            step += 1
    return {name: arr.copy() for name, arr in model.state().items()}
