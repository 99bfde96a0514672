"""Independent reference implementations the tests check against.

Everything here is deliberately naive: plain loops, textbook formulas,
closed forms, or Monte Carlo. None of it imports the corresponding fast
paths from the package beyond basic dataclasses, so an agreement between
the two is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np


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
