"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite returns (name, passed, detail). They are quick sanity gates:
finite-difference gradient checks, batch-independence semantics, quadrature
accuracy against closed forms, and the embedded golden tables for half
resolutions and model costs. The full test suite covers the same ground
more exhaustively.
"""

from __future__ import annotations

import numpy as np

from .convs import ConvSpec
from .layers import Conv, Linear, NormAct, SqueezeExcite
from .model import VARIANTS, ModelConfig, count_cost
from .norms import QUAD_RULE, NormSpec, QuadratureRule, get_activation, normalize, pn_activation
from .norms import proxy_moments
from .resolution import half_resolution
from .tensor import make_rng

REL_TOL = 1e-6
FD_STEP = 1e-5

#: native resolution -> the published half-resolution training choice,
#: kept apart from ``resolution.HALF_RESOLUTIONS`` so the suite checks that
#: table rather than reading it back.
TABLE1 = {224: 160, 240: 176, 260: 192, 300: 204, 380: 252, 456: 328}

#: (variant, G, E) -> (params in millions, FLOPs in billions). The 14
#: reproducible published rows, G in {1, 4, 16}.
TABLE2 = {
    ("b0", 1, 6): (5.3, 0.4),
    ("b0", 4, 5): (5.1, 0.4),
    ("b0", 16, 4): (5.9, 0.6),
    ("b1", 1, 6): (7.8, 0.7),
    ("b1", 16, 4): (8.3, 1.1),
    ("b2", 1, 6): (9.1, 1.0),
    ("b2", 4, 5): (8.6, 1.0),
    ("b2", 16, 4): (9.5, 1.5),
    ("b3", 1, 6): (12.2, 1.8),
    ("b3", 16, 4): (12.6, 2.7),
    ("b4", 1, 6): (19.3, 4.4),
    ("b4", 16, 4): (19.3, 6.2),
    ("b5", 1, 6): (30.4, 10.2),
    ("b5", 16, 4): (28.7, 13.4),
}

#: The published G in {32, 64} rows. These are internally inconsistent: the
#: B0 param values match divisor-rounded group sizes exactly, B2's match a
#: channel-padding scheme (or neither, at G=64), while all four FLOP values
#: match padding the expanded width up to a multiple of G. No single
#: architecture reproduces them, so they are documented rather than gated on.
TABLE2_WIDE_GROUPS = {
    ("b0", 32, 3): (6.2, 0.9),
    ("b0", 64, 2): (6.7, 1.5),
    ("b2", 32, 3): (10.3, 2.1),
    ("b2", 64, 2): (9.9, 3.6),
}


def rel_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


#: relative band and print step (one decimal place) of the published tables
PUBLISHED_REL = 0.05
PRINT_ULP = 0.1


def within_published(value: float, printed: float) -> bool:
    """5% band around a table value printed to one decimal place.

    The print quantization contributes up to half an ulp of error on top of
    any modelling difference, so the band is PUBLISHED_REL * printed +
    PRINT_ULP / 2.
    """
    return abs(value - printed) <= PUBLISHED_REL * printed + 0.5 * PRINT_ULP


def fd_check(value_fn, array: np.ndarray, analytic: np.ndarray, rng, samples: int = 12) -> float:
    """Max relative error of `analytic` vs central differences of the
    zero-argument `value_fn` with respect to `array`, probed at `samples`
    coordinates drawn from `rng` without replacement."""
    flat = array.reshape(-1)
    grad = analytic.reshape(-1)
    count = min(samples, flat.size)
    idx = rng.choice(flat.size, size=count, replace=False)
    worst = 0.0
    for i in idx:
        keep = flat[i]
        flat[i] = keep + FD_STEP
        up = value_fn()
        flat[i] = keep - FD_STEP
        down = value_fn()
        flat[i] = keep
        numeric = (up - down) / (2.0 * FD_STEP)
        worst = max(worst, rel_error(grad[i], numeric))
    return worst


def check_layer(layer, x, rng, probes=5):
    """FD-check the input gradient and every parameter gradient of `layer`
    against its backward pass; returns the worst relative error. The
    ``verify`` suite and the acceptance tests share it."""
    probe = rng.normal(size=layer.forward(x, train=True).shape)

    def loss():
        return float((layer.forward(x, train=True, grad=False) * probe).sum())

    worst = 0.0
    arrays = [("<input>", x)] + sorted(layer.params().items())
    for name, arr in arrays:
        layer.zero_grads()
        layer.forward(x, train=True)
        dx = layer.backward(probe)
        analytic = dx if name == "<input>" else layer.grads()[name]
        worst = max(worst, fd_check(loss, arr, analytic, rng, probes))
    return worst


def suite_gradient_check() -> tuple[bool, str]:
    rng = make_rng(11)
    cases = [
        # grouped convolution, two groups of 3 over 6 channels
        (Conv(ConvSpec(6, 4, 3, stride=2, group_size=3), rng), (2, 6, 5, 5)),
        # proxy-normalized activation over a layer norm
        (NormAct(4, NormSpec("ln"), "swish", proxy=True), (2, 4, 4, 4)),
        (SqueezeExcite(4, 2, rng), (2, 4, 3, 3)),
        (Linear(5, 3, rng), (4, 5)),
    ]
    worst = max(
        check_layer(layer, rng.normal(size=shape), rng, probes=12) for layer, shape in cases
    )
    return worst <= REL_TOL, f"max relative gradient error {worst:.2e} (tolerance {REL_TOL:.0e})"


def suite_batch_independence() -> tuple[bool, str]:
    rng = make_rng(23)
    x = rng.normal(size=(5, 8, 4, 4))
    perm = rng.permutation(5)
    quad = QUAD_RULE
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)
    pb = rng.normal(size=8) * 0.1
    pg = rng.normal(size=8) * 0.1
    swish = get_activation("swish")
    for kind in ("ln", "gn", "in"):
        spec = NormSpec(kind)
        y, _ = normalize(x, spec)
        z, _ = pn_activation(y, gamma, beta, pb, pg, swish, quad)
        yp, _ = normalize(x[perm], spec)
        zp, _ = pn_activation(yp, gamma, beta, pb, pg, swish, quad)
        if not np.array_equal(z[perm], zp):
            return False, f"{kind} outputs changed under batch permutation"
        ysub, _ = normalize(x[:1], spec)
        zsub, _ = pn_activation(ysub, gamma, beta, pb, pg, swish, quad)
        if not np.array_equal(zsub[0], z[0]):
            return False, f"{kind} outputs changed under batch subsetting"
    y_all, _ = normalize(x, NormSpec("bn"))
    y_sub, _ = normalize(x[:2], NormSpec("bn"))
    if np.array_equal(y_all[:2], y_sub):
        return False, "batch norm unexpectedly batch independent on witness"
    return True, "ln/gn/in bit-identical under permutation and subsetting; bn witness differs"


def suite_quadrature() -> tuple[bool, str]:
    quad = QUAD_RULE
    # Standard-normal moments: E[x^p] = 0 (odd) or (p-1)!! (even).
    moments = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0, 7: 0.0, 8: 105.0}
    for p, exact in moments.items():
        got = float(np.sum(quad.weights * quad.nodes**p))
        if abs(got - exact) > 1e-10 * max(1.0, exact):
            return False, f"monomial x^{p}: {got} != {exact}"
    relu = get_activation("relu")
    ones = np.ones(1)
    zeros = np.zeros(1)
    mean, var = proxy_moments(ones, zeros, zeros, zeros, relu, quad)
    exact_mean = 1.0 / np.sqrt(2.0 * np.pi)
    exact_var = 0.5 - 1.0 / (2.0 * np.pi)
    err = max(abs(mean[0] - exact_mean), abs(var[0] - exact_var))
    # The kink at zero limits order-30 accuracy to O(1/order); 1e-2 is the
    # documented bound there, while smooth activations integrate to <1e-10.
    if err > 1e-2:
        return False, f"rectified moments off by {err:.2e}"
    swish = get_activation("swish")
    m_s, v_s = proxy_moments(ones, zeros, zeros, zeros, swish, quad)
    m_hi, v_hi = proxy_moments(ones, zeros, zeros, zeros, swish, QuadratureRule.gauss_hermite(120))
    smooth_err = max(abs(m_s[0] - m_hi[0]), abs(v_s[0] - v_hi[0]))
    if smooth_err > 1e-8:
        return False, f"smooth moments drift {smooth_err:.2e} between orders 30 and 120"
    return True, (
        f"monomials exact to 1e-10; rectified moments within {err:.1e} "
        "(kink-limited); smooth moments stable across orders"
    )


def suite_table1() -> tuple[bool, str]:
    for native, half in TABLE1.items():
        got = half_resolution(native)
        if got != half:
            return False, f"half_resolution({native}) = {got}, expected {half}"
    return True, "all six canonical half resolutions exact"


def suite_table2() -> tuple[bool, str]:
    for (variant, g, e), (p_m, f_b) in TABLE2.items():
        config = ModelConfig.efficientnet(variant, group_size=g, expansion=e)
        report = count_cost(config, VARIANTS[variant][2])
        if not within_published(report.params / 1e6, p_m) or not within_published(
            report.flops / 1e9, f_b
        ):
            return False, (
                f"{variant} G={g} E={e}: {report.params / 1e6:.2f}M/{report.flops / 1e9:.2f}B "
                f"vs published {p_m}M/{f_b}B"
            )
    return True, f"all {len(TABLE2)} cost rows within 5% of the published values"


SUITES = (
    ("gradient-check", suite_gradient_check),
    ("batch-independence", suite_batch_independence),
    ("quadrature-oracle", suite_quadrature),
    ("half-resolution-goldens", suite_table1),
    ("cost-goldens", suite_table2),
)


def run_all() -> list[tuple[str, bool, str]]:
    return [(name, *fn()) for name, fn in SUITES]
