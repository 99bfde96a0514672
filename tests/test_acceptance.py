"""Acceptance gate: one test per published claim the library must reproduce.

Each criterion is exercised at its stated tolerance and runtime budget and
prints a single summary line (visible with -s; pytest -v shows pass/fail per
criterion either way). Criterion 7's relu half is a documented failure: a
degree-30 Gauss-Hermite rule cannot deliver 1e-4 on a kinked integrand, so
that test is a strict xfail with the measured error in its message.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from effkit import layers
from effkit.convs import ConvSpec, conv_backward, conv_forward
from effkit.data import as_batches, blob_dataset
from effkit.model import ModelConfig, build_model, count_cost, native_resolution
from effkit.norms import NormSpec, QuadratureRule, get_activation, proxy_moments
from effkit.perf import intensity, monotonicity_check
from effkit.resolution import congruent, half_resolution
from effkit.tensor import make_rng
from effkit.train import (
    Checkpoint,
    FinetuneRecipe,
    TrainRecipe,
    ema_update,
    finetune,
    lr_at,
    train_loop,
)
from effkit.verify import TABLE2, check_layer, within_published


# ----------------------------------------------------- 1: cost accounting

def test_criterion_01_published_cost_table():
    worst_time = 0.0
    for (variant, group_size, expansion), (params_m, flops_b) in TABLE2.items():
        config = ModelConfig.efficientnet(
            variant, group_size=group_size, expansion=expansion
        )
        start = time.perf_counter()
        report = count_cost(config, native_resolution(variant))
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        assert elapsed < 1.0, (variant, group_size, elapsed)
        assert within_published(report.params / 1e6, params_m), (
            variant, group_size, report.params / 1e6, params_m,
        )
        assert within_published(report.flops / 1e9, flops_b), (
            variant, group_size, report.flops / 1e9, flops_b,
        )
    print(
        f"criterion 1 PASS: 14/14 published (params, FLOPs) pairs within 5%; "
        f"slowest config {worst_time * 1e3:.0f} ms"
    )


# ---------------------------------------------------- 2: half resolutions

def test_criterion_02_half_resolution_goldens():
    goldens = {224: 160, 240: 176, 260: 192, 300: 204, 380: 252, 456: 328}
    got = {native: half_resolution(native) for native in goldens}
    assert got == goldens
    print(f"criterion 2 PASS: half resolutions reproduce exactly: {got}")


# ------------------------------------------------ 3: congruence of bests

BEST_TEST_RESOLUTIONS = {
    "b0": (224, (448, 480)),
    "b1": (240, (528,)),
    "b2": (260, (516, 548)),
    "b3": (300, (556, 588, 652)),
    "b4": (380, (572, 604, 668)),
    "b5": (456, (616, 648, 680)),
}


def test_criterion_03_best_resolutions_congruent():
    checked = 0
    for variant, (native, bests) in BEST_TEST_RESOLUTIONS.items():
        assert native_resolution(variant) == native
        for best in bests:
            assert congruent(native, best), (variant, native, best)
            checked += 1
    # Documented known failure: the half-resolution B2 model trains at 192
    # yet its published best test resolutions sit in a different residue
    # class mod 32 (388 and 420 are both ≡ 4; 192 is ≡ 0).
    assert 192 % 32 == 0 and 388 % 32 == 4 and 420 % 32 == 4
    assert not congruent(192, 388)
    assert not congruent(192, 420)
    print(
        f"criterion 3 PASS: {checked}/{checked} native-trained best resolutions "
        f"congruent; B2-half anomaly (192 vs 388/420) confirmed incongruent"
    )


# ------------------------------------------------- 4: intensity properties

def test_criterion_04_intensity_properties():
    start = time.perf_counter()
    assert abs(intensity(16, 3, 1, 7, 1) - float(Fraction(7056, 193))) <= 1e-9

    rng = np.random.default_rng(404)
    for _ in range(10_000):
        group = int(rng.integers(1, 65))
        groups = int(rng.integers(1, 5))
        rng.integers(1, 4)  # an output-width multiple: not a factor, drawn to keep the cases
        factors = {
            "G": group,
            "k": int(rng.integers(1, 8)),
            "s": int(rng.integers(1, 4)),
            "B": int(rng.integers(1, 65)),
            "f": int(rng.integers(1, 129)),
            "N": groups,
        }
        for field_name in ("G", "k", "B", "f", "s", "N"):
            monotonicity_check(factors, field_name)  # raises on violation
        g, k, b, f, s = (factors[n] for n in "GkBfs")
        value = intensity(g, k, b, f, s)
        assert value <= min(g * k**2, b * f**2) / s + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    print(
        f"criterion 4 PASS: 10000 specs hold all monotonicity directions, "
        f"N-invariance and the harmonic bound; spot value 7056/193 to 1e-9 "
        f"({elapsed:.1f} s)"
    )


# ------------------------------------------------- 5: gradient correctness

def _conv_instance(i, rng):
    group = [1, 2, 3, None][i % 4]  # None = dense
    if group is None:
        c_in, groups = int(rng.integers(2, 7)), 1
    else:
        c_in = group * int(rng.integers(1, 4))
        groups = c_in // group
    c_out = groups * int(rng.integers(1, 4))
    spec = ConvSpec(
        c_in, c_out, kernel=int(rng.choice([1, 3, 5])),
        stride=int(rng.integers(1, 3)), group_size=group,
    )
    return layers.Conv(spec, rng), rng.normal(size=(2, c_in, 5, 5))


def _plain_norm_instance(kind, rng):
    channels = 2 * int(rng.integers(2, 5))
    groups = 2 if kind == "gn" else 1
    spec = NormSpec(kind, groups=groups) if kind == "gn" else NormSpec(kind)
    layer = layers.NormAct(channels, spec, "swish", proxy=False)
    # randomize the affine so the check is not at the identity point
    layer.params()["gamma"][...] = rng.normal(1.0, 0.2, size=channels)
    layer.params()["beta"][...] = rng.normal(0.0, 0.2, size=channels)
    return layer, rng.normal(size=(2, channels, 4, 4))


def _proxy_instance(activation, i, rng):
    kind = ("ln", "gn", "in")[i % 3]
    channels = 2 * int(rng.integers(2, 5))
    spec = NormSpec(kind, groups=2) if kind == "gn" else NormSpec(kind)
    layer = layers.NormAct(channels, spec, activation, proxy=True)
    layer.params()["proxy_beta"][...] = rng.normal(0.0, 0.2, size=channels)
    layer.params()["proxy_gamma"][...] = rng.normal(0.0, 0.2, size=channels)
    for _ in range(50):
        x = rng.normal(size=(2, channels, 4, 4))
        if activation != "relu":
            return layer, x
        layer.forward(x, train=True)
        y = layer._cache[1]["y"]
        pre = layer.gamma.reshape(1, -1, 1, 1) * y + layer.beta.reshape(1, -1, 1, 1)
        # keep every pre-activation clear of the relu kink so central
        # differences never straddle it
        if np.abs(pre).min() > 5e-4:
            return layer, x
    raise AssertionError("no kink-free sample found")


def _linear_instance(rng):
    fan_in = int(rng.integers(3, 9))
    fan_out = int(rng.integers(2, 6))
    return layers.Linear(fan_in, fan_out, rng), rng.normal(size=(3, fan_in))


def test_criterion_05_layer_gradients():
    start = time.perf_counter()
    worst = {}

    def run(name, build):
        tol_worst = 0.0
        for i in range(20):
            rng = make_rng(5000 + 97 * i + len(name))
            layer, x = build(i, rng)
            tol_worst = max(tol_worst, check_layer(layer, x, rng))
        worst[name] = tol_worst
        assert tol_worst <= 1e-6, (name, tol_worst)

    run("conv", _conv_instance)  # cycles grouped, G=1 and dense
    for kind in ("bn", "ln", "gn", "in"):
        run(kind, lambda i, rng, k=kind: _plain_norm_instance(k, rng))
    run("pn-swish", lambda i, rng: _proxy_instance("swish", i, rng))
    run("pn-relu", lambda i, rng: _proxy_instance("relu", i, rng))
    run("se", lambda i, rng: (
        layers.SqueezeExcite(6, 2, rng), rng.normal(size=(2, 6, 4, 4))
    ))
    run("classifier", lambda i, rng: _linear_instance(rng))

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    peak = max(worst.values())
    print(
        f"criterion 5 PASS: {len(worst)} layer families x 20 instances, worst "
        f"relative FD error {peak:.2e} <= 1e-6 ({elapsed:.1f} s)"
    )


# ------------------------------------------------- 6: batch independence

def test_criterion_06_batch_independence():
    start = time.perf_counter()
    rng = make_rng(66)
    model = build_model(ModelConfig.tiny(group_size=4), make_rng(0))
    x = rng.normal(size=(6, 3, 32, 32))
    probe = rng.normal(size=(6, model.config.num_classes))
    perm = np.array([4, 0, 5, 2, 1, 3])

    full = model.forward(x, train=True)
    dx = model.backward(probe)

    permuted = model.forward(x[perm], train=True)
    dx_perm = model.backward(probe[perm])
    assert np.array_equal(permuted, full[perm])
    assert np.array_equal(dx_perm, dx[perm])

    doubled = model.forward(np.concatenate([x, x]), train=True)
    dx_dub = model.backward(np.concatenate([probe, probe]))
    assert np.array_equal(doubled[:6], full) and np.array_equal(doubled[6:], full)
    assert np.array_equal(dx_dub[:6], dx) and np.array_equal(dx_dub[6:], dx)

    subset = model.forward(x[:2], train=True)
    dx_sub = model.backward(probe[:2])
    assert np.array_equal(subset, full[:2])
    assert np.array_equal(dx_sub, dx[:2])

    # the same holds per layer for every batch-independent norm kind
    xs = rng.normal(size=(6, 4, 5, 5))
    for kind, proxy in (("ln", True), ("gn", True), ("in", True),
                        ("ln", False), ("gn", False), ("in", False)):
        spec = NormSpec(kind, groups=2) if kind == "gn" else NormSpec(kind)
        layer = layers.NormAct(4, spec, "swish", proxy=proxy)
        out = layer.forward(xs, train=True)
        assert np.array_equal(layer.forward(xs[perm], train=True), out[perm])
        assert np.array_equal(layer.forward(xs[:3], train=True), out[:3])

    # batch norm is the witness that the property is not vacuous
    bn = layers.NormAct(4, NormSpec("bn"), "swish")
    bn_out = bn.forward(xs, train=True)
    assert not np.array_equal(bn.forward(xs[:3], train=True), bn_out[:3])

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed
    print(
        f"criterion 6 PASS: forward and input gradients bit-identical under "
        f"permutation, duplication and subsetting; BN witness violates "
        f"({elapsed:.1f} s)"
    )


# ------------------------------------------------- 7: proxy-moment oracle

QUAD_CASES = [
    # (proxy_beta, proxy_gamma, gamma, beta)
    (0.0, 0.0, 1.0, 0.0),
    (0.4, -0.2, 1.3, 0.5),
    (-0.7, 0.25, 0.8, -0.3),
    (1.2, 0.1, 1.0, 1.0),
    (-0.3, -0.5, 1.5, -0.8),
]


def _moment_errors(activation_name, oracle):
    quad = QuadratureRule.gauss_hermite(30)
    act = get_activation(activation_name)
    worst = 0.0
    for proxy_beta, proxy_gamma, gamma, beta in QUAD_CASES:
        mean, var = proxy_moments(
            np.array([gamma]), np.array([beta]),
            np.array([proxy_beta]), np.array([proxy_gamma]), act, quad,
        )
        # act(gamma*Y + beta) with Y ~ N(pb, (1+pg)^2) is act(Z) with
        # Z ~ N(gamma*pb + beta, (gamma*(1+pg))^2)
        mu = gamma * proxy_beta + beta
        sigma = abs(gamma * (1.0 + proxy_gamma))
        mean_ref, var_ref = oracle(mu, sigma)
        worst = max(worst, abs(mean[0] - mean_ref), abs(var[0] - var_ref))
    return worst


def test_criterion_07_swish_moments_match_monte_carlo():
    start = time.perf_counter()

    def mc_oracle(mu, sigma):
        return oracles.mc_activation_moments(
            lambda z: z / (1.0 + np.exp(-z)), mu, sigma
        )

    worst = _moment_errors("swish", mc_oracle)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, worst
    assert elapsed < 60.0, elapsed
    print(
        f"criterion 7 (swish) PASS: order-30 quadrature within {worst:.1e} of "
        f"a 1e7-sample Monte-Carlo oracle ({elapsed:.1f} s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="order-30 Gauss-Hermite converges only O(1/order) on the relu kink: "
    "measured max moment error ~7.1e-3 over the test points (5.5e-3 at standard "
    "normal); reaching 1e-4 needs order ~2000 while hermgauss overflows to NaN "
    "beyond ~500. Documented accuracy limit, not an implementation defect.",
)
def test_criterion_07_relu_moments_match_closed_form():
    worst = _moment_errors("relu", oracles.rectified_moments)
    assert worst <= 1e-4, f"relu GH-30 moment error {worst:.2e} exceeds 1e-4"


# ---------------------------------------------------- 8: recipe arithmetic

def test_criterion_08_recipe_arithmetic():
    recipe = TrainRecipe(global_batch=768)
    assert recipe.base_lr == 0.046875  # 768 * 2^-14, exact in binary
    assert recipe.rmsprop_decay == 0.953125
    assert recipe.rmsprop_delta == 1e-3

    base = recipe.base_lr
    assert lr_at(recipe, 0.0) == base
    assert abs(lr_at(recipe, 2.3999) - base) <= 1e-12
    assert abs(lr_at(recipe, 2.4) - base * 0.97) <= 1e-12
    assert abs(lr_at(recipe, 24.0) - base * 0.97**10) <= 1e-12

    p0 = {"w": np.array([1.0, -2.0, 0.5])}
    p1 = {"w": np.array([0.0, 4.0, 1.5])}
    shadow = ema_update({}, p0, decay=recipe.ema_decay)
    assert np.array_equal(shadow["w"], p0["w"])  # first call copies
    shadow = ema_update(shadow, p1, decay=recipe.ema_decay)
    hand = 0.97 * p0["w"] + 0.03 * p1["w"]
    assert np.max(np.abs(shadow["w"] - hand)) <= 1e-12
    print(
        "criterion 8 PASS: B=768 gives base_lr 0.046875 and decay 0.953125 "
        "exactly; staircase and EMA expansions match hand values to 1e-12"
    )


# ------------------------------------------------- 9: desk-scale training

def _train_tiny(group_size, data, batches):
    model = build_model(ModelConfig.tiny(group_size=group_size), make_rng(0))
    recipe = TrainRecipe(global_batch=8, epochs=7)
    ckpt = train_loop(model, batches, recipe, seed=0, max_steps=200)
    x, y = data
    logits = model.forward(x, train=False)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == y))
    return model, ckpt, accuracy


def test_criterion_09_smoke_train_and_scoped_finetune():
    start = time.perf_counter()
    x, y = blob_dataset(256, size=32, classes=2, seed=0)
    batches = list(as_batches(x, y, 8))

    accuracies = {}
    checkpoints = {}
    for group_size in (1, 4):
        _, ckpt, accuracy = _train_tiny(group_size, (x, y), batches)
        accuracies[group_size] = accuracy
        checkpoints[group_size] = ckpt
        assert accuracy >= 0.90, (group_size, accuracy)

    # bit-exact repeatability of the full loop
    _, again, _ = _train_tiny(4, (x, y), batches)
    assert again.fingerprint == checkpoints[4].fingerprint
    assert set(again.state) == set(checkpoints[4].state)
    for name, tensor in again.state.items():
        assert np.array_equal(tensor, checkpoints[4].state[name]), name

    # fine-tuning touches only the scoped parameters, starting from the EMA
    ckpt = checkpoints[4]
    model = build_model(ModelConfig.tiny(group_size=4), make_rng(1))
    recipe = FinetuneRecipe(scope="last-1", epochs=1, batch=8, initial_lr=0.25)
    result = finetune(model, ckpt, recipe, batches[:8])
    scoped = model.scope_param_names(recipe.last_k)
    changed = {
        name for name in model.params()
        if not np.array_equal(result.ema[name], ckpt.ema[name])
    }
    assert changed and changed <= scoped, (changed - scoped, scoped - changed)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, elapsed
    print(
        f"criterion 9 PASS: tiny G=1/G=4 reach "
        f"{accuracies[1]:.3f}/{accuracies[4]:.3f} train accuracy in <=200 "
        f"steps, bit-repeatable; finetune(last-1) touched only "
        f"{len(changed)}/{len(model.params())} parameters ({elapsed:.1f} s)"
    )


# ---------------------------------------- 10: what is NOT reproduced here

def test_criterion_10_out_of_scope_statement():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "not reproduced" in readme.lower()
    assert "accurac" in readme.lower()
    assert "throughput" in readme.lower()
    # the embedded golden tables carry cost and geometry only: a (params,
    # FLOPs) pair per config, never an accuracy or a throughput column
    for value in TABLE2.values():
        assert len(value) == 2
        assert all(isinstance(v, float) for v in value)
    print(
        "criterion 10 PASS: README states validation accuracies and hardware "
        "throughputs are not reproduced; golden tables hold cost pairs only"
    )
