"""Optimizer arithmetic, schedules, losses, augmentation, and the loops."""

import collections
import json
import math
import os
import subprocess
import sys
import types
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import effkit
from effkit import checkpoint, model, norms, tensor, train
from effkit.convs import ConvSpec, folds_batch_for_dw
from effkit.data import as_batches, blob_dataset
from effkit.layers import decay_param_names
from effkit.model import ConvDims, ModelConfig, StageSpec, build_model, model_plan
from effkit.norms import NormSpec
from effkit.tensor import make_rng

from oracles import (ema_reference, naive_finetune, naive_train, rmsprop_reference,
                     rmsprop_whole_array)


def tiny_setup(seed=0, **config_over):
    cfg = ModelConfig.tiny(**config_over)
    net = build_model(cfg, make_rng(seed))
    x, y = blob_dataset(32, size=32, classes=cfg.num_classes, seed=seed)
    return net, as_batches(x, y, 8)


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------


def test_recipe_derives_published_hyperparameters():
    recipe = train.TrainRecipe(global_batch=768)
    assert recipe.base_lr == 0.046875
    assert recipe.rmsprop_decay == 0.953125
    assert recipe.rmsprop_momentum == 0.9
    assert recipe.weight_decay == 1e-5
    assert recipe.label_smoothing == 0.1


def test_recipe_validation():
    with pytest.raises(ValueError):
        train.TrainRecipe(global_batch=0)
    with pytest.raises(ValueError):
        train.TrainRecipe(global_batch=8, epochs=0)
    with pytest.raises(ValueError):
        train.TrainRecipe(global_batch=2**15)  # derived decay hits 0
    # NaN passes a `<= 0` test; such a run would only fail at its first loss.
    for lr in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="base_lr must be finite and positive"):
            train.TrainRecipe(global_batch=8, base_lr=lr)


def test_recipe_constants_are_not_fields():
    # The fixed recipe constants are class attributes: the constructor does
    # not take them, and only the four fields are dataclass fields.
    recipe = train.TrainRecipe(global_batch=8)
    assert set(asdict(recipe)) == {"global_batch", "epochs", "base_lr", "augment"}
    with pytest.raises(TypeError):
        train.TrainRecipe(global_batch=8, weight_decay=0.5)
    assert recipe.rmsprop_decay == 1.0 - 8 * 2.0**-14


def test_finetune_recipe():
    recipe = train.FinetuneRecipe()
    assert recipe.scope == "last-1"
    assert recipe.epochs == 2
    assert recipe.initial_lr == 0.25
    assert train.FinetuneRecipe(scope="last-3").last_k == 3
    with pytest.raises(ValueError):
        train.FinetuneRecipe(scope="last-4")
    for lr in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="invalid fine-tune recipe"):
            train.FinetuneRecipe(initial_lr=lr)


def test_default_recipe_fingerprints_are_stable():
    # Saved checkpoints carry these digests; a change to the recipe fields
    # or to their serialization would orphan them.
    assert train.recipe_fingerprint(train.TrainRecipe(global_batch=8)) == (
        "4129729a8fd544e6c574951352aa93db35151f60ad9c707d3cd43c4ab31b33cf"
    )
    assert train.recipe_fingerprint(train.FinetuneRecipe()) == (
        "f831038438e386e80a0de6c02e32ef0698386a5f2de19b000219f5e1f0443c6d"
    )


def test_recipe_fingerprint_tracks_content():
    a = train.TrainRecipe(global_batch=768)
    b = train.TrainRecipe(global_batch=768)
    c = train.TrainRecipe(global_batch=512)
    assert train.recipe_fingerprint(a) == train.recipe_fingerprint(b)
    assert train.recipe_fingerprint(a) != train.recipe_fingerprint(c)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def test_lr_staircase():
    recipe = train.TrainRecipe(global_batch=768)
    base = recipe.base_lr
    assert train.lr_at(recipe, 0.0) == base
    assert train.lr_at(recipe, 2.3999) == base
    assert train.lr_at(recipe, 2.4) == pytest.approx(base * 0.97, rel=1e-12)
    assert train.lr_at(recipe, 24.0) == pytest.approx(base * 0.97**10, rel=1e-12)
    with pytest.raises(ValueError):
        train.lr_at(recipe, -0.1)


def test_cosine_schedule():
    assert train.cosine_lr(0, 100, 0.25) == 0.25
    assert train.cosine_lr(50, 100, 0.25) == pytest.approx(0.125, abs=1e-15)
    assert train.cosine_lr(100, 100, 0.25) == pytest.approx(0.0, abs=1e-15)
    values = [train.cosine_lr(s, 100, 0.25) for s in range(101)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        train.cosine_lr(101, 100, 0.25)


# ---------------------------------------------------------------------------
# Optimizer steps
# ---------------------------------------------------------------------------


def test_rmsprop_zero_gradient_is_a_fixed_point():
    recipe = train.TrainRecipe(global_batch=768)
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = train.init_rmsprop_state(params)
    before = params["w"].copy()
    train.rmsprop_step(params, {"w": np.zeros(3)}, state, recipe, lr=0.1)
    np.testing.assert_array_equal(params["w"], before)


def test_rmsprop_two_steps_match_scalar_reference():
    recipe = train.TrainRecipe(global_batch=768)
    params = {"w": np.array([0.5])}
    state = train.init_rmsprop_state(params)
    grads = [0.3, -0.2]
    lr = 0.046875
    for g in grads:
        train.rmsprop_step(params, {"w": np.array([g])}, state, recipe, lr)
    ref = rmsprop_reference(
        0.5, grads, lr, recipe.rmsprop_decay, recipe.rmsprop_momentum,
        recipe.rmsprop_delta,
    )[-1]
    assert abs(params["w"][0] - ref) <= 1e-12


def test_rmsprop_weight_decay_applies_only_to_named_parameters():
    recipe = train.TrainRecipe(global_batch=768)
    base = {"a": np.array([2.0]), "b": np.array([2.0])}
    grads = {"a": np.array([0.1]), "b": np.array([0.1])}
    with_decay = {k: v.copy() for k, v in base.items()}
    state = train.init_rmsprop_state(with_decay)
    train.rmsprop_step(with_decay, grads, state, recipe, 0.01, decay_names={"a"})
    plain = {k: v.copy() for k, v in base.items()}
    state2 = train.init_rmsprop_state(plain)
    train.rmsprop_step(plain, grads, state2, recipe, 0.01)
    assert with_decay["a"][0] != plain["a"][0]
    assert with_decay["b"][0] == plain["b"][0]
    ref = rmsprop_reference(
        2.0, [0.1 + recipe.weight_decay * 2.0], 0.01, recipe.rmsprop_decay,
        recipe.rmsprop_momentum, recipe.rmsprop_delta,
    )[-1]
    assert abs(with_decay["a"][0] - ref) <= 1e-12


def test_rmsprop_shape_mismatch():
    recipe = train.TrainRecipe(global_batch=768)
    params = {"w": np.zeros(3)}
    state = train.init_rmsprop_state(params)
    with pytest.raises(ValueError):
        train.rmsprop_step(params, {"w": np.zeros(4)}, state, recipe, 0.1)


@pytest.mark.parametrize("decay", [False, True])
def test_blocked_rmsprop_is_bit_identical_to_whole_array_update(decay):
    block = train.RMSPROP_BLOCK
    shapes = {
        "one": (1,),
        "below": (block - 1,),
        "exact": (block,),
        "above": (2 * block + 7,),
        "matrix": (7, 3 * block // 7 + 5),
        "conv": (40, 4, 5, 5 * block // 800 + 1),
    }
    rng = make_rng(4)
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    expected = {name: p.copy() for name, p in params.items()}
    # 1 - rho = 96 * 2^-14 is no power of two, nor is the weight decay: a
    # reordered product must change some bits.
    recipe = train.TrainRecipe(global_batch=96)
    state = train.init_rmsprop_state(params)
    ref_state = train.init_rmsprop_state(expected)
    decay_names = set(shapes) if decay else set()
    for step, lr in enumerate((0.05, 0.03, 0.02)):
        grads = {name: rng.normal(size=shape) * 10.0**step for name, shape in shapes.items()}
        train.rmsprop_step(params, grads, state, recipe, lr, decay_names)
        rmsprop_whole_array(
            expected, grads, ref_state, recipe.rmsprop_decay, recipe.rmsprop_momentum,
            recipe.rmsprop_delta, recipe.weight_decay, lr, decay_names,
        )
    for name in shapes:
        assert np.array_equal(params[name], expected[name]), name
        for key in (f"acc/{name}", f"vel/{name}"):
            assert np.array_equal(state[key], ref_state[key]), key


def test_rmsprop_rejects_non_contiguous_arrays():
    recipe = train.TrainRecipe(global_batch=64)
    params = {"w": np.zeros((3, 5)).T}
    state = train.init_rmsprop_state({"w": np.zeros((5, 3))})
    with pytest.raises(ValueError, match="w: param"):
        train.rmsprop_step(params, {"w": np.ones((5, 3))}, state, recipe, 0.1)
    params = {"w": np.zeros((5, 3))}
    with pytest.raises(ValueError, match="w: grad"):
        train.rmsprop_step(params, {"w": np.ones((3, 5)).T}, state, recipe, 0.1)
    state["vel/w"] = np.zeros((3, 5)).T
    with pytest.raises(ValueError, match="w: vel"):
        train.rmsprop_step(params, {"w": np.ones((5, 3))}, state, recipe, 0.1)


def test_sgd_step_updates_only_named_subset():
    params = {"a": np.array([1.0]), "b": np.array([1.0])}
    grads = {"a": np.array([0.5]), "b": np.array([0.5])}
    train.sgd_step(params, grads, lr=0.1, names=["a"])
    assert params["a"][0] == 0.95
    assert params["b"][0] == 1.0


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------


def test_ema_first_call_copies():
    params = {"w": np.array([3.0])}
    shadow = train.ema_update({}, params, train.TrainRecipe.ema_decay)
    assert shadow["w"][0] == 3.0
    shadow["w"][0] = 99.0
    assert params["w"][0] == 3.0  # a copy, not a view


def test_ema_constant_params_are_a_fixed_point():
    params = {"w": np.array([1.5, -2.0])}
    shadow = train.ema_update({}, params, train.TrainRecipe.ema_decay)
    for _ in range(5):
        shadow = train.ema_update(shadow, params, train.TrainRecipe.ema_decay)
    np.testing.assert_allclose(shadow["w"], params["w"], atol=1e-12, rtol=0)


def test_ema_two_step_expansion():
    p0, p1 = 2.0, -4.0
    params = {"w": np.array([p0])}
    shadow = train.ema_update({}, params, train.TrainRecipe.ema_decay)
    params["w"][0] = p1
    shadow = train.ema_update(shadow, params, train.TrainRecipe.ema_decay)
    assert abs(shadow["w"][0] - (0.97 * p0 + 0.03 * p1)) <= 1e-12
    assert abs(shadow["w"][0] - ema_reference([p0, p1], 0.97)[-1]) <= 1e-12


def test_ema_stays_inside_parameter_history_hull():
    rng = make_rng(0)
    history = rng.normal(size=(10, 6))
    shadow = train.ema_update({}, {"w": history[0].copy()}, train.TrainRecipe.ema_decay)
    for row in history[1:]:
        shadow = train.ema_update(shadow, {"w": row.copy()}, train.TrainRecipe.ema_decay)
    lo = history.min(axis=0) - 1e-12
    hi = history.max(axis=0) + 1e-12
    assert (shadow["w"] >= lo).all() and (shadow["w"] <= hi).all()


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def test_smoothing_zero_is_plain_cross_entropy():
    rng = make_rng(1)
    logits = rng.normal(size=(4, 5))
    labels = np.array([0, 2, 4, 1])
    got = train.smoothed_cross_entropy(logits, labels, smoothing=0.0)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    ref = -np.log(probs[np.arange(4), labels]).mean()
    assert abs(got - ref) <= 1e-12


def test_uniform_logits_lose_log_k():
    logits = np.zeros((3, 7))
    labels = np.array([0, 3, 6])
    for smoothing in (0.0, 0.1):
        got = train.smoothed_cross_entropy(logits, labels, smoothing)
        assert abs(got - math.log(7)) <= 1e-12


def test_smoothed_cross_entropy_matches_naive_summation():
    rng = make_rng(2)
    logits = rng.normal(size=(5, 4))
    labels = np.array([1, 0, 3, 2, 2])
    s = 0.1
    got = train.smoothed_cross_entropy(logits, labels, s)
    total = 0.0
    for b in range(5):
        logz = math.log(sum(math.exp(v) for v in logits[b]))
        for k in range(4):
            target = s / 4 + (1.0 - s) * (1.0 if k == labels[b] else 0.0)
            total -= target * (logits[b, k] - logz)
    assert abs(got - total / 5) <= 1e-12


def test_cross_entropy_gradient_matches_finite_differences():
    rng = make_rng(3)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    grad = train.smoothed_cross_entropy_grad(logits, labels, 0.1)
    h = 1e-6
    for b in range(3):
        for k in range(4):
            up = logits.copy()
            up[b, k] += h
            down = logits.copy()
            down[b, k] -= h
            num = (
                train.smoothed_cross_entropy(up, labels, 0.1)
                - train.smoothed_cross_entropy(down, labels, 0.1)
            ) / (2 * h)
            assert abs(grad[b, k] - num) <= 1e-8


def test_label_validation():
    with pytest.raises(ValueError):
        train.one_hot(np.array([0, 5]), 4)
    with pytest.raises(ValueError):
        train.smoothed_cross_entropy(
            np.zeros((2, 3)), np.array([[1.0, 0.0]]), train.TrainRecipe.label_smoothing
        )


# ---------------------------------------------------------------------------
# Mixup / CutMix
# ---------------------------------------------------------------------------


def test_mixup_endpoints_and_midpoint():
    rng = make_rng(4)
    x1, x2 = rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 4, 4))
    y1, y2 = np.array([[1.0, 0.0]] * 2), np.array([[0.0, 1.0]] * 2)
    x, y = train.mixup(x1, y1, x2, y2, 1.0)
    np.testing.assert_array_equal(x, x1)
    np.testing.assert_array_equal(y, y1)
    a = np.full((1, 3, 4, 4), 2.0)
    b = np.full((1, 3, 4, 4), 6.0)
    x, y = train.mixup(a, y1[:1], b, y2[:1], 0.5)
    np.testing.assert_array_equal(x, np.full((1, 3, 4, 4), 4.0))
    np.testing.assert_array_equal(y, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        train.mixup(x1, y1, x2, y2, 1.5)


def test_cutmix_quarter_box_weights():
    rng = make_rng(5)
    x1, x2 = rng.normal(size=(1, 3, 8, 8)), rng.normal(size=(1, 3, 8, 8))
    y1, y2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    x, y = train.cutmix(x1, y1, x2, y2, box=(0, 0, 4, 4))  # 16/64 = 25%
    np.testing.assert_allclose(y, np.array([[0.75, 0.25]]), atol=1e-15)
    np.testing.assert_array_equal(x[..., :4, :4], x2[..., :4, :4])
    np.testing.assert_array_equal(x[..., 4:, :], x1[..., 4:, :])
    with pytest.raises(ValueError):
        train.cutmix(x1, y1, x2, y2, box=(6, 6, 4, 4))


def test_sample_cut_box_stays_in_bounds():
    rng = make_rng(6)
    for _ in range(200):
        lam = float(rng.random())
        top, left, h, w = train.sample_cut_box(rng, (13, 9), lam)
        assert 0 <= top and top + h <= 13
        assert 0 <= left and left + w <= 9
        # box area tracks the (1 - lam) fraction after integer rounding
        assert abs(h - 13 * math.sqrt(1 - lam)) <= 0.5 + 1e-9
        assert abs(w - 9 * math.sqrt(1 - lam)) <= 0.5 + 1e-9


def test_augment_batch_is_seed_deterministic():
    recipe = train.TrainRecipe(global_batch=8, augment=True)
    rng1, rng2 = make_rng(7), make_rng(7)
    x = make_rng(8).normal(size=(8, 3, 8, 8))
    t = train.one_hot(np.arange(8) % 2, 2)
    x1, y1 = train.augment_batch(x, t, rng1, recipe)
    x2, y2 = train.augment_batch(x, t, rng2, recipe)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_one_step_updates_every_trainable_parameter():
    net, batches = tiny_setup(seed=10)
    before = {k: v.copy() for k, v in net.params().items()}
    recipe = train.TrainRecipe(global_batch=8, epochs=1)
    train.train_loop(net, batches[:1], recipe, seed=0, max_steps=1)
    after = net.params()
    for name, arr in after.items():
        assert not np.array_equal(arr, before[name]), name


def test_train_loop_is_bit_deterministic(tmp_path):
    recipe = train.TrainRecipe(global_batch=8, epochs=2, augment=True)
    ckpts = []
    for run in range(2):
        net, batches = tiny_setup(seed=11)
        ckpts.append(train.train_loop(net, batches, recipe, seed=3))
    a, b = ckpts
    assert sorted(a.state) == sorted(b.state)
    for name in a.state:
        assert np.array_equal(a.state[name], b.state[name]), name
    for name in a.ema:
        assert np.array_equal(a.ema[name], b.ema[name]), name


def test_train_loop_writes_a_log(tmp_path):
    net, batches = tiny_setup(seed=12)
    recipe = train.TrainRecipe(global_batch=8, epochs=1)
    log = tmp_path / "log.csv"
    train.train_loop(net, batches, recipe, seed=0, max_steps=3, log_path=log)
    text = log.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,step,lr,loss,train_acc"
    assert len(lines) == 4
    assert "\r" not in text
    assert "," in lines[1] and "." in lines[1]


def test_micro_batch_accumulation_matches_full_batch():
    # Batch-independent layers make chunked accumulation equal to rounding:
    # the chunks add the per-sample gradients in another order.
    recipe = train.TrainRecipe(global_batch=8, epochs=1)
    results = []
    for micro in (None, 4):
        net, batches = tiny_setup(seed=13)
        ckpt = train.train_loop(
            net, batches[:2], recipe, seed=0, max_steps=2, micro_batch_size=micro
        )
        results.append(ckpt.state)
    full, chunked = results
    for name in full:
        np.testing.assert_allclose(full[name], chunked[name], atol=1e-12, rtol=0)


def test_decay_set_is_conv_weights_and_proxy_params_only():
    net, _ = tiny_setup(seed=14)
    names = set(decay_param_names(net))
    params = set(net.params())
    assert names <= params
    for name in names:
        assert name.endswith(("conv/weight", "proxy_beta", "proxy_gamma")), name
    for name in params - names:
        assert not name.endswith("conv/weight"), name
        assert not name.endswith(("proxy_beta", "proxy_gamma")), name
    # SE dense layers and classifier are excluded
    assert not any(name.startswith("classifier") for name in names)
    assert not any("/se/" in name for name in names)


def test_weight_decay_moves_exactly_the_decay_set():
    # One step with decay vs without: only the decayed names may differ
    # once gradients are forced to zero.
    net, _ = tiny_setup(seed=15)
    params = net.params()
    decay_names = frozenset(decay_param_names(net))
    zero_grads = {k: np.zeros_like(v) for k, v in params.items()}
    recipe = train.TrainRecipe(global_batch=8)
    for names in (frozenset(), decay_names):
        snap = {k: v.copy() for k, v in params.items()}
        state = train.init_rmsprop_state(snap)
        train.rmsprop_step(snap, zero_grads, state, recipe, 0.01, names)
        if not names:
            for name, arr in snap.items():
                assert np.array_equal(arr, params[name]), name
        else:
            for name, arr in snap.items():
                moved = not np.array_equal(arr, params[name])
                assert moved == (name in decay_names and params[name].any()), name


def test_train_loop_stops_on_divergence(tmp_path):
    net, batches = tiny_setup(seed=19)
    log = tmp_path / "log.csv"
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="loss nan at step 1"):
        train.train_loop(net, batches, train.TrainRecipe(global_batch=8, base_lr=1e200),
                         seed=0, log_path=log)
    assert len(log.read_text().splitlines()) == 3  # header, then steps 0 and 1
    # A last update that overflows after a finite loss is caught too.
    net, batches = tiny_setup(seed=19)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite state"):
        train.train_loop(net, batches, train.TrainRecipe(global_batch=8, base_lr=1e308),
                         seed=0, max_steps=1)


@pytest.mark.parametrize("norm", ["ln", "bn"])
def test_train_loop_matches_naive_loop_bit_for_bit(norm):
    # Two epochs of three batches cut at five steps: the run stops inside
    # epoch 2, and the average still takes in that partial epoch.
    cfg = ModelConfig.tiny(norm=NormSpec(norm))
    x, y = blob_dataset(12, size=16, classes=cfg.num_classes, seed=21)
    batches = as_batches(x, y, 4)
    recipe = train.TrainRecipe(global_batch=4, epochs=2)
    net = build_model(cfg, make_rng(21))
    got = train.train_loop(net, batches, recipe, seed=0, max_steps=5)
    ref = build_model(cfg, make_rng(21))
    state, ema, epochs = naive_train(ref, recipe, batches, 5, frozenset(decay_param_names(ref)))
    assert got.epoch == epochs == 2
    assert set(got.state) == set(state) and set(got.ema) == set(ema)
    for name in state:
        assert np.array_equal(got.state[name], state[name]), name
    for name in ema:
        assert np.array_equal(got.ema[name], ema[name]), name


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_loops_look_up_the_traced_functions_at_call_time(monkeypatch):
    """perfbench's tracer replaces these module attributes. A loop that
    bound one before the patch would never call the wrapper, and its
    optimizer or EMA time would read 0."""
    cfg, ckpt, batches = finetune_case("ln", {})
    calls = collections.Counter()
    for name in ("_run_batch", "lr_at", "cosine_lr", "rmsprop_step", "sgd_step", "ema_update"):
        monkeypatch.setattr(train, name, _counting(calls, name, getattr(train, name)))
    recipe = train.TrainRecipe(global_batch=4, epochs=2)
    train.train_loop(build_model(cfg, make_rng(1)), batches, recipe, seed=0, max_steps=5)
    assert calls == {"_run_batch": 5, "lr_at": 5, "rmsprop_step": 5, "ema_update": 2}
    calls.clear()
    recipe = train.FinetuneRecipe(scope="last-1", epochs=2, batch=4)
    train.finetune(build_model(cfg, make_rng(1)), ckpt, recipe, batches)
    assert calls == {"_run_batch": 6, "cosine_lr": 6, "sgd_step": 6}


@pytest.mark.parametrize("max_steps", [0, -3])
def test_train_loop_rejects_max_steps_below_one(max_steps, tmp_path):
    # A run asked for no steps used to train one and return its checkpoint.
    net, batches = tiny_setup(seed=16)
    before = {k: v.copy() for k, v in net.params().items()}
    log = tmp_path / "log.csv"
    with pytest.raises(ValueError, match="max_steps"):
        train.train_loop(net, batches, train.TrainRecipe(global_batch=8), seed=0,
                         max_steps=max_steps, log_path=log)
    assert not log.exists()
    for name, arr in net.params().items():
        np.testing.assert_array_equal(arr, before[name])


def test_train_loop_rejects_a_batch_of_another_size_than_the_recipe():
    # The recipe's batch sets the learning rate, the RMSProp decay and the
    # fingerprint; a run over batches of 4 used to take batch 8's.
    net, batches = tiny_setup(seed=16)
    x, y = batches[0]
    small = as_batches(x, y, 4)
    with pytest.raises(ValueError, match="batch of 4 samples.*batch is 8"):
        train.train_loop(net, small, train.TrainRecipe(global_batch=8), seed=0)
    # Checked as the loop reaches each batch: a short last batch stops there.
    with pytest.raises(ValueError, match="batch of 4 samples"):
        train.train_loop(net, [batches[0], small[0]], train.TrainRecipe(global_batch=8), seed=0)


def test_finetune_rejects_a_batch_of_another_size_than_the_recipe():
    net, batches = tiny_setup(seed=16)
    ckpt = train.train_loop(net, batches[:1], train.TrainRecipe(global_batch=8), seed=0)
    with pytest.raises(ValueError, match="batch of 8 samples.*batch is 512"):
        train.finetune(net, ckpt, train.FinetuneRecipe(), batches)


def test_train_loop_rejects_empty_data():
    net, _ = tiny_setup(seed=16)
    recipe = train.TrainRecipe(global_batch=8)
    with pytest.raises(ValueError):
        train.train_loop(net, [], recipe, seed=0)


# ---------------------------------------------------------------------------
# Fine-tuning
# ---------------------------------------------------------------------------


def test_finetune_updates_only_scoped_parameters():
    net, batches = tiny_setup(seed=17)
    recipe = train.TrainRecipe(global_batch=8, epochs=1)
    ckpt = train.train_loop(net, batches, recipe, seed=0, max_steps=4)
    ft = train.FinetuneRecipe(scope="last-1", epochs=1, batch=8)
    scoped = net.scope_param_names(1)
    ema_before = {k: v.copy() for k, v in ckpt.ema.items()}
    out = train.finetune(net, ckpt, ft, batches)
    params = net.params()
    for name, arr in params.items():
        if name in scoped:
            assert not np.array_equal(arr, ema_before[name]), name
        else:
            assert np.array_equal(arr, ema_before[name]), name
    assert out.epoch == ckpt.epoch + 1


def test_train_loop_returns_with_no_cache_held():
    # Each backward releases the caches its forward kept, so no step's
    # caches outlive the loop.
    net, batches = tiny_setup(seed=19)
    train.train_loop(net, batches, train.TrainRecipe(global_batch=8), seed=0, max_steps=2)
    assert [p for p, layer in net.walk() if layer._cache is not None] == []


def test_finetune_frozen_prefix_keeps_no_cache():
    # The frozen prefix keeps none, and the scope's backward releases its
    # own, the classifier's included.
    net, batches = tiny_setup(seed=19)
    ckpt = train.train_loop(net, batches, train.TrainRecipe(global_batch=8), seed=0,
                            max_steps=1)
    train.finetune(net, ckpt, train.FinetuneRecipe(scope="last-1", batch=8), batches[:2])
    assert [p for p, layer in net.walk() if layer._cache is not None] == []


def test_finetune_starts_from_the_averaged_weights():
    net, batches = tiny_setup(seed=18)
    recipe = train.TrainRecipe(global_batch=8, epochs=2)
    ckpt = train.train_loop(net, batches, recipe, seed=0)
    # EMA of two epochs differs from the final weights; fine-tuning with an
    # off-scope probe must show the EMA values, not the last-step values.
    ft = train.FinetuneRecipe(scope="last-1", epochs=1, batch=8)
    train.finetune(net, ckpt, ft, batches)
    params = net.params()
    probe = "stem_conv/weight"
    assert np.array_equal(params[probe], ckpt.ema[probe])
    assert not np.array_equal(params[probe], ckpt.state[probe])


def test_finetune_refuses_an_average_that_lacks_a_parameter():
    # The load merges state and average; a parameter missing from the
    # average must not be fine-tuned from the raw weights instead.
    net, batches = tiny_setup(seed=18)
    ckpt = train.train_loop(net, batches, train.TrainRecipe(global_batch=8), seed=0,
                            max_steps=1)
    del ckpt.ema["stem_conv/weight"]
    ft = train.FinetuneRecipe(scope="last-1", epochs=1, batch=8)
    with pytest.raises(KeyError, match="stem_conv/weight"):
        train.finetune(net, ckpt, ft, batches)


def test_finetune_refuses_a_model_of_another_config():
    # ln and gn weights have the same names and shapes, so only the config
    # tells them apart; the fine-tune used to run and record gn.
    net, batches = tiny_setup(seed=18, norm=NormSpec("ln"))
    ckpt = train.train_loop(net, batches[:2], train.TrainRecipe(global_batch=8), seed=0)
    other = build_model(ModelConfig.tiny(norm=NormSpec("gn")), make_rng(0))
    before = {k: v.copy() for k, v in other.state().items()}
    with pytest.raises(ValueError, match="norm"):
        train.finetune(other, ckpt, train.FinetuneRecipe(batch=8), batches)
    for name, arr in other.state().items():
        assert np.array_equal(arr, before[name]), name


def test_finetune_result_shares_its_average_with_its_state(tmp_path):
    # One closing copy: a fine-tune keeps no average, so each ema entry is
    # the state's own array. The saved file holds that array once, under both
    # names, and reads it back as one array.
    net, batches = tiny_setup(seed=18)
    ckpt = train.train_loop(net, batches, train.TrainRecipe(global_batch=8), seed=0,
                            max_steps=1)
    result = train.finetune(net, ckpt, train.FinetuneRecipe(scope="last-1", batch=8), batches)
    params = net.params()
    assert set(result.ema) == set(params)
    for name in params:
        assert result.ema[name] is result.state[name], name
        assert result.state[name] is not params[name], name
    result.save(tmp_path / "ft.bin")
    data = (tmp_path / "ft.bin").read_bytes()
    index = json.loads(data[8 : 8 + int.from_bytes(data[:8], "little")])["tensors"]
    back = train.Checkpoint.load(tmp_path / "ft.bin")
    assert set(back.ema) == set(params)
    for name in params:
        assert index[f"ema/{name}"]["offset"] == index[f"state/{name}"]["offset"], name
        assert back.ema[name] is back.state[name], name
        np.testing.assert_array_equal(back.state[name], result.state[name])


# Three downsampling blocks, so that last-2 and last-3 begin inside the
# blocks; on tiny (one downsampling block) last-3 takes in the stem.
DEEP_TINY = dict(stages=(StageSpec(8, 1, 3, 1, 1), StageSpec(16, 1, 3, 2, 4),
                         StageSpec(16, 1, 3, 2, 4), StageSpec(24, 1, 3, 2, 4)))


def finetune_case(norm, config_over):
    """The config, a checkpoint two train steps in, and three batches of
    four 16x16 images."""
    cfg = ModelConfig.tiny(norm=NormSpec(norm), **config_over)
    x, y = blob_dataset(12, size=16, classes=cfg.num_classes, seed=20)
    batches = as_batches(x, y, 4)
    net = build_model(cfg, make_rng(20))
    ckpt = train.train_loop(net, batches, train.TrainRecipe(global_batch=4), seed=0, max_steps=2)
    return cfg, ckpt, batches


@pytest.mark.parametrize("last_k", [1, 2, 3])
@pytest.mark.parametrize("norm", ["ln", "gn", "bn"])
@pytest.mark.parametrize("config_over", [{}, DEEP_TINY], ids=["tiny", "deep"])
def test_finetune_matches_naive_loop_bit_for_bit(config_over, norm, last_k):
    cfg, ckpt, batches = finetune_case(norm, config_over)
    recipe = train.FinetuneRecipe(scope=f"last-{last_k}", epochs=2, batch=4)
    net = build_model(cfg, make_rng(1))
    got = train.finetune(net, ckpt, recipe, batches).state
    want = naive_finetune(build_model(cfg, make_rng(1)), ckpt, last_k, 2, recipe.initial_lr, batches)
    assert set(got) == set(want)
    params = set(net.params())
    for name in params:
        assert np.array_equal(got[name], want[name]), name
    buffers = set(got) - params
    assert bool(buffers) == (norm == "bn")
    if not buffers:
        return
    # Batch norm: running statistics inside the scope move every step as in
    # the naive loop; outside it they move once per distinct batch, as one
    # epoch of the naive loop moves them.
    one_epoch = naive_finetune(build_model(cfg, make_rng(1)), ckpt, last_k, 1,
                               recipe.initial_lr, batches)
    prefixes = tuple(net.scope_prefixes(last_k))
    frozen = {name for name in buffers if not name.startswith(prefixes)}
    assert bool(frozen) == (last_k < 3 or config_over is DEEP_TINY)
    for name in buffers - frozen:
        assert np.array_equal(got[name], want[name]), name
    for name in frozen:
        assert np.array_equal(got[name], one_epoch[name]), name
    if frozen:  # and the naive loop's second epoch would have moved them
        assert not all(np.array_equal(got[name], want[name]) for name in frozen)


class _Counted:
    """A batch that records its position each time it is unpacked."""

    def __init__(self, pulls, index, batch):
        self.pulls, self.index, self.batch = pulls, index, batch

    def __iter__(self):
        self.pulls.append(self.index)
        return iter(self.batch)


@pytest.mark.parametrize("loop", ["train_loop", "finetune"])
def test_loops_unpack_each_batch_once_per_step(loop, tmp_path):
    """perfbench's StepClock stamps a step where the loop unpacks its batch,
    so each step must unpack one batch, once."""
    cfg, ckpt, batches = finetune_case("ln", {})
    pulls = []
    data = [_Counted(pulls, i, batch) for i, batch in enumerate(batches)]
    net = build_model(cfg, make_rng(1))
    log = tmp_path / "log.csv"
    if loop == "train_loop":
        recipe = train.TrainRecipe(global_batch=4, epochs=3)
        train.train_loop(net, data, recipe, seed=0, max_steps=5, log_path=log)
        assert pulls == [0, 1, 2, 0, 1]
    else:
        recipe = train.FinetuneRecipe(scope="last-2", epochs=3, batch=4)
        train.finetune(net, ckpt, recipe, data, log_path=log)
        assert pulls == [0, 1, 2] * 3
    assert len(log.read_text().splitlines()) == 1 + len(pulls)


def test_finetune_rejects_empty_data_before_loading_the_model():
    cfg, ckpt, _ = finetune_case("ln", {})
    net = build_model(cfg, make_rng(1))
    before = {k: v.copy() for k, v in net.state().items()}
    with pytest.raises(ValueError, match="no fine-tuning batches"):
        train.finetune(net, ckpt, train.FinetuneRecipe(batch=4), [])
    for name, arr in net.state().items():
        assert np.array_equal(arr, before[name]), name


def test_finetune_stops_on_divergence(tmp_path):
    cfg, ckpt, batches = finetune_case("ln", {})
    recipe = train.FinetuneRecipe(scope="last-1", epochs=1, batch=4, initial_lr=1e200)
    log = tmp_path / "log.csv"
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="loss nan at step 1"):
        train.finetune(build_model(cfg, make_rng(1)), ckpt, recipe, batches, log_path=log)
    assert len(log.read_text().splitlines()) == 3  # header, then steps 0 and 1


def test_train_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A short CLI train writes the same checkpoint with 1 and 2 BLAS threads.
    At 16 px tiny's weight gradients take both GEMM layouts."""
    folds = {
        folds_batch_for_dw(ConvSpec(e.in_channels, e.out_channels, e.kernel, e.stride,
                                    e.group_size), e.out_size**2)
        for e in model_plan(ModelConfig.tiny(), 16) if isinstance(e, ConvDims)
    }
    assert folds == {True, False}
    src = str(Path(effkit.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "effkit.cli", "train", "--steps", "4", "--samples", "64",
             "--image-size", "16", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append((out / "checkpoint.bin").read_bytes())
    assert outputs[0] == outputs[1]


def test_package_root_names_the_workflow():
    """The root re-exports the train-and-fine-tune workflow, and only it;
    every other name is imported from its module."""
    public = {n for n, v in vars(effkit).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    homes = {"build_model": model, "ModelConfig": model, "NormSpec": norms,
             "make_rng": tensor, "TrainRecipe": train, "train_loop": train,
             "Checkpoint": checkpoint, "FinetuneRecipe": train, "finetune": train}
    assert public == set(homes)
    for name, module in homes.items():
        assert getattr(effkit, name) is getattr(module, name), name
    assert effkit.Checkpoint is checkpoint.Checkpoint is train.Checkpoint
