"""Architecture arithmetic, cost accounting, and the assembled network."""

import numpy as np
import pytest

from effkit import layers, model, resolution
from effkit.convs import ConvSpec
from effkit.norms import NormSpec
from effkit.tensor import make_rng
from effkit.verify import TABLE2, TABLE2_WIDE_GROUPS, fd_check, within_published

from oracles import conv_macs


# ---------------------------------------------------------------------------
# Width/depth scaling arithmetic
# ---------------------------------------------------------------------------


def test_round_channels():
    assert model.round_channels(32) == 32
    assert model.round_channels(32 * 1.1) == 32   # 35.2 rounds down to 32
    assert model.round_channels(32 * 1.2) == 40   # 38.4 rounds up
    assert model.round_channels(16 * 1.1) == 16   # 17.6 -> 16 (within 10%)
    assert model.round_channels(3) == 8           # floor at one divisor
    # never drops more than 10 percent
    for v in np.linspace(8, 400, 197):
        out = model.round_channels(float(v))
        assert out >= 0.9 * v
        assert out % 8 == 0


def test_round_repeats():
    assert model.round_repeats(1, 1.0) == 1
    assert model.round_repeats(2, 1.1) == 3
    assert model.round_repeats(3, 1.8) == 6
    assert model.round_repeats(4, 2.2) == 9


def test_native_resolution():
    assert model.native_resolution("b0") == 224
    assert model.native_resolution("b5") == 456
    with pytest.raises(ValueError):
        model.native_resolution("b9")


def test_efficientnet_config_validation():
    with pytest.raises(ValueError):
        model.ModelConfig.efficientnet("b7")
    with pytest.raises(ValueError):
        model.ModelConfig.efficientnet("b0", expansion=0)


@pytest.mark.parametrize("edit, key", [
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d["norm"].update(momentum=0.9), "momentum"),
    (lambda d: d["stages"][0].pop("kernel"), "kernel"),
    (lambda d: d.pop("stem_channels"), "stem_channels"),
], ids=["config", "norm", "stage", "missing"])
def test_config_from_dict_names_bad_keys(edit, key):
    raw = model.config_to_dict(model.ModelConfig.tiny())
    edit(raw)
    with pytest.raises(ValueError, match=key):
        model.config_from_dict(raw)


def test_config_from_dict_checks_recorded_constants():
    # Checkpoints record the fixed squeeze-excite ratio, quadrature order and
    # norm epsilon; they load at those values and are refused at any other.
    raw = model.config_to_dict(model.ModelConfig.tiny())
    assert (raw["se_ratio"], raw["quad_order"], raw["norm"]["epsilon"]) == (0.25, 30, 1e-3)
    assert model.config_from_dict(raw) == model.ModelConfig.tiny()
    for held, key, value in (("config", "se_ratio", 0.5), ("config", "quad_order", 20),
                             ("norm", "epsilon", 1e-5)):
        bad = model.config_to_dict(model.ModelConfig.tiny())
        (bad["norm"] if held == "norm" else bad)[key] = value
        with pytest.raises(ValueError, match=f"{key}={value!r}"):
            model.config_from_dict(bad)


def test_tiny_expansion_sets_expanding_stage():
    assert [s.expand for s in model.ModelConfig.tiny().stages] == [1, 4]
    assert [s.expand for s in model.ModelConfig.tiny(expansion=6).stages] == [1, 6]
    with pytest.raises(ValueError):
        model.ModelConfig.tiny(expansion=0)


def test_config_dict_round_trip():
    cfg = model.ModelConfig.efficientnet(
        "b2", group_size=16, expansion=4, norm=NormSpec("gn", groups=4), proxy=True
    )
    back = model.config_from_dict(model.config_to_dict(cfg))
    assert back == cfg


# ---------------------------------------------------------------------------
# Block plans
# ---------------------------------------------------------------------------


def test_block_dims_expansion_rule():
    for variant in ("b0", "b2", "b5"):
        for g, e in ((1, 6), (16, 4)):
            cfg = model.ModelConfig.efficientnet(variant, group_size=g, expansion=e)
            for d in model.block_dims(cfg):
                if d.expand == 1:
                    assert d.mid_channels == d.in_channels
                else:
                    assert d.mid_channels == model.round_channels(d.in_channels * d.expand)
                assert d.mid_channels % d.group_size == 0


def test_block_dims_downsample_count():
    # Four strided blocks plus the stem make five downsampling layers.
    for variant in model.VARIANTS:
        cfg = model.ModelConfig.efficientnet(variant)
        strided = [d for d in model.block_dims(cfg) if d.stride == 2]
        assert len(strided) == 4, variant


def test_block_dims_residual_flags():
    cfg = model.ModelConfig.efficientnet("b0")
    dims = model.block_dims(cfg)
    assert not dims[0].residual  # stem 32 -> 16 changes width
    # repeats after the first block of a stage keep shape and gain a shortcut
    for prev, d in zip(dims, dims[1:]):
        if d.stride == 1 and d.in_channels == d.out_channels:
            assert d.residual


def test_b0_depth():
    cfg = model.ModelConfig.efficientnet("b0")
    assert len(model.block_dims(cfg)) == 16
    cfg1 = model.ModelConfig.efficientnet("b1")
    assert len(model.block_dims(cfg1)) == 23


def test_b2_grouped_widths_narrower_than_dense_baseline():
    wide = model.block_dims(model.ModelConfig.efficientnet("b2", group_size=1, expansion=6))
    narrow = model.block_dims(model.ModelConfig.efficientnet("b2", group_size=16, expansion=4))
    assert len(wide) == len(narrow)
    for a, b in zip(wide, narrow):
        if a.expand != 1:
            assert b.mid_channels < a.mid_channels


# ---------------------------------------------------------------------------
# Cost accounting against the published table
# ---------------------------------------------------------------------------


def test_published_cost_rows():
    for (variant, g, e), (params_m, flops_b) in TABLE2.items():
        cfg = model.ModelConfig.efficientnet(variant, group_size=g, expansion=e)
        report = model.count_cost(cfg, model.native_resolution(variant))
        assert within_published(report.params / 1e6, params_m), (
            variant, g, report.params / 1e6, params_m)
        assert within_published(report.flops / 1e9, flops_b), (
            variant, g, report.flops / 1e9, flops_b)


@pytest.mark.xfail(
    strict=True,
    reason="published G=32/64 rows mix two incompatible rounding schemes; "
    "divisor-rounded group sizes cannot reproduce their FLOP values",
)
def test_published_wide_group_rows():
    for (variant, g, e), (params_m, flops_b) in TABLE2_WIDE_GROUPS.items():
        cfg = model.ModelConfig.efficientnet(variant, group_size=g, expansion=e)
        report = model.count_cost(cfg, model.native_resolution(variant))
        assert within_published(report.params / 1e6, params_m)
        assert within_published(report.flops / 1e9, flops_b)


def test_flops_scale_quadratically_with_resolution():
    cfg = model.ModelConfig.efficientnet("b0")
    lo = model.count_cost(cfg, 224)
    hi = model.count_cost(cfg, 448)
    assert lo.params == hi.params
    ratio = hi.flops / lo.flops
    assert 3.8 <= ratio <= 4.2


def test_b0_group_sweep_cost_ordering():
    # Params dip from G=1 to G=4 then grow; FLOPs grow throughout.
    sweep = [(1, 6), (4, 5), (16, 4), (32, 3), (64, 2)]
    costs = []
    for g, e in sweep:
        cfg = model.ModelConfig.efficientnet("b0", group_size=g, expansion=e)
        report = model.count_cost(cfg, 224)
        costs.append((report.params, report.flops))
    flops = [f for _, f in costs]
    assert flops == sorted(flops)
    assert all(a < b for a, b in zip(flops, flops[1:]))
    assert costs[1][0] < costs[0][0]  # G=4 trades params down
    assert costs[2][0] > costs[1][0]


@pytest.mark.xfail(
    strict=True,
    reason="divisor-rounded group sizes make the b2 G=64/E=2 plan cheaper "
    "than G=32/E=3, so the sweep is not monotone there",
)
def test_b2_group_sweep_flops_monotone():
    sweep = [(1, 6), (4, 5), (16, 4), (32, 3), (64, 2)]
    flops = []
    for g, e in sweep:
        cfg = model.ModelConfig.efficientnet("b2", group_size=g, expansion=e)
        flops.append(model.count_cost(cfg, 260).flops)
    assert all(a < b for a, b in zip(flops, flops[1:]))


def test_count_cost_matches_built_model_exactly():
    rng = make_rng(0)
    cfg = model.ModelConfig.tiny()
    net = model.build_model(cfg, rng)
    report = model.count_cost(cfg, 32)
    assert report.params == net.num_params()
    big = model.ModelConfig.efficientnet("b0", group_size=16, expansion=4)
    net_b0 = model.build_model(big, make_rng(1))
    report_b0 = model.count_cost(big, 224)
    assert report_b0.params == net_b0.num_params()


def _walk_dims(layer, prefix):
    """A built layer's dimensions in the form of its ``model_plan`` entry."""
    name = prefix.rstrip("/")
    if isinstance(layer, layers.Conv):
        s = layer.spec
        return model.ConvDims, (name, s.in_channels, s.out_channels, s.kernel, s.stride,
                                s.resolved_group_size)
    if isinstance(layer, layers.NormAct):
        return model.NormDims, (name, layer.gamma.size, layer.proxy)
    return model.DenseDims, (name, *layer.w.shape)


def _plan_dims(entry):
    if isinstance(entry, model.ConvDims):
        return (entry.name, entry.in_channels, entry.out_channels, entry.kernel, entry.stride,
                entry.group_size)
    if isinstance(entry, model.NormDims):
        return (entry.name, entry.channels, entry.proxy)
    return (entry.name, entry.in_features, entry.out_features)


@pytest.mark.parametrize("cfg, resolution", [
    (model.ModelConfig.tiny(), 32),
    (model.ModelConfig.efficientnet("b0", group_size=16, expansion=4, norm=NormSpec("ln"),
                                    proxy=True), 64),
    (model.ModelConfig.efficientnet("b0", group_size=1), 64),
], ids=["tiny", "b0-g16-ln-proxy", "b0-g1-bn"])
def test_walk_paths_match_model_plan(cfg, resolution):
    """The layer-tree paths are the join key between measured and analytic
    per-layer rows: every Conv/NormAct/Linear of the built model, in walk
    order, is the same-named ``model_plan`` entry with the same dimensions."""
    net = model.build_model(cfg, make_rng(0))
    walked = [_walk_dims(layer, prefix) for prefix, layer in net.walk()
              if isinstance(layer, (layers.Conv, layers.NormAct, layers.Linear))]
    planned = [(type(e), _plan_dims(e)) for e in model.model_plan(cfg, resolution)]
    assert walked == planned


def test_conv_flops_match_mac_oracle():
    cfg = model.ModelConfig.efficientnet("b0", group_size=16, expansion=4)
    for entry in model.model_plan(cfg, 224):
        if not isinstance(entry, model.ConvDims):
            continue
        spec = ConvSpec(
            entry.in_channels, entry.out_channels, entry.kernel,
            stride=entry.stride, group_size=entry.group_size,
        )
        pt, pb = spec.pad_amounts(entry.in_size)
        macs = conv_macs(
            (1, entry.in_channels, entry.in_size, entry.in_size),
            spec.weight_shape, entry.stride, (pt, pt, pb, pb),
        )
        assert model.entry_flops(entry) == macs, entry.name


def test_count_cost_rejects_tiny_resolutions():
    # The floor is the model's own: tiny has two stride-2 layers, b0 five.
    with pytest.raises(ValueError):
        model.count_cost(model.ModelConfig.tiny(), 3)
    with pytest.raises(ValueError):
        model.count_cost(model.ModelConfig.efficientnet("b0"), 31)
    assert model.count_cost(model.ModelConfig.tiny(), 4).rows


def test_min_resolution_of_every_variant_is_the_congruence_modulus():
    for variant in model.VARIANTS:
        cfg = model.ModelConfig.efficientnet(variant)
        assert model.min_resolution(cfg) == 2**resolution.N_DOWNSAMPLES, variant
    assert model.min_resolution(model.ModelConfig.tiny()) == 4


@pytest.mark.parametrize("cfg", [model.ModelConfig.tiny(), model.ModelConfig.efficientnet("b0")],
                         ids=["tiny", "b0"])
def test_forward_runs_at_the_floor_and_rejects_below(cfg):
    rng = make_rng(5)
    net = model.build_model(cfg, rng)
    floor = model.min_resolution(cfg)
    with pytest.raises(ValueError, match="minimum resolution"):
        net.forward(rng.normal(size=(1, 3, floor - 1, floor - 1)), train=False)
    logits = net.forward(rng.normal(size=(1, 3, floor, floor)), train=False)
    assert logits.shape == (1, cfg.num_classes)


def test_cost_report_formats():
    cfg = model.ModelConfig.tiny()
    report = model.count_cost(cfg, 32)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "layer,type,params,flops"
    assert len(lines) == len(report.rows) + 1
    assert "params=" in report.summary()
    assert "\r" not in csv


# ---------------------------------------------------------------------------
# Assembled network
# ---------------------------------------------------------------------------


def test_tiny_forward_shapes():
    rng = make_rng(2)
    net = model.build_model(model.ModelConfig.tiny(), rng)
    x = rng.normal(size=(2, 3, 32, 32))
    logits = net.forward(x, train=True)
    assert logits.shape == (2, 2)


def test_forward_input_validation():
    rng = make_rng(3)
    net = model.build_model(model.ModelConfig.tiny(), rng)
    with pytest.raises(ValueError):
        net.forward(rng.normal(size=(2, 4, 32, 32)))
    with pytest.raises(ValueError):
        net.forward(rng.normal(size=(2, 3, 2, 2)))


def test_tiny_end_to_end_gradient_check():
    rng = make_rng(4)
    cfg = model.ModelConfig.tiny(group_size=2, norm=NormSpec("gn", groups=2))
    net = model.build_model(cfg, rng)
    x = rng.normal(size=(2, 3, 32, 32))
    probe = rng.normal(size=(2, 2))

    def loss():
        return float((net.forward(x, train=True) * probe).sum())

    net.zero_grads()
    net.forward(x, train=True)
    dx = net.backward(probe)
    assert fd_check(loss, x, dx, rng, 20) <= 1e-5
    params = net.params()
    grads = net.grads()
    for name in (
        "stem_conv/weight",
        "blocks/1/spatial_conv/weight",
        "classifier/weight",
        "head_norm/gamma",
    ):
        assert fd_check(loss, params[name], grads[name], rng, 10) <= 1e-5, name


def test_tiny_ln_pn_batch_permutation_bit_exact():
    rng = make_rng(5)
    net = model.build_model(model.ModelConfig.tiny(), rng)
    x = rng.normal(size=(4, 3, 32, 32))
    base = net.forward(x, train=True)
    perm = np.array([2, 0, 3, 1])
    shuffled = net.forward(x[perm], train=True)
    assert np.array_equal(shuffled, base[perm])


def test_forward_only_passes_keep_no_cache():
    rng = make_rng(6)
    net = model.build_model(model.ModelConfig.tiny(), rng)
    x = rng.normal(size=(2, 3, 32, 32))
    net.forward(x, train=True)
    assert all(layer._cache is not None for layer in (net._children["stem_conv"],
                                                      net._children["classifier"]))
    net.forward(x, train=False)
    assert [p for p, layer in net.walk() if layer._cache is not None] == []
    # The frozen prefix of a fine-tune drops the caches of an earlier
    # training pass and leaves the scope's alone.
    net.forward(x, train=True)
    first = net.scope_start(1)
    net.forward(x, train=True, stop=first, grad=False)
    for i, name in enumerate(net._order):
        held = [p for p, layer in net._children[name].walk() if layer._cache is not None]
        if i < first:
            assert held == [], name
        else:
            assert held, name


def test_grad_false_moves_bn_running_stats_like_a_training_pass():
    cfg = model.ModelConfig.tiny(norm=NormSpec("bn"), proxy=False)
    kept = model.build_model(cfg, make_rng(7))
    dropped = model.build_model(cfg, make_rng(7))
    start = {k: v.copy() for k, v in kept.buffers().items()}
    rng = make_rng(8)
    for _ in range(2):
        x = rng.normal(size=(4, 3, 32, 32))
        np.testing.assert_array_equal(dropped.forward(x, train=True, grad=False),
                                      kept.forward(x, train=True))
    moved = dropped.buffers()
    assert any(name.endswith("running_var") for name in start)
    for name, arr in kept.buffers().items():
        assert not np.array_equal(arr, start[name]), name
        np.testing.assert_array_equal(moved[name], arr, err_msg=name)


def test_model_backward_after_an_eval_pass_raises():
    rng = make_rng(9)
    net = model.build_model(model.ModelConfig.tiny(), rng)
    x = rng.normal(size=(2, 3, 32, 32))
    y = net.forward(x, train=True)
    net.forward(x, train=False)
    net.zero_grads()
    with pytest.raises(RuntimeError, match="train=False or grad=False"):
        net.backward(np.ones_like(y))
    assert not any(g.any() for g in net.grads().values())


@pytest.mark.parametrize("size", ["tiny", "b0"])
def test_backward_without_input_grad_keeps_every_parameter_grad(size):
    rng = make_rng(10)
    if size == "tiny":
        cfg = model.ModelConfig.tiny()
    else:
        cfg = model.ModelConfig.efficientnet("b0", group_size=16, expansion=4,
                                             norm=NormSpec("ln"), proxy=True, num_classes=2)
    net = model.build_model(cfg, rng)
    x = rng.normal(size=(2, 3, 32, 32))
    dy = rng.normal(size=net.forward(x, train=True).shape)
    # Down to the image, to a residual block (the identity shortcut's add
    # is skipped), and to the last-1 fine-tune scope.
    residual = next(i for i, name in enumerate(net._order)
                    if name.startswith("blocks/") and net._children[name].dims.residual)
    for stop in (0, residual, net.scope_start(1)):
        net.forward(x, train=True)
        net.zero_grads()
        dx = net.backward(dy, stop=stop)
        assert dx is not None
        want = {k: v.copy() for k, v in net.grads().items()}
        net.forward(x, train=True)
        net.zero_grads()
        assert net.backward(dy, stop=stop, input_grad=False) is None
        for name, g in net.grads().items():
            np.testing.assert_array_equal(g, want[name], err_msg=f"stop {stop}: {name}")


def test_scope_prefixes_nest():
    rng = make_rng(6)
    net = model.build_model(model.ModelConfig.tiny(), rng)
    names = set(net.params())
    s1 = net.scope_param_names(1)
    s2 = net.scope_param_names(2)
    s3 = net.scope_param_names(3)
    assert s1 < s2 <= s3 <= names
    # the innermost scope is exactly head conv + head norm + classifier
    expected_prefixes = ("head_conv/", "head_norm/", "classifier/")
    assert s1 == {n for n in names if n.startswith(expected_prefixes)}
    assert s1
    # everything outside the widest scope: none here (tiny has one downsample,
    # so last-3 swallows the stem); the complement of last-2 holds the stem
    outside = names - s2
    assert any(n.startswith("stem_conv/") for n in outside)
    with pytest.raises(ValueError):
        net.scope_prefixes(0)


def test_scope_prefixes_on_deeper_model():
    rng = make_rng(7)
    cfg = model.ModelConfig.efficientnet("b0", num_classes=10)
    net = model.build_model(cfg, rng)
    s1 = net.scope_param_names(1)
    s2 = net.scope_param_names(2)
    s3 = net.scope_param_names(3)
    assert s1 < s2 < s3
    outside = set(net.params()) - s3
    assert any(n.startswith("stem_conv/") for n in outside)
    assert any(n.startswith("blocks/0/") for n in outside)
    # scope 2 reaches back exactly to the last downsampling block
    last_ds = net.downsample_blocks[-1]
    assert any(n.startswith(f"blocks/{last_ds}/") for n in s2)
    assert not any(n.startswith(f"blocks/{last_ds - 1}/") for n in s2)
