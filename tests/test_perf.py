"""Arithmetic-intensity model and roofline classification."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from effkit import perf
from effkit.model import ModelConfig
from effkit.tensor import make_rng


def test_intensity_symmetric_case():
    # G k^2 == B f^2 == a at stride 1 gives I = a/2.
    assert perf.intensity(1, 2, 1, 2, 1) == pytest.approx(2.0, abs=1e-12)
    assert perf.intensity(9, 2, 4, 3, 1) == pytest.approx(18.0, abs=1e-12)


def test_intensity_hand_evaluated_case():
    # G=16, k=3, B=1, f=7, s=1: (16*9*49) / (16*9 + 49) = 7056/193
    got = perf.intensity(16, 3, 1, 7, 1)
    want = Fraction(7056, 193)
    assert abs(got - float(want)) <= 1e-9


def test_monotonicity_directions_single_steps():
    factors = {"G": 4, "k": 3, "B": 2, "f": 9, "s": 2, "N": 2}
    for field in ("G", "k", "B", "f"):
        before, after = perf.monotonicity_check(factors, field)
        assert after > before
    before, after = perf.monotonicity_check(factors, "s")
    assert after < before
    before, after = perf.monotonicity_check(factors, "N")
    assert after == before
    with pytest.raises(ValueError):
        perf.monotonicity_check(factors, "Q")


def test_monotonicity_randomized_grid():
    # Ten thousand random workloads, all six directional claims, under the
    # stated time budget.
    rng = make_rng(0)
    start = time.time()
    for _ in range(10_000):
        g = int(rng.integers(1, 65))
        k = int(rng.integers(1, 8))
        b = int(rng.integers(1, 65))
        f = int(rng.integers(1, 129))
        s = int(rng.integers(1, 4))
        base = perf.intensity(g, k, b, f, s)
        assert perf.intensity(g + 1, k, b, f, s) > base
        assert perf.intensity(g, k + 1, b, f, s) > base
        assert perf.intensity(g, k, b + 1, f, s) > base
        assert perf.intensity(g, k, b, f + 1, s) > base
        assert perf.intensity(g, k, b, f, s + 1) < base
        # harmonic-style upper bound by either term
        assert base <= min(g * k * k, b * f * f) / s + 1e-12
    assert time.time() - start < 5.0


def test_intensity_rejects_nonpositive_factors():
    with pytest.raises(ValueError):
        perf.intensity(0, 3, 1, 7, 1)


# ---------------------------------------------------------------------------
# Hardware profiles
# ---------------------------------------------------------------------------


def test_hardware_profile_ridge():
    hw = perf.HardwareProfile(peak_flops=250e12, mem_bandwidth=900e9, bytes_per_element=2)
    assert hw.ridge_elements == pytest.approx(250e12 * 2 / 900e9, rel=1e-12)


def test_hardware_profile_validation():
    with pytest.raises(ValueError):
        perf.HardwareProfile(peak_flops=0, mem_bandwidth=1e9, bytes_per_element=2)
    with pytest.raises(ValueError):
        perf.HardwareProfile(peak_flops=1e12, mem_bandwidth=1e9, bytes_per_element=3)


def test_hardware_profile_json_round_trip(tmp_path):
    path = tmp_path / "hw.json"
    path.write_text(json.dumps(
        {"peak_flops": 1.0e14, "mem_bandwidth": 5.0e11, "bytes_per_element": 4}
    ))
    hw = perf.HardwareProfile.from_json(path)
    assert hw.peak_flops == 1.0e14
    assert hw.bytes_per_element == 4


def test_hardware_profile_rejects_unknown_and_missing_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"peak_flops": 1e12, "mem_bandwidth": 1e9, "bytes_per_element": 2, "cores": 8}
    ))
    with pytest.raises(ValueError, match="unknown"):
        perf.HardwareProfile.from_json(bad)
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"peak_flops": 1e12}))
    with pytest.raises(ValueError, match="missing"):
        perf.HardwareProfile.from_json(short)


# ---------------------------------------------------------------------------
# Roofline reports
# ---------------------------------------------------------------------------


def _tiny_report(batch=8):
    cfg = ModelConfig.tiny()
    hw = perf.HardwareProfile(peak_flops=250e12, mem_bandwidth=900e9, bytes_per_element=2)
    return perf.roofline(cfg, hw, batch=batch, resolution=32)


def test_roofline_row_count_matches_plan_convolutions():
    from effkit.model import ConvDims, model_plan

    cfg = ModelConfig.tiny()
    convs = [e for e in model_plan(cfg, 32) if isinstance(e, ConvDims)]
    report = _tiny_report()
    assert len(report.rows) == len(convs)
    assert [r.layer for r in report.rows] == [e.name for e in convs]


def test_roofline_depthwise_below_grouped():
    # Same-shape spatial conv: G=1 intensity sits below G=16.
    hw = perf.HardwareProfile(peak_flops=250e12, mem_bandwidth=900e9, bytes_per_element=2)
    cfg1 = ModelConfig.efficientnet("b0", group_size=1, expansion=6)
    cfg16 = ModelConfig.efficientnet("b0", group_size=16, expansion=4)
    r1 = {r.layer: r for r in perf.roofline(cfg1, hw, 1, 224).rows}
    r16 = {r.layer: r for r in perf.roofline(cfg16, hw, 1, 224).rows}
    shared = [name for name in r1 if "spatial_conv" in name and name in r16]
    assert shared
    for name in shared:
        assert r1[name].G == 1
        assert r1[name].intensity < r16[name].intensity


def test_roofline_bound_classification():
    report = _tiny_report()
    for row in report.rows:
        assert row.bound == ("compute" if row.intensity >= report.ridge else "memory")
    # a tiny model at small batch on a fat accelerator is memory bound everywhere
    assert all(r.bound == "memory" for r in report.rows)
    slow = perf.HardwareProfile(peak_flops=1e9, mem_bandwidth=900e9, bytes_per_element=2)
    report_slow = perf.roofline(ModelConfig.tiny(), slow, batch=8, resolution=32)
    assert all(r.bound == "compute" for r in report_slow.rows)


def test_roofline_csv_deterministic_and_well_formed():
    a = _tiny_report().to_csv()
    b = _tiny_report().to_csv()
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == "layer,G,N,k,s,f,B,flops,elements,intensity,bound"
    assert len(lines) == len(_tiny_report().rows) + 1
    assert "\r" not in a
    for line in lines[1:]:
        assert len(line.split(",")) == 11


def test_roofline_intensity_from_flops_over_elements():
    # Row-level consistency: intensity equals flops / (elements * s) ... the
    # flops column amortizes stride already, so intensity == flops/elements.
    for row in _tiny_report().rows:
        assert row.intensity == pytest.approx(row.flops / row.elements, rel=1e-12)


def test_roofline_batch_validation():
    cfg = ModelConfig.tiny()
    hw = perf.HardwareProfile(peak_flops=1e12, mem_bandwidth=1e9, bytes_per_element=2)
    with pytest.raises(ValueError):
        perf.roofline(cfg, hw, batch=0, resolution=32)
