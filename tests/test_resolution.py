"""Congruence rule, parity profiles, and half-resolution selection."""

import pytest

from effkit import resolution, verify
from effkit.model import ModelConfig, model_plan, native_resolution
from effkit.tensor import make_rng

#: variant native -> published best test/fine-tune resolutions when trained
#: at the native size
BEST_TEST_RESOLUTIONS = {
    "b0": (224, (448, 480)),
    "b1": (240, (528,)),
    "b2": (260, (516, 548)),
    "b3": (300, (556, 588, 652)),
    "b4": (380, (572, 604, 668)),
    "b5": (456, (616, 648, 680)),
}


# ---------------------------------------------------------------------------
# Congruence
# ---------------------------------------------------------------------------


def test_congruent_published_examples():
    assert resolution.congruent(224, 480)
    assert resolution.congruent(224, 224)
    assert not resolution.congruent(192, 388)  # 196 is not divisible by 32


def test_congruent_validates_floor():
    with pytest.raises(ValueError):
        resolution.congruent(16, 224)
    with pytest.raises(ValueError):
        resolution.congruent(224, 31)


def test_congruent_is_an_equivalence_relation():
    rng = make_rng(0)
    rs = rng.integers(32, 705, size=(300, 3))
    for a, b, c in rs:
        a, b, c = int(a), int(b), int(c)
        assert resolution.congruent(a, a)
        assert resolution.congruent(a, b) == resolution.congruent(b, a)
        if resolution.congruent(a, b) and resolution.congruent(b, c):
            assert resolution.congruent(a, c)


def test_best_test_resolutions_are_congruent_with_native_training():
    for variant, (native, bests) in BEST_TEST_RESOLUTIONS.items():
        assert native == native_resolution(variant)
        for best in bests:
            assert resolution.congruent(native, best), (variant, best)


def test_half_trained_b2_best_resolutions_break_the_rule():
    # Known inconsistency in the published data: the half-resolution B2
    # run (trained at 192) reports best test resolutions 388 and 420, both
    # congruent to 4 mod 32 while 192 is congruent to 0. Recorded as-is.
    for best in (388, 420):
        assert not resolution.congruent(192, best)
        assert best % 32 == 4
    assert 192 % 32 == 0


# ---------------------------------------------------------------------------
# Parity profiles
# ---------------------------------------------------------------------------


def test_parity_profile_even_chain():
    assert resolution.parity_profile(224) == ["even"] * 5


def test_parity_profile_odd_tail():
    # 260 -> 130 -> 65 -> 33 -> 17
    assert resolution.parity_profile(260) == ["even", "even", "odd", "odd", "odd"]


def test_parity_profile_validation():
    with pytest.raises(ValueError):
        resolution.parity_profile(31)


def test_parity_profile_matches_an_actual_layer_plan():
    cfg = ModelConfig.efficientnet("b0")
    for r in (224, 260, 300):
        from_plan = resolution.plan_parity_profile(model_plan(cfg, r))
        assert from_plan == resolution.parity_profile(r)


def test_congruent_resolutions_share_parity_profiles_exhaustively():
    profiles = {}
    for r in range(32, 705):
        profiles.setdefault(r % 32, set()).add(tuple(resolution.parity_profile(r)))
    for residue, seen in profiles.items():
        assert len(seen) == 1, f"residue {residue} produced {len(seen)} profiles"


# ---------------------------------------------------------------------------
# Valid test grids
# ---------------------------------------------------------------------------


def test_valid_test_resolutions_progression():
    assert resolution.valid_test_resolutions(224, max_r=320) == [224, 256, 288, 320]


def test_valid_test_resolutions_contains_train_and_published_bests():
    for variant, (native, bests) in BEST_TEST_RESOLUTIONS.items():
        grid = resolution.valid_test_resolutions(native)
        assert grid[0] == native
        for best in bests:
            assert best in grid, (variant, best)


def test_valid_test_resolutions_validation():
    with pytest.raises(ValueError):
        resolution.valid_test_resolutions(16)
    with pytest.raises(ValueError):
        resolution.valid_test_resolutions(224, max_r=200)


# ---------------------------------------------------------------------------
# Half resolution
# ---------------------------------------------------------------------------


def test_half_resolution_canonical_values():
    assert resolution.half_resolution(224) == 160
    assert resolution.half_resolution(240) == 176
    assert resolution.half_resolution(260) == 192
    assert resolution.half_resolution(300) == 204
    assert resolution.half_resolution(380) == 252
    assert resolution.half_resolution(456) == 328


def test_verify_half_resolution_suite_fails_on_a_wrong_table_entry(monkeypatch):
    assert verify.suite_table1()[0]
    monkeypatch.setitem(resolution.HALF_RESOLUTIONS, 260, 196)
    passed, detail = verify.suite_table1()
    assert not passed
    assert detail == "half_resolution(260) = 196, expected 192"


def test_half_resolution_pixel_ratio_examples():
    assert 160**2 / 224**2 == pytest.approx(0.510, abs=5e-4)
    assert 328**2 / 456**2 == pytest.approx(0.517, abs=5e-4)


def test_half_resolution_canonical_overrides_differ_from_heuristic():
    # 260 and 380 are table-driven: the nearest-half-pixels rule would give
    # 196 and 284, and 192 is not even in 260's congruence class.
    assert not resolution.congruent(260, resolution.half_resolution(260))
    heuristic_260 = min(
        range(36, 261, 32), key=lambda r: abs(r * r - 260 * 260 / 2)
    )
    assert heuristic_260 == 196
    assert resolution.half_resolution(380) == 252  # heuristic alone picks 284
    heuristic_380 = min(
        range(28, 381, 32), key=lambda r: abs(r * r - 380 * 380 / 2)
    )
    assert heuristic_380 == 284


def test_half_resolution_heuristic_for_other_sizes():
    assert resolution.half_resolution(352) == 256
    # exact tie between 96 and 128 for native 160; smaller wins
    assert resolution.half_resolution(160) == 96
    assert resolution.half_resolution(448) == 320


def test_half_resolution_stays_congruent_off_table():
    for native in (96, 180, 352, 500, 704):
        half = resolution.half_resolution(native)
        assert half >= 32
        assert (native - half) % 32 == 0


def test_half_resolution_validation():
    with pytest.raises(ValueError):
        resolution.half_resolution(63)


@pytest.mark.xfail(
    strict=True,
    reason="the congruence class is too sparse near native 160: e.g. "
    "144 -> 112 (ratio 0.605) and 160 -> 96 (ratio 0.36) fall outside "
    "[0.40, 0.60]; all natives from 176 up satisfy the band",
)
def test_half_resolution_ratio_band_over_full_range():
    for native in range(96, 705):
        half = resolution.half_resolution(native)
        ratio = half * half / (native * native)
        assert 0.40 <= ratio <= 0.60, (native, half, ratio)


def test_half_resolution_ratio_band_from_176_up():
    for native in range(176, 705):
        half = resolution.half_resolution(native)
        ratio = half * half / (native * native)
        assert 0.40 <= ratio <= 0.60, (native, half, ratio)
