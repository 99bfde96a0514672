"""CLI tests: exit codes, option precedence, artifacts, output text.

Everything runs in process through main(argv) so coverage tools see it and
no subprocess overhead is paid.
"""

import hashlib
import json

import numpy as np
import pytest

from effkit.cli import main
from effkit.model import ModelConfig, count_cost
from effkit.norms import NormSpec
from effkit.train import Checkpoint

from test_checkpoint import with_index, with_index_entry


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_config(out_dir):
    return json.loads((out_dir / "config.json").read_text())


# ---------------------------------------------------------------- count

def test_count_defaults(tmp_path, capsys):
    out = tmp_path / "run"
    rc, stdout, _ = run(["count", "--out", str(out)], capsys)
    assert rc == 0
    report = count_cost(ModelConfig.efficientnet("b0"), 224)
    assert f"params={report.params}" in stdout
    assert f"flops={report.flops}" in stdout
    csv = (out / "cost.csv").read_text()
    assert csv.splitlines()[0] == "layer,type,params,flops"
    # every plan entry contributes one row
    assert len(csv.splitlines()) == 1 + len(report.rows)


def test_count_records_effective_config(tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, _ = run(
        ["count", "--size", "b2", "--group-size", "16", "--expansion", "4",
         "--out", str(out)],
        capsys,
    )
    assert rc == 0
    cfg = read_config(out)
    assert cfg["subcommand"] == "count"
    assert cfg["size"] == "b2"
    assert cfg["group_size"] == 16
    assert cfg["expansion"] == 4
    # untouched keys fall back to defaults
    assert cfg["classes"] == 1000
    assert "seed" not in cfg  # count draws nothing at random


def test_count_tiny_honours_expansion(tmp_path, capsys):
    for e in (4, 6):
        rc, stdout, _ = run(
            ["count", "--size", "tiny", "--expansion", str(e), "--out", str(tmp_path / str(e))],
            capsys,
        )
        assert rc == 0
        report = count_cost(ModelConfig.tiny(expansion=e, num_classes=1000, group_size=1,
                                             norm=NormSpec("bn"), proxy=False), 32)
        assert f"params={report.params} " in stdout


@pytest.mark.parametrize("classes", ["0", "-1"])
def test_count_rejects_nonpositive_classes(classes, tmp_path, capsys):
    rc, stdout, stderr = run(["count", "--classes", classes, "--out", str(tmp_path)], capsys)
    assert rc == 2
    assert "num_classes" in stderr
    assert "params=" not in stdout


def test_count_bad_size_exits_2(tmp_path, capsys):
    rc, _, stderr = run(
        ["count", "--size", "b9", "--out", str(tmp_path / "x")], capsys
    )
    assert rc == 2
    assert "unknown size" in stderr


# ------------------------------------------------- global flag position

def test_global_flags_accepted_in_both_positions(tmp_path, capsys):
    before = tmp_path / "before"
    after = tmp_path / "after"
    rc1, _, _ = run(["--out", str(before), "count"], capsys)
    rc2, _, _ = run(["count", "--out", str(after)], capsys)
    assert rc1 == rc2 == 0
    cfg1, cfg2 = read_config(before), read_config(after)
    assert (cfg1["out"], cfg2["out"]) == (str(before), str(after))
    cfg1["out"] = cfg2["out"] = "-"
    assert cfg1 == cfg2
    # --seed is train's and finetune's own option, not a global flag.
    rc, _, _ = run(["train", "--seed", "7", "--steps", "1", "--samples", "16",
                    "--out", str(tmp_path / "train")], capsys)
    assert rc == 0
    assert read_config(tmp_path / "train")["seed"] == 7
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "train", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("sub", ["count", "roofline", "resolution", "verify"])
def test_seed_only_where_it_acts(sub, tmp_path, capsys):
    # None of these draws anything at random: --seed used to be accepted and
    # recorded without effect, so the flag and a config key are rejected.
    with pytest.raises(SystemExit) as exc:
        main([sub, "--seed", "5", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    config_path = tmp_path / "old.json"
    config_path.write_text(json.dumps({"subcommand": sub, "seed": 0}))
    rc, _, stderr = run([sub, "--config", str(config_path), "--out", str(tmp_path / "x")],
                        capsys)
    assert rc == 2
    assert "unknown config keys: ['seed']" in stderr
    assert not (tmp_path / "x").exists()


# ------------------------------------------------------ option resolve

def test_flag_beats_config_beats_default(tmp_path, capsys):
    config_path = tmp_path / "opts.json"
    config_path.write_text(json.dumps({"size": "b1", "group_size": 16}))
    out = tmp_path / "run"
    rc, _, _ = run(
        ["count", "--config", str(config_path), "--size", "b2", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    cfg = read_config(out)
    assert cfg["size"] == "b2"          # flag wins
    assert cfg["group_size"] == 16      # file beats default
    assert cfg["expansion"] == 6        # default survives


def test_config_seed_and_out_lose_to_flags_in_either_position(tmp_path, capsys):
    # The subcommands share one --out action; a file's value must not turn
    # it into a default that beats a flag given before them.
    config_path = tmp_path / "opts.json"
    config_path.write_text(json.dumps({"out": str(tmp_path / "file_out"), "size": "b1"}))
    for argv in (["--out", str(tmp_path / "before"), "count"],
                 ["count", "--out", str(tmp_path / "after")]):
        rc, _, _ = run([*argv, "--config", str(config_path)], capsys)
        assert rc == 0
    for name in ("before", "after"):
        assert read_config(tmp_path / name)["size"] == "b1"
    rc, _, _ = run(["count", "--config", str(config_path)], capsys)
    assert rc == 0
    assert read_config(tmp_path / "file_out")["size"] == "b1"
    # train's --seed beats the file's seed, which beats the default.
    config_path.write_text(json.dumps({"seed": 3, "steps": 1, "samples": 16}))
    for name, flags in (("flag", ["--seed", "7"]), ("file", [])):
        rc, _, _ = run(["train", *flags, "--config", str(config_path),
                        "--out", str(tmp_path / name)], capsys)
        assert rc == 0
    assert read_config(tmp_path / "flag")["seed"] == 7
    assert read_config(tmp_path / "file")["seed"] == 3


def test_written_config_reproduces_run(tmp_path, capsys):
    first = tmp_path / "first"
    rc, _, _ = run(
        ["count", "--size", "b3", "--group-size", "4", "--expansion", "5",
         "--proxy", "--out", str(first)],
        capsys,
    )
    assert rc == 0
    second = tmp_path / "second"
    rc, _, _ = run(
        ["count", "--config", str(first / "config.json"), "--out", str(second)],
        capsys,
    )
    assert rc == 0
    cfg1, cfg2 = read_config(first), read_config(second)
    cfg1.pop("out"), cfg2.pop("out")
    assert cfg1 == cfg2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config_path = tmp_path / "opts.json"
    config_path.write_text(json.dumps({"size": "b0", "bogus": 1}))
    rc, _, stderr = run(
        ["count", "--config", str(config_path), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 2
    assert "unknown config keys" in stderr
    assert "bogus" in stderr


def test_config_with_retired_precision_key_exits_2(tmp_path, capsys):
    # config.json files written before --precision was removed carry the key.
    old = tmp_path / "old"
    rc, _, _ = run(["train", "--steps", "1", "--samples", "16", "--out", str(old)], capsys)
    assert rc == 0
    config = read_config(old)
    config["precision"] = "f64"
    (old / "config.json").write_text(json.dumps(config))
    out = tmp_path / "again"
    rc, _, stderr = run(["train", "--config", str(old / "config.json"), "--out", str(out)], capsys)
    assert rc == 2
    assert "unknown config keys: ['precision']" in stderr
    assert not (out / "checkpoint.bin").exists()
    with pytest.raises(SystemExit) as exc:
        main(["--precision", "f32", "count"])
    assert exc.value.code == 2


def test_train_has_no_resolution_option(tmp_path, capsys):
    # train sizes its images with --image-size; --resolution used to be
    # accepted and recorded there without effect.
    with pytest.raises(SystemExit) as exc:
        main(["train", "--resolution", "999", "--steps", "2", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()
    old = tmp_path / "old"
    rc, _, _ = run(["train", "--steps", "1", "--samples", "16", "--out", str(old)], capsys)
    assert rc == 0
    config = read_config(old)
    assert "resolution" not in config
    config["resolution"] = 999
    (old / "config.json").write_text(json.dumps(config))
    out = tmp_path / "again"
    rc, _, stderr = run(["train", "--config", str(old / "config.json"), "--out", str(out)], capsys)
    assert rc == 2
    assert "unknown config keys: ['resolution']" in stderr
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize(
    "sub, keys", [("count", ["gn_groups", "norm"]), ("roofline", ["classes", "proxy"])]
)
def test_report_config_with_removed_model_key_exits_2(sub, keys, tmp_path, capsys):
    # count and roofline config.json files from older versions carry the
    # model keys that never changed their reports.
    config_path = tmp_path / "old.json"
    config_path.write_text(json.dumps({"subcommand": sub, "size": "b0",
                                       **{k: 1 for k in keys}}))
    rc, _, stderr = run([sub, "--config", str(config_path), "--out", str(tmp_path / "x")], capsys)
    assert rc == 2
    assert f"unknown config keys: {keys}" in stderr


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc, _, stderr = run(
        ["count", "--config", str(tmp_path / "absent.json"),
         "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 2
    assert stderr.startswith("error:")


def test_config_list_rejected(tmp_path, capsys):
    config_path = tmp_path / "opts.json"
    config_path.write_text("[1, 2]")
    rc, _, stderr = run(
        ["count", "--config", str(config_path), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 2
    assert "JSON object" in stderr


@pytest.mark.parametrize("sub, config", [
    ("train", {"subcommand": "count", "seed": 3, "samples": 16, "steps": 1}),
    ("count", {"subcommand": 5}),
])
def test_config_for_another_subcommand_exits_2(sub, config, tmp_path, capsys):
    config_path = tmp_path / "opts.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "x"
    rc, _, stderr = run([sub, "--config", str(config_path), "--out", str(out)], capsys)
    assert rc == 2
    assert stderr.startswith("error:") and "subcommand" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


TRAIN_STEP = ["--samples", "32", "--steps", "1"]


@pytest.mark.parametrize("sub, key, value", [
    ("train", "proxy", "false"),  # was bool("false"), proxy on
    ("train", "batch", 8.5),  # these three were TypeError tracebacks
    ("train", "epochs", 1.0),
    ("train", "seed", 1.5),
    ("train", "steps", True),  # was one step
    ("train", "norm", "xx"),
    ("train", "out", None),
    ("resolution", "check", [224, "256"]),
])
def test_config_value_of_another_type_than_its_flag_exits_2(sub, key, value, tmp_path, capsys):
    config_path = tmp_path / "opts.json"
    config_path.write_text(json.dumps({key: value}))
    out = tmp_path / "x"
    flags = TRAIN_STEP if sub == "train" else []
    rc, _, stderr = run([sub, "--config", str(config_path), *flags, "--out", str(out)], capsys)
    assert rc == 2
    assert stderr.startswith("error:") and repr(key) in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


def test_config_value_may_be_an_int_for_a_float_flag(tmp_path, capsys):
    config_path = tmp_path / "opts.json"
    config_path.write_text(json.dumps({"lr": 1, "proxy": False, "steps": None}))
    rc, _, _ = run(["train", "--config", str(config_path), *TRAIN_STEP,
                    "--out", str(tmp_path / "x")], capsys)
    assert rc == 0
    cfg = read_config(tmp_path / "x")
    assert (cfg["lr"], cfg["proxy"], cfg["steps"]) == (1, False, 1)


def test_bad_flag_value_raises_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--norm", "bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_raises_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -------------------------------------------------------------- roofline

PROFILE = {"peak_flops": 250e12, "mem_bandwidth": 900e9, "bytes_per_element": 2}


def test_roofline_requires_profile(tmp_path, capsys):
    rc, _, stderr = run(["roofline", "--out", str(tmp_path / "x")], capsys)
    assert rc == 2
    assert "--profile" in stderr


def test_roofline_report(tmp_path, capsys):
    profile_path = tmp_path / "hw.json"
    profile_path.write_text(json.dumps(PROFILE))
    out = tmp_path / "run"
    rc, stdout, _ = run(
        ["roofline", "--profile", str(profile_path), "--out", str(out)], capsys
    )
    assert rc == 0
    assert "ridge" in stdout
    lines = (out / "roofline.csv").read_text().splitlines()
    assert lines[0] == "layer,G,N,k,s,f,B,flops,elements,intensity,bound"
    assert len(lines) > 1
    for line in lines[1:]:
        assert line.split(",")[-1] in ("memory", "compute")


def test_roofline_bad_profile_exits_2(tmp_path, capsys):
    profile_path = tmp_path / "hw.json"
    profile_path.write_text(json.dumps({**PROFILE, "cores": 4}))
    rc, _, stderr = run(
        ["roofline", "--profile", str(profile_path), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 2
    assert "unknown hardware profile keys" in stderr


@pytest.mark.parametrize(
    "profile,message",
    [(5, "JSON object"), ({**PROFILE, "peak_flops": None}, "must be numbers")],
    ids=["not-an-object", "null-value"],
)
def test_roofline_malformed_profile_exits_2(tmp_path, capsys, profile, message):
    profile_path = tmp_path / "hw.json"
    profile_path.write_text(json.dumps(profile))
    rc, _, stderr = run(
        ["roofline", "--profile", str(profile_path), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 2
    assert message in stderr


@pytest.mark.parametrize(
    "field,value,message",
    [("bytes_per_element", "1e400", "must be finite"),
     ("peak_flops", "NaN", "must be positive and finite"),
     ("bytes_per_element", "2.7", "must be an integer")],
    ids=["infinite-bytes", "nan-flops", "fractional-bytes"],
)
def test_roofline_non_finite_or_fractional_profile_exits_2(tmp_path, capsys, field, value,
                                                           message):
    # Written as text: 1e400 parses to inf and NaN to nan, which
    # json.dumps would not spell this way. main returns 2 only for an error
    # it caught and reported in one line, so no traceback reaches the user.
    profile = {**PROFILE, field: "@"}
    profile_path = tmp_path / "hw.json"
    profile_path.write_text(json.dumps(profile).replace('"@"', value))
    rc, _, stderr = run(
        ["roofline", "--profile", str(profile_path), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert rc == 2
    assert message in stderr


def test_report_resolution_floor_follows_the_model(tmp_path, capsys):
    # tiny has two stride-2 layers, so 16 px is above its floor of 4; b0 has
    # five, and its forward pass rejects 8 px, so its reports do too.
    rc, stdout, _ = run(["count", "--size", "tiny", "--resolution", "16",
                         "--out", str(tmp_path / "tiny")], capsys)
    assert rc == 0
    assert "at resolution 16" in stdout
    profile = tmp_path / "hw.json"
    profile.write_text(json.dumps(PROFILE))
    out = tmp_path / "b0"
    rc, _, stderr = run(["roofline", "--size", "b0", "--resolution", "8", "--profile",
                         str(profile), "--out", str(out)], capsys)
    assert rc == 2
    assert "below the model's minimum 32" in stderr
    assert not (out / "roofline.csv").exists()


def test_report_csv_bytes_are_pinned(tmp_path, capsys):
    # b0 G=16 E=4 @224; roofline at batch 8 on the README's profile.
    profile = tmp_path / "hw.json"
    profile.write_text(json.dumps(PROFILE))
    model = ["--size", "b0", "--group-size", "16", "--expansion", "4", "--resolution", "224"]
    digests = {}
    for sub, extra, csv in [("count", [], "cost.csv"),
                            ("roofline", ["--batch", "8", "--profile", str(profile)],
                             "roofline.csv")]:
        out = tmp_path / sub
        rc, _, _ = run([sub, *model, *extra, "--out", str(out)], capsys)
        assert rc == 0
        digests[csv] = hashlib.sha256((out / csv).read_bytes()).hexdigest()
    assert digests == {
        "cost.csv": "b3015aac2d9818250590d4379d1355e582a571bb76493ca4a097adae00c71fbc",
        "roofline.csv": "df7eccafa9b23e6b99cebd5f36408d1c8c43e180f94f27f01c28680629a3c8c7",
    }


# --------------------------------------------- every report flag acts

@pytest.mark.parametrize("sub", ["count", "roofline"])
def test_every_report_flag_changes_the_report(sub, tmp_path, capsys):
    # Each option of count and roofline is listed here and must change the
    # CSV it writes; an option that does nothing fails the first assert.
    fast, slow = tmp_path / "fast.json", tmp_path / "slow.json"
    fast.write_text(json.dumps(PROFILE))
    slow.write_text(json.dumps({**PROFILE, "peak_flops": 1e9}))
    changes = {
        "size": ["--size", "b1"],
        "group_size": ["--group-size", "16"],
        "expansion": ["--expansion", "4"],
        "resolution": ["--resolution", "256"],
    }
    if sub == "count":
        base, csv = [], "cost.csv"
        changes.update(proxy=["--proxy"], classes=["--classes", "10"])
    else:
        base, csv = ["--profile", str(fast)], "roofline.csv"
        changes.update(batch=["--batch", "2"], profile=["--profile", str(slow)])

    def report(name, flags):
        out = tmp_path / name
        rc, _, _ = run([sub, *base, *flags, "--out", str(out)], capsys)
        assert rc == 0
        return read_config(out), (out / csv).read_text()

    config, default = report("default", [])
    assert set(config) - {"subcommand", "out"} == set(changes)
    for key, flags in changes.items():
        assert report(key, flags)[1] != default, key


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--norm", "ln"],
        ["count", "--gn-groups", "2"],
        ["roofline", "--norm", "ln"],
        ["roofline", "--gn-groups", "2"],
        ["roofline", "--proxy"],
        ["roofline", "--classes", "10"],
    ],
)
def test_report_flags_without_effect_are_gone(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


# ------------------------------------------------------------ resolution

def test_resolution_requires_an_action(tmp_path, capsys):
    rc, _, stderr = run(["resolution", "--out", str(tmp_path / "x")], capsys)
    assert rc == 2
    assert "--train" in stderr


def test_resolution_check(tmp_path, capsys):
    rc, stdout, _ = run(
        ["resolution", "--check", "224", "448", "--out", str(tmp_path / "a")],
        capsys,
    )
    assert rc == 0
    assert "congruent(224, 448) = True" in stdout
    rc, stdout, _ = run(
        ["resolution", "--check", "192", "388", "--out", str(tmp_path / "b")],
        capsys,
    )
    assert rc == 0
    assert "congruent(192, 388) = False" in stdout


def test_resolution_half_and_parity(tmp_path, capsys):
    rc, stdout, _ = run(
        ["resolution", "--half", "260", "--parity", "224",
         "--out", str(tmp_path / "run")],
        capsys,
    )
    assert rc == 0
    assert "half_resolution(260) = 192" in stdout
    assert "parity_profile(224) = even even even even even" in stdout


def test_resolution_listing_csv(tmp_path, capsys):
    out = tmp_path / "run"
    rc, stdout, _ = run(
        ["resolution", "--train", "224", "--csv", "--out", str(out)], capsys
    )
    assert rc == 0
    assert "valid test resolutions for 224" in stdout
    lines = (out / "resolution.csv").read_text().splitlines()
    assert lines[0] == "resolution"
    values = [int(v) for v in lines[1:]]
    assert values[0] == 224
    assert 448 in values
    assert values == sorted(values)


def test_resolution_csv_needs_train(tmp_path, capsys):
    # --csv writes the --train listing; without --train it wrote nothing.
    out = tmp_path / "run"
    rc, stdout, stderr = run(["resolution", "--half", "224", "--csv", "--out", str(out)], capsys)
    assert rc == 2
    assert "--train" in stderr
    assert "half_resolution" not in stdout
    assert not out.exists()


def test_resolution_max_needs_train(tmp_path, capsys):
    # --max bounds the --train listing; without --train it changed nothing.
    out = tmp_path / "run"
    rc, stdout, stderr = run(["resolution", "--half", "224", "--max", "300", "--out", str(out)],
                             capsys)
    assert rc == 2
    assert "--max" in stderr and "--train" in stderr
    assert "half_resolution" not in stdout
    assert not out.exists()
    rc, stdout, _ = run(["resolution", "--train", "224", "--out", str(out)], capsys)
    assert rc == 0
    assert "valid test resolutions for 224 (max 704):" in stdout
    assert stdout.splitlines()[-1].split()[-1] == "704"
    rc, stdout, _ = run(["resolution", "--train", "224", "--max", "300", "--out", str(out)],
                        capsys)
    assert rc == 0
    assert stdout.splitlines()[-1] == "224 256 288"


# ----------------------------------------------------------------- train

@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train") / "run"
    rc = main(
        ["train", "--samples", "16", "--batch", "8", "--steps", "2",
         "--out", str(out)]
    )
    assert rc == 0
    return out


def test_train_writes_artifacts(train_run):
    assert (train_run / "checkpoint.bin").exists()
    log = (train_run / "train_log.csv").read_text()
    lines = log.splitlines()
    assert lines[0] == "epoch,step,lr,loss,train_acc"
    assert len(lines) == 3  # header + 2 steps
    cfg = read_config(train_run)
    assert cfg["subcommand"] == "train"
    assert cfg["size"] == "tiny"


def test_train_stdout_reports_progress(tmp_path, capsys):
    out = tmp_path / "run"
    rc, stdout, _ = run(
        ["train", "--samples", "8", "--batch", "8", "--steps", "1",
         "--out", str(out)],
        capsys,
    )
    assert rc == 0
    assert "trained 1 steps" in stdout
    assert "final loss" in stdout
    assert "checkpoint.bin" in stdout


@pytest.mark.parametrize(
    "flags",
    [["--micro-batch", "0"], ["--micro-batch", "-1"], ["--norm", "bn", "--micro-batch", "3"]],
)
def test_train_rejects_bad_micro_batch(flags, tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, stderr = run(["train", "--steps", "2", "--out", str(out), *flags], capsys)
    assert rc == 2
    assert "micro-batch" in stderr
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("norm", ["ln", "bn", "in"])
def test_train_rejects_gn_groups_without_gn(norm, tmp_path, capsys):
    # --gn-groups sets gn's group count; with another norm it would change nothing.
    out = tmp_path / "run"
    rc, _, stderr = run(["train", "--norm", norm, "--gn-groups", "2", "--steps", "1",
                         "--samples", "16", "--out", str(out)], capsys)
    assert rc == 2
    assert "gn only" in stderr
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_train_rejects_steps_below_one(steps, tmp_path, capsys):
    out = tmp_path / "run"
    rc, _, stderr = run(["train", "--steps", steps, "--samples", "16", "--out", str(out)], capsys)
    assert rc == 2
    assert "max_steps must be at least 1" in stderr
    assert not (out / "checkpoint.bin").exists()
    assert not (out / "train_log.csv").exists()


def test_train_divergence_exits_3_without_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        rc, _, stderr = run(["train", "--lr", "1e200", "--steps", "4", "--out", str(out)], capsys)
    assert rc == 3
    assert "non-finite loss nan at step 1" in stderr
    assert not (out / "checkpoint.bin").exists()
    assert len((out / "train_log.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--lr", "--lr0"])
def test_non_finite_learning_rate_exits_2(flag, value, train_run, tmp_path, capsys):
    # A usage error, not a divergence: nothing is trained and nothing written.
    out = tmp_path / "run"
    if flag == "--lr":
        argv = ["train", "--steps", "1", "--samples", "8"]
    else:
        argv = ["finetune", "--checkpoint", str(train_run / "checkpoint.bin"),
                "--samples", "8", "--batch", "8", "--epochs", "1"]
    rc, _, stderr = run([*argv, flag, value, "--out", str(out)], capsys)
    assert rc == 2
    assert "base_lr must be finite and positive" in stderr or "invalid fine-tune recipe" in stderr
    assert not out.exists()


# -------------------------------------------------------------- finetune

def test_finetune_requires_checkpoint(tmp_path, capsys):
    rc, _, stderr = run(["finetune", "--out", str(tmp_path / "x")], capsys)
    assert rc == 2
    assert "--checkpoint" in stderr


def test_finetune_from_checkpoint(train_run, tmp_path, capsys):
    out = tmp_path / "ft"
    rc, stdout, _ = run(
        ["finetune", "--checkpoint", str(train_run / "checkpoint.bin"),
         "--samples", "16", "--batch", "8", "--epochs", "1",
         "--out", str(out)],
        capsys,
    )
    assert rc == 0
    assert "fine-tuned scope last-1" in stdout
    assert (out / "finetune_checkpoint.bin").exists()
    assert (out / "finetune_log.csv").exists()


# part -> (key, value) written into it, and the text the error must name
MALFORMED = {
    "model_config": ("bogus_key", 1, "bogus_key"),
    "norm": ("bogus_key", 1, "bogus_key"),
    "stages": ("bogus_key", 1, "bogus_key"),
    # recorded constants other than the model's own
    "quad_order": ("quad_order", 20, "quad_order=20"),
    "epsilon": ("epsilon", 1e-5, "epsilon=1e-05"),
}


@pytest.mark.parametrize("part", list(MALFORMED))
def test_finetune_malformed_checkpoint_config_exits_2(part, train_run, tmp_path, capsys):
    ckpt = Checkpoint.load(train_run / "checkpoint.bin")
    cfg = ckpt.model_config
    assert (cfg["se_ratio"], cfg["quad_order"], cfg["norm"]["epsilon"]) == (0.25, 30, 1e-3)
    key, value, named = MALFORMED[part]
    held = {"norm": cfg["norm"], "epsilon": cfg["norm"], "stages": cfg["stages"][0]}
    held.get(part, cfg)[key] = value
    path = tmp_path / "bad.bin"
    ckpt.save(path)
    rc, _, stderr = run(
        ["finetune", "--checkpoint", str(path), "--samples", "8", "--batch", "8",
         "--epochs", "1", "--out", str(tmp_path / "ft")],
        capsys,
    )
    assert rc == 2
    assert named in stderr
    assert not (tmp_path / "ft" / "finetune_checkpoint.bin").exists()


def test_finetune_malformed_checkpoint_index_exits_2(train_run, tmp_path, capsys):
    # An extent far beyond the file: refused before allocating 8 TiB.
    data = (train_run / "checkpoint.bin").read_bytes()
    path = tmp_path / "bad.bin"
    name = "state/head_conv/weight"
    path.write_bytes(with_index_entry(data, name, shape=[1 << 20, 1 << 20, 1, 1]))
    rc, _, stderr = run(
        ["finetune", "--checkpoint", str(path), "--samples", "8", "--batch", "8",
         "--epochs", "1", "--out", str(tmp_path / "ft")],
        capsys,
    )
    assert rc == 2
    assert stderr.startswith(f"error: {name}: ")
    assert "past the end of the file" in stderr and "Traceback" not in stderr


# part -> the index with that part of the wrong JSON shape, and the text
# the error must name
MISSHAPEN = {
    "index": (lambda index: [index], "checkpoint index must be a JSON object, not list"),
    "tensors": (lambda index: {**index, "tensors": []}, "'tensors' must be a JSON object"),
    "meta": (lambda index: {**index, "meta": []}, "'meta' must be a JSON object"),
    "epoch": (lambda index: {**index, "meta": {k: v for k, v in index["meta"].items()
                                              if k != "epoch"}}, "meta has no 'epoch'"),
    "epoch-type": (lambda index: {**index, "meta": {**index["meta"], "epoch": [1]}},
                   "meta 'epoch' must be a non-negative int, not [1]"),
}


@pytest.mark.parametrize("part", list(MISSHAPEN))
def test_finetune_misshapen_checkpoint_index_exits_2(part, train_run, tmp_path, capsys):
    data = (train_run / "checkpoint.bin").read_bytes()
    index = json.loads(data[8 : 8 + int.from_bytes(data[:8], "little")])
    change, named = MISSHAPEN[part]
    path = tmp_path / "bad.bin"
    path.write_bytes(with_index(data, change(index)))
    rc, _, stderr = run(
        ["finetune", "--checkpoint", str(path), "--samples", "8", "--batch", "8",
         "--epochs", "1", "--out", str(tmp_path / "ft")],
        capsys,
    )
    assert rc == 2
    assert named in stderr and "Traceback" not in stderr
    assert not (tmp_path / "ft").exists()


# ---------------------------------------------------------------- verify

def test_verify_all_suites_pass(tmp_path, capsys):
    rc, stdout, _ = run(["verify", "--out", str(tmp_path / "run")], capsys)
    assert rc == 0
    lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)
    assert "5/5 suites passed" in stdout
