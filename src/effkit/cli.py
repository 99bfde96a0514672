"""Command-line interface.

Subcommands: count, roofline, resolution, train, finetune, verify. Options
resolve as flags > config file > built-in defaults; the resolved values are
written to <out>/config.json so a run can be reproduced exactly with
``--config`` and no flags. Exit codes: 0 success, 1 verification-suite
failure, 2 usage or configuration error, 3 training or fine-tuning diverged
(a non-finite loss or final state; no checkpoint is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import verify as verify_mod
from .data import as_batches, blob_dataset
from .model import (
    ModelConfig,
    VARIANTS,
    build_model,
    count_cost,
    native_resolution,
)
from .norms import NORM_KINDS, NormSpec
from .perf import HardwareProfile, roofline
from .resolution import (
    congruent,
    half_resolution,
    parity_profile,
    valid_test_resolutions,
)
from .tensor import make_rng
from .train import Checkpoint, FinetuneRecipe, TrainRecipe, finetune, train_loop

GLOBAL_DEFAULTS = {"seed": 0, "out": "effkit_out"}

SUB_DEFAULTS = {
    "count": {
        "size": "b0", "group_size": 1, "expansion": 6, "norm": "bn",
        "gn_groups": 4, "proxy": False, "classes": 1000, "resolution": None,
    },
    "roofline": {
        "size": "b0", "group_size": 1, "expansion": 6, "norm": "bn",
        "gn_groups": 4, "proxy": False, "classes": 1000, "resolution": None,
        "batch": 8, "profile": None,
    },
    "resolution": {
        "train": None, "max": 704, "half": None, "check": None,
        "parity": None, "csv": False,
    },
    "train": {
        "size": "tiny", "group_size": 4, "expansion": 4, "norm": "ln",
        "gn_groups": 4, "proxy": True, "classes": 2,
        "batch": 8, "epochs": 1, "steps": None, "lr": None, "samples": 256,
        "image_size": 32, "augment": False, "micro_batch": None,
    },
    "finetune": {
        "checkpoint": None, "scope": "last-1", "epochs": 2, "batch": 64,
        "lr0": 0.25, "samples": 256, "image_size": 32,
    },
    "verify": {},
}


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a pre-subcommand value from being clobbered by the
    # subparser's re-parse, so the flags work in either position.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file; flags override it")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="random seed (default 0)")
    shared.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default effkit_out)")
    parser = argparse.ArgumentParser(
        prog="effkit",
        parents=[shared],
        description="Grouped-convolution EfficientNet toolkit: cost counting, "
        "roofline reports, resolution rules, desk-scale training.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add_model_flags(sp, with_resolution=True):
        sp.add_argument("--size", default=None, help="b0..b5 or tiny")
        sp.add_argument("--group-size", type=int, default=None, dest="group_size")
        sp.add_argument("--expansion", type=int, default=None)
        sp.add_argument("--norm", choices=list(NORM_KINDS), default=None)
        sp.add_argument("--gn-groups", type=int, default=None, dest="gn_groups")
        sp.add_argument("--proxy", action=argparse.BooleanOptionalAction, default=None)
        sp.add_argument("--classes", type=int, default=None)
        if with_resolution:
            sp.add_argument("--resolution", type=int, default=None)

    sp = subs.add_parser("count", parents=[shared], help="parameter and FLOP accounting")
    add_model_flags(sp)

    sp = subs.add_parser("roofline", parents=[shared], help="per-layer arithmetic intensity report")
    add_model_flags(sp)
    sp.add_argument("--batch", type=int, default=None)
    sp.add_argument("--profile", default=None, help="hardware profile JSON path")

    sp = subs.add_parser("resolution", parents=[shared], help="congruence and half-resolution tools")
    sp.add_argument("--train", type=int, default=None, help="list test resolutions for this train size")
    sp.add_argument("--max", type=int, default=None, help="upper bound for the listing")
    sp.add_argument("--half", type=int, default=None, help="half resolution for this native size")
    sp.add_argument("--check", type=int, nargs=2, default=None, metavar=("TRAIN", "TEST"))
    sp.add_argument("--parity", type=int, default=None, help="parity profile for this size")
    sp.add_argument("--csv", action=argparse.BooleanOptionalAction, default=None)

    sp = subs.add_parser("train", parents=[shared], help="desk-scale training on synthetic data")
    add_model_flags(sp, with_resolution=False)  # training uses --image-size
    sp.add_argument("--batch", type=int, default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None, help="stop after this many steps")
    sp.add_argument("--lr", type=float, default=None, help="override the derived base learning rate")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--image-size", type=int, default=None, dest="image_size")
    sp.add_argument("--augment", action=argparse.BooleanOptionalAction, default=None)
    sp.add_argument("--micro-batch", type=int, default=None, dest="micro_batch")

    sp = subs.add_parser("finetune", parents=[shared], help="cosine-SGD fine-tuning from a checkpoint")
    sp.add_argument("--checkpoint", default=None, help="checkpoint file from train")
    sp.add_argument("--scope", choices=["last-1", "last-2", "last-3"], default=None)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--batch", type=int, default=None)
    sp.add_argument("--lr0", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--image-size", type=int, default=None, dest="image_size")

    subs.add_parser("verify", parents=[shared], help="run the built-in verification suites")
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """flags > config file > defaults, rejecting unknown config keys."""
    sub = args.subcommand
    defaults = {**GLOBAL_DEFAULTS, **SUB_DEFAULTS[sub]}
    file_values = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        with open(config_path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(defaults) - {"subcommand"})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        file_values = {k: v for k, v in raw.items() if k != "subcommand"}
    effective = {}
    for key, default in defaults.items():
        given = getattr(args, key, None)
        if given is not None:
            effective[key] = given
        elif key in file_values:
            effective[key] = file_values[key]
        else:
            effective[key] = default
    return effective


def model_config_from(eff: dict) -> ModelConfig:
    size = str(eff["size"]).lower()
    norm = NormSpec(eff["norm"], groups=eff["gn_groups"])
    common = dict(group_size=eff["group_size"], expansion=eff["expansion"],
                  num_classes=eff["classes"], norm=norm, proxy=bool(eff["proxy"]))
    if size == "tiny":
        return ModelConfig.tiny(**common)
    if size not in VARIANTS:
        raise ValueError(f"unknown size {eff['size']!r}; use b0..b5 or tiny")
    return ModelConfig.efficientnet(size, **common)


def _resolution_for(eff: dict) -> int:
    if eff.get("resolution") is not None:
        return int(eff["resolution"])
    size = str(eff["size"]).lower()
    return 32 if size == "tiny" else native_resolution(size)


def _prepare_out(eff: dict, sub: str) -> Path:
    out = Path(eff["out"])
    out.mkdir(parents=True, exist_ok=True)
    payload = {"subcommand": sub}
    payload.update({k: v for k, v in eff.items()})
    (out / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def _synthetic_batches(eff: dict, classes: int, batch: int):
    x, y = blob_dataset(
        eff["samples"], size=eff["image_size"], classes=classes, seed=eff["seed"]
    )
    return as_batches(x, y, batch)


def cmd_count(eff: dict) -> int:
    report = count_cost(model_config_from(eff), _resolution_for(eff))
    out = _prepare_out(eff, "count")
    (out / "cost.csv").write_text(report.to_csv())
    print(report.summary())
    print(f"wrote {out / 'cost.csv'}")
    return 0


def cmd_roofline(eff: dict) -> int:
    if eff["profile"] is None:
        raise ValueError("missing hardware profile (--profile PATH)")
    hw = HardwareProfile.from_json(eff["profile"])
    report = roofline(model_config_from(eff), hw, eff["batch"], _resolution_for(eff))
    out = _prepare_out(eff, "roofline")
    (out / "roofline.csv").write_text(report.to_csv())
    print(report.summary())
    print(f"wrote {out / 'roofline.csv'}")
    return 0


def cmd_resolution(eff: dict) -> int:
    acted = False
    csv_lines = []
    if eff["check"] is not None:
        a, b = eff["check"]
        print(f"congruent({a}, {b}) = {congruent(a, b)}")
        acted = True
    if eff["half"] is not None:
        print(f"half_resolution({eff['half']}) = {half_resolution(eff['half'])}")
        acted = True
    if eff["parity"] is not None:
        profile = parity_profile(eff["parity"])
        print(f"parity_profile({eff['parity']}) = {' '.join(profile)}")
        acted = True
    if eff["train"] is not None:
        values = valid_test_resolutions(eff["train"], max_r=eff["max"])
        print(f"valid test resolutions for {eff['train']} (max {eff['max']}):")
        print(" ".join(str(v) for v in values))
        csv_lines = ["resolution"] + [str(v) for v in values]
        acted = True
    if not acted:
        raise ValueError("give at least one of --train, --half, --check, --parity")
    out = _prepare_out(eff, "resolution")
    if eff["csv"] and csv_lines:
        (out / "resolution.csv").write_text("\n".join(csv_lines) + "\n")
        print(f"wrote {out / 'resolution.csv'}")
    return 0


def cmd_train(eff: dict) -> int:
    config = model_config_from(eff)
    model = build_model(config, make_rng(eff["seed"]))
    batches = _synthetic_batches(eff, config.num_classes, eff["batch"])
    recipe = TrainRecipe(
        global_batch=eff["batch"],
        epochs=eff["epochs"],
        base_lr=eff["lr"],
        augment=bool(eff["augment"]),
    )
    out = _prepare_out(eff, "train")
    ckpt = train_loop(
        model,
        batches,
        recipe,
        seed=eff["seed"],
        max_steps=eff["steps"],
        micro_batch_size=eff["micro_batch"],
        log_path=out / "train_log.csv",
    )
    ckpt.save(out / "checkpoint.bin")
    last = (out / "train_log.csv").read_text().strip().splitlines()[-1]
    epoch, step, lr, loss, acc = last.split(",")
    print(
        f"trained {int(step) + 1} steps (epoch {epoch}); final loss {float(loss):.4f}, "
        f"batch accuracy {float(acc):.3f}"
    )
    print(f"wrote {out / 'checkpoint.bin'} and {out / 'train_log.csv'}")
    return 0


def cmd_finetune(eff: dict) -> int:
    if eff["checkpoint"] is None:
        raise ValueError("missing checkpoint (--checkpoint PATH)")
    ckpt = Checkpoint.load(eff["checkpoint"])
    model = ckpt.build_model(make_rng(eff["seed"]))
    recipe = FinetuneRecipe(
        scope=eff["scope"], epochs=eff["epochs"], batch=eff["batch"], initial_lr=eff["lr0"]
    )
    batches = _synthetic_batches(eff, model.config.num_classes, recipe.batch)
    out = _prepare_out(eff, "finetune")
    result = finetune(model, ckpt, recipe, batches, log_path=out / "finetune_log.csv")
    result.save(out / "finetune_checkpoint.bin")
    print(f"fine-tuned scope {recipe.scope} for {recipe.epochs} epochs")
    print(f"wrote {out / 'finetune_checkpoint.bin'} and {out / 'finetune_log.csv'}")
    return 0


def cmd_verify(eff: dict) -> int:
    results = verify_mod.run_all()
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 1 if failed else 0


COMMANDS = {
    "count": cmd_count,
    "roofline": cmd_roofline,
    "resolution": cmd_resolution,
    "train": cmd_train,
    "finetune": cmd_finetune,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eff = resolve_options(args)
        return COMMANDS[args.subcommand](eff)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: diverged, no checkpoint written: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
