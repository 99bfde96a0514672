"""Command-line interface.

Subcommands: count, roofline, resolution, train, finetune, verify. Each
option is declared once, with its default, next to its flag, and a
subcommand takes only the flags that change its output. Options resolve as
flags > config file > those defaults: the file's values become the parsers'
defaults for a second parse, and a file key that names no option of the
subcommand is an error. The resolved values are written to
<out>/config.json so a run can be reproduced exactly with ``--config`` and
no flags. Exit codes: 0 success, 1 verification-suite failure, 2 usage or
configuration error, 3 training or fine-tuning diverged (a non-finite loss
or final state; no checkpoint is written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import verify as verify_mod
from .checkpoint import Checkpoint
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
    MAX_TEST_RESOLUTION,
    congruent,
    half_resolution,
    parity_profile,
    valid_test_resolutions,
)
from .tensor import make_rng
from .train import FINETUNE_SCOPES, FinetuneRecipe, TrainRecipe, finetune, train_loop


def _add_global_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # Only the top-level parser holds defaults. The subcommands share one set
    # of SUPPRESS copies, so a value given before the subcommand survives the
    # subparser's parse and the flags work in either position.
    def default(value):
        return value if top else argparse.SUPPRESS

    parser.add_argument("--config", default=default(None),
                        help="JSON config file; flags override it")
    parser.add_argument("--out", default=default("effkit_out"), help="output directory")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subparsers by name."""
    parser = argparse.ArgumentParser(
        prog="effkit",
        description="Grouped-convolution EfficientNet toolkit: cost counting, "
        "roofline reports, resolution rules, desk-scale training.",
    )
    _add_global_flags(parser, top=True)
    shared = argparse.ArgumentParser(add_help=False)
    _add_global_flags(shared, top=False)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add_shape_flags(sp, size, group_size, expansion):
        sp.add_argument("--size", default=size, help="b0..b5 or tiny")
        sp.add_argument("--group-size", type=int, default=group_size, dest="group_size")
        sp.add_argument("--expansion", type=int, default=expansion)

    def add_data_flags(sp):
        sp.add_argument("--seed", type=int, default=0, help="random seed")
        sp.add_argument("--samples", type=int, default=256)
        sp.add_argument("--image-size", type=int, default=32, dest="image_size")

    sp = subs.add_parser("count", parents=[shared], help="parameter and FLOP accounting")
    add_shape_flags(sp, "b0", 1, 6)
    sp.add_argument("--proxy", action=argparse.BooleanOptionalAction, default=False)
    sp.add_argument("--classes", type=int, default=1000)
    sp.add_argument("--resolution", type=int, help="default: the size's native one")

    sp = subs.add_parser("roofline", parents=[shared], help="per-layer arithmetic intensity report")
    add_shape_flags(sp, "b0", 1, 6)
    sp.add_argument("--resolution", type=int, help="default: the size's native one")
    sp.add_argument("--batch", type=int, default=8)
    sp.add_argument("--profile", help="hardware profile JSON path")

    sp = subs.add_parser("resolution", parents=[shared], help="congruence and half-resolution tools")
    sp.add_argument("--train", type=int, help="list test resolutions for this train size")
    sp.add_argument("--max", type=int, help="upper bound for the --train listing")
    sp.add_argument("--half", type=int, help="half resolution for this native size")
    sp.add_argument("--check", type=int, nargs=2, metavar=("TRAIN", "TEST"))
    sp.add_argument("--parity", type=int, help="parity profile for this size")
    sp.add_argument("--csv", action=argparse.BooleanOptionalAction, default=False,
                    help="write the --train listing to resolution.csv")

    sp = subs.add_parser("train", parents=[shared], help="desk-scale training on synthetic data")
    add_shape_flags(sp, "tiny", 4, 4)
    sp.add_argument("--norm", choices=list(NORM_KINDS), default="ln")
    sp.add_argument("--gn-groups", type=int, default=4, dest="gn_groups")
    sp.add_argument("--proxy", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--classes", type=int, default=2)
    sp.add_argument("--batch", type=int, default=8)
    sp.add_argument("--epochs", type=int, default=1)
    sp.add_argument("--steps", type=int, help="stop after this many steps")
    sp.add_argument("--lr", type=float, help="override the derived base learning rate")
    add_data_flags(sp)
    sp.add_argument("--augment", action=argparse.BooleanOptionalAction, default=False)
    sp.add_argument("--micro-batch", type=int, dest="micro_batch")

    sp = subs.add_parser("finetune", parents=[shared], help="cosine-SGD fine-tuning from a checkpoint")
    sp.add_argument("--checkpoint", help="checkpoint file from train")
    sp.add_argument("--scope", choices=FINETUNE_SCOPES, default="last-1")
    sp.add_argument("--epochs", type=int, default=2)
    sp.add_argument("--batch", type=int, default=64)
    sp.add_argument("--lr0", type=float, default=0.25)
    add_data_flags(sp)

    subs.add_parser("verify", parents=[shared], help="run the built-in verification suites")
    return parser, subs.choices


# The JSON types a config value may take for an option of each ``type``.
_CONFIG_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _config_value_fits(action: argparse.Action, value) -> bool:
    """Whether a config-file value is one that ``action``'s flag parses to."""
    if value is None:
        return action.default is None
    if isinstance(action, argparse.BooleanOptionalAction):
        return isinstance(value, bool)
    if isinstance(action.nargs, int):
        if not (isinstance(value, list) and len(value) == action.nargs):
            return False
    else:
        value = [value]
    return all(isinstance(v, _CONFIG_TYPES[action.type]) and not isinstance(v, bool)
               and (action.choices is None or v in action.choices) for v in value)


def resolve_options(argv) -> dict:
    """flags > config file > defaults, rejecting unknown config keys, a file
    whose "subcommand" is not the one being run, and values of another type
    than their flag parses to; the result holds the subcommand and every
    option's value."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - (set(vars(args)) - {"config"}))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        subcommand = raw.pop("subcommand", args.subcommand)
        if subcommand != args.subcommand:
            raise ValueError(f"config file is for subcommand {json.dumps(subcommand)}, "
                             f"not {args.subcommand!r}")
        # The subparser holds SUPPRESS copies of the global flags; the
        # top-level parser holds their real defaults.
        actions = {a.dest: a for a in parser._actions + subparsers[args.subcommand]._actions
                   if a.default is not argparse.SUPPRESS}
        for key, value in raw.items():
            if not _config_value_fits(actions[key], value):
                raise ValueError(f"config key {key!r} must hold what "
                                 f"{actions[key].option_strings[0]} parses to, "
                                 f"not {json.dumps(value)}")
        # The subcommands share one --out action, and set_defaults writes
        # into it: the file's out goes to the top-level parser only, or it
        # would beat a flag given before the subcommand.
        if "out" in raw:
            parser.set_defaults(out=raw.pop("out"))
        subparsers[args.subcommand].set_defaults(**raw)
        args = parser.parse_args(argv)
    eff = vars(args)
    del eff["config"]
    return eff


def model_config_from(eff: dict) -> ModelConfig:
    """The model of a count, roofline or train run. A field whose flag the
    subcommand does not take keeps the size's own default."""
    size = eff["size"].lower()
    over = {"group_size": eff["group_size"], "expansion": eff["expansion"]}
    if "classes" in eff:
        over["num_classes"] = eff["classes"]
    if "proxy" in eff:
        over["proxy"] = eff["proxy"]
    if "norm" in eff:
        over["norm"] = NormSpec(eff["norm"], groups=eff["gn_groups"])
    if size == "tiny":
        return ModelConfig.tiny(**over)
    if size not in VARIANTS:
        raise ValueError(f"unknown size {eff['size']!r}; use b0..b5 or tiny")
    return ModelConfig.efficientnet(size, **over)


def _resolution_for(eff: dict) -> int:
    if eff["resolution"] is not None:
        return eff["resolution"]
    size = eff["size"].lower()
    return 32 if size == "tiny" else native_resolution(size)


def _prepare_out(eff: dict) -> Path:
    out = Path(eff["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(eff, indent=2, sort_keys=True) + "\n")
    return out


def _synthetic_batches(eff: dict, classes: int, batch: int):
    x, y = blob_dataset(
        eff["samples"], size=eff["image_size"], classes=classes, seed=eff["seed"]
    )
    return as_batches(x, y, batch)


def cmd_count(eff: dict) -> int:
    report = count_cost(model_config_from(eff), _resolution_for(eff))
    out = _prepare_out(eff)
    (out / "cost.csv").write_text(report.to_csv())
    print(report.summary())
    print(f"wrote {out / 'cost.csv'}")
    return 0


def cmd_roofline(eff: dict) -> int:
    if eff["profile"] is None:
        raise ValueError("missing hardware profile (--profile PATH)")
    hw = HardwareProfile.from_json(eff["profile"])
    report = roofline(model_config_from(eff), hw, eff["batch"], _resolution_for(eff))
    out = _prepare_out(eff)
    (out / "roofline.csv").write_text(report.to_csv())
    print(report.summary())
    print(f"wrote {out / 'roofline.csv'}")
    return 0


def cmd_resolution(eff: dict) -> int:
    if eff["train"] is None and (eff["csv"] or eff["max"] is not None):
        flag = "--csv" if eff["csv"] else "--max"
        raise ValueError(f"{flag} applies to the listing of --train; give --train")
    acted = False
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
        max_r = MAX_TEST_RESOLUTION if eff["max"] is None else eff["max"]
        values = valid_test_resolutions(eff["train"], max_r)
        print(f"valid test resolutions for {eff['train']} (max {max_r}):")
        print(" ".join(str(v) for v in values))
        acted = True
    if not acted:
        raise ValueError("give at least one of --train, --half, --check, --parity")
    out = _prepare_out(eff)
    if eff["csv"]:
        (out / "resolution.csv").write_text("\n".join(["resolution", *map(str, values)]) + "\n")
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
        augment=eff["augment"],
    )
    out = _prepare_out(eff)
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
    with open(out / "train_log.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    print(
        f"trained {int(last['step']) + 1} steps (epoch {last['epoch']}); "
        f"final loss {float(last['loss']):.4f}, batch accuracy {float(last['train_acc']):.3f}"
    )
    print(f"wrote {out / 'checkpoint.bin'} and {out / 'train_log.csv'}")
    return 0


def cmd_finetune(eff: dict) -> int:
    if eff["checkpoint"] is None:
        raise ValueError("missing checkpoint (--checkpoint PATH)")
    ckpt = Checkpoint.load(eff["checkpoint"])
    model = ckpt.build_model()
    recipe = FinetuneRecipe(
        scope=eff["scope"], epochs=eff["epochs"], batch=eff["batch"], initial_lr=eff["lr0"]
    )
    batches = _synthetic_batches(eff, model.config.num_classes, recipe.batch)
    out = _prepare_out(eff)
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
    try:
        eff = resolve_options(argv)
        return COMMANDS[eff["subcommand"]](eff)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: diverged, no checkpoint written: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
