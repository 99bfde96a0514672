"""Run one effkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload b0g16_train --seed 1 --seconds 20 --trace 0

Run from the root of an effkit checkout: the benchmark imports effkit from
``src/`` there and nowhere else, and exits with code 2 when it is missing.
With ``--trace 0`` it prints the end-to-end metrics of untraced episodes;
with ``--trace 1`` it prints the per-layer metrics of traced episodes. Every
metric is printed as ``name = value unit``, and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The machine descriptor, per-episode details,
per-layer rows and (traced) spans are written under ``perfbench/out/``.
``--smoke`` runs two-step episodes and skips the checks that need the full
recipe; the self-tests use it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"  # names and units of the metrics
OUT = HERE / "out"
# One BLAS thread: a closed loop of one process, steadier on a shared host
# and never more threads than cores.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="two-step episodes, for self-tests")
    p.add_argument("--make-fixture", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare() -> bool:
    """Pin BLAS threads and put the checkout's effkit first on the path,
    before numpy is imported; False when the sources are missing."""
    if not (SRC / "effkit" / "__init__.py").is_file():
        print(f"error: no effkit sources at {SRC}; run from an effkit checkout",
              file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    import workloads as wk
    import tracing

    if args.workload not in wk.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(wk.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.make_fixture:
        wk.make_fixture(Path(args.make_fixture))
        return 0

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        result = wk.run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                        smoke=args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
               for m in table}
    machine = wk.machine()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    episodes = [
        {"setup_s": ep.setup_s, "loop_s": ep.loop_s, "save_s": ep.save_s,
         "step_ms": [round(v * 1e3, 3) for v in ep.step_s], "traced": ep.trace is not None,
         "final_loss": ep.final_loss, "eval_loss": ep.eval_loss, "digest": ep.digest,
         "failures": ep.failures}
        for ep in result.episodes
    ]
    anchor = {"seed": wk.ANCHOR_SEED, "final_loss": result.anchor.final_loss,
              "eval_loss": result.anchor.eval_loss, "accuracy": result.anchor.accuracy}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine,
              "anchor": anchor, "episodes": episodes, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(f"{stem}-layers.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(result.layer_rows[0]))
            writer.writeheader()
            writer.writerows(result.layer_rows)
        with open(f"{stem}-spans.jsonl", "w") as fh:
            tracing.write_spans(fh, [ep.trace for ep in result.episodes if ep.trace])

    steps = sum(len(ep.step_s) for ep in result.episodes)
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(result.episodes)} episodes, "
          f"{steps} steps, trace {args.trace}")
    for ep in result.episodes:
        for failure in ep.failures:
            print(f"FAIL {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_share = {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted} steps failed)")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
