"""Record each workload's anchor-episode losses in ``reference.json``.

    python3 perfbench/calibrate.py

Runs the anchor episode (seed ``ANCHOR_SEED``) of every workload, or of
those named with ``--workload``, and writes its final loss (the last
training step's) and its eval loss to ``reference.json``. A run of the
benchmark repeats that episode and fails when either loss is off by more
than ``RELATIVE_TOLERANCE`` of the reference.

The tolerance must pass a change of rounding (another contraction order,
another BLAS) and fail a change of the arithmetic. To show where it sits,
the episode is run again with every initial weight (fine-tune: every
weight of the source checkpoint) scaled by ``1 + 1e-12 * N(0, 1)``, a
change about ten thousand times one float64 rounding step, and the largest
relative change of each loss over ``PERTURBATIONS`` such runs is recorded.
Calibration fails when that change exceeds ``1 / MARGIN`` of the
tolerance, or when the episode fails any other check.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import HERE, OUT, prepare

RELATIVE_TOLERANCE = 1e-5
PERTURBATION = 1e-12
PERTURBATIONS = 3
MARGIN = 100


def perturbed_setup(setup, wk, draw: int):
    """``setup`` with the starting weights scaled by 1 + PERTURBATION * N(0, 1)."""

    def wrapped(*args, **kwargs):
        batches, x, y, model, ckpt = setup(*args, **kwargs)
        arrays = ckpt.ema if ckpt is not None else model.params()
        rng = np.random.default_rng(draw)
        for name in sorted(arrays):
            arrays[name][...] *= 1.0 + PERTURBATION * rng.standard_normal(arrays[name].shape)
        return batches, x, y, model, ckpt

    return wrapped


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=None)
    args = p.parse_args(argv)
    if not prepare():
        return 2
    import workloads as wk

    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table["anchor_seed"] = wk.ANCHOR_SEED
    table["relative_tolerance"] = RELATIVE_TOLERANCE
    OUT.mkdir(exist_ok=True)
    setup = wk.setup
    for name in args.workload or list(wk.WORKLOADS):
        wl = wk.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            work = Path(tmp)
            fixture = None
            if wl.finetune:
                fixture = work / "fixture.bin"
                wk.make_fixture(fixture)
            episodes = []
            for draw in range(PERTURBATIONS + 1):
                wk.setup = perturbed_setup(setup, wk, draw) if draw else setup
                try:
                    ep = wk.run_episode(wl, wk.ANCHOR_SEED, work, fixture)
                finally:
                    wk.setup = setup
                failures = list(ep.failures)
                if wl.min_accuracy is not None and not ep.accuracy >= wl.min_accuracy:
                    failures.append(f"eval accuracy {ep.accuracy:.3f} < {wl.min_accuracy}")
                print(f"{name} draw {draw}: final loss {ep.final_loss!r}, eval loss "
                      f"{ep.eval_loss!r} {failures or ''}", flush=True)
                if failures:
                    return 1
                episodes.append(ep)
        base = episodes[0]
        entry = {}
        for quantity in wk.ANCHOR_LOSSES:
            want = getattr(base, quantity)
            change = max(abs(getattr(ep, quantity) - want) / abs(want) for ep in episodes[1:])
            if not change * MARGIN <= RELATIVE_TOLERANCE:
                print(f"{name}: a {PERTURBATION:g} weight perturbation moves {quantity} by "
                      f"{change:.3g}, more than 1/{MARGIN} of the tolerance "
                      f"{RELATIVE_TOLERANCE:g}")
                return 1
            entry[quantity] = want
            entry[f"{quantity}_perturbation_change"] = change
        table[name] = entry
        path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
