"""Time the non-convolution parts of a b0 train step.

Times ``sigmoid``, swish and the swish derivative on every distinct
normalize-activate (NormAct) tensor shape of b0 G=16 E=4 @64 at batch 4,
then ``rmsprop_step`` over that model's parameters, and prints the median
of each as a table. The "all NormActs" row sums the per-shape medians over
every NormAct of the model, once each: one forward activation of the whole
network. Pin the BLAS thread count (e.g. ``OPENBLAS_NUM_THREADS=1``) for
numbers comparable between runs.

    python benchmarks/bench_step_parts.py [--repeats N]
"""

import argparse
import statistics
import time
from collections import Counter

from effkit.layers import decay_param_names
from effkit.model import ModelConfig, NormDims, build_model, model_plan
from effkit.norms import NormSpec, get_activation, sigmoid
from effkit.tensor import make_rng
from effkit.train import TrainRecipe, init_rmsprop_state, rmsprop_step

CONFIG = ModelConfig.efficientnet(
    "b0", group_size=16, expansion=4, norm=NormSpec("ln"), proxy=True, num_classes=2,
)
RESOLUTION = 64
BATCH = 4


def median_ms(fn, repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def time_activations(repeats: int) -> tuple[dict, Counter]:
    swish = get_activation("swish")
    counts = Counter(
        (BATCH, e.channels, e.size, e.size)
        for e in model_plan(CONFIG, RESOLUTION) if isinstance(e, NormDims)
    )
    rng = make_rng(0)
    results = {}
    for shape in sorted(counts, key=lambda s: s[1] * s[2] * s[3]):
        x = rng.normal(size=shape) * 3.0
        results[shape] = tuple(
            median_ms(lambda f=f: f(x), repeats) for f in (sigmoid, swish.fn, swish.deriv)
        )
    return results, counts


def time_rmsprop(repeats: int) -> tuple[float, int, int]:
    model = build_model(CONFIG, make_rng(0))
    params = model.params()
    rng = make_rng(1)
    grads = {name: rng.normal(size=p.shape) * 1e-3 for name, p in params.items()}
    state = init_rmsprop_state(params)
    recipe = TrainRecipe(global_batch=BATCH)
    decay_names = frozenset(decay_param_names(model))
    ms = median_ms(lambda: rmsprop_step(params, grads, state, recipe, 1e-4, decay_names), repeats)
    return ms, len(params), sum(p.size for p in params.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    acts, counts = time_activations(args.repeats)
    header = f"{'NormAct shape':24s}" + "".join(
        f"  {name:>11s}" for name in ("sigmoid", "swish", "swish deriv")
    )
    print(header)
    print("-" * len(header))
    totals = [0.0, 0.0, 0.0]
    for shape, row in acts.items():
        label = "x".join(map(str, shape)) + f" (x{counts[shape]})"
        print(f"{label:24s}" + "".join(f"  {ms:9.3f}ms" for ms in row))
        totals = [t + counts[shape] * ms for t, ms in zip(totals, row)]
    label = f"all NormActs ({sum(counts.values())})"
    print(f"{label:24s}" + "".join(f"  {ms:9.3f}ms" for ms in totals))
    ms, tensors, size = time_rmsprop(args.repeats)
    print()
    print(f"rmsprop_step over {tensors} tensors, {size / 1e6:.2f} M parameters: {ms:.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
