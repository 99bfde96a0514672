"""Time the non-convolution parts of a b0 train step.

Times ``sigmoid``, swish and the swish derivative (``grad``) on every distinct
normalize-activate (NormAct) tensor shape of b0 G=16 E=4 @64 at batch 4,
then ``rmsprop_step`` over that model's parameters, and prints the median
of each as a table. The "all NormActs" row sums the per-shape medians over
every NormAct of the model, once each: one forward activation of the whole
network.

Then, for each of the two gated configs (b0 G=1 E=6 bn and b0 G=16 E=4
ln+proxy, @64 at batch 4), it times one training forward plus backward of
every distinct NormAct of the model, each with its own activation and
proxy setting, and sums the medians over all of them the same way.
``time_normacts`` uses only the ``NormAct`` layer interface, so importing
this file with an earlier tree's ``src`` on the path times that tree's
NormActs for a before/after comparison. Pin the BLAS thread count (e.g.
``OPENBLAS_NUM_THREADS=1``) for numbers comparable between runs.

    python benchmarks/bench_step_parts.py [--repeats N]
"""

import argparse
import statistics
import time
from collections import Counter

from effkit.layers import NormAct, decay_param_names
from effkit.model import ModelConfig, NormDims, build_model, model_plan
from effkit.norms import NormSpec, get_activation, sigmoid
from effkit.tensor import make_rng
from effkit.train import TrainRecipe, init_rmsprop_state, rmsprop_step

CONFIG = ModelConfig.efficientnet(
    "b0", group_size=16, expansion=4, norm=NormSpec("ln"), proxy=True, num_classes=2,
)
NORMACT_CONFIGS = {
    "b0 G=1 E=6 bn": ModelConfig.efficientnet(
        "b0", group_size=1, expansion=6, norm=NormSpec("bn"), proxy=False, num_classes=2,
    ),
    "b0 G=16 E=4 ln+proxy": CONFIG,
}
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
        # swish.grad writes into its input: it runs on a scratch copy, whose
        # values stay within swish' range after the first call.
        scratch = x.copy()
        results[shape] = tuple(
            median_ms(f, repeats)
            for f in (lambda: sigmoid(x), lambda: swish.fn(x), lambda: swish.grad(scratch, 1.0))
        )
    return results, counts


def time_normacts(config: ModelConfig, repeats: int) -> tuple[dict, Counter]:
    """Median ms of one ``forward(train=True)`` plus ``backward`` per distinct
    (shape, activation, proxy) NormAct of the model, and how many it has."""
    dims = {e.name: e for e in model_plan(config, RESOLUTION) if isinstance(e, NormDims)}
    layers, counts = {}, Counter()
    for prefix, layer in build_model(config, make_rng(0)).walk():
        if isinstance(layer, NormAct):
            d = dims[prefix.rstrip("/")]
            act = "identity" if d.name.endswith("project_norm") else config.activation
            key = ((BATCH, d.channels, d.size, d.size), act, layer.proxy)
            layers.setdefault(key, layer)
            counts[key] += 1
    rng = make_rng(2)
    results = {}
    for key in sorted(layers, key=lambda k: (k[0][1] * k[0][2] * k[0][3], k[1])):
        x = rng.normal(size=key[0]) * 2.0 + 0.5
        dz = rng.normal(size=key[0])

        def step(layer=layers[key], x=x, dz=dz):
            layer.forward(x, train=True)
            layer.backward(dz)

        results[key] = median_ms(step, repeats)
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
        f"  {name:>11s}" for name in ("sigmoid", "swish", "swish grad")
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
    for name, config in NORMACT_CONFIGS.items():
        times, counts = time_normacts(config, args.repeats)
        print()
        header = f"{'NormAct fwd+bwd, ' + name:48s}  {'ms':>9s}"
        print(header)
        print("-" * len(header))
        for (shape, act, proxy), ms in times.items():
            label = "x".join(map(str, shape)) + f" {act}{'+proxy' if proxy else ''}"
            print(f"{label + f' (x{counts[shape, act, proxy]})':48s}  {ms:7.3f}ms")
        total = sum(counts[key] * ms for key, ms in times.items())
        print(f"{f'all NormActs ({sum(counts.values())})':48s}  {total:7.3f}ms")
    ms, tensors, size = time_rmsprop(args.repeats)
    print()
    print(f"rmsprop_step over {tensors} tensors, {size / 1e6:.2f} M parameters: {ms:.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
