"""Measure the backward caches that one pass leaves in the layers.

Builds b0 G=16 E=4 LN+proxy at batch 4 and runs, each on a fresh model, a
training forward (``train=True``), the same forward followed by its
backward (as a training step runs them; each backward releases the cache
it reads, so this column must read 0), the last-1 fine-tune's
frozen-prefix forward (``train=True, stop=scope_start(1), grad=False``)
and an evaluation forward (``train=False``). After each it walks every
layer's cache and prints the MB held, counting each buffer once by its
base array: a view, or an array that two layers both keep, adds nothing,
and neither does a parameter (a ``Conv`` cache keeps its weight), which
exists whether a cache holds it or not. The parameters' MB is printed for
scale.

    PYTHONPATH=src python benchmarks/cache_bytes.py [--resolution 64 128]
"""

import argparse

import numpy as np

from effkit.model import ModelConfig, build_model
from effkit.norms import NormSpec
from effkit.tensor import make_rng

CONFIG = ModelConfig.efficientnet(
    "b0", group_size=16, expansion=4, norm=NormSpec("ln"), proxy=True, num_classes=2,
)
BATCH = 4


def _arrays(obj):
    """Every ndarray inside a cache of nested tuples and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def cached_bytes(model) -> int:
    """Bytes of the distinct base arrays that the layers' caches reach,
    parameters excepted."""
    params = {id(_base(p)) for p in model.params().values()}
    bases = {}
    for _, layer in model.walk():
        for arr in map(_base, _arrays(layer._cache)):
            if id(arr) not in params:
                bases[id(arr)] = arr.nbytes
    return sum(bases.values())


def measure(resolution: int) -> dict[str, float]:
    x = make_rng(1).normal(size=(BATCH, 3, resolution, resolution))
    passes = {
        "train": lambda m: m.forward(x, train=True),
        "backward": lambda m: m.backward(np.ones_like(m.forward(x, train=True)), input_grad=False),
        "prefix": lambda m: m.forward(x, train=True, stop=m.scope_start(1), grad=False),
        "eval": lambda m: m.forward(x, train=False),
    }
    out = {}
    for name, run in passes.items():
        model = build_model(CONFIG, make_rng(0))
        run(model)
        out[name] = cached_bytes(model) / 1e6
    out["params"] = sum(p.nbytes for p in model.params().values()) / 1e6
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, nargs="+", default=[64, 128])
    args = parser.parse_args()
    print(f"b0 G=16 E=4 ln+proxy, batch {BATCH}: MB of backward caches after one pass")
    columns = ("train", "backward", "prefix", "eval", "params")
    print(f"{'resolution':>10}" + "".join(f" {c:>8}" for c in columns))
    for resolution in args.resolution:
        mb = measure(resolution)
        print(f"{resolution:>10}" + "".join(f" {mb[c]:>8.1f}" for c in columns), flush=True)


if __name__ == "__main__":
    main()
