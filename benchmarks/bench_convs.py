"""Time the grouped-convolution forward and backward passes.

Runs the forward and backward pass for a few representative workloads and
prints the median of each as a table; each round times every workload once,
in order. With ``--model`` the workloads are
instead every spatial (k > 1) convolution of that b0 config at 64x64 and
batch 4, one row per ``model_plan`` name, and a last row sums them. Pin the
BLAS thread count (e.g. ``OPENBLAS_NUM_THREADS=1``) for numbers comparable
between runs.

    python benchmarks/bench_convs.py [--repeats N] [--model {b0dw,b0g16}]
"""

import argparse
import statistics
import time

from effkit.convs import ConvSpec, conv_backward, conv_forward
from effkit.model import ConvDims, ModelConfig, model_plan
from effkit.tensor import make_rng

# (label, spec, input spatial size, batch)
WORKLOADS = [
    ("pointwise 64->128", ConvSpec(64, 128, 1), 28, 8),
    ("depthwise k3 G=1", ConvSpec(64, 64, 3, group_size=1), 28, 8),
    ("grouped k3 G=16", ConvSpec(64, 64, 3, group_size=16), 28, 8),
    ("grouped k5 G=16 s2", ConvSpec(96, 96, 5, stride=2, group_size=16), 28, 8),
    ("dense k3", ConvSpec(32, 64, 3), 28, 8),
    # b0 @64 batch 4 shapes: the strided phase split of dx, both sides of
    # the weight-gradient fold, and the head.
    ("b0 dw 144ch@16 k5 s2", ConvSpec(144, 144, 5, stride=2, group_size=1), 16, 4),
    ("b0 G=16 448ch@4 k5", ConvSpec(448, 448, 5, group_size=16), 4, 4),
    ("b0 G=16 768ch@2 k5", ConvSpec(768, 768, 5, group_size=16), 2, 4),
    ("b0 dw 1152ch@2 k5", ConvSpec(1152, 1152, 5, group_size=1), 2, 4),
    ("b0 head 320->1280@2", ConvSpec(320, 1280, 1), 2, 4),
]


# --model name -> (group size, expansion): the paper's depthwise baseline
# and its G=16 E=4 variant.
MODELS = {"b0dw": (1, 6), "b0g16": (16, 4)}


def model_workloads(model: str) -> list:
    """Every spatial convolution of a b0 config at 64x64, batch 4."""
    group_size, expansion = MODELS[model]
    config = ModelConfig.efficientnet("b0", group_size=group_size, expansion=expansion)
    return [
        (d.name, ConvSpec(d.in_channels, d.out_channels, d.kernel, d.stride, d.group_size),
         d.in_size, 4)
        for d in model_plan(config, 64)
        if isinstance(d, ConvDims) and d.kernel > 1
    ]


def time_workloads(workloads: list, repeats: int) -> dict:
    """Median forward and backward seconds of each workload. Each round runs
    every workload once, in order, as a training step runs its layers, so
    that the allocator serves the mix of sizes a step asks for."""
    rng = make_rng(0)
    cases = []
    for label, spec, field, batch in workloads:
        x = rng.normal(size=(batch, spec.in_channels, field, field))
        w = rng.normal(size=spec.weight_shape)
        y, cache = conv_forward(x, w, spec)  # warm-up
        dy = rng.normal(size=y.shape)
        conv_backward(cache, dy)
        cases.append((label, spec, x, w, dy))
    times = {label: ([], []) for label, *_ in cases}
    for _ in range(repeats):
        for label, spec, x, w, dy in cases:
            t0 = time.perf_counter()
            _, cache = conv_forward(x, w, spec)
            t1 = time.perf_counter()
            conv_backward(cache, dy)
            t2 = time.perf_counter()
            times[label][0].append(t1 - t0)
            times[label][1].append(t2 - t1)
    return {label: (statistics.median(f), statistics.median(b)) for label, (f, b) in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--model", choices=sorted(MODELS),
                        help="time every spatial convolution of this b0 config")
    args = parser.parse_args()

    workloads = model_workloads(args.model) if args.model else WORKLOADS
    timings = time_workloads(workloads, args.repeats)
    header = f"{'workload':24s}  {'fwd':>12s}  {'bwd':>12s}"
    print(header)
    print("-" * len(header))
    for label, (fwd, bwd) in timings.items():
        print(f"{label:24s}  {fwd * 1e3:10.2f}ms  {bwd * 1e3:10.2f}ms")
    if args.model:
        fwd, bwd = (sum(t[i] for t in timings.values()) for i in (0, 1))
        print(f"{'total':24s}  {fwd * 1e3:10.2f}ms  {bwd * 1e3:10.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
