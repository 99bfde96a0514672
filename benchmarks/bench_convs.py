"""Time the grouped-convolution forward and backward passes.

Runs the forward and backward pass for a few representative workloads and
prints the median of each as a table. Pin the BLAS thread count (e.g.
``OPENBLAS_NUM_THREADS=1``) for numbers comparable between runs.

    python benchmarks/bench_convs.py [--repeats N]
"""

import argparse
import statistics
import time

from effkit.convs import ConvSpec, conv_backward, conv_forward
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


def time_workloads(repeats: int) -> dict:
    results = {}
    rng = make_rng(0)
    for label, spec, field, batch in WORKLOADS:
        x = rng.normal(size=(batch, spec.in_channels, field, field))
        w = rng.normal(size=spec.weight_shape)
        y, cache = conv_forward(x, w, spec)  # warm-up
        dy = rng.normal(size=y.shape)
        conv_backward(cache, dy)
        fwd, bwd = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _, cache = conv_forward(x, w, spec)
            t1 = time.perf_counter()
            conv_backward(cache, dy)
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        results[label] = (statistics.median(fwd), statistics.median(bwd))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    timings = time_workloads(args.repeats)
    header = f"{'workload':24s}  {'fwd':>12s}  {'bwd':>12s}"
    print(header)
    print("-" * len(header))
    for label, (fwd, bwd) in timings.items():
        print(f"{label:24s}  {fwd * 1e3:10.2f}ms  {bwd * 1e3:10.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
