"""Span tracing of effkit from outside its source.

A ``Tracer`` replaces effkit's hot-path functions and layer methods, at the
names the library looks them up under, with wrappers that record spans in
memory. A span is the list ``[name, key, start, end, parent, step, count]``:
``key`` is the ``model_plan`` flat name of the layer instance involved (when
there is one), ``parent`` the index of the enclosing span, ``step`` the train
step that was open when the span began (``None`` outside the loop) and
``count`` a work count (batch size for convolutions, quadrature evaluations
for proxy moments, node visits for tree walks, 1 otherwise). Nothing in effkit
is edited; ``restore`` puts every original object back.

``layer_metrics`` turns the spans of traced episodes into the per-layer
metrics, using self time (duration minus the time covered by child spans) so
that the layer rows and the unattributed remainder add up to the step time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import effkit.layers as L
import effkit.model as M
import effkit.norms as N
import effkit.train as T
from effkit.model import ConvDims, entry_flops, model_plan

NAME, KEY, START, END, PARENT, STEP, COUNT = range(7)

BYTES_PER_ELEMENT = 8  # every tensor is float64

LAYER_CLASSES = (
    L.Conv, L.NormAct, L.SqueezeExcite, L.Linear, L.GlobalAvgPool, M.MBConv, M.EfficientNet,
)
TREE_WALKS = ("params", "grads", "buffers", "state", "zero_grads")


def _conv_forward_batch(args):
    return args[0].shape[0]


def _conv_backward_batch(args):
    return args[1].shape[0]


def _quadrature_evals(args):
    gamma, quad = args[0], args[5]
    return gamma.size * quad.nodes.size


# (module, attribute, work count or None). Each name is where the calling
# code looks the function up, so the wrapper sees every call.
FUNCTIONS = (
    (L, "conv_forward", _conv_forward_batch),
    (L, "conv_backward", _conv_backward_batch),
    (L, "normalize", None),
    (L, "normalize_backward", None),
    (L, "pn_activation", None),
    (L, "pn_activation_backward", None),
    (L, "scaled_activation", None),
    (L, "scaled_activation_backward", None),
    (L, "sigmoid", None),
    (N, "sigmoid", None),
    (N, "proxy_moments", _quadrature_evals),
    (N, "proxy_moment_grads", _quadrature_evals),
    (T, "rmsprop_step", None),
    (T, "sgd_step", None),
    (T, "ema_update", None),
    (T, "_run_batch", None),
    (T, "lr_at", None),
    (T, "cosine_lr", None),
    (T, "_as_distribution", None),
)

# Span name -> per-layer metric that receives its self time. Convolution
# spans are routed by layer kind in ``_category``.
CATEGORY = {
    "Conv.forward": "layers.dispatch_ms",
    "Conv.backward": "layers.dispatch_ms",
    "NormAct.forward": "layers.dispatch_ms",
    "NormAct.backward": "layers.dispatch_ms",
    "normalize": "norms.normalize.fwd_ms",
    "normalize_backward": "norms.normalize.bwd_ms",
    "pn_activation": "norms.act.fwd_ms",
    "scaled_activation": "norms.act.fwd_ms",
    "pn_activation_backward": "norms.act.bwd_ms",
    "scaled_activation_backward": "norms.act.bwd_ms",
    "sigmoid": "norms.sigmoid.ms",
    "proxy_moments": "norms.proxy.ms",
    "proxy_moment_grads": "norms.proxy.ms",
    "SqueezeExcite.forward": "layers.se.ms",
    "SqueezeExcite.backward": "layers.se.ms",
    "Linear.forward": "layers.linear.ms",
    "Linear.backward": "layers.linear.ms",
    "GlobalAvgPool.forward": "layers.pool.ms",
    "GlobalAvgPool.backward": "layers.pool.ms",
    "tree_walk": "layers.tree_walk_ms",
    "MBConv.forward": "model.self_ms",
    "MBConv.backward": "model.self_ms",
    "EfficientNet.forward": "model.self_ms",
    "EfficientNet.backward": "model.self_ms",
    "rmsprop_step": "train.optimizer_ms",
    "sgd_step": "train.optimizer_ms",
    "ema_update": "train.ema_ms",
    "_run_batch": "train.loop_self_ms",
    "lr_at": "train.loop_self_ms",
    "cosine_lr": "train.loop_self_ms",
    "_as_distribution": "train.loop_self_ms",
    "Checkpoint.save": "checkpoint.save_ms",
    "Checkpoint.load": "checkpoint.load_ms",
    "data.gen": "data.gen_ms",
    "model.build": "model.build_ms",
}

# Self-time metrics reported per step; together with trace.unattributed_ms
# and train.ema_ms (a per-episode total) they account for every step.
STEP_TIME_METRICS = (
    "convs.spatial.fwd_ms", "convs.spatial.bwd_ms", "convs.pointwise.fwd_ms",
    "convs.pointwise.bwd_ms", "convs.stem.ms",
    "norms.normalize.fwd_ms", "norms.normalize.bwd_ms", "norms.act.fwd_ms",
    "norms.act.bwd_ms", "norms.sigmoid.ms", "norms.proxy.ms",
    "layers.se.ms", "layers.linear.ms", "layers.pool.ms", "layers.dispatch_ms",
    "layers.tree_walk_ms", "model.self_ms", "train.optimizer_ms", "train.loop_self_ms",
)


def targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) a tracer replaces."""
    out = [(module, attr) for module, attr, _ in FUNCTIONS]
    out += [(cls, attr) for cls in LAYER_CLASSES for attr in ("forward", "backward")]
    out += [(L.Layer, attr) for attr in TREE_WALKS]
    out += [(T.Checkpoint, "save"), (T.Checkpoint, "load")]
    return out


class Tracer:
    """Installs span-recording wrappers on enter and restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.step: int | None = None
        self.names: dict[int, str] = {}
        self._open: list[int] = []
        self._walk_root: int | None = None
        self._patches: list[tuple] = []

    # -- span recording -----------------------------------------------------

    def _begin(self, name, key, count=1):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, key, time.perf_counter(), 0.0, parent, self.step, count])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][END] = time.perf_counter()

    @contextmanager
    def span(self, name):
        """A span around a call the benchmark itself makes."""
        self._begin(name, None)
        try:
            yield
        finally:
            self._end()

    def name_layers(self, model) -> None:
        """Key every layer of ``model`` by its model_plan flat name."""
        self.names = {}

        def visit(layer, prefix):
            self.names[id(layer)] = prefix
            for cname, child in layer._children.items():
                visit(child, f"{prefix}/{cname}" if prefix else cname)

        visit(model, "")

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn, name, count=None):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name, None, count(args) if count else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def _wrap_method(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(layer, *args, **kwargs):
            tracer._begin(name, tracer.names.get(id(layer)))
            try:
                return fn(layer, *args, **kwargs)
            finally:
                tracer._end()

        return traced

    def _wrap_walk(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(layer, *args, **kwargs):
            # Walks recurse through the same method: one span per outermost
            # walk, with every nested visit added to its count.
            if tracer._walk_root is not None:
                tracer.spans[tracer._walk_root][COUNT] += 1
                return fn(layer, *args, **kwargs)
            tracer._begin("tree_walk", tracer.names.get(id(layer)))
            tracer._walk_root = tracer._open[-1]
            try:
                return fn(layer, *args, **kwargs)
            finally:
                tracer._walk_root = None
                tracer._end()

        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, count in FUNCTIONS:
            self._patch(module, attr, self._wrap_function(vars(module)[attr], attr, count))
        for cls in LAYER_CLASSES:
            for attr in ("forward", "backward"):
                name = f"{cls.__name__}.{attr}"
                self._patch(cls, attr, self._wrap_method(vars(cls)[attr], name))
        for attr in TREE_WALKS:
            self._patch(L.Layer, attr, self._wrap_walk(vars(L.Layer)[attr]))
        ckpt = T.Checkpoint
        self._patch(ckpt, "save", self._wrap_function(vars(ckpt)["save"], "Checkpoint.save"))
        load = vars(ckpt)["load"].__func__
        self._patch(ckpt, "load", classmethod(self._wrap_function(load, "Checkpoint.load")))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def write_spans(fh, episodes) -> None:
    """Spans as JSON lines: episode number, span index, then the record."""
    for number, ep in enumerate(episodes):
        for i, rec in enumerate(ep.spans):
            fh.write(json.dumps([number, i, *rec]) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def conv_plan(config, resolution) -> dict[str, ConvDims]:
    return {e.name: e for e in model_plan(config, resolution) if isinstance(e, ConvDims)}


def _conv_kind(key, convs) -> str:
    if key == "stem_conv":
        return "stem"
    return "pointwise" if convs[key].kernel == 1 else "spatial"


def _category(spans, rec, convs) -> str:
    name = rec[NAME]
    if name in ("conv_forward", "conv_backward"):
        kind = _conv_kind(spans[rec[PARENT]][KEY], convs)
        if kind == "stem":
            return "convs.stem.ms"
        return f"convs.{kind}.{'fwd' if name == 'conv_forward' else 'bwd'}_ms"
    return CATEGORY[name]


def conv_bytes(dims: ConvDims, batch: int, backward: bool) -> int:
    """Computed bytes of one call: forward reads x and w and writes y;
    backward reads x, w and dy and writes dx and dw."""
    x = batch * dims.in_channels * dims.in_size**2
    y = batch * dims.out_channels * dims.out_size**2
    w = dims.out_channels * dims.group_size * dims.kernel**2
    elements = (2 * x + 2 * w + y) if backward else (x + w + y)
    return elements * BYTES_PER_ELEMENT


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class EpisodeTrace:
    """The spans of one traced episode with its step clock."""

    spans: list[list]
    step_times: list[float]
    batch_index: list[int]
    # Top-level children of the model that hold no trainable parameter and
    # precede every child that does: their backward trains nothing and their
    # forward output is fixed for a given batch.
    off_path: set[str]


_LAYER_NAMES = {cls.__name__ for cls in LAYER_CLASSES}
OUT_OF_STEP = ("checkpoint.save_ms", "checkpoint.load_ms", "data.gen_ms", "model.build_ms")


def layer_metrics(episodes: list[EpisodeTrace], config, resolution) -> tuple[dict, list[dict]]:
    """Per-layer metrics over the traced episodes, and per-layer rows keyed
    by model_plan flat names (per step, inclusive times)."""
    convs = conv_plan(config, resolution)
    sums = dict.fromkeys(STEP_TIME_METRICS + ("train.ema_ms",) + OUT_OF_STEP, 0.0)
    counts = dict.fromkeys(("convs.calls", "convs.gflop", "convs.mb_computed",
                            "norms.sigmoid.calls", "norms.proxy.evals",
                            "layers.tree_walk.calls"), 0)
    conv_flop = {"spatial": 0.0, "pointwise": 0.0}
    conv_busy = {"spatial": 0.0, "pointwise": 0.0}
    fwd = bwd = bwd_off = fwd_repeat = root_time = 0.0
    step_times = []
    rows: dict[str, dict] = {}
    for ep in episodes:
        spans = ep.spans
        step_times += ep.step_times
        seen, repeated = set(), []
        for batch in ep.batch_index:
            repeated.append(batch in seen)
            seen.add(batch)
        for rec, own in zip(spans, self_times(spans)):
            name, key, step = rec[NAME], rec[KEY], rec[STEP]
            duration = rec[END] - rec[START]
            category = _category(spans, rec, convs)
            if step is None:
                if category in OUT_OF_STEP:
                    sums[category] += duration
                continue
            sums[category] += own
            parent = spans[rec[PARENT]] if rec[PARENT] is not None else None
            if parent is None:
                root_time += duration
            kind, _, phase = name.partition(".")
            if kind in _LAYER_NAMES and key:
                row = rows.setdefault(key, {"forward": 0.0, "backward": 0.0, "flop": 0.0})
                row[phase] += duration
            if name in ("conv_forward", "conv_backward"):
                dims = convs[parent[KEY]]
                backward = name == "conv_backward"
                flop = entry_flops(dims) * rec[COUNT] * (2 if backward else 1)
                rows[parent[KEY]]["flop"] += flop
                counts["convs.calls"] += 1
                counts["convs.gflop"] += flop / 1e9
                counts["convs.mb_computed"] += conv_bytes(dims, rec[COUNT], backward) / 1e6
                conv_kind = _conv_kind(parent[KEY], convs)
                if conv_kind in conv_flop:
                    conv_flop[conv_kind] += flop
                    conv_busy[conv_kind] += own
            elif name == "sigmoid":
                counts["norms.sigmoid.calls"] += 1
            elif name in ("proxy_moments", "proxy_moment_grads"):
                counts["norms.proxy.evals"] += rec[COUNT]
            elif name == "tree_walk":
                counts["layers.tree_walk.calls"] += rec[COUNT]
            elif name == "EfficientNet.forward":
                fwd += duration
            elif name == "EfficientNet.backward":
                bwd += duration
            if parent is not None and parent[NAME].startswith("EfficientNet.") and key in ep.off_path:
                if phase == "backward":
                    bwd_off += duration
                elif repeated[step]:
                    fwd_repeat += duration

    n_steps = len(step_times)
    per_step_ms = 1e3 / n_steps
    per_episode_ms = 1e3 / len(episodes)
    metrics = {k: sums[k] * per_step_ms for k in STEP_TIME_METRICS}
    metrics.update({k: sums[k] * per_episode_ms for k in ("train.ema_ms",) + OUT_OF_STEP})
    metrics.update({k: v / n_steps for k, v in counts.items()})
    for kind in conv_flop:
        busy = conv_busy[kind]
        metrics[f"convs.{kind}.gflop_per_s"] = conv_flop[kind] / 1e9 / busy if busy else 0.0
    metrics["model.fwd_ms"] = fwd * per_step_ms
    metrics["model.bwd_ms"] = bwd * per_step_ms
    metrics["model.bwd_useful_share"] = 1.0 - bwd_off / bwd
    metrics["model.fwd_repeat_share"] = fwd_repeat / fwd
    value, pct = tail(step_times)
    metrics["train.step_ms_tail"] = value * 1e3
    metrics["train.step_ms_tail.pct"] = pct
    metrics["train.traced_steps"] = n_steps
    metrics["trace.step_ms"] = sum(step_times) * per_step_ms
    metrics["trace.unattributed_ms"] = (sum(step_times) - root_time) * per_step_ms

    kinds = {e.name: type(e).__name__.removesuffix("Dims").lower()
             for e in model_plan(config, resolution)}
    layer_rows = []
    for key in sorted(rows):
        row = rows[key]
        busy = row["forward"] + row["backward"]
        layer_rows.append({
            "layer": key,
            "type": kinds.get(key, "block" if key.count("/") == 1 else key.rsplit("/", 1)[-1]),
            "fwd_ms": row["forward"] * per_step_ms,
            "bwd_ms": row["backward"] * per_step_ms,
            "gflop": row["flop"] / 1e9 / n_steps,
            "gflop_per_s": row["flop"] / 1e9 / busy if row["flop"] else 0.0,
        })
    return metrics, layer_rows
