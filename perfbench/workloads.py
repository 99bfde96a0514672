"""The four effkit workloads, their correctness gate, and one benchmark run.

Each workload drives effkit's public API the way ``effkit train`` and
``effkit finetune`` do: ``build_model`` (or ``Checkpoint.load`` plus
``Checkpoint.build_model``), ``blob_dataset``/``as_batches``, then
``train_loop`` or ``finetune``, then ``Checkpoint.save``. One *episode* is
that whole sequence from a fresh model; a run repeats episodes of the same
seed until its time is used, so every episode of a run must end in the same
state.

Every run also trains one untimed episode on the anchor seed, as its
warm-up, and compares that episode's losses with ``reference.json``: the
losses of a run's own seed vary too much from seed to seed to gate on.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import effkit
from effkit import Checkpoint, FinetuneRecipe, ModelConfig, TrainRecipe, build_model, make_rng
from effkit import finetune, train_loop
from effkit.data import as_batches, blob_dataset
from effkit.norms import NormSpec
from effkit.train import smoothed_cross_entropy, smoothed_cross_entropy_grad

from tracing import EpisodeTrace, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
CLASSES = 2
# Every episode starts from the same weights, criterion 9's initialization;
# --seed makes the data (and the train order).
INIT_SEED = 0
# The seed of the reference episode of every run, and of the fine-tune
# source checkpoint. Its losses are compared with reference.json.
ANCHOR_SEED = 0
FINETUNE_SCOPE = "last-1"
# Set-ups timed per run for the setup_s median: at least this many, and
# for at least this long (one b0 set-up takes about 0.12 s, a tiny one 0.025 s).
SETUP_MIN_SAMPLES = 9
SETUP_SECONDS = 2.0
MIN_TRACED_STEPS = 11  # so that the step-time tail has ten steps beyond it
FD_STEP = 1e-6  # central-difference step of the gradient check
FD_TOLERANCE = 1e-5  # its relative tolerance; float64 differences reach ~1e-8

def _b0(group_size: int, expansion: int, norm: str, proxy: bool) -> ModelConfig:
    return ModelConfig.efficientnet(
        "b0", group_size=group_size, expansion=expansion,
        norm=NormSpec(norm), proxy=proxy, num_classes=CLASSES,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    config: ModelConfig
    resolution: int
    batch: int
    samples: int
    epochs: int
    max_steps: int | None = None
    finetune: bool = False
    min_accuracy: float | None = None


# Why each workload exists is in BENCHMARK.json and the README. tiny_train
# runs on request but is not in BENCHMARK.json's list: its interpreter-bound
# steps changed speed by up to a third from one run to the next on a shared
# 2-vCPU host, more than any bound allows.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tiny_train", ModelConfig.tiny(), resolution=32, batch=8, samples=256,
                 epochs=7, max_steps=200, min_accuracy=0.90),
        Workload("b0g16_train", _b0(16, 4, "ln", True), resolution=64, batch=4,
                 samples=32, epochs=1),
        Workload("b0dw_bn_train", _b0(1, 6, "bn", False), resolution=64, batch=4,
                 samples=32, epochs=1),
        Workload("b0g16_finetune", _b0(16, 4, "ln", True), resolution=64, batch=4,
                 samples=16, epochs=2, finetune=True),
    )
}


# Losses of the anchor episode gated against reference.json.
ANCHOR_LOSSES = ("final_loss", "eval_loss")


def reference() -> dict:
    """The anchor episode's losses per workload and their relative
    tolerance (see calibrate.py)."""
    return json.loads((HERE / "reference.json").read_text())


# ---------------------------------------------------------------------------
# Steps timed from outside
# ---------------------------------------------------------------------------


class StepClock:
    """Stamps the time at which the loop pulls each batch.

    ``train_loop`` and ``finetune`` unpack every batch as ``for x, y in
    data``; wrapping each batch in an object whose ``__iter__`` stamps the
    clock marks the start of every step without touching the loop.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.stamps: list[float] = []
        self.batch_index: list[int] = []
        self.tracer = tracer

    def wrap(self, batches):
        return [_Pulled(self, i, batch) for i, batch in enumerate(batches)]

    def pull(self, index: int) -> None:
        self.stamps.append(time.perf_counter())
        self.batch_index.append(index)
        if self.tracer is not None:
            self.tracer.step = len(self.stamps) - 1

    def stop(self, end: float) -> list[float]:
        """Close the last step at the loop's return; the step durations."""
        if self.tracer is not None:
            self.tracer.step = None
        return [float(d) for d in np.diff(self.stamps + [end])]


class _Pulled:
    __slots__ = ("clock", "index", "batch")

    def __init__(self, clock, index, batch):
        self.clock, self.index, self.batch = clock, index, batch

    def __iter__(self):
        self.clock.pull(self.index)
        return iter(self.batch)


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    setup_s: float
    loop_s: float
    save_s: float
    step_s: list[float]
    batch_index: list[int]
    samples: int
    digest: str = ""
    final_loss: float = math.nan
    eval_loss: float = math.nan
    accuracy: float = math.nan
    failures: list[str] = field(default_factory=list)
    trace: EpisodeTrace | None = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.loop_s + self.save_s

    @property
    def failed_steps(self) -> int:
        return len(self.step_s) if self.failures else 0


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def state_digest(state: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()


def setup(wl: Workload, seed: int, fixture: Path | None, tracer: Tracer | None = None):
    """Data and model as the CLI makes them; returns (batches, x, y, model, ckpt)."""
    ckpt = None
    if wl.finetune:
        ckpt = Checkpoint.load(fixture)
        with _span(tracer, "model.build"):
            model = ckpt.build_model(make_rng(INIT_SEED))
    else:
        with _span(tracer, "model.build"):
            model = build_model(wl.config, make_rng(INIT_SEED))
    with _span(tracer, "data.gen"):
        x, y = blob_dataset(wl.samples, size=wl.resolution, classes=CLASSES, seed=seed)
        batches = as_batches(x, y, wl.batch)
    return batches, x, y, model, ckpt


def make_fixture(path: Path) -> None:
    """The fine-tune source: a b0g16 checkpoint written by ``train_loop``
    on the anchor seed's data, the same for every run."""
    wl = WORKLOADS["b0g16_finetune"]
    model = build_model(wl.config, make_rng(INIT_SEED))
    x, y = blob_dataset(wl.samples, size=wl.resolution, classes=CLASSES, seed=ANCHOR_SEED)
    recipe = TrainRecipe(global_batch=wl.batch, epochs=1)
    ckpt = train_loop(model, as_batches(x, y, wl.batch), recipe, seed=ANCHOR_SEED)
    ckpt.save(path)


def fixture_in_child(path: Path) -> None:
    """Write the fine-tune source checkpoint in a child process, so that its
    training counts in neither the run's time nor its peak memory."""
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "b0g16_finetune",
         "--make-fixture", str(path)],
        check=True, timeout=170, stdout=subprocess.DEVNULL,
    )


def run_episode(wl: Workload, seed: int, work: Path, fixture: Path | None,
                tracer: Tracer | None = None, short: bool = False) -> Episode:
    """One set-up, loop and save; then the correctness checks, untimed.

    ``short`` runs two steps only and skips the checks that need the full
    recipe (smoke runs).
    """
    t0 = time.perf_counter()
    batches, x, y, model, ckpt = setup(wl, seed, fixture, tracer)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.name_layers(model)
    clock = StepClock(tracer)
    log = work / "log.csv"
    if wl.finetune:
        batches = batches[:1] if short else batches
        recipe = FinetuneRecipe(scope=FINETUNE_SCOPE, epochs=wl.epochs, batch=wl.batch)
        data = clock.wrap(batches)
        t2 = time.perf_counter()
        result = finetune(model, ckpt, recipe, data, log_path=log)
    else:
        recipe = TrainRecipe(global_batch=wl.batch, epochs=wl.epochs)
        steps = 2 if short else wl.max_steps
        data = clock.wrap(batches)
        t2 = time.perf_counter()
        result = train_loop(model, data, recipe, seed=seed, max_steps=steps, log_path=log)
    t3 = time.perf_counter()
    step_s = clock.stop(t3)
    path = work / "checkpoint.bin"
    result.save(path)
    t4 = time.perf_counter()
    ep = Episode(
        setup_s=t1 - t0, loop_s=t3 - t2, save_s=t4 - t3, step_s=step_s,
        batch_index=clock.batch_index, samples=len(step_s) * wl.batch,
    )
    _check(ep, wl, result, model, ckpt, x, y, log, path, short)
    if tracer is not None:
        ep.trace = EpisodeTrace(tracer.spans, step_s, clock.batch_index,
                                off_path(model, trainable(wl, model)))
    return ep


def trainable(wl: Workload, model) -> set[str]:
    if wl.finetune:
        return model.scope_param_names(int(FINETUNE_SCOPE.split("-")[1]))
    return set(model.params())


def off_path(model, names: set[str]) -> set[str]:
    """Top-level children before the first one that holds a trainable name."""
    out = set()
    for child in model._order:
        if any(n.startswith(child + "/") for n in names):
            break
        out.add(child)
    return out


def _check(ep, wl, result, model, ckpt, x, y, log, path, short) -> None:
    """Fill in the episode's failures; an empty list means it passed."""
    with open(log, newline="") as fh:
        losses = [float(row["loss"]) for row in csv.DictReader(fh)]
    if len(losses) != len(ep.step_s):
        ep.failures.append(f"{len(losses)} logged steps, {len(ep.step_s)} timed")
    if not all(math.isfinite(v) for v in losses):
        ep.failures.append("non-finite loss")
    ep.final_loss = losses[-1] if losses else math.nan
    ep.digest = state_digest(result.state)
    if not wl.finetune:
        # The fine-tune workload reads a saved checkpoint in its set-up; the
        # train workloads read theirs back here.
        if state_digest(Checkpoint.load(path).state) != ep.digest:
            ep.failures.append("saved checkpoint does not read back")
    else:
        scoped = trainable(wl, model)
        frozen_moved = [n for n in result.ema if n not in scoped
                        and not np.array_equal(result.ema[n], ckpt.ema[n])]
        if frozen_moved:
            ep.failures.append(f"parameters outside the scope changed: {frozen_moved[:3]}")
        if all(np.array_equal(result.ema[n], ckpt.ema[n]) for n in scoped):
            ep.failures.append("no scoped parameter changed")
    if short:
        return
    # Eval mode on a fixed batch: the seeds agree on this loss far more
    # closely than on the last training step's, and it runs BN's running
    # statistics, which no training step uses.
    logits = model.forward(x[:wl.batch], train=False)
    ep.eval_loss = float(smoothed_cross_entropy(logits, y[:wl.batch], 0.0))
    if wl.min_accuracy is not None:
        # Evaluate at the training batch size, so the check does not set the
        # run's peak memory. The bar applies to the anchor episode.
        logits = np.concatenate([model.forward(x[i:i + wl.batch], train=False)
                                 for i in range(0, len(x), wl.batch)])
        ep.accuracy = float(np.mean(np.argmax(logits, axis=1) == y))


def gradient_check(wl: Workload, seed: int, fixture: Path | None) -> list[str]:
    """Directional finite differences against the model's backward pass.

    On a freshly set-up model and the first batch, one random direction per
    kind of parameter (conv and dense weights, biases, gammas, betas, proxy
    parameters): the analytic directional derivative must match the central
    difference of the loss. Rounding changes pass; a wrong gradient fails.
    """
    batches, _, _, model, _ = setup(wl, seed, fixture)
    x, labels = batches[0]
    smoothing = 0.0 if wl.finetune else TrainRecipe(global_batch=wl.batch).label_smoothing
    model.zero_grads()
    model.backward(smoothed_cross_entropy_grad(model.forward(x), labels, smoothing))
    grads = {name: g.copy() for name, g in model.grads().items()}
    params = model.params()
    groups: dict[str, list[str]] = {}
    for name in sorted(params):
        kind = name.rsplit("/", 1)[-1]
        if kind == "weight":
            kind = "conv.weight" if name.endswith("_conv/weight") else "dense.weight"
        groups.setdefault(kind, []).append(name)
    rng = make_rng(seed)
    failures = []
    for kind, names in groups.items():
        direction = {n: rng.standard_normal(params[n].shape) for n in names}
        analytic = sum(float(np.vdot(grads[n], direction[n])) for n in names)
        original = {n: params[n].copy() for n in names}

        def loss_at(t):
            for n in names:
                params[n][...] = original[n] + t * direction[n]
            return smoothed_cross_entropy(model.forward(x), labels, smoothing)

        numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
        loss_at(0.0)
        error = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
        if not error <= FD_TOLERANCE:
            failures.append(f"{kind} gradient: analytic {analytic:.6e}, numeric "
                            f"{numeric:.6e}, relative error {error:.1e}")
    return failures


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def machine() -> dict:
    """The machine descriptor recorded with every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    backend = getattr(effkit, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "conv_backend": backend() if callable(backend) else "numpy",
    }


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    episodes: list[Episode]
    layer_rows: list[dict]
    anchor: Episode


def _episodes_until(deadline, fn, min_steps=0):
    """Repeat ``fn`` while another episode of the last one's length fits
    before ``deadline``, and at least until ``min_steps`` steps ran."""
    out = []
    while True:
        start = time.perf_counter()
        out.append(fn())
        now = time.perf_counter()
        steps = sum(len(ep.step_s) for ep in out)
        if now + (now - start) > deadline and steps >= min_steps:
            return out


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        smoke: bool = False) -> Result:
    """One benchmark run of workload ``name``: the anchor episode, which is
    also the warm-up, then episodes of ``seed`` for ``seconds`` (untraced,
    or one untraced then traced ones)."""
    wl = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    fixture = None
    if wl.finetune:
        fixture = work / "fixture.bin"
        fixture_in_child(fixture)

    def once(tracer=None):
        return run_episode(wl, seed, work, fixture, tracer, short=smoke)

    def traced():
        with Tracer() as tracer:
            return once(tracer)

    anchor = run_episode(wl, ANCHOR_SEED, work, fixture, short=smoke)  # not measured
    deadline = time.perf_counter() + seconds
    if trace:
        untraced = once()
        measured = _episodes_until(deadline, traced, 2 if smoke else MIN_TRACED_STEPS)
        metrics, rows = layer_metrics([ep.trace for ep in measured], wl.config, wl.resolution)
        traced_p50 = statistics.median(s for ep in measured for s in ep.step_s)
        metrics["trace.overhead_share"] = traced_p50 / statistics.median(untraced.step_s) - 1.0
        metrics["checkpoint.mb"] = (work / "checkpoint.bin").stat().st_size / 1e6
        episodes = [untraced] + measured
    else:
        episodes = _episodes_until(deadline, once)
        setups = [ep.setup_s for ep in episodes]
        stop = time.perf_counter() + SETUP_SECONDS
        while len(setups) < SETUP_MIN_SAMPLES or time.perf_counter() < stop:
            t0 = time.perf_counter()
            setup(wl, seed, fixture)
            setups.append(time.perf_counter() - t0)
        rows = []
        metrics = {
            "samples_per_s": statistics.median(ep.samples / ep.loop_s for ep in episodes),
            "step_ms_p50": statistics.median(s for ep in episodes for s in ep.step_s) * 1e3,
            "wall_s": statistics.median(ep.wall_s for ep in episodes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    run_failures = gradient_check(wl, seed, fixture)
    run_failures += [f"anchor episode: {f}" for f in anchor.failures]
    if not smoke:
        run_failures += anchor_failures(wl, anchor, reference())
    _check_run(episodes, run_failures)
    attempted = sum(len(ep.step_s) for ep in episodes)
    failed = sum(ep.failed_steps for ep in episodes)
    if not trace:
        metrics["pass_share"] = (attempted - failed) / attempted
    return Result(metrics, attempted, failed, episodes, rows, anchor)


def anchor_failures(wl: Workload, anchor: Episode, ref: dict) -> list[str]:
    """The anchor episode's losses against the reference, within its
    relative tolerance, and (tiny_train) its accuracy against the bar."""
    failures = []
    tolerance = ref["relative_tolerance"]
    for quantity in ANCHOR_LOSSES:
        want, got = ref[wl.name][quantity], getattr(anchor, quantity)
        if not abs(got - want) <= tolerance * abs(want):
            failures.append(f"anchor {quantity} {got!r}, reference {want!r} "
                            f"(relative tolerance {tolerance:g})")
    if wl.min_accuracy is not None and not anchor.accuracy >= wl.min_accuracy:
        failures.append(f"anchor eval accuracy {anchor.accuracy:.3f} < {wl.min_accuracy}")
    return failures


def _check_run(episodes: list[Episode], run_failures: list[str]) -> None:
    """Checks across the episodes of one run; a failure of the run as a
    whole fails every episode."""
    for ep in episodes:
        ep.failures += run_failures
    digests = {ep.digest for ep in episodes}
    if len(digests) > 1:
        # Same seed, same inputs: every episode must end in the same state.
        for ep in episodes:
            ep.failures.append(f"{len(digests)} different state digests for one seed")
