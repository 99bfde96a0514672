"""Training and fine-tuning recipe at desk scale.

Training uses RMSProp with momentum folded as a velocity term, a staircase
learning-rate decay, weight decay restricted to convolution weights and the
proxy shift/scale parameters, label smoothing, an exponential moving
average of weights taken once per epoch, and optional Mixup/CutMix batch
augmentation. Fine-tuning starts from the averaged weights and runs plain
SGD under a cosine schedule on the last one, two or three network segments
only. Both run one step loop, ``_step_loop``, and pass it what differs: the
schedule, the update, the gradients to zero, the model's input and the EMA.
Every run is a pure function of (seed, recipe, data order).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import Checkpoint
from .layers import decay_param_names
from .model import EfficientNet
from .tensor import make_rng

LR_EXPONENT = -14  # base_lr = B * 2^-14, and rmsprop_decay = 1 - B * 2^-14
FINETUNE_SCOPES = ("last-1", "last-2", "last-3")
RMSPROP_BLOCK = 1 << 14  # elements per block of rmsprop_step: 128 KB of float64


@dataclass(frozen=True)
class TrainRecipe:
    """A training run's settings; the rest of EfficientNet's recipe (Tan & Le
    2019) is fixed. Its constants are class attributes, not fields, so the
    constructor and ``asdict`` do not see them; ``CONSTANTS`` names them and
    the derived ``rmsprop_decay`` for ``recipe_fingerprint``."""

    global_batch: int
    epochs: int = 1
    base_lr: float | None = None  # None derives global_batch * 2^-14
    augment: bool = False

    rmsprop_momentum = 0.9
    rmsprop_delta = 1e-3
    weight_decay = 1e-5
    label_smoothing = 0.1
    lr_decay_factor = 0.97
    lr_decay_epochs = 2.4
    ema_decay = 0.97
    mixup_alpha = 0.2
    cutmix_alpha = 0.2
    CONSTANTS = ("rmsprop_momentum", "rmsprop_decay", "rmsprop_delta", "weight_decay",
                 "label_smoothing", "lr_decay_factor", "lr_decay_epochs", "ema_decay",
                 "mixup_alpha", "cutmix_alpha")

    def __post_init__(self):
        if self.global_batch < 1:
            raise ValueError(f"global_batch must be positive, got {self.global_batch}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.base_lr is None:
            object.__setattr__(self, "base_lr", self.global_batch * 2.0**LR_EXPONENT)
        if not 0.0 < self.base_lr < math.inf:  # NaN fails both comparisons
            raise ValueError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ValueError(f"rmsprop_decay must lie in (0, 1), got {self.rmsprop_decay}")

    @property
    def rmsprop_decay(self) -> float:
        return 1.0 - self.global_batch * 2.0**LR_EXPONENT


@dataclass(frozen=True)
class FinetuneRecipe:
    scope: str = "last-1"
    epochs: int = 2
    batch: int = 512
    initial_lr: float = 0.25

    def __post_init__(self):
        if self.scope not in FINETUNE_SCOPES:
            raise ValueError(f"scope must be one of {FINETUNE_SCOPES}, got {self.scope!r}")
        if self.epochs < 1 or self.batch < 1 or not 0.0 < self.initial_lr < math.inf:
            raise ValueError(f"invalid fine-tune recipe: {self}")

    @property
    def last_k(self) -> int:
        return int(self.scope.split("-")[1])


def recipe_fingerprint(recipe: TrainRecipe | FinetuneRecipe) -> str:
    """SHA-256 of the recipe's fields, and a ``TrainRecipe``'s constants, as
    canonical JSON, recorded in every checkpoint."""
    values = asdict(recipe)
    if isinstance(recipe, TrainRecipe):
        values.update({name: getattr(recipe, name) for name in TrainRecipe.CONSTANTS})
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Schedules and parameter updates
# ---------------------------------------------------------------------------


def lr_at(recipe: TrainRecipe, epoch: float) -> float:
    """Staircase decay: one multiplicative factor per full decay period."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return recipe.base_lr * recipe.lr_decay_factor ** math.floor(epoch / recipe.lr_decay_epochs)


def cosine_lr(step: int, total_steps: int, initial_lr: float) -> float:
    if not 0 <= step <= total_steps or total_steps < 1:
        raise ValueError(f"step {step} outside schedule of {total_steps}")
    return initial_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def init_rmsprop_state(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    state = {}
    for name, p in params.items():
        state[f"acc/{name}"] = np.zeros_like(p)
        state[f"vel/{name}"] = np.zeros_like(p)
    return state


def rmsprop_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict[str, np.ndarray],
    recipe: TrainRecipe,
    lr: float,
    decay_names: frozenset | set = frozenset(),
) -> None:
    """One in-place update. Weight decay is added to the gradient for the
    names in ``decay_names`` only; the accumulator tracks the squared
    (decayed) gradient and the velocity folds in momentum.

    Each array is walked as a flat view in blocks of ``RMSPROP_BLOCK``
    elements, so the blocks of a parameter, its gradient and its state stay
    in cache across the whole update instead of streaming through memory
    once per operation. The per-element operations and their order are
    those of the whole-array form, so the result is bit-identical to it.
    Every array must be C-contiguous, since only then is the flat view not
    a copy.
    """
    rho = recipe.rmsprop_decay
    keep = 1.0 - rho
    momentum = recipe.rmsprop_momentum
    delta = recipe.rmsprop_delta
    wd = recipe.weight_decay
    buf_a = np.empty(RMSPROP_BLOCK)
    buf_b = np.empty(RMSPROP_BLOCK)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        acc = state[f"acc/{name}"]
        vel = state[f"vel/{name}"]
        for label, arr in (("param", p), ("grad", g), ("acc", acc), ("vel", vel)):
            if not arr.flags.c_contiguous:
                raise ValueError(f"{name}: {label} array is not C-contiguous")
        decayed = name in decay_names
        p, g, acc, vel = p.reshape(-1), g.reshape(-1), acc.reshape(-1), vel.reshape(-1)
        for lo in range(0, p.size, RMSPROP_BLOCK):
            hi = min(lo + RMSPROP_BLOCK, p.size)
            pb, gb, ab, vb = p[lo:hi], g[lo:hi], acc[lo:hi], vel[lo:hi]
            a, b = buf_a[: hi - lo], buf_b[: hi - lo]
            if decayed:  # g + wd * p
                np.multiply(pb, wd, out=a)
                np.add(gb, a, out=a)
                gb = a
            ab *= rho  # acc = rho * acc + ((1 - rho) * g) * g
            np.multiply(gb, keep, out=b)
            b *= gb
            ab += b
            vb *= momentum  # vel = momentum * vel + (lr * g) / sqrt(acc + delta)
            np.add(ab, delta, out=b)
            np.sqrt(b, out=b)
            np.multiply(gb, lr, out=a)
            a /= b
            vb += a
            pb -= vb


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    names,
) -> None:
    """Plain SGD on the named subset; everything else is left untouched."""
    for name in names:
        p = params[name]
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        p -= lr * g


def ema_update(
    shadow: dict[str, np.ndarray],
    params: dict[str, np.ndarray],
    decay: float,
) -> dict[str, np.ndarray]:
    """shadow <- decay*shadow + (1-decay)*params; a first call (empty
    shadow) copies the parameters."""
    if not shadow:
        return {name: p.copy() for name, p in params.items()}
    for name, p in params.items():
        s = shadow[name]
        if s.shape != p.shape:
            raise ValueError(f"{name}: shadow shape {s.shape} != param shape {p.shape}")
        s *= decay
        s += (1.0 - decay) * p
    return shadow


# ---------------------------------------------------------------------------
# Loss and batch augmentation
# ---------------------------------------------------------------------------


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels out of range")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _as_distribution(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim == 1:
        return one_hot(labels, num_classes)
    if labels.shape[1] != num_classes:
        raise ValueError(f"target distribution width {labels.shape[1]} != {num_classes}")
    return np.asarray(labels, dtype=np.float64)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _smoothed_losses_and_grad(logits: np.ndarray, dist: np.ndarray, smoothing: float):
    """Per-sample smoothed cross-entropy and d(mean loss)/d(logits) =
    (softmax - smoothed targets) / batch, from one log-softmax. ``dist`` is
    the (B, K) target distribution (``_as_distribution`` of the labels);
    the smoothed targets are (1 - s) on it plus s/K spread over every
    class."""
    target = (1.0 - smoothing) * dist + smoothing / logits.shape[1]
    log_probs = _log_softmax(logits)
    losses = -(target * log_probs).sum(axis=1)
    return losses, (np.exp(log_probs) - target) / logits.shape[0]


def smoothed_cross_entropy(logits: np.ndarray, labels, smoothing: float) -> float:
    dist = _as_distribution(labels, logits.shape[1])
    return float(_smoothed_losses_and_grad(logits, dist, smoothing)[0].mean())


def smoothed_cross_entropy_grad(logits: np.ndarray, labels, smoothing: float) -> np.ndarray:
    """d(mean loss)/d(logits) = (softmax - smoothed targets) / batch."""
    dist = _as_distribution(labels, logits.shape[1])
    return _smoothed_losses_and_grad(logits, dist, smoothing)[1]


def mixup(x1, y1, x2, y2, lam: float):
    """Convex combination of two samples (or batches) and their targets."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    x = lam * x1 + (1.0 - lam) * x2
    y = lam * y1 + (1.0 - lam) * y2
    return x, y


def cutmix(x1, y1, x2, y2, box: tuple[int, int, int, int]):
    """Paste the box region of x2 into x1; target weights follow the pasted
    area fraction. Box is (top, left, height, width) in pixels."""
    top, left, height, width = box
    h, w = x1.shape[-2], x1.shape[-1]
    if top < 0 or left < 0 or height < 0 or width < 0 or top + height > h or left + width > w:
        raise ValueError(f"box {box} outside {h}x{w} image")
    x = np.array(x1, copy=True)
    x[..., top : top + height, left : left + width] = x2[..., top : top + height, left : left + width]
    frac = (height * width) / (h * w)
    y = (1.0 - frac) * y1 + frac * y2
    return x, y


def sample_cut_box(rng: np.random.Generator, size_hw: tuple[int, int], lam: float):
    """Random box whose area is the (1 - lam) fraction, clipped at borders."""
    h, w = size_hw
    cut = math.sqrt(max(0.0, 1.0 - lam))
    ch, cw = int(round(h * cut)), int(round(w * cut))
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    return top, left, ch, cw


def augment_batch(x, targets, rng: np.random.Generator, recipe: TrainRecipe):
    """Pair each batch with a shuffled copy of itself and apply Mixup or
    CutMix, the method chosen uniformly per batch."""
    perm = rng.permutation(x.shape[0])
    x2, y2 = x[perm], targets[perm]
    if rng.random() < 0.5:
        lam = float(rng.beta(recipe.mixup_alpha, recipe.mixup_alpha))
        return mixup(x, targets, x2, y2, lam)
    lam = float(rng.beta(recipe.cutmix_alpha, recipe.cutmix_alpha))
    box = sample_cut_box(rng, x.shape[-2:], lam)
    return cutmix(x, targets, x2, y2, box)


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


def _run_batch(model, x, targets, smoothing, micro_batch_size, first):
    """Forward/backward over one logical batch, accumulating gradients.

    ``x`` is the input of child ``first`` of ``model._order``: the children
    from there on run forward, and backward stops at that child without
    computing its input gradient, which nothing reads.

    With a micro-batch size the batch is processed in chunks whose loss
    gradients are scaled by chunk/total. With batch-independent layers each
    sample's forward output is bit-identical to the single large-batch
    pass, and the accumulated gradients equal its gradients to rounding:
    they are sums over samples, which the chunks add in another order.
    """
    total = x.shape[0]
    size = total if micro_batch_size is None else micro_batch_size
    loss_sum = 0.0
    correct = 0
    for start in range(0, total, size):
        xs = x[start : start + size]
        ts = targets[start : start + size]
        logits = model.forward(xs, train=True, start=first)
        losses, dlogits = _smoothed_losses_and_grad(logits, ts, smoothing)
        loss_sum += float(losses.sum())
        correct += int((logits.argmax(axis=1) == ts.argmax(axis=1)).sum())
        model.backward(dlogits * (xs.shape[0] / total), stop=first, input_grad=False)
    return loss_sum / total, correct / total


def _step_loop(model, data, steps, batch, grads, schedule, inputs, update, end_epoch,
               smoothing, micro_batch_size, first, log_path) -> None:
    """Run ``steps`` steps over ``data``, epoch after epoch, and write the
    log (none for ``log_path=None``), the log so far on a non-finite loss.
    ``inputs(i, x, targets)`` makes the input of child ``first`` from the
    batch at position ``i``; ``end_epoch()`` follows every epoch begun."""
    num_classes = model.config.num_classes
    log_rows = []
    step = 0
    for epoch in range(math.ceil(steps / len(data))):
        for i, (x, y) in enumerate(data):
            if x.shape[0] != batch:  # the lr and the fingerprint assume the recipe's
                raise ValueError(
                    f"a batch of {x.shape[0]} samples, but the recipe's batch is {batch}")
            lr = schedule(step)
            x, targets = inputs(i, x, _as_distribution(y, num_classes))
            for g in grads:
                g[...] = 0.0
            loss, acc = _run_batch(model, x, targets, smoothing, micro_batch_size, first)
            log_rows.append((epoch, step, lr, loss, acc))
            if not math.isfinite(loss):
                _write_log(log_path, log_rows)
                raise FloatingPointError(f"non-finite loss {loss} at step {step}")
            update(lr)
            step += 1
            if step == steps:
                break
        end_epoch()
    _write_log(log_path, log_rows)


def train_loop(
    model: EfficientNet,
    data,
    recipe: TrainRecipe,
    seed: int,
    max_steps: int | None = None,
    micro_batch_size: int | None = None,
    log_path=None,
) -> Checkpoint:
    """Run the recipe over ``data`` (a sequence of (images, labels) batches
    forming one epoch, iterated ``recipe.epochs`` times) and return the
    final checkpoint. Deterministic for fixed (seed, recipe, data order).

    A ``max_steps``, when given, must be at least 1; the run stops after
    that many steps. A ``micro_batch_size`` accumulates each batch's
    gradients over chunks of that size. It must be positive, and the model's
    norm batch-independent: batch norm's statistics would depend on the
    chunking.

    Every batch must hold ``recipe.global_batch`` samples, or
    ``ValueError`` is raised when the loop reaches it.

    The checkpoint (``Checkpoint.from_model``) holds the final state and the
    weight average; the RMSProp state lives only while the loop runs.

    Raises ``FloatingPointError`` on a non-finite step loss, and
    ``from_model`` on a non-finite final state or average; the log up to
    that point is still written.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    if micro_batch_size is not None:
        if micro_batch_size < 1:
            raise ValueError(f"micro-batch size must be positive, got {micro_batch_size}")
        if model.config.norm.batch_dependent:
            raise ValueError(
                f"micro-batching needs a batch-independent norm, not {model.config.norm.kind!r}"
            )
    data = list(data)
    if not data:
        raise ValueError("no training batches")
    steps = recipe.epochs * len(data)
    if max_steps is not None:
        steps = min(steps, max_steps)
    rng = make_rng(seed)
    params = model.params()
    grads = model.grads()  # backward accumulates into these arrays in place
    state = init_rmsprop_state(params)
    decay_names = frozenset(decay_param_names(model))
    ema: dict[str, np.ndarray] = {}

    def augment(i, x, targets):
        return augment_batch(x, targets, rng, recipe) if recipe.augment else (x, targets)

    def average():
        nonlocal ema
        ema = ema_update(ema, params, recipe.ema_decay)

    _step_loop(model, data, steps, recipe.global_batch, grads.values(),
               schedule=lambda step: lr_at(recipe, step / len(data)), inputs=augment,
               update=lambda lr: rmsprop_step(params, grads, state, recipe, lr, decay_names),
               end_epoch=average, smoothing=recipe.label_smoothing,
               micro_batch_size=micro_batch_size, first=0, log_path=log_path)
    return Checkpoint.from_model(model, math.ceil(steps / len(data)),
                                 recipe_fingerprint(recipe), ema)


def finetune(
    model: EfficientNet,
    ckpt: Checkpoint,
    recipe: FinetuneRecipe,
    data,
    log_path=None,
) -> Checkpoint:
    """Fine-tune the last ``recipe.scope`` segments with cosine SGD,
    starting from the checkpoint's averaged weights. Parameters outside the
    scope are bit-identical afterwards.

    The model is loaded once, by ``ckpt.load_average``, which refuses a
    model of another config or an average that does not match its
    parameters. Every batch must hold ``recipe.batch`` samples, or
    ``ValueError`` is raised when the loop reaches it. The result is
    ``Checkpoint.from_model`` with no average of its own.

    Only the scope is trained, so only the scope is computed every step.
    The frozen prefix (the children of ``model._order`` before
    ``model.scope_start``) runs forward in train mode once per distinct
    batch, the first time the loop reaches position ``i`` of ``data``, and
    keeps no backward caches (``grad=False``); its
    output is kept, one activation per batch, and fed to the scope in every
    later epoch. Backward stops at the scope boundary, and only the scoped
    gradients are zeroed and written. Every parameter ends as a full
    forward/backward loop would leave it, and with ``ln``/``gn``/``in`` so
    does the whole state. With ``bn`` the batch-norm running statistics
    outside the scope move once per distinct batch (what one epoch gives),
    not once per batch per epoch; those inside the scope move every step.

    Raises ``FloatingPointError`` on a non-finite step loss or final state.
    """
    data = list(data)
    if not data:
        raise ValueError("no fine-tuning batches")
    ckpt.load_average(model)
    params = model.params()
    first = model.scope_start(recipe.last_k)
    scoped = sorted(model.scope_param_names(recipe.last_k))
    grads = model.grads()  # backward accumulates into these arrays in place
    prefix_out: dict[int, np.ndarray] = {}  # batch position -> frozen prefix output
    steps = recipe.epochs * len(data)

    def prefix(i, x, targets):
        if i not in prefix_out:
            prefix_out[i] = model.forward(x, train=True, stop=first, grad=False)
        return prefix_out[i], targets

    _step_loop(model, data, steps, recipe.batch, [grads[name] for name in scoped],
               schedule=lambda step: cosine_lr(step, steps, recipe.initial_lr), inputs=prefix,
               update=lambda lr: sgd_step(params, grads, lr, scoped), end_epoch=lambda: None,
               smoothing=0.0, micro_batch_size=None, first=first, log_path=log_path)
    return Checkpoint.from_model(model, ckpt.epoch + recipe.epochs,
                                 recipe_fingerprint(recipe), ema=None)


def _write_log(path, rows) -> None:
    if path is None:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "step", "lr", "loss", "train_acc"])
        writer.writerows(rows)
