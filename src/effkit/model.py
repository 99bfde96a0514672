"""EfficientNet family with grouped spatial convolutions.

The family is described by a stage table that width/depth multipliers scale
into the B0..B5 variants. Two knobs restructure the blocks relative to the
depthwise baseline: ``group_size`` widens each spatial convolution's input
group (rounded per layer to a divisor of its channel width) and
``expansion`` replaces the inverted-bottleneck ratio of every stage that
expands, compensating the parameter and compute cost of larger groups.

``build_model`` constructs the trainable layer tree; ``model_plan`` walks
the same block arithmetic and emits flat layer dimensions for parameter,
FLOP and roofline accounting without building anything. Both reject a
resolution below ``min_resolution``, the one floor of the package.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .convs import ConvSpec, round_group_size
from .layers import Conv, GlobalAvgPool, Layer, Linear, NormAct, SqueezeExcite
from .norms import EPSILON, QUAD_ORDER, NormSpec

#: (channels, repeats, kernel, stride, expand) before width/depth scaling.
BASE_STAGES = (
    (16, 1, 3, 1, 1),
    (24, 2, 3, 2, 6),
    (40, 2, 5, 2, 6),
    (80, 3, 3, 2, 6),
    (112, 3, 5, 1, 6),
    (192, 4, 5, 2, 6),
    (320, 1, 3, 1, 6),
)
BASE_STEM = 32
BASE_HEAD = 1280
#: every channel width is a multiple of this
CHANNEL_DIVISOR = 8
#: squeeze-excite reduction: a block's input width times this, floored
SE_RATIO = 0.25

#: variant -> (width multiplier, depth multiplier, native resolution)
VARIANTS = {
    "b0": (1.0, 1.0, 224),
    "b1": (1.0, 1.1, 240),
    "b2": (1.1, 1.2, 260),
    "b3": (1.2, 1.4, 300),
    "b4": (1.4, 1.8, 380),
    "b5": (1.6, 2.2, 456),
}


def round_channels(value: float) -> int:
    """Round a scaled width to the nearest multiple of ``CHANNEL_DIVISOR``,
    never dropping more than 10 percent."""
    d = CHANNEL_DIVISOR
    out = max(d, int(value + d / 2) // d * d)
    if out < 0.9 * value:
        out += d
    return out


def round_repeats(repeats: int, depth_mult: float) -> int:
    return int(math.ceil(depth_mult * repeats))


def native_resolution(variant: str) -> int:
    try:
        return VARIANTS[variant][2]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; use one of {sorted(VARIANTS)}")


@dataclass(frozen=True)
class StageSpec:
    channels: int
    repeats: int
    kernel: int
    stride: int
    expand: int


@dataclass(frozen=True)
class ModelConfig:
    stem_channels: int
    stages: tuple[StageSpec, ...]
    head_channels: int
    num_classes: int = 1000
    group_size: int = 1
    norm: NormSpec = field(default_factory=lambda: NormSpec("bn"))
    proxy: bool = False
    activation: str = "swish"

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be positive, got {self.num_classes}")

    @classmethod
    def efficientnet(cls, variant: str, *, group_size: int = 1, expansion: int = 6, **over):
        """A B0..B5 variant; ``expansion`` substitutes every expanding stage's
        ratio while stages that never expand keep ratio 1."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; use one of {sorted(VARIANTS)}")
        if expansion < 1 or group_size < 1:
            raise ValueError("expansion and group_size must be positive")
        width, depth, _ = VARIANTS[variant]
        stages = tuple(
            StageSpec(
                channels=round_channels(c * width),
                repeats=round_repeats(r, depth),
                kernel=k,
                stride=s,
                expand=1 if e == 1 else expansion,
            )
            for c, r, k, s, e in BASE_STAGES
        )
        return cls(
            stem_channels=round_channels(BASE_STEM * width),
            stages=stages,
            head_channels=round_channels(BASE_HEAD * width),
            group_size=group_size,
            **over,
        )

    @classmethod
    def tiny(cls, *, expansion: int = 4, **over):
        """Two-stage miniature with the same block anatomy, for fast tests;
        ``expansion`` is the ratio of its expanding stage."""
        if expansion < 1:
            raise ValueError("expansion must be positive")
        defaults = dict(
            stem_channels=8,
            stages=(StageSpec(8, 1, 3, 1, 1), StageSpec(16, 2, 3, 2, expansion)),
            head_channels=32,
            num_classes=2,
            group_size=4,
            norm=NormSpec("ln"),
            proxy=True,
        )
        defaults.update(over)
        return cls(**defaults)


def config_to_dict(config: ModelConfig) -> dict:
    """The config's fields plus the constants the weights are trained under
    (``SE_RATIO``, ``QUAD_ORDER``, the norm's ``EPSILON``), as checkpoints hold."""
    raw = asdict(config)
    raw["norm"]["epsilon"] = EPSILON
    return {**raw, "se_ratio": SE_RATIO, "quad_order": QUAD_ORDER}


def config_from_dict(raw: dict) -> ModelConfig:
    """Inverse of ``config_to_dict``; a malformed dict, or one that records a
    constant other than this model's, raises ``ValueError``."""
    try:
        raw = dict(raw)
        norm = dict(raw["norm"])
        for held, key, constant in ((norm, "epsilon", EPSILON), (raw, "se_ratio", SE_RATIO),
                                    (raw, "quad_order", QUAD_ORDER)):
            value = held.pop(key, constant)
            if value != constant:
                raise ValueError(f"model_config {key}={value!r}, not the fixed {constant!r}")
        raw["norm"] = NormSpec(**norm)
        raw["stages"] = tuple(StageSpec(**s) for s in raw["stages"])
        return ModelConfig(**raw)
    except KeyError as exc:
        raise ValueError(f"model_config is missing {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed model_config: {exc}") from None


@dataclass(frozen=True)
class BlockDims:
    """Resolved channel arithmetic for one inverted-bottleneck block."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    expand: int
    mid_channels: int
    group_size: int
    se_reduced: int

    @property
    def residual(self) -> bool:
        return self.stride == 1 and self.in_channels == self.out_channels


def block_dims(config: ModelConfig) -> list[BlockDims]:
    out = []
    c_in = config.stem_channels
    for stage in config.stages:
        for j in range(stage.repeats):
            # Expanded width snaps to a multiple of 8 like every other width.
            mid = c_in if stage.expand == 1 else round_channels(c_in * stage.expand)
            out.append(
                BlockDims(
                    in_channels=c_in,
                    out_channels=stage.channels,
                    kernel=stage.kernel,
                    stride=stage.stride if j == 0 else 1,
                    expand=stage.expand,
                    mid_channels=mid,
                    group_size=round_group_size(config.group_size, mid),
                    se_reduced=max(1, int(c_in * SE_RATIO)),
                )
            )
            c_in = stage.channels
    return out


def min_resolution(config: ModelConfig) -> int:
    """Smallest input extent the model takes: 2 to the number of stride-2
    layers, the stem included, so the last of them still halves 2 to 1."""
    return 2 ** (1 + sum(d.stride == 2 for d in block_dims(config)))


# ---------------------------------------------------------------------------
# Layer tree
# ---------------------------------------------------------------------------


def _norm_act(config: ModelConfig, channels: int) -> NormAct:
    """A NormAct with the config's norm, activation and proxy setting."""
    return NormAct(channels, config.norm, config.activation, proxy=config.proxy)


class MBConv(Layer):
    """Expand 1x1 -> grouped kxk -> squeeze-excite -> project 1x1, with an
    identity shortcut when shapes allow. The projection norm keeps an
    identity activation and never proxy-normalizes (there is no activation
    to recenter)."""

    def __init__(self, dims: BlockDims, config: ModelConfig, rng: np.random.Generator | None):
        super().__init__()
        self.dims = dims
        mid = dims.mid_channels
        if dims.expand != 1:
            self.add_child(
                "expand_conv", Conv(ConvSpec(dims.in_channels, mid, 1), rng)
            )
            self.add_child("expand_norm", _norm_act(config, mid))
        self.add_child(
            "spatial_conv",
            Conv(ConvSpec(mid, mid, dims.kernel, dims.stride, dims.group_size), rng),
        )
        self.add_child("spatial_norm", _norm_act(config, mid))
        self.add_child("se", SqueezeExcite(mid, dims.se_reduced, rng))
        self.add_child("project_conv", Conv(ConvSpec(mid, dims.out_channels, 1), rng))
        self.add_child("project_norm", NormAct(dims.out_channels, config.norm, "identity"))

    def forward(self, x, train=True, grad=True):
        h = super().forward(x, train, grad=grad)
        if self.dims.residual:
            h = h + x
        return h

    def backward(self, dy, input_grad=True):
        dh = super().backward(dy, input_grad=input_grad)
        if input_grad and self.dims.residual:
            dh = dh + dy
        return dh


class EfficientNet(Layer):
    """The layer tree of ``config``. Its convolution and classifier weights
    are drawn from ``rng``; with ``rng=None`` they are zeros and nothing is
    drawn, for a model whose state is loaded next (``Checkpoint.build_model``)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        super().__init__()
        self.config = config
        dims = block_dims(config)
        self.downsample_blocks = [i for i, d in enumerate(dims) if d.stride == 2]
        self.min_resolution = min_resolution(config)

        self.add_child("stem_conv", Conv(ConvSpec(3, config.stem_channels, 3, 2), rng))
        self.add_child("stem_norm", _norm_act(config, config.stem_channels))
        for i, d in enumerate(dims):
            self.add_child(f"blocks/{i}", MBConv(d, config, rng))
        last = dims[-1].out_channels if dims else config.stem_channels
        self.add_child("head_conv", Conv(ConvSpec(last, config.head_channels, 1), rng))
        self.add_child("head_norm", _norm_act(config, config.head_channels))
        self.add_child("pool", GlobalAvgPool())
        self.add_child("classifier", Linear(config.head_channels, config.num_classes, rng))

        self._order = list(self._children)

    def forward(self, x, train=True, start=0, stop=None, grad=True):
        """Run the children ``_order[start:stop]``; ``x`` is the input of
        child ``start``. The defaults run the whole network on images.
        Only ``train=True, grad=True`` keeps the caches backward reads."""
        if start == 0:
            if x.ndim != 4 or x.shape[1] != 3:
                raise ValueError(f"expected input (batch, 3, h, w), got shape {x.shape}")
            if min(x.shape[2], x.shape[3]) < self.min_resolution:
                raise ValueError(
                    f"spatial extent {x.shape[2]}x{x.shape[3]} below the model's "
                    f"minimum resolution {self.min_resolution}"
                )
        return super().forward(x, train, start, stop, grad=grad)

    def backward(self, dy, stop=0, input_grad=True):
        """``Layer.backward``: down to child ``stop``, whose input gradient it
        returns unless ``input_grad=False``."""
        return super().backward(dy, stop, input_grad=input_grad)

    def scope_start(self, last_k: int) -> int:
        """Index in ``_order`` of the first child trained when fine-tuning
        the last ``k`` segments; the scope is ``_order[scope_start(k):]``.

        Segment 1 is the head plus classifier; each further segment extends
        back to the previous downsampling boundary, and past the first block
        the stem joins in.
        """
        if last_k < 1:
            raise ValueError(f"last_k must be positive, got {last_k}")
        if last_k == 1:
            return self._order.index("head_conv")
        take = last_k - 1
        if take > len(self.downsample_blocks):
            return 0
        return self._order.index(f"blocks/{self.downsample_blocks[-take]}")

    def scope_prefixes(self, last_k: int) -> list[str]:
        """Name prefixes of the children in the last ``k`` segments."""
        return [f"{name}/" for name in self._order[self.scope_start(last_k):]]

    def scope_param_names(self, last_k: int) -> set[str]:
        prefixes = tuple(self.scope_prefixes(last_k))
        return {name for name in self.params() if name.startswith(prefixes)}


def build_model(config: ModelConfig, rng: np.random.Generator) -> EfficientNet:
    """A freshly initialized model: its weights are drawn from ``rng``. A
    model built to hold a checkpoint's state is ``Checkpoint.build_model``'s."""
    return EfficientNet(config, rng)


# ---------------------------------------------------------------------------
# Dimension plan for analytic accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvDims:
    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    group_size: int
    in_size: int
    out_size: int


@dataclass(frozen=True)
class DenseDims:
    name: str
    in_features: int
    out_features: int


@dataclass(frozen=True)
class NormDims:
    name: str
    channels: int
    size: int
    proxy: bool


def model_plan(config: ModelConfig, resolution: int):
    """Flat list of ConvDims/DenseDims/NormDims in forward order."""
    floor = min_resolution(config)
    if resolution < floor:
        raise ValueError(f"resolution {resolution} below the model's minimum {floor}")
    plan = []
    size = resolution

    def conv(name, cin, cout, k, s, g, size):
        out = -(-size // s)
        plan.append(ConvDims(name, cin, cout, k, s, g, size, out))
        return out

    size = conv("stem_conv", 3, config.stem_channels, 3, 2, 3, size)
    plan.append(NormDims("stem_norm", config.stem_channels, size, config.proxy))
    for i, d in enumerate(block_dims(config)):
        base = f"blocks/{i}"
        if d.expand != 1:
            conv(f"{base}/expand_conv", d.in_channels, d.mid_channels, 1, 1,
                 d.in_channels, size)
            plan.append(NormDims(f"{base}/expand_norm", d.mid_channels, size, config.proxy))
        size = conv(f"{base}/spatial_conv", d.mid_channels, d.mid_channels,
                    d.kernel, d.stride, d.group_size, size)
        plan.append(NormDims(f"{base}/spatial_norm", d.mid_channels, size, config.proxy))
        plan.append(DenseDims(f"{base}/se/reduce", d.mid_channels, d.se_reduced))
        plan.append(DenseDims(f"{base}/se/expand", d.se_reduced, d.mid_channels))
        conv(f"{base}/project_conv", d.mid_channels, d.out_channels, 1, 1,
             d.mid_channels, size)
        plan.append(NormDims(f"{base}/project_norm", d.out_channels, size, False))
    last = config.stages[-1].channels if config.stages else config.stem_channels
    conv("head_conv", last, config.head_channels, 1, 1, last, size)
    plan.append(NormDims("head_norm", config.head_channels, size, config.proxy))
    plan.append(DenseDims("classifier", config.head_channels, config.num_classes))
    return plan


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


def entry_params(entry) -> int:
    if isinstance(entry, ConvDims):
        return entry.out_channels * entry.group_size * entry.kernel**2
    if isinstance(entry, DenseDims):
        return entry.in_features * entry.out_features + entry.out_features
    if isinstance(entry, NormDims):
        return (4 if entry.proxy else 2) * entry.channels
    raise TypeError(f"unknown plan entry {entry!r}")


def entry_flops(entry) -> int:
    """Per-sample cost. One multiply-accumulate counts as one FLOP; the
    normalizations contribute two elementwise operations per element
    (centering and scaling); pooling and bare activations are not counted."""
    if isinstance(entry, ConvDims):
        return entry.out_size**2 * entry.out_channels * entry.group_size * entry.kernel**2
    if isinstance(entry, DenseDims):
        return entry.in_features * entry.out_features
    if isinstance(entry, NormDims):
        return 2 * entry.channels * entry.size**2
    raise TypeError(f"unknown plan entry {entry!r}")


def rows_csv(row_type, rows) -> str:
    """CSV of dataclass rows: the field names of ``row_type``, then one line
    per row."""
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    lines += [",".join(str(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CostRow:
    layer: str
    type: str
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    rows: tuple[CostRow, ...]
    resolution: int

    @property
    def params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def flops(self) -> int:
        return sum(r.flops for r in self.rows)

    def summary(self) -> str:
        return (
            f"params={self.params} ({self.params / 1e6:.2f}M) "
            f"flops={self.flops} ({self.flops / 1e9:.2f}B) "
            f"at resolution {self.resolution}"
        )

    def to_csv(self) -> str:
        return rows_csv(CostRow, self.rows)


_KIND = {ConvDims: "conv", DenseDims: "dense", NormDims: "norm"}


def count_cost(config: ModelConfig, resolution: int) -> CostReport:
    """Parameter and per-sample FLOP totals with a per-layer breakdown."""
    rows = tuple(
        CostRow(e.name, _KIND[type(e)], entry_params(e), entry_flops(e))
        for e in model_plan(config, resolution)
    )
    return CostReport(rows=rows, resolution=resolution)
