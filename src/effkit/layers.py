"""Trainable layers with explicit forward/backward passes.

Every layer keeps its parameters, accumulated gradients and non-trainable
buffers in flat dicts; composites expose children under slash-separated
names so the whole model flattens to a single name -> array mapping.
``Layer.walk`` is the one walk of that tree, and a composite runs its
children in registration order. Backward accumulates into the gradient
arrays (call ``zero_grads`` between optimizer steps), which makes gradient
accumulation across micro-batches a matter of simply not zeroing.

A leaf keeps what its backward pass reads (its cache) only when the forward
pass runs with ``train=True`` and ``grad=True``; otherwise it drops it. So
evaluation (``train=False``) keeps nothing, and ``grad=False`` runs a
forward pass in train mode (batch norm's running moments still move) that
no backward pass follows, such as the fine-tune's frozen prefix. A cache
lives from a training forward to its backward, which releases it as it
reads it; a backward pass through a leaf without a cache, a second
backward on one forward included, raises ``RuntimeError``. The caches hold
only what backward cannot cheaply recompute: ``Conv`` keeps its unpadded
input (the layer before keeps the same array) and pads it again, and
``NormAct`` recomputes its pre-activation from the normalized input.
``backward(..., input_grad=False)`` computes the parameter gradients only
and returns ``None``: a composite passes it to the child at ``stop`` alone,
whose input gradient is the one it would return.

``Conv`` and ``Linear`` draw their weights from the generator they are
given; ``rng=None`` allocates zeros and draws nothing, for a model whose
state is loaded next (``Checkpoint.build_model``).
"""

from __future__ import annotations

import numpy as np

from .convs import ConvSpec, conv_backward, conv_forward
from .norms import (
    QUAD_RULE,
    Activation,
    NormSpec,
    get_activation,
    normalize,
    normalize_backward,
    pn_activation,
    pn_activation_backward,
    scaled_activation,
    scaled_activation_backward,
    sigmoid,
)


class Layer:
    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, "Layer"] = {}
        self._cache = None

    # -- registration -------------------------------------------------------

    def add_param(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        self._params[name] = value
        self._grads[name] = np.zeros_like(value)
        return value

    def add_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        self._buffers[name] = value
        return value

    def add_child(self, name: str, child: "Layer") -> "Layer":
        self._children[name] = child
        return child

    # -- flat views ---------------------------------------------------------

    def walk(self, prefix: str = ""):
        """Yield ``(prefix, layer)`` for this layer and every descendant in
        pre-order; ``prefix`` is the layer's slash-separated path plus a
        trailing slash (empty for this layer)."""
        yield prefix, self
        for cname, child in self._children.items():
            yield from child.walk(f"{prefix}{cname}/")

    def params(self) -> dict[str, np.ndarray]:
        return {p + k: v for p, layer in self.walk() for k, v in layer._params.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {p + k: v for p, layer in self.walk() for k, v in layer._grads.items()}

    def buffers(self) -> dict[str, np.ndarray]:
        return {p + k: v for p, layer in self.walk() for k, v in layer._buffers.items()}

    def state(self) -> dict[str, np.ndarray]:
        """Parameters plus buffers, the full checkpointable state."""
        out = self.params()
        out.update(self.buffers())
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = self.state()
        missing = sorted(set(own) - set(state))
        if missing:
            raise KeyError(f"state is missing entries: {missing[:5]}")
        for name, arr in own.items():
            src = np.asarray(state[name], dtype=np.float64)
            if src.shape != arr.shape:
                raise ValueError(f"{name}: shape {src.shape} != expected {arr.shape}")
            arr[...] = src

    def zero_grads(self) -> None:
        for g in self.grads().values():
            g[...] = 0.0

    # -- compute ------------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        train: bool = True,
        start: int = 0,
        stop: int | None = None,
        grad: bool = True,
    ) -> np.ndarray:
        """Run the children ``[start:stop]`` in registration order; ``x`` is
        the input of child ``start``. With ``grad=False`` (or ``train=False``)
        no child keeps a cache for backward. Leaf layers override this."""
        h = x
        for child in list(self._children.values())[start:stop]:
            h = child.forward(h, train, grad=grad)
        return h

    def backward(
        self, dy: np.ndarray, stop: int = 0, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backward from the last child down to child ``stop``, which must
        have run forward; returns the gradient of that child's input, or
        ``None`` with ``input_grad=False``, which that child then skips. The
        children before ``stop`` accumulate no gradient."""
        children = list(self._children.values())[stop:]
        dh = dy
        for child in reversed(children[1:]):
            dh = child.backward(dh)
        return children[0].backward(dh, input_grad=input_grad) if children else dh

    def _backward_cache(self):
        """Hand over the cache of the last forward pass, which must have kept
        one, and release it: one backward pass reads it."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward has no cache: the last forward "
                "ran with train=False or grad=False, its backward already ran, "
                "or it never ran"
            )
        return cache


def _init_weight(rng: np.random.Generator | None, shape, variance: float) -> np.ndarray:
    """Zero-mean normal draws of the given variance; zeros without a
    generator, for a layer whose state is loaded next (a checkpoint's)."""
    if rng is None:
        return np.zeros(shape)
    return rng.normal(0.0, np.sqrt(variance), size=shape)


class Conv(Layer):
    """Grouped convolution, no bias (the following norm supplies the shift).
    He-normal weights from ``rng``; zeros with ``rng=None``."""

    def __init__(self, spec: ConvSpec, rng: np.random.Generator | None):
        super().__init__()
        self.spec = spec
        fan_in = spec.resolved_group_size * spec.kernel * spec.kernel
        self.w = self.add_param("weight", _init_weight(rng, spec.weight_shape, 2.0 / fan_in))

    def forward(self, x, train=True, grad=True):
        y, cache = conv_forward(x, self.w, self.spec)
        self._cache = cache if train and grad else None
        return y

    def backward(self, dy, input_grad=True):
        dx, dw = conv_backward(self._backward_cache(), dy, input_grad=input_grad)
        self._grads["weight"] += dw
        return dx


class Linear(Layer):
    """Dense layer; normal weights of variance 1/in_features from ``rng``,
    zeros with ``rng=None``, and a zero bias."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None):
        super().__init__()
        self.w = self.add_param(
            "weight", _init_weight(rng, (in_features, out_features), 1.0 / in_features)
        )
        self.b = self.add_param("bias", np.zeros(out_features))

    def forward(self, x, train=True, grad=True):
        self._cache = x if train and grad else None
        # Never fold the batch into a GEMM dimension: ``x @ w`` is one GEMM
        # with B rows, and BLAS may round a row differently as B changes.
        # einsum without ``optimize`` sums each output over ``i`` in numpy's
        # own loop, so a sample's result does not depend on its batch.
        return np.einsum("bi,io->bo", x, self.w) + self.b

    def backward(self, dy, input_grad=True):
        x = self._backward_cache()
        self._grads["weight"] += np.einsum("bi,bo->io", x, dy)
        self._grads["bias"] += dy.sum(axis=0)
        return np.einsum("bo,io->bi", dy, self.w) if input_grad else None


class NormAct(Layer):
    """Normalize, apply the channel affine, then the activation.

    With ``proxy=True`` the activation output is additionally recentered and
    rescaled by its Gauss-Hermite proxy moments; the proxy shift/scale are
    trainable. Batch norm keeps running moments for evaluation.
    """

    BN_MOMENTUM = 0.99

    def __init__(self, channels: int, spec: NormSpec, activation: str = "swish", proxy: bool = False):
        super().__init__()
        self.spec = spec
        self.act: Activation = get_activation(activation)
        self.proxy = proxy
        self.gamma = self.add_param("gamma", np.ones(channels))
        self.beta = self.add_param("beta", np.zeros(channels))
        if proxy:
            self.proxy_beta = self.add_param("proxy_beta", np.zeros(channels))
            self.proxy_gamma = self.add_param("proxy_gamma", np.zeros(channels))
        if spec.kind == "bn":
            self.running_mean = self.add_buffer("running_mean", np.zeros(channels))
            self.running_var = self.add_buffer("running_var", np.ones(channels))

    def forward(self, x, train=True, grad=True):
        bn = self.spec.kind == "bn"
        stats = (self.running_mean, self.running_var) if bn and not train else None
        y, ncache = normalize(x, self.spec, stats=stats)
        if bn and train:
            mean, var = ncache["moments"]
            m = self.BN_MOMENTUM
            self.running_mean *= m
            self.running_mean += (1.0 - m) * mean
            self.running_var *= m
            self.running_var += (1.0 - m) * var
        if self.proxy:
            z, acache = pn_activation(
                y, self.gamma, self.beta, self.proxy_beta, self.proxy_gamma, self.act, QUAD_RULE
            )
        else:
            z, acache = scaled_activation(y, self.gamma, self.beta, self.act)
        self._cache = (ncache, acache) if train and grad else None
        return z

    def backward(self, dz, input_grad=True):
        ncache, acache = self._backward_cache()
        backward = pn_activation_backward if self.proxy else scaled_activation_backward
        da, scale, sums, grads = backward(acache, dz)
        for name, g in grads.items():
            self._grads[name] += g
        return normalize_backward(ncache, da, scale, sums) if input_grad else None


class SqueezeExcite(Layer):
    """Global-pool gating: sigmoid(W2 swish(W1 mean(x))) scales each channel."""

    def __init__(self, channels: int, reduced: int, rng: np.random.Generator | None):
        super().__init__()
        self.fc1 = self.add_child("reduce", Linear(channels, reduced, rng))
        self.fc2 = self.add_child("expand", Linear(reduced, channels, rng))
        self._swish = get_activation("swish")

    def forward(self, x, train=True, grad=True):
        pooled = x.mean(axis=(2, 3))
        a = self.fc1.forward(pooled, train, grad=grad)
        h = self._swish.fn(a)
        logits = self.fc2.forward(h, train, grad=grad)
        gate = sigmoid(logits)
        self._cache = (x, a, gate) if train and grad else None
        return x * gate[:, :, None, None]

    def backward(self, dy, input_grad=True):
        x, a, gate = self._backward_cache()
        dgate = (dy * x).sum(axis=(2, 3))
        dlogits = dgate * gate * (1.0 - gate)
        dh = self.fc2.backward(dlogits)
        da = self._swish.grad(a, dh)
        dpooled = self.fc1.backward(da, input_grad=input_grad)
        if not input_grad:
            return None
        hw = x.shape[2] * x.shape[3]
        return dy * gate[:, :, None, None] + dpooled[:, :, None, None] / hw


class GlobalAvgPool(Layer):
    def forward(self, x, train=True, grad=True):
        self._cache = x.shape if train and grad else None
        return x.mean(axis=(2, 3))

    def backward(self, dy, input_grad=True):
        b, c, h, w = self._backward_cache()
        if not input_grad:
            return None
        return np.broadcast_to(dy[:, :, None, None] / (h * w), (b, c, h, w)).copy()


def decay_param_names(layer: Layer) -> list[str]:
    """Parameters subject to weight decay: convolution weights and the
    proxy shift/scale of proxy-normalized activations, nothing else."""
    names = []
    for prefix, node in layer.walk():
        if isinstance(node, Conv):
            names.append(prefix + "weight")
        if isinstance(node, NormAct) and node.proxy:
            names.append(prefix + "proxy_beta")
            names.append(prefix + "proxy_gamma")
    return names
