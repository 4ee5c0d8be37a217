"""Dense classifier with flat parameters, analytic gradients, and the
two client-side optimizers (SGD, Adam).

The whole model lives in a single 1-D DTYPE vector so that clients and the
server exchange one array. Layout: for each layer, the weight matrix
(row-major, shape in x out) followed by the bias vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

Array = np.ndarray

# The one dtype the program computes in: parameters, optimizer state, replies
# and dataset features. Read at call time; every other array follows
# params.dtype or features.dtype.
DTYPE = np.float32


@dataclass
class ModelSpec:
    """Architecture of the dense classifier."""

    input_dim: int
    hidden_dims: list[int] = field(default_factory=list)
    output_classes: int = 10

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"model.input_dim must be >= 1, got {self.input_dim}")
        if self.output_classes < 2:
            raise ConfigError(
                f"model.output_classes must be >= 2, got {self.output_classes}"
            )
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"model.hidden_dims must all be >= 1, got {self.hidden_dims}")

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input to output."""
        dims = [self.input_dim, *self.hidden_dims, self.output_classes]
        return list(zip(dims[:-1], dims[1:]))

    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_shapes())


@dataclass
class LocalOptimizerConfig:
    """Client-side optimizer settings; defaults follow the stock SGD/Adam values."""

    kind: str = "adam"
    learning_rate: float | None = None  # None: 0.001 for adam, 0.01 for sgd
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 32
    local_epochs: int = 1

    def validate(self) -> None:
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"local.optimizer must be sgd or adam, got {self.kind!r}")
        # 0 is allowed: it makes local training a no-op, which the round
        # loop's do-nothing sanity checks rely on.
        if self.learning_rate is not None and self.learning_rate < 0:
            raise ConfigError(
                f"local.learning_rate must be >= 0, got {self.learning_rate}"
            )
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ConfigError(f"local.{name} must be in [0, 1), got {beta}")
        if self.adam_epsilon <= 0:
            raise ConfigError(f"local.adam_epsilon must be > 0, got {self.adam_epsilon}")
        if self.batch_size < 1:
            raise ConfigError(f"local.batch_size must be >= 1, got {self.batch_size}")
        if self.local_epochs < 1:
            raise ConfigError(f"local.local_epochs must be >= 1, got {self.local_epochs}")

    @property
    def lr(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.001 if self.kind == "adam" else 0.01


@dataclass
class AdamState:
    """Moment accumulators for one local training call, pre-scaled: m holds
    the first moment divided by (1 - b1) and v the second divided by (1 - b2)."""

    m: Array
    v: Array
    step: int = 0


def init_model(spec: ModelSpec, seed: int) -> Array:
    """He-uniform weights drawn from seed, zero biases, flattened into one DTYPE vector."""
    spec.validate()
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in spec.layer_shapes():
        limit = np.sqrt(6.0 / fan_in)
        parts.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts).astype(DTYPE, copy=False)


def unpack_params(params: Array, spec: ModelSpec) -> list[tuple[Array, Array]]:
    """Views of (W, b) per layer; no copies."""
    if params.shape != (spec.param_count(),):
        raise ShapeError(
            f"parameter vector has length {params.shape}, "
            f"model needs {spec.param_count()}"
        )
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_shapes():
        w = params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _forward(layers: list[tuple[Array, Array]], features: Array) -> tuple[list[Array], Array]:
    """ReLU hidden layers, then the linear head. Returns the input of each
    layer (features first) and the (batch, classes) logits."""
    activations = [features]
    a = features
    for w, b in layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
        activations.append(a)
    w, b = layers[-1]
    return activations, a @ w + b


def forward_logits(params: Array, spec: ModelSpec, features: Array) -> Array:
    """Forward pass only, returns (batch, classes) logits."""
    _check_batch(spec, features)
    return _forward(unpack_params(params, spec), features)[1]


def _log_softmax(logits: Array) -> Array:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_loss_grad(
    params: Array, spec: ModelSpec, features: Array, labels: Array,
    out: Array | None = None,
) -> tuple[float, Array]:
    """Mean softmax cross-entropy over the batch and its exact gradient.

    Returns:
        (loss, grad) with grad flattened in the same layout as params; grad
        is written into out when given.
    """
    _check_batch(spec, features)
    labels = np.asarray(labels)
    if labels.shape != (features.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} does not match batch of {features.shape[0]}"
        )
    if labels.min() < 0 or labels.max() >= spec.output_classes:
        raise ShapeError(
            f"labels must lie in [0, {spec.output_classes}), "
            f"got range [{labels.min()}, {labels.max()}]"
        )

    layers = unpack_params(params, spec)
    n = features.shape[0]

    activations, logits = _forward(layers, features)
    log_probs = _log_softmax(logits)
    loss = float(-log_probs[np.arange(n), labels].mean())

    # Backward. dz for the softmax/CE head, then chain through the ReLUs.
    probs = np.exp(log_probs)
    dz = probs
    dz[np.arange(n), labels] -= 1.0
    dz /= n

    grad = np.empty_like(params) if out is None else out
    grad_layers = unpack_params(grad, spec)
    for idx in range(len(layers) - 1, -1, -1):
        a_prev = activations[idx]
        gw, gb = grad_layers[idx]
        np.matmul(a_prev.T, dz, out=gw)
        gb[:] = dz.sum(axis=0)
        if idx > 0:
            da = dz @ layers[idx][0].T
            dz = da * (activations[idx] > 0.0)
    return loss, grad


def _check_batch(spec: ModelSpec, features: Array) -> None:
    if features.ndim != 2 or features.shape[0] == 0:
        raise ShapeError(f"batch must be a nonempty 2-D array, got shape {features.shape}")
    if features.shape[1] != spec.input_dim:
        raise ShapeError(
            f"batch has {features.shape[1]} features, model expects {spec.input_dim}"
        )


def init_opt_state(cfg: LocalOptimizerConfig, params: Array) -> AdamState | None:
    """Fresh optimizer state shaped and typed as params."""
    if cfg.kind == "adam":
        return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))
    return None


# Both steps update params in place and return it. grad is scratch: the
# steps write their temporaries into it.


def local_sgd_step(
    params: Array, grad: Array, state: None, cfg: LocalOptimizerConfig
) -> tuple[Array, None]:
    """params - lr * grad, bit for bit; grad is overwritten."""
    _check_grad(grad)
    np.subtract(params, np.multiply(grad, cfg.lr, out=grad), out=params)
    return params, state


def local_adam_step(
    params: Array, grad: Array, state: AdamState, cfg: LocalOptimizerConfig
) -> tuple[Array, AdamState]:
    """Adam with bias correction, as the "efficient version" of Kingma & Ba
    (arXiv:1412.6980, section 2): with the moments pre-scaled (AdamState),
    (1 - b1) and the bias correction fold into two scalars, and one step is
    ten passes over four arrays. It equals the textbook update up to
    rounding. State persists within one local call; grad is overwritten.

        m = b1 * m + grad
        v = b2 * v + grad * grad
        r = sqrt((1 - b2) / (1 - b2**t))
        params - (lr * (1 - b1) / (1 - b1**t) / r) * m / (sqrt(v) + eps / r)
    """
    _check_grad(grad)
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    state.step += 1
    t = state.step
    r = math.sqrt((1.0 - b2) / (1.0 - b2**t))
    m, v = state.m, state.v
    np.multiply(m, b1, out=m)
    np.add(m, grad, out=m)
    np.multiply(v, b2, out=v)
    np.add(v, np.multiply(grad, grad, out=grad), out=v)
    np.add(np.sqrt(v, out=grad), cfg.adam_epsilon / r, out=grad)
    np.divide(m, grad, out=grad)
    np.multiply(grad, cfg.lr * (1.0 - b1) / (1.0 - b1**t) / r, out=grad)
    np.subtract(params, grad, out=params)
    return params, state


def local_step(
    params: Array,
    grad: Array,
    state: AdamState | None,
    cfg: LocalOptimizerConfig,
) -> tuple[Array, AdamState | None]:
    if cfg.kind == "adam":
        return local_adam_step(params, grad, state, cfg)
    return local_sgd_step(params, grad, state, cfg)


def _check_grad(grad: Array) -> None:
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient")
