"""Server aggregation strategies.

Every strategy consumes one round's client updates plus its persistent state
and produces the next global parameter vector. The adaptive strategies treat
the sample-weighted mean client delta as a pseudo-gradient:

    delta = sum_k (n_k / n) * (w_k - w_t),   n = sum_k n_k

so plain weighted averaging is exactly w_t + delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ProtocolError, ShapeError

Array = np.ndarray

# Server learning rate when the config leaves it unset. FedAdam's first step
# moves every coordinate by about lr, since m/sqrt(v2) starts near +-1 without
# bias correction; 0.1 matches the He-uniform init scale and wrecks the model.
_DEFAULT_SERVER_LR = {"fedadam": 0.01, "fedadagrad": 0.1}


@dataclass
class ClientUpdate:
    """One client's round contribution."""

    client_id: int
    new_params: Array
    num_samples: int
    comm_seconds: float = 0.0  # simulated downlink + uplink (de)serialization


Updates = list[ClientUpdate]


@dataclass
class StrategyConfig:
    """Hyperparameters for all strategy kinds; unused fields are ignored."""

    kind: str = "fedavg"
    server_lr: float | None = None  # None: 1.0; 0.01 fedadam, 0.1 fedadagrad
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adaptivity: float = 1e-3
    prox_mu: float = 0.01
    dp_noise_multiplier: float = 1.0
    dp_target_quantile: float = 0.5
    dp_clip_lr: float = 0.2
    dp_initial_clip: float = 0.1

    def validate(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(
                f"strategy.kind must be one of {STRATEGY_KINDS}, got {self.kind!r}"
            )
        if self.server_lr is not None and self.server_lr <= 0:
            raise ConfigError(f"strategy.server_lr must be > 0, got {self.server_lr}")
        for name in ("momentum", "adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"strategy.{name} must be in [0, 1), got {value}")
        for name in ("adaptivity", "dp_clip_lr", "dp_initial_clip"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"strategy.{name} must be > 0, got {value}")
        for name in ("prox_mu", "dp_noise_multiplier"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"strategy.{name} must be >= 0, got {value}")
        if not 0.0 < self.dp_target_quantile < 1.0:
            raise ConfigError(
                f"strategy.dp_target_quantile must be in (0, 1), got {self.dp_target_quantile}"
            )

    @property
    def lr(self) -> float:
        if self.server_lr is not None:
            return self.server_lr
        return _DEFAULT_SERVER_LR.get(self.kind, 1.0)


@dataclass
class StrategyState:
    """Persistent server-side state, carried across rounds."""

    round_index: int = 0
    momentum_buffer: Array | None = None
    first_moment: Array | None = None
    second_moment: Array | None = None
    clip_norm: float = 0.0


def initial_state(cfg: StrategyConfig) -> StrategyState:
    clip_norm = cfg.dp_initial_clip if cfg.kind == "dp" else 0.0
    return StrategyState(clip_norm=clip_norm)


def _check_updates(global_params: Array, updates: Updates) -> None:
    if not updates:
        raise ProtocolError("aggregation received an empty update set")
    for u in updates:
        if u.new_params.shape != global_params.shape:
            raise ShapeError(
                f"client {u.client_id} sent {u.new_params.shape[0]} parameters, "
                f"global model has {global_params.shape[0]}"
            )
        if u.num_samples < 1:
            raise ProtocolError(f"client {u.client_id} reported {u.num_samples} samples")


def weighted_mean_params(updates: Updates) -> Array:
    weights = np.array([u.num_samples for u in updates], dtype=np.float64)
    weights /= weights.sum()
    out = np.zeros_like(updates[0].new_params)
    for w, u in zip(weights, updates):
        out += w * u.new_params
    return out


def pseudo_gradient(global_params: Array, updates: Updates) -> Array:
    """Sample-weighted mean of client deltas relative to the global model."""
    weights = np.array([u.num_samples for u in updates], dtype=np.float64)
    weights /= weights.sum()
    delta = np.zeros_like(global_params)
    for w, u in zip(weights, updates):
        delta += w * (u.new_params - global_params)
    return delta


def dp_clip(update_delta: Array, clip_norm: float) -> tuple[Array, bool]:
    """Scale the delta onto the L2 ball of radius clip_norm.

    Returns the clipped delta and whether the original norm was already
    within the ball.
    """
    if clip_norm <= 0:
        raise ConfigError(f"clip norm must be > 0, got {clip_norm}")
    norm = float(np.linalg.norm(update_delta))
    if norm <= clip_norm:
        return update_delta.copy(), True
    return update_delta * (clip_norm / norm), False


def _mean_step(global_params, updates, state, cfg, rng):
    return weighted_mean_params(updates), state


def _median_step(global_params, updates, state, cfg, rng):
    return np.median(np.stack([u.new_params for u in updates]), axis=0), state


def _momentum_step(global_params, updates, state, cfg, rng):
    delta = pseudo_gradient(global_params, updates)
    v = state.momentum_buffer if state.momentum_buffer is not None else np.zeros_like(delta)
    v = cfg.momentum * v + delta
    return global_params + cfg.lr * v, replace(state, momentum_buffer=v)


def _adaptive_step(global_params, updates, state, cfg, rng):
    delta = pseudo_gradient(global_params, updates)
    m = state.first_moment if state.first_moment is not None else np.zeros_like(delta)
    v2 = state.second_moment if state.second_moment is not None else np.zeros_like(delta)
    m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * delta
    if cfg.kind == "fedadagrad":
        v2 = v2 + delta * delta
    else:
        v2 = cfg.adam_beta2 * v2 + (1.0 - cfg.adam_beta2) * delta * delta
    new_params = global_params + cfg.lr * m / (np.sqrt(v2) + cfg.adaptivity)
    return new_params, replace(state, first_moment=m, second_moment=v2)


def _dp_step(global_params, updates, state, cfg, rng):
    clip = state.clip_norm
    k = len(updates)
    mean_clipped = np.zeros_like(global_params)
    below = 0
    for u in updates:
        clipped, was_below = dp_clip(u.new_params - global_params, clip)
        below += was_below
        mean_clipped += clipped / k
    noise_std = cfg.dp_noise_multiplier * clip / k
    if noise_std > 0:
        mean_clipped = mean_clipped + rng.normal(0.0, noise_std, size=global_params.shape)
    new_clip = clip * float(
        np.exp(-cfg.dp_clip_lr * (below / k - cfg.dp_target_quantile))
    )
    return global_params + mean_clipped, replace(state, clip_norm=new_clip)


# Server step per kind: (global, updates, state, cfg, rng) -> (params, state).
_STEPS = {
    "fedavg": _mean_step,
    "fedavgm": _momentum_step,
    "fedadam": _adaptive_step,
    "fedadagrad": _adaptive_step,
    "fedmedian": _median_step,
    "fedprox": _mean_step,  # the proximal term acts in the clients (train_local)
    "dp": _dp_step,
}
STRATEGY_KINDS = tuple(_STEPS)


def _aggregate(global_params, updates, state, cfg, rng=None):
    """Check the round's updates, take cfg.kind's step, count the round."""
    _check_updates(global_params, updates)
    new_params, state = _STEPS[cfg.kind](global_params, updates, state, cfg, rng)
    return new_params, replace(state, round_index=state.round_index + 1)


def aggregate_fedavg(global_params: Array, updates: Updates) -> Array:
    """Data-size-weighted elementwise average of the client models."""
    return _aggregate(global_params, updates, StrategyState(), StrategyConfig())[0]


def aggregate_fedavgm(
    global_params: Array, updates: Updates, state: StrategyState, cfg: StrategyConfig
) -> tuple[Array, StrategyState]:
    """Server momentum over the pseudo-gradient: v' = beta*v + delta,
    w' = w + lr*v'. beta=0, lr=1 reduces exactly to FedAvg."""
    return _aggregate(global_params, updates, state, replace(cfg, kind="fedavgm"))


def aggregate_fedadam(
    global_params: Array, updates: Updates, state: StrategyState, cfg: StrategyConfig
) -> tuple[Array, StrategyState]:
    """Adam on the server over pseudo-gradients, no bias correction:
    m' = b1*m + (1-b1)*delta; v2' = b2*v2 + (1-b2)*delta^2;
    w' = w + lr * m' / (sqrt(v2') + tau)."""
    return _aggregate(global_params, updates, state, replace(cfg, kind="fedadam"))


def aggregate_fedadagrad(
    global_params: Array, updates: Updates, state: StrategyState, cfg: StrategyConfig
) -> tuple[Array, StrategyState]:
    """Adagrad on the server: v2 accumulates delta^2 without decay, so the
    effective step size anneals as rounds progress."""
    return _aggregate(global_params, updates, state, replace(cfg, kind="fedadagrad"))


def aggregate_fedmedian(global_params: Array, updates: Updates) -> Array:
    """Unweighted coordinate-wise median of the client models; even client
    counts average the two middle values."""
    cfg = StrategyConfig(kind="fedmedian")
    return _aggregate(global_params, updates, StrategyState(), cfg)[0]


def aggregate_fedprox(global_params: Array, updates: Updates) -> Array:
    """Server side is plain FedAvg; the proximal pull toward the global
    model happens in the clients' local gradient (see train_local)."""
    cfg = StrategyConfig(kind="fedprox")
    return _aggregate(global_params, updates, StrategyState(), cfg)[0]


def aggregate_dp(
    global_params: Array, updates: Updates, state: StrategyState, cfg: StrategyConfig,
    rng: np.random.Generator,
) -> tuple[Array, StrategyState]:
    """FedAvg with server-side Gaussian noise and adaptive clipping.

    Client deltas are clipped at the current norm C and averaged with uniform
    1/K weights; per-coordinate noise with std z*C/K is added. C then moves
    geometrically toward the target quantile of the delta-norm distribution:
    C' = C * exp(-lr_C * (below_fraction - quantile)).
    """
    return _aggregate(global_params, updates, state, replace(cfg, kind="dp"), rng)


class Strategy:
    """Uniform facade over the aggregation steps, owning the state."""

    def __init__(self, cfg: StrategyConfig):
        cfg.validate()
        self.cfg = cfg
        self.state = initial_state(cfg)

    @property
    def kind(self) -> str:
        return self.cfg.kind

    @property
    def client_prox_mu(self) -> float:
        """Proximal coefficient clients apply during local training."""
        return self.cfg.prox_mu if self.cfg.kind == "fedprox" else 0.0

    def aggregate(
        self, global_params: Array, updates: Updates, rng: np.random.Generator | None = None
    ) -> Array:
        if rng is None:
            rng = np.random.default_rng(0)
        new_params, self.state = _aggregate(global_params, updates, self.state, self.cfg, rng)
        return new_params
