"""Server aggregation strategies.

Each kind is an aggregator, which turns one round's client updates into a
pseudo-gradient delta relative to the global model w_t, followed by a server
step on delta with persistent state: w_{t+1} = w_t + step (Reddi et al.,
arXiv:2003.00295). The mean aggregator is

    delta = sum_k (n_k / n) * (w_k - w_t),   n = sum_k n_k

so FedAvg, the mean with the identity step, is exactly w_t + delta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ProtocolError, ShapeError

Array = np.ndarray
_MEDIAN_BLOCK = 4096  # columns per median sort: a (block, K) scratch, 655 KB at K = 20


@dataclass
class ClientUpdate:
    """One client's round contribution."""

    client_id: int
    new_params: Array
    num_samples: int


Updates = list[ClientUpdate]


@dataclass
class StrategyConfig:
    """Hyperparameters for all strategy kinds; unused fields are ignored."""

    kind: str = "fedavg"
    server_lr: float | None = None  # None: the kind's default in _KINDS
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
        return self.server_lr if self.server_lr is not None else _KINDS[self.kind].server_lr


@dataclass
class StrategyState:
    """Persistent server-side state, carried across rounds."""

    round_index: int = 0
    momentum_buffer: Array | None = None
    first_moment: Array | None = None
    second_moment: Array | None = None
    clip_norm: float = 0.0


def pseudo_gradient(global_params: Array, updates: Updates) -> Array:
    """Sample-weighted mean of client deltas relative to the global model."""
    weights = np.array([u.num_samples for u in updates], dtype=np.float64)
    weights /= weights.sum()
    delta = np.zeros_like(global_params)
    scratch = np.empty_like(global_params)
    for w, u in zip(weights, updates):
        np.subtract(u.new_params, global_params, out=scratch)
        delta += np.multiply(scratch, w, out=scratch)  # w * (w_k - w_t)
    return delta


def _mean(global_params, updates, state, cfg, rng):
    return pseudo_gradient(global_params, updates), state


def _median(global_params, updates, state, cfg, rng):
    """Unweighted coordinate-wise median of the client models, applied as a
    delta to w_t; even client counts average the two middle values. Equal to
    np.median, NaN columns included; each coordinate's K values sort contiguously."""
    k, p = len(updates), global_params.size
    out = np.empty_like(global_params)
    scratch = np.empty((min(_MEDIAN_BLOCK, p), k), global_params.dtype)
    for start in range(0, p, _MEDIAN_BLOCK):
        cols, mid = scratch[: min(_MEDIAN_BLOCK, p - start)], out[start : start + _MEDIAN_BLOCK]
        np.stack([u.new_params[start : start + len(cols)] for u in updates], axis=1, out=cols)
        cols.sort(axis=1)
        mid[:] = cols[:, k // 2] if k % 2 else (cols[:, k // 2 - 1] + cols[:, k // 2]) / 2
        np.copyto(mid, np.nan, where=np.isnan(cols[:, -1]))  # the sort puts NaNs last
    out -= global_params
    return out, state


def _clipped_mean(global_params, updates, state, cfg, rng):
    """Uniform mean of deltas clipped at C plus noise; C tracks a quantile.

    Client deltas are clipped at the current norm C and averaged with uniform
    1/K weights; per-coordinate noise with std z*C/K is added. C then moves
    geometrically toward the target quantile of the delta-norm distribution:
    C' = C * exp(-lr_C * (below_fraction - quantile)).
    """
    clip = state.clip_norm
    if clip <= 0:
        raise ConfigError(f"clip norm must be > 0, got {clip}")
    k = len(updates)
    mean_clipped = np.zeros_like(global_params)
    scratch = np.empty_like(global_params)
    below = 0
    for u in updates:
        norm = float(np.linalg.norm(np.subtract(u.new_params, global_params, out=scratch)))
        if norm <= clip:
            below += 1
        else:
            scratch *= clip / norm  # onto the L2 ball of radius C
        mean_clipped += np.divide(scratch, k, out=scratch)
    noise_std = cfg.dp_noise_multiplier * clip / k
    if noise_std > 0:
        # rng.normal(0, noise_std)'s draws, 0 + noise_std * z, without a third P-vector.
        mean_clipped += np.multiply(rng.standard_normal(out=scratch), noise_std, out=scratch)
    new_clip = clip * float(np.exp(-cfg.dp_clip_lr * (below / k - cfg.dp_target_quantile)))
    return mean_clipped, replace(state, clip_norm=new_clip)


def _or_zeros(buffer, like):
    return buffer if buffer is not None else np.zeros_like(like)


def _identity(delta, state, cfg):
    return delta, state


def _momentum(delta, state, cfg):
    """Server momentum over the pseudo-gradient: v' = beta*v + delta,
    step = lr*v'. beta=0, lr=1 reduces exactly to FedAvg."""
    v = cfg.momentum * _or_zeros(state.momentum_buffer, delta) + delta
    return cfg.lr * v, replace(state, momentum_buffer=v)


def _adaptive(delta, state, cfg, v2):
    m = cfg.adam_beta1 * _or_zeros(state.first_moment, delta) + (1.0 - cfg.adam_beta1) * delta
    step = cfg.lr * m / (np.sqrt(v2) + cfg.adaptivity)
    return step, replace(state, first_moment=m, second_moment=v2)


def _adam(delta, state, cfg):
    """Adam on the server over pseudo-gradients, no bias correction:
    m' = b1*m + (1-b1)*delta; v2' = b2*v2 + (1-b2)*delta^2;
    step = lr * m' / (sqrt(v2') + tau)."""
    v2 = cfg.adam_beta2 * _or_zeros(state.second_moment, delta)
    return _adaptive(delta, state, cfg, v2 + (1.0 - cfg.adam_beta2) * delta * delta)


def _adagrad(delta, state, cfg):
    """Adagrad on the server: v2 accumulates delta^2 without decay, so the
    effective step size anneals as rounds progress."""
    return _adaptive(delta, state, cfg, _or_zeros(state.second_moment, delta) + delta * delta)


class _Kind(NamedTuple):
    aggregate: Callable  # (global, updates, state, cfg, rng) -> (delta, state)
    step: Callable  # (delta, state, cfg) -> (step, state)
    server_lr: float = 1.0  # when the config leaves strategy.server_lr unset
    client_prox: bool = False  # clients add mu * (w - w_global) (train_local)


_KINDS = {
    "fedavg": _Kind(_mean, _identity),
    "fedavgm": _Kind(_mean, _momentum),
    # FedAdam's first step moves every coordinate by about lr, since
    # m/sqrt(v2) starts near +-1 without bias correction; 0.1 matches the
    # He-uniform init scale and wrecks the model.
    "fedadam": _Kind(_mean, _adam, server_lr=0.01),
    "fedadagrad": _Kind(_mean, _adagrad, server_lr=0.1),
    "fedmedian": _Kind(_median, _identity),
    "fedprox": _Kind(_mean, _identity, client_prox=True),
    "dp": _Kind(_clipped_mean, _identity),
}
STRATEGY_KINDS = tuple(_KINDS)


class Strategy:
    """One kind's aggregator and server step, owning the state across rounds."""

    def __init__(self, cfg: StrategyConfig):
        cfg.validate()
        self.cfg = cfg
        self._row = _KINDS[cfg.kind]
        self._clips = self._row.aggregate is _clipped_mean
        self.state = StrategyState(clip_norm=cfg.dp_initial_clip if self._clips else 0.0)

    @property
    def kind(self) -> str:
        return self.cfg.kind

    @property
    def client_prox_mu(self) -> float:
        """Proximal coefficient clients apply during local training."""
        return self.cfg.prox_mu if self._row.client_prox else 0.0

    @property
    def clip_norm(self) -> float | None:
        """The current clip norm, or None for a kind that does not clip."""
        return self.state.clip_norm if self._clips else None

    def aggregate(
        self, global_params: Array, updates: Updates, rng: np.random.Generator | None = None
    ) -> Array:
        """Check the round's updates, aggregate, take the server step, count the round."""
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
        if rng is None:
            rng = np.random.default_rng(0)
        delta, state = self._row.aggregate(global_params, updates, self.state, self.cfg, rng)
        step, state = self._row.step(delta, state, self.cfg)
        self.state = replace(state, round_index=state.round_index + 1)
        return global_params + step
