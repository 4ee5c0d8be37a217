"""Server aggregation strategies.

Each kind is an aggregator, which turns one round's client updates into a
pseudo-gradient delta relative to the global model w_t, followed by a server
step on delta with persistent state: w_{t+1} = w_t + step (Reddi et al.,
arXiv:2003.00295). The mean aggregator is

    delta = sum_k (n_k / n) * (w_k - w_t),   n = sum_k n_k

so FedAvg, the mean with the identity step, is exactly w_t + delta.
An aggregator is a Fold: it takes the replies one at a time in client
order, so a round need not hold them all (only the median does).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, ProtocolError, ShapeError

Array = np.ndarray
_MEDIAN_BLOCK = 4096  # columns per median sort: a (block, K) scratch, 655 KB at K = 20


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


class Fold:
    """One round's aggregate in progress. Strategy.start makes it from the
    round's global params and every client's sample count, which fix the
    weights; add takes the replies one at a time in client order;
    Strategy.aggregate finishes it. A kind's subclass does the work: _add
    folds one reply's parameters in, _finish returns (delta, state)."""

    def __init__(self, global_params: Array, sample_counts: list[int], state: StrategyState):
        if not sample_counts:
            raise ProtocolError("aggregation received an empty update set")
        for client_id, count in enumerate(sample_counts):
            if count < 1:
                raise ProtocolError(f"client {client_id} reported {count} samples")
        self.global_params = global_params
        self.size = len(sample_counts)
        self.added = 0

    def add(self, client_id: int, new_params: Array) -> None:
        """Check one reply's shape and dtype, and fold it in as the next client's."""
        if self.added == self.size:
            raise ProtocolError(f"client {client_id} sent reply {self.added + 1} to a round "
                                f"started with {self.size} sample counts")
        got, want = new_params, self.global_params
        if (got.shape, got.dtype) != (want.shape, want.dtype):
            raise ShapeError(f"client {client_id} sent shape {got.shape} of {got.dtype}, "
                             f"global model has shape {want.shape} of {want.dtype}")
        self._add(new_params)
        self.added += 1

    def finish(self, state: StrategyState, cfg: StrategyConfig,
               rng: np.random.Generator) -> tuple[Array, StrategyState]:
        """The round's delta and state. The fold then drops every buffer it
        holds, so the server step and the round after it do not carry them."""
        if self.added != self.size:
            raise ProtocolError(f"aggregation received {self.added} of {self.size} replies")
        delta, state = self._finish(state, cfg, rng)
        vars(self).clear()
        return delta, state


class _Mean(Fold):
    """delta = sum_k (n_k / n) * (w_k - w_t), each reply's share added to
    the running delta through one scratch vector."""

    def __init__(self, global_params, sample_counts, state):
        super().__init__(global_params, sample_counts, state)
        total = sum(sample_counts)
        # Python floats, so that each reply's product stays in the params' dtype.
        self.weights = [n / total for n in sample_counts]
        self.delta = np.zeros_like(global_params)
        self.scratch = np.empty_like(global_params)

    def _add(self, new_params):
        np.subtract(new_params, self.global_params, out=self.scratch)
        self.delta += np.multiply(self.scratch, self.weights[self.added], out=self.scratch)

    def _finish(self, state, cfg, rng):
        return self.delta, state


class _Median(Fold):
    """Unweighted coordinate-wise median of the client models, applied as a
    delta to w_t; even client counts average the two middle values. Equal to
    np.median, NaN columns included; each coordinate's K values sort
    contiguously. The one kind that keeps every reply until the round ends."""

    def __init__(self, global_params, sample_counts, state):
        super().__init__(global_params, sample_counts, state)
        self.replies = []

    def _add(self, new_params):
        self.replies.append(new_params)

    def _finish(self, state, cfg, rng):
        k, p = self.size, self.global_params.size
        out = np.empty_like(self.global_params)
        scratch = np.empty((min(_MEDIAN_BLOCK, p), k), out.dtype)
        for start in range(0, p, _MEDIAN_BLOCK):
            cols, mid = scratch[: min(_MEDIAN_BLOCK, p - start)], out[start : start + _MEDIAN_BLOCK]
            np.stack([r[start : start + len(cols)] for r in self.replies], axis=1, out=cols)
            cols.sort(axis=1)
            mid[:] = cols[:, k // 2] if k % 2 else (cols[:, k // 2 - 1] + cols[:, k // 2]) / 2
            np.copyto(mid, np.nan, where=np.isnan(cols[:, -1]))  # the sort puts NaNs last
        out -= self.global_params
        return out, state


class _ClippedMean(Fold):
    """Uniform mean of deltas clipped at C plus noise; C tracks a quantile.

    Client deltas are clipped at the current norm C and averaged with uniform
    1/K weights; per-coordinate noise with std z*C/K is added. C then moves
    geometrically toward the target quantile of the delta-norm distribution:
    C' = C * exp(-lr_C * (below_fraction - quantile)).
    """

    def __init__(self, global_params, sample_counts, state):
        super().__init__(global_params, sample_counts, state)
        if state.clip_norm <= 0:
            raise ConfigError(f"clip norm must be > 0, got {state.clip_norm}")
        self.clip = state.clip_norm
        self.mean = np.zeros_like(global_params)
        self.scratch = np.empty_like(global_params)
        self.below = 0

    def _add(self, new_params):
        scratch = self.scratch
        norm = float(np.linalg.norm(np.subtract(new_params, self.global_params, out=scratch)))
        if norm <= self.clip:
            self.below += 1
        else:
            scratch *= self.clip / norm  # onto the L2 ball of radius C
        self.mean += np.divide(scratch, self.size, out=scratch)

    def _finish(self, state, cfg, rng):
        k, clip = self.size, self.clip
        noise_std = cfg.dp_noise_multiplier * clip / k
        if noise_std > 0:
            # noise_std * z, z drawn in the params' dtype into the scratch vector; at
            # float64 these are rng.normal(0, noise_std)'s draws.
            z = rng.standard_normal(dtype=self.scratch.dtype, out=self.scratch)
            self.mean += np.multiply(z, noise_std, out=self.scratch)
        new_clip = clip * float(np.exp(-cfg.dp_clip_lr * (self.below / k - cfg.dp_target_quantile)))
        return self.mean, replace(state, clip_norm=new_clip)


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
    fold: type[Fold]  # (global, sample_counts, state) -> the round's Fold
    step: Callable  # (delta, state, cfg) -> (step, state)
    server_lr: float = 1.0  # when the config leaves strategy.server_lr unset
    client_prox: bool = False  # clients add mu * (w - w_global) (train_local)


_KINDS = {
    "fedavg": _Kind(_Mean, _identity),
    "fedavgm": _Kind(_Mean, _momentum),
    # FedAdam's first step moves every coordinate by about lr, since
    # m/sqrt(v2) starts near +-1 without bias correction; 0.1 matches the
    # He-uniform init scale and wrecks the model.
    "fedadam": _Kind(_Mean, _adam, server_lr=0.01),
    "fedadagrad": _Kind(_Mean, _adagrad, server_lr=0.1),
    "fedmedian": _Kind(_Median, _identity),
    "fedprox": _Kind(_Mean, _identity, client_prox=True),
    "dp": _Kind(_ClippedMean, _identity),
}
STRATEGY_KINDS = tuple(_KINDS)


class Strategy:
    """One kind's aggregator and server step, owning the state across rounds."""

    def __init__(self, cfg: StrategyConfig):
        cfg.validate()
        self.cfg = cfg
        self._row = _KINDS[cfg.kind]
        self._clips = self._row.fold is _ClippedMean
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

    def start(self, global_params: Array, sample_counts: list[int]) -> Fold:
        """Begin a round's aggregate: sample_counts holds every client's
        count in client order, each at least 1, and the replies must come in
        that order. The counts fix the weights of the mean kinds."""
        return self._row.fold(global_params, sample_counts, self.state)

    def aggregate(self, fold: Fold, rng: np.random.Generator) -> Array:
        """Finish the round's fold, take the server step, count the round.
        rng feeds the dp noise: pass a new generator each round."""
        global_params = fold.global_params
        delta, state = fold.finish(self.state, self.cfg, rng)
        step, state = self._row.step(delta, state, self.cfg)
        self.state = replace(state, round_index=state.round_index + 1)
        return global_params + step
