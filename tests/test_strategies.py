"""Aggregation strategies against hand values and independent oracles."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedbench import (
    ClientUpdate,
    ConfigError,
    ProtocolError,
    ShapeError,
    Strategy,
    StrategyConfig,
)
from fedbench.strategies import STRATEGY_KINDS, dp_clip, pseudo_gradient


def updates_from(w_t, deltas, num_samples=None):
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    if num_samples is None:
        num_samples = [1] * len(deltas)
    return [
        ClientUpdate(client_id=i, new_params=w_t + d, num_samples=n)
        for i, (d, n) in enumerate(zip(deltas, num_samples))
    ]


def updates_with_params(params_list, num_samples=None):
    if num_samples is None:
        num_samples = [1] * len(params_list)
    return [
        ClientUpdate(client_id=i, new_params=np.asarray(p, dtype=np.float64), num_samples=n)
        for i, (p, n) in enumerate(zip(params_list, num_samples))
    ]


def vectors(dim, bound=10.0):
    return arrays(np.float64, dim,
                  elements=st.floats(-bound, bound, allow_nan=False, allow_infinity=False))


@st.composite
def round_inputs(draw, max_clients=8):
    """Global weights, 1..max_clients client models and their sample counts."""
    k = draw(st.integers(1, max_clients))
    dim = draw(st.integers(1, 5))
    w_t = draw(vectors(dim))
    params = draw(st.lists(vectors(dim), min_size=k, max_size=k))
    ns = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    return w_t, params, ns


def snapshot(updates):
    """Deep copy of every field of every update."""
    return [copy.deepcopy(vars(u)) for u in updates]


def assert_unchanged(updates, before):
    for u, fields in zip(updates, before):
        assert vars(u).keys() == fields.keys()
        for name, value in fields.items():
            assert np.array_equal(getattr(u, name), value), name


def naive_weighted_mean(params_list, num_samples):
    """Per-coordinate python-float accumulation, the brute-force oracle."""
    total = float(sum(num_samples))
    dim = len(params_list[0])
    out = np.zeros(dim)
    weights = [n / total for n in num_samples]
    for j in range(dim):
        acc = 0.0
        for w, p in zip(weights, params_list):
            acc += w * float(p[j])
        out[j] = acc
    return out


def sort_median(params_list):
    """Full-sort per-coordinate median oracle; even counts average the middle."""
    stacked = np.stack(params_list)
    out = np.zeros(stacked.shape[1])
    for j in range(stacked.shape[1]):
        column = sorted(float(v) for v in stacked[:, j])
        k = len(column)
        if k % 2 == 1:
            out[j] = column[k // 2]
        else:
            out[j] = (column[k // 2 - 1] + column[k // 2]) / 2.0
    return out


class TestFedAvg:
    def test_single_client_identity(self):
        w_t = np.zeros(2)
        updates = updates_with_params([[1.0, -2.0]], [5])
        out = Strategy(StrategyConfig()).aggregate(w_t, updates)
        assert np.array_equal(out, [1.0, -2.0])

    def test_weighted_mean_arithmetic(self):
        w_t = np.zeros(1)
        updates = updates_with_params([[0.0], [2.0]], [1, 3])
        assert Strategy(StrategyConfig()).aggregate(w_t, updates)[0] == 1.5

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(17)
        w_t = rng.normal(size=20)
        params = [rng.normal(size=20) for _ in range(5)]
        ns = [int(n) for n in rng.integers(1, 50, size=5)]
        result = Strategy(StrategyConfig()).aggregate(w_t, updates_with_params(params, ns))
        oracle = naive_weighted_mean(params, ns)
        assert np.max(np.abs(result - oracle)) <= 1e-12

    def test_equals_global_plus_pseudo_gradient(self):
        rng = np.random.default_rng(3)
        w_t = rng.normal(size=10)
        updates = updates_with_params([rng.normal(size=10) for _ in range(4)],
                                      [3, 1, 7, 2])
        avg = Strategy(StrategyConfig()).aggregate(w_t, updates)
        via_delta = w_t + pseudo_gradient(w_t, updates)
        assert np.array_equal(avg, via_delta)

    @settings(max_examples=100, deadline=None)
    @given(round_inputs())
    def test_pseudo_gradient_keeps_out_of_place_order(self, inputs):
        """The one-buffer loop gives the bits of the plain weighted sum."""
        w_t, params, ns = inputs
        weights = np.array(ns, dtype=np.float64)
        weights /= weights.sum()
        reference = np.zeros_like(w_t)
        for w, p in zip(weights, params):
            reference += w * (p - w_t)
        updates = updates_with_params(params, ns)
        before = snapshot(updates)
        assert np.array_equal(pseudo_gradient(w_t, updates), reference)
        assert_unchanged(updates, before)

    def test_empty_updates_rejected(self):
        with pytest.raises(ProtocolError):
            Strategy(StrategyConfig()).aggregate(np.zeros(2), [])

    def test_zero_sample_update_rejected(self):
        updates = updates_with_params([[1.0, 2.0], [3.0, 4.0]], [5, 0])
        with pytest.raises(ProtocolError, match="client 1 reported 0 samples"):
            Strategy(StrategyConfig()).aggregate(np.zeros(2), updates)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="client 0"):
            Strategy(StrategyConfig()).aggregate(
                np.zeros(2), updates_with_params([[1.0, 2.0, 3.0]])
            )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        params = [rng.normal(size=12) for _ in range(6)]
        ns = [int(n) for n in rng.integers(1, 9, size=6)]
        c = 3.7
        fedavg = Strategy(StrategyConfig())
        base = fedavg.aggregate(np.zeros(12), updates_with_params(params, ns))
        scaled = fedavg.aggregate(
            np.zeros(12), updates_with_params([c * p for p in params], ns)
        )
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)


class TestFedAvgM:
    def cfg(self, beta, lr):
        return StrategyConfig(kind="fedavgm", momentum=beta, server_lr=lr)

    def test_zero_momentum_reduces_to_fedavg(self):
        rng = np.random.default_rng(4)
        w_t = rng.normal(size=8)
        updates = updates_with_params([rng.normal(size=8) for _ in range(5)],
                                      [2, 5, 1, 1, 3])
        out = Strategy(self.cfg(0.0, 1.0)).aggregate(w_t, updates)
        np.testing.assert_allclose(out, Strategy(StrategyConfig()).aggregate(w_t, updates),
                                   atol=1e-12)

    def test_first_round(self):
        w_t = np.zeros(1)
        strategy = Strategy(self.cfg(0.9, 0.5))
        out = strategy.aggregate(w_t, updates_from(w_t, [[1.0]]))
        assert strategy.state.momentum_buffer[0] == 1.0
        assert out[0] == 0.5

    def test_two_round_hand_recursion(self):
        # Constant delta of 1: v1 = 1, v2 = 1.9, w2 = 1 + 1.9 = 2.9.
        strategy = Strategy(self.cfg(0.9, 1.0))
        w = np.zeros(1)
        for _ in range(2):
            w = strategy.aggregate(w, updates_from(w, [[1.0]]))
        assert abs(w[0] - 2.9) < 1e-12
        assert strategy.state.round_index == 2


class TestFedAdam:
    def test_zero_delta_fixed_point(self):
        w_t = np.array([1.0, -1.0])
        out = Strategy(StrategyConfig(kind="fedadam")).aggregate(
            w_t, updates_from(w_t, [[0.0, 0.0]])
        )
        assert np.array_equal(out, w_t)

    def test_first_round_hand_values(self):
        strategy = Strategy(StrategyConfig(
            kind="fedadam", adam_beta1=0.9, adam_beta2=0.99,
            server_lr=0.1, adaptivity=1e-9,
        ))
        w_t = np.zeros(1)
        out = strategy.aggregate(w_t, updates_from(w_t, [[1.0]]))
        assert abs(strategy.state.first_moment[0] - 0.1) < 1e-15
        assert abs(strategy.state.second_moment[0] - 0.01) < 1e-15
        assert abs(out[0] - 0.1) < 1e-8


class TestFedAdagrad:
    def test_annealing_closed_form(self):
        # With beta1=0 and constant delta 1, the step at round r is lr/(sqrt(r)+tau).
        strategy = Strategy(StrategyConfig(kind="fedadagrad", adam_beta1=0.0,
                                           server_lr=1.0, adaptivity=1e-3))
        w = np.zeros(1)
        previous = w[0]
        steps = []
        for r in range(1, 6):
            w = strategy.aggregate(w, updates_from(w, [[1.0]]))
            step = w[0] - previous
            assert abs(step - 1.0 / (math.sqrt(r) + 1e-3)) < 1e-12
            steps.append(step)
            previous = w[0]
        assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_first_round_hand_values(self):
        strategy = Strategy(StrategyConfig(kind="fedadagrad", adam_beta1=0.0,
                                           server_lr=0.1, adaptivity=1e-9))
        w_t = np.zeros(1)
        out = strategy.aggregate(w_t, updates_from(w_t, [[2.0]]))
        assert abs(strategy.state.second_moment[0] - 4.0) < 1e-15
        assert abs(out[0] - 0.1) < 1e-8

    def test_zero_first_round_keeps_state_zero(self):
        strategy = Strategy(StrategyConfig(kind="fedadagrad"))
        w_t = np.array([2.0])
        out = strategy.aggregate(w_t, updates_from(w_t, [[0.0]]))
        assert np.array_equal(out, w_t)
        assert strategy.state.second_moment[0] == 0.0
        assert strategy.state.round_index == 1


def scalar_recurrence_trajectory(kind, w0, per_round_updates, cfg):
    """Independent per-coordinate reimplementation of the server recurrences.

    per_round_updates: list of rounds, each a list of (params, num_samples).
    Pure python floats throughout.
    """
    dim = len(w0)
    w = [float(v) for v in w0]
    m = [0.0] * dim
    v2 = [0.0] * dim
    trajectory = []
    for round_updates in per_round_updates:
        total = float(sum(n for _, n in round_updates))
        for j in range(dim):
            delta = 0.0
            for params, n in round_updates:
                delta += (n / total) * (float(params[j]) - w[j])
            m[j] = cfg.adam_beta1 * m[j] + (1.0 - cfg.adam_beta1) * delta
            if kind == "fedadagrad":
                v2[j] = v2[j] + delta * delta
            else:
                v2[j] = cfg.adam_beta2 * v2[j] + (1.0 - cfg.adam_beta2) * delta * delta
            w[j] = w[j] + cfg.lr * m[j] / (math.sqrt(v2[j]) + cfg.adaptivity)
        trajectory.append(list(w))
    return trajectory


@pytest.mark.parametrize("kind", ["fedadam", "fedadagrad"])
def test_adaptive_five_round_trajectory_matches_scalar_oracle(kind):
    rng = np.random.default_rng(99)
    dim = 7
    cfg = StrategyConfig(kind=kind, server_lr=0.3, adam_beta1=0.9,
                         adam_beta2=0.99, adaptivity=1e-3)
    strategy = Strategy(cfg)

    w_start = rng.normal(size=dim)
    w = w_start.copy()
    per_round = []
    trajectory = []
    for _ in range(5):
        params = [w + rng.normal(scale=0.5, size=dim) for _ in range(4)]
        ns = [int(n) for n in rng.integers(1, 10, size=4)]
        per_round.append(list(zip([p.copy() for p in params], ns)))
        w = strategy.aggregate(w, updates_with_params(params, ns))
        trajectory.append(w.copy())

    # Oracle consumes the recorded raw client params, not the implementation's deltas.
    oracle = scalar_recurrence_trajectory(kind, w_start, per_round, cfg)
    for ours, theirs in zip(trajectory, oracle):
        assert np.max(np.abs(ours - np.array(theirs))) <= 1e-12


class TestFedMedian:
    def test_odd_count_ignores_outlier(self):
        out = Strategy(StrategyConfig(kind="fedmedian")).aggregate(
            np.zeros(1), updates_with_params([[1.0], [2.0], [100.0]])
        )
        assert out[0] == 2.0

    def test_even_count_averages_middle(self):
        out = Strategy(StrategyConfig(kind="fedmedian")).aggregate(
            np.zeros(1), updates_with_params([[1.0], [3.0]])
        )
        assert out[0] == 2.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(21)
        params = [rng.normal(size=50) for _ in range(20)]
        result = Strategy(StrategyConfig(kind="fedmedian")).aggregate(
            np.zeros(50), updates_with_params(params)
        )
        assert np.array_equal(result, sort_median(params))

    def test_weights_ignored(self):
        params = [[0.0], [10.0], [20.0]]
        median = Strategy(StrategyConfig(kind="fedmedian"))
        a = median.aggregate(np.zeros(1), updates_with_params(params, [1, 1, 1]))
        b = median.aggregate(np.zeros(1), updates_with_params(params, [100, 1, 1]))
        assert a[0] == b[0] == 10.0

    def test_breakdown_bounded_by_honest_values(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            k = int(rng.integers(3, 12))
            honest = [rng.normal(size=6) for _ in range(k - 1)]
            attacker = rng.normal(scale=1e6, size=6)
            out = Strategy(StrategyConfig(kind="fedmedian")).aggregate(
                np.zeros(6), updates_with_params(honest + [attacker])
            )
            lo = np.min(np.stack(honest), axis=0)
            hi = np.max(np.stack(honest), axis=0)
            assert np.all(out >= lo) and np.all(out <= hi)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 12))
    def test_matches_np_median(self, data, dim, k):
        """One sort equals np.median for odd and even client counts, with
        ties, signed zeros, infinities and NaN columns drawn often."""
        special = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
        element = special | st.floats(-1e6, 1e6, allow_nan=False)
        params = data.draw(st.lists(arrays(np.float64, dim, elements=element),
                                    min_size=k, max_size=k))
        with np.errstate(invalid="ignore"):  # both warn on inf + -inf
            out = Strategy(StrategyConfig(kind="fedmedian")).aggregate(
                np.zeros(dim), updates_with_params(params)
            )
            want = np.median(np.stack(params), axis=0)
        assert np.array_equal(out, want, equal_nan=True)


class TestFedProx:
    def test_server_side_is_fedavg(self):
        rng = np.random.default_rng(41)
        w_t = rng.normal(size=9)
        updates = updates_with_params([rng.normal(size=9) for _ in range(4)],
                                      [1, 2, 3, 4])
        assert np.array_equal(
            Strategy(StrategyConfig(kind="fedprox")).aggregate(w_t, updates),
            Strategy(StrategyConfig()).aggregate(w_t, updates),
        )

    def test_strategy_carries_mu_to_clients(self):
        strategy = Strategy(StrategyConfig(kind="fedprox", prox_mu=0.25))
        assert strategy.client_prox_mu == 0.25
        assert Strategy(StrategyConfig(kind="fedavg", prox_mu=0.25)).client_prox_mu == 0.0


class TestDpClip:
    def test_scales_above_threshold(self):
        delta = np.array([6.0, 8.0])  # norm 10
        clipped, was_below = dp_clip(delta, 5.0)
        assert not was_below
        np.testing.assert_allclose(clipped, [3.0, 4.0])

    def test_identity_below_threshold(self):
        delta = np.array([3.0, 0.0])
        clipped, was_below = dp_clip(delta, 5.0)
        assert was_below
        assert np.array_equal(clipped, delta)

    def test_clipped_norm_never_exceeds_bound(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            delta = rng.normal(scale=rng.uniform(0.01, 10), size=int(rng.integers(1, 30)))
            clip = float(rng.uniform(0.01, 5))
            clipped, _ = dp_clip(delta, clip)
            assert np.linalg.norm(clipped) <= clip + 1e-12


class TestDpAggregate:
    def cfg(self, **kw):
        defaults = dict(kind="dp", dp_noise_multiplier=1.0, dp_target_quantile=0.5,
                        dp_clip_lr=0.2, dp_initial_clip=1.0)
        defaults.update(kw)
        return StrategyConfig(**defaults)

    def test_no_noise_huge_clip_equals_uniform_fedavg(self):
        rng = np.random.default_rng(61)
        w_t = rng.normal(size=15)
        params = [rng.normal(size=15) for _ in range(6)]
        cfg = self.cfg(dp_noise_multiplier=0.0, dp_initial_clip=1e9)
        out = Strategy(cfg).aggregate(
            w_t, updates_with_params(params, [9, 1, 4, 2, 2, 7]), np.random.default_rng(0)
        )
        uniform = Strategy(StrategyConfig()).aggregate(w_t, updates_with_params(params))
        assert np.max(np.abs(out - uniform)) <= 1e-12

    def test_clip_update_closed_form(self):
        # All clients below threshold: C' = C * exp(-0.2 * (1 - 0.5)).
        strategy = Strategy(self.cfg())
        w_t = np.zeros(3)
        updates = updates_from(w_t, [[0.1, 0.0, 0.0]] * 4)
        strategy.aggregate(w_t, updates, np.random.default_rng(0))
        assert abs(strategy.state.clip_norm - math.exp(-0.1)) < 1e-12

    def test_seeded_rng_is_reproducible(self):
        rng_params = np.random.default_rng(71)
        w_t = rng_params.normal(size=10)
        params = [rng_params.normal(size=10) for _ in range(5)]
        cfg = self.cfg()
        a = Strategy(cfg).aggregate(w_t, updates_with_params(params),
                                    np.random.default_rng(1234))
        b = Strategy(cfg).aggregate(w_t, updates_with_params(params),
                                    np.random.default_rng(1234))
        assert np.array_equal(a, b)

    def test_clip_monotone_down_and_up(self):
        cfg = self.cfg()
        w_t = np.zeros(2)
        strategy = Strategy(cfg)
        history = [strategy.state.clip_norm]
        for _ in range(10):  # deltas well below the clip
            strategy.aggregate(
                w_t, updates_from(w_t, [[1e-4, 0.0]] * 3), np.random.default_rng(0)
            )
            history.append(strategy.state.clip_norm)
        assert all(a > b for a, b in zip(history, history[1:]))

        strategy = Strategy(cfg)
        history = [strategy.state.clip_norm]
        for _ in range(10):  # deltas far above the clip
            strategy.aggregate(
                w_t, updates_from(w_t, [[100.0, 0.0]] * 3), np.random.default_rng(0)
            )
            history.append(strategy.state.clip_norm)
        assert all(a < b for a, b in zip(history, history[1:]))

    def test_clip_norm_reported_only_when_clipping(self):
        strategy = Strategy(self.cfg(dp_initial_clip=0.5))
        assert strategy.clip_norm == 0.5
        strategy.aggregate(np.zeros(1), updates_from(np.zeros(1), [[0.1]]))
        assert strategy.clip_norm == strategy.state.clip_norm != 0.5
        for kind in STRATEGY_KINDS:
            if kind != "dp":
                assert Strategy(StrategyConfig(kind=kind)).clip_norm is None, kind

    def test_inputs_left_unchanged(self):
        w_t = np.array([1.0, -2.0])
        updates = updates_from(w_t, [[3.0, 4.0], [0.01, 0.0]], num_samples=[5, 7])
        before = snapshot(updates)
        Strategy(self.cfg()).aggregate(w_t, updates, np.random.default_rng(0))
        assert np.array_equal(w_t, [1.0, -2.0])
        assert_unchanged(updates, before)


class TestSharedProperties:
    def strategies(self):
        return [
            ("fedavg", StrategyConfig(kind="fedavg")),
            ("fedavgm", StrategyConfig(kind="fedavgm")),
            ("fedadam", StrategyConfig(kind="fedadam")),
            ("fedadagrad", StrategyConfig(kind="fedadagrad")),
            ("fedmedian", StrategyConfig(kind="fedmedian")),
            ("fedprox", StrategyConfig(kind="fedprox")),
            ("dp", StrategyConfig(kind="dp", dp_noise_multiplier=0.0)),
        ]

    @settings(max_examples=60, deadline=None)
    @given(round_inputs(), st.data())
    def test_permutation_invariance(self, inputs, data):
        w_t, params, ns = inputs
        order = data.draw(st.permutations(range(len(params))))
        for kind, cfg in self.strategies():
            forward = Strategy(cfg).aggregate(
                w_t, updates_with_params(params, ns), rng=np.random.default_rng(0)
            )
            shuffled = Strategy(cfg).aggregate(
                w_t,
                updates_with_params(
                    [params[i] for i in order], [ns[i] for i in order]
                ),
                rng=np.random.default_rng(0),
            )
            np.testing.assert_allclose(forward, shuffled, atol=1e-12, err_msg=kind)

    @settings(max_examples=60, deadline=None)
    @given(round_inputs())
    def test_consensus_fixed_point(self, inputs):
        w_t, params, ns = inputs
        updates = updates_with_params([w_t.copy() for _ in params], ns)
        for kind, cfg in self.strategies():
            out = Strategy(cfg).aggregate(
                w_t, updates, rng=np.random.default_rng(0)
            )
            np.testing.assert_allclose(out, w_t, atol=1e-12, err_msg=kind)

    @settings(max_examples=60, deadline=None)
    @given(round_inputs())
    def test_inputs_left_unchanged(self, inputs):
        w_t, params, ns = inputs
        for kind, cfg in [*self.strategies(), ("dp noisy", StrategyConfig(kind="dp"))]:
            updates = updates_with_params(params, ns)
            before, w_before = snapshot(updates), w_t.copy()
            Strategy(cfg).aggregate(w_t, updates, rng=np.random.default_rng(0))
            assert np.array_equal(w_t, w_before), kind
            assert_unchanged(updates, before)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_median_bounded_by_honest_clients(self, data):
        """Fewer than half the clients corrupted: every coordinate of the
        median lies within the honest clients' range."""
        dim = data.draw(st.integers(1, 5))
        honest = data.draw(st.lists(vectors(dim), min_size=1, max_size=8))
        attackers = data.draw(st.lists(vectors(dim, bound=1e6),
                                       max_size=len(honest) - 1))
        clients = data.draw(st.permutations(honest + attackers))
        out = Strategy(StrategyConfig(kind="fedmedian")).aggregate(
            np.zeros(dim), updates_with_params(clients)
        )
        stacked = np.stack(honest)
        assert np.all(stacked.min(axis=0) <= out)
        assert np.all(out <= stacked.max(axis=0))

    def test_reduction_chain_to_fedavg(self):
        rng = np.random.default_rng(101)
        w_t = rng.normal(size=30)
        params = [rng.normal(size=30) for _ in range(8)]
        ns = [int(n) for n in rng.integers(1, 12, size=8)]
        fedavg = Strategy(StrategyConfig())
        reference = fedavg.aggregate(w_t, updates_with_params(params, ns))

        avgm = Strategy(StrategyConfig(kind="fedavgm", momentum=0.0, server_lr=1.0))
        out = avgm.aggregate(w_t, updates_with_params(params, ns))
        assert np.max(np.abs(out - reference)) <= 1e-12

        prox = Strategy(StrategyConfig(kind="fedprox", prox_mu=0.0))
        out = prox.aggregate(w_t, updates_with_params(params, ns))
        assert np.max(np.abs(out - reference)) <= 1e-12

        uniform_reference = fedavg.aggregate(w_t, updates_with_params(params))
        dp = Strategy(StrategyConfig(kind="dp", dp_noise_multiplier=0.0,
                                     dp_initial_clip=1e9))
        out = dp.aggregate(w_t, updates_with_params(params, ns),
                           rng=np.random.default_rng(0))
        assert np.max(np.abs(out - uniform_reference)) <= 1e-12


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            StrategyConfig(kind="fedkrum").validate()

    def test_bounds(self):
        with pytest.raises(ConfigError):
            StrategyConfig(kind="fedavgm", momentum=1.0).validate()
        with pytest.raises(ConfigError):
            StrategyConfig(kind="dp", dp_target_quantile=0.0).validate()
        with pytest.raises(ConfigError):
            StrategyConfig(kind="dp", dp_initial_clip=0.0).validate()
        with pytest.raises(ConfigError):
            StrategyConfig(kind="fedadam", adaptivity=0.0).validate()
        with pytest.raises(ConfigError, match="server_lr must be > 0"):
            StrategyConfig(kind="fedavgm", server_lr=0.0).validate()
        with pytest.raises(ConfigError, match="prox_mu must be >= 0"):
            StrategyConfig(kind="fedprox", prox_mu=-1.0).validate()
        with pytest.raises(ConfigError, match="dp_noise_multiplier must be >= 0"):
            StrategyConfig(kind="dp", dp_noise_multiplier=-1.0).validate()

    def test_default_server_lr_by_kind(self):
        assert StrategyConfig(kind="fedadam").lr == 0.01
        assert StrategyConfig(kind="fedadagrad").lr == 0.1
        assert StrategyConfig(kind="fedavgm").lr == 1.0
        assert StrategyConfig(kind="fedavgm", server_lr=0.25).lr == 0.25
