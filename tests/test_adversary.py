"""Corruption wrappers and their effect on mean vs median aggregation."""

import numpy as np
import pytest

from fedbench import (
    AdversarySpec,
    ClientUpdate,
    ConfigError,
    Strategy,
    StrategyConfig,
)
from fedbench.adversary import corrupt


def make_update(client_id, params):
    return ClientUpdate(client_id=client_id,
                        new_params=np.asarray(params, dtype=np.float64),
                        num_samples=1)


def test_kind_none_is_identity():
    update = make_update(0, [1.0, 2.0])
    spec = AdversarySpec(kind="none")
    assert corrupt(update, spec, np.zeros(2), np.random.default_rng(0)) is update


def test_scale_factor_one_is_neutral():
    update = make_update(0, [1.0, 2.0])
    spec = AdversarySpec(kind="scale", scale_factor=1.0,
                         affected_clients=frozenset({0}))
    out = corrupt(update, spec, np.zeros(2), np.random.default_rng(0))
    np.testing.assert_allclose(out.new_params, update.new_params)


def test_unaffected_client_passes_through():
    update = make_update(3, [1.0, 2.0])
    spec = AdversarySpec(kind="scale", scale_factor=100.0,
                         affected_clients=frozenset({0}))
    assert corrupt(update, spec, np.zeros(2), np.random.default_rng(0)) is update


def test_scale_acts_on_delta():
    w_t = np.array([1.0, 1.0])
    update = make_update(0, [2.0, 0.0])  # delta (1, -1)
    spec = AdversarySpec(kind="scale", scale_factor=10.0,
                         affected_clients=frozenset({0}))
    out = corrupt(update, spec, w_t, np.random.default_rng(0))
    np.testing.assert_allclose(out.new_params, [11.0, -9.0])


def test_random_attack_is_seed_deterministic():
    update = make_update(0, [1.0, 2.0, 3.0])
    spec = AdversarySpec(kind="random", affected_clients=frozenset({0}))
    a = corrupt(update, spec, np.zeros(3), np.random.default_rng(5))
    b = corrupt(update, spec, np.zeros(3), np.random.default_rng(5))
    assert np.array_equal(a.new_params, b.new_params)
    assert not np.array_equal(a.new_params, update.new_params)


def test_validate_rejects_out_of_range_clients():
    spec = AdversarySpec(kind="scale", affected_clients=frozenset({12}))
    with pytest.raises(ConfigError, match="clients"):
        spec.validate(num_clients=10)
    with pytest.raises(ConfigError, match="kind"):
        AdversarySpec(kind="gradient-ascent").validate()


def test_mean_moves_far_median_stays():
    # One scale-100 client among 10: the weighted mean shifts by an order of
    # magnitude, the coordinate-wise median barely moves.
    rng = np.random.default_rng(7)
    w_t = rng.normal(size=40)
    honest = [
        make_update(i, w_t + rng.normal(scale=0.1, size=40)) for i in range(10)
    ]
    spec = AdversarySpec(kind="scale", scale_factor=100.0,
                         affected_clients=frozenset({4}))
    attacked = [corrupt(u, spec, w_t, np.random.default_rng(i))
                for i, u in enumerate(honest)]

    fedavg = Strategy(StrategyConfig())
    clean_avg = np.linalg.norm(fedavg.aggregate(w_t, honest) - w_t)
    bad_avg = np.linalg.norm(fedavg.aggregate(w_t, attacked) - w_t)
    assert bad_avg >= 10.0 * clean_avg

    median = Strategy(StrategyConfig(kind="fedmedian"))
    clean_med = np.linalg.norm(median.aggregate(w_t, honest) - w_t)
    bad_med = np.linalg.norm(median.aggregate(w_t, attacked) - w_t)
    assert bad_med <= 2.0 * clean_med
