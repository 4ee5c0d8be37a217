"""Model core: parameter layout, gradients vs finite differences, optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedbench import (
    ConfigError,
    LocalOptimizerConfig,
    ModelSpec,
    NumericError,
    ShapeError,
)
from fedbench.model import (
    forward_logits,
    forward_loss_grad,
    init_model,
    init_opt_state,
    local_adam_step,
    local_sgd_step,
    local_step,
)
from fedbench.simulation import train_local


def finite_difference_grad(params, spec, x, y, h=1e-5):
    """Central-difference gradient oracle, independent of the backward pass."""
    grad = np.zeros_like(params)
    for i in range(params.shape[0]):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        loss_up, _ = forward_loss_grad(up, spec, x, y)
        loss_down, _ = forward_loss_grad(down, spec, x, y)
        grad[i] = (loss_up - loss_down) / (2.0 * h)
    return grad


def random_instance(rng, spec, batch=8):
    params = rng.normal(0.0, 0.5, size=spec.param_count())
    x = rng.uniform(0.0, 1.0, size=(batch, spec.input_dim))
    y = rng.integers(0, spec.output_classes, size=batch)
    return params, x, y


class TestParamCount:
    def test_tiny_linear(self):
        spec = ModelSpec(input_dim=2, hidden_dims=[], output_classes=2)
        assert spec.param_count() == 2 * 2 + 2 == 6
        assert init_model(spec, 7).shape == (6,)

    def test_mnist_mlp(self):
        spec = ModelSpec(input_dim=784, hidden_dims=[128], output_classes=10)
        assert spec.param_count() == 784 * 128 + 128 + 128 * 10 + 10 == 101_770

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec(input_dim=0, hidden_dims=[], output_classes=2).validate()
        with pytest.raises(ConfigError):
            ModelSpec(input_dim=3, hidden_dims=[], output_classes=1).validate()


class TestInit:
    def test_deterministic(self):
        spec = ModelSpec(input_dim=2, hidden_dims=[], output_classes=2)
        assert np.array_equal(init_model(spec, 7), init_model(spec, 7))

    def test_seed_changes_weights(self):
        a = init_model(ModelSpec(4, [3], 2), 0)
        b = init_model(ModelSpec(4, [3], 2), 1)
        assert not np.array_equal(a, b)

    def test_biases_zero(self):
        spec = ModelSpec(input_dim=3, hidden_dims=[], output_classes=2)
        params = init_model(spec, 5)
        assert np.array_equal(params[6:], np.zeros(2))


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[], output_classes=10)
        params = np.zeros(spec.param_count())
        x = np.random.default_rng(0).uniform(size=(16, 4))
        y = np.arange(16) % 10
        loss, grad = forward_loss_grad(params, spec, x, y)
        assert abs(loss - np.log(10.0)) < 1e-12
        assert grad.shape == params.shape

    def test_fresh_init_is_near_log_k(self):
        spec = ModelSpec(input_dim=784, hidden_dims=[128], output_classes=10)
        params = init_model(spec, 3)
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(64, 784))
        y = rng.integers(0, 10, size=64)
        loss, _ = forward_loss_grad(params, spec, x, y)
        assert abs(loss - np.log(10.0)) < 0.5

    def test_confident_correct_prediction(self):
        # Zero weights, biases push all mass onto class 0.
        spec = ModelSpec(input_dim=2, hidden_dims=[], output_classes=2)
        params = np.array([0.0, 0.0, 0.0, 0.0, 50.0, -50.0])
        x = np.array([[0.3, 0.7]])
        loss, grad = forward_loss_grad(params, spec, x, np.array([0]))
        assert loss < 1e-12
        assert np.max(np.abs(grad)) < 1e-12

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        spec = ModelSpec(input_dim=4, hidden_dims=[5], output_classes=3)
        for _ in range(50):
            params, x, y = random_instance(rng, spec)
            loss, _ = forward_loss_grad(params, spec, x, y)
            assert loss >= 0.0

    def test_shape_errors(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[], output_classes=3)
        params = np.zeros(spec.param_count())
        with pytest.raises(ShapeError):
            forward_loss_grad(params, spec, np.zeros((2, 5)), np.array([0, 1]))
        with pytest.raises(ShapeError):
            forward_loss_grad(params, spec, np.zeros((2, 4)), np.array([0, 3]))
        with pytest.raises(ShapeError):
            forward_logits(np.zeros(7), spec, np.zeros((2, 4)))


class TestGradient:
    def test_matches_finite_differences(self):
        # 100 random (params, batch) pairs on the tiny model.
        spec = ModelSpec(input_dim=4, hidden_dims=[5], output_classes=3)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            params, x, y = random_instance(rng, spec)
            _, analytic = forward_loss_grad(params, spec, x, y)
            numeric = finite_difference_grad(params, spec, x, y)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        assert worst < 1e-4

    def test_grad_length_is_param_length(self):
        spec = ModelSpec(input_dim=6, hidden_dims=[4, 3], output_classes=2)
        rng = np.random.default_rng(5)
        params, x, y = random_instance(rng, spec)
        _, grad = forward_loss_grad(params, spec, x, y)
        assert grad.shape == (spec.param_count(),)


class TestOptimizers:
    def test_sgd_one_step(self):
        cfg = LocalOptimizerConfig(kind="sgd", learning_rate=0.1)
        params, _ = local_sgd_step(np.array([1.0]), np.array([2.0]), None, cfg)
        assert params[0] == 0.8

    def test_adam_zero_grad_fixed_point(self):
        cfg = LocalOptimizerConfig(kind="adam")
        state = init_opt_state(cfg, 3)
        params = np.array([1.0, -2.0, 0.5])
        new_params, new_state = local_adam_step(params.copy(), np.zeros(3), state, cfg)
        assert np.array_equal(new_params, params)
        assert new_state.step == 1

    def test_adam_first_step_magnitude(self):
        # With bias correction the first step is lr / (1 + eps) ~= lr.
        cfg = LocalOptimizerConfig(kind="adam", learning_rate=0.001)
        state = init_opt_state(cfg, 1)
        new_params, state = local_adam_step(np.array([1.0]), np.array([1.0]), state, cfg)
        assert abs((1.0 - new_params[0]) - 0.001) < 1e-10

        # Hand recursion for the second step with the same gradient.
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = b1 * (0.1) + 0.1 * 1.0
        v = b2 * (0.001) + 0.001 * 1.0
        m_hat = m / (1 - b1**2)
        v_hat = v / (1 - b2**2)
        expected = new_params[0] - 0.001 * m_hat / (np.sqrt(v_hat) + eps)
        again, _ = local_adam_step(new_params, np.array([1.0]), state, cfg)
        assert abs(again[0] - expected) < 1e-15

    def test_non_finite_grad_raises(self):
        cfg = LocalOptimizerConfig(kind="sgd", learning_rate=0.1)
        with pytest.raises(NumericError):
            local_sgd_step(np.array([1.0]), np.array([np.nan]), None, cfg)
        cfg = LocalOptimizerConfig(kind="adam")
        with pytest.raises(NumericError):
            local_adam_step(
                np.array([1.0]), np.array([np.inf]), init_opt_state(cfg, 1), cfg
            )

    def test_default_learning_rates(self):
        assert LocalOptimizerConfig(kind="adam").lr == 0.001
        assert LocalOptimizerConfig(kind="sgd").lr == 0.01

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            LocalOptimizerConfig(batch_size=0).validate()
        with pytest.raises(ConfigError):
            LocalOptimizerConfig(local_epochs=0).validate()
        with pytest.raises(ConfigError):
            LocalOptimizerConfig(kind="rmsprop").validate()


class TestLocalTraining:
    def test_trajectory_determinism(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[5], output_classes=3)
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(40, 4))
        y = rng.integers(0, 3, size=40)
        cfg = LocalOptimizerConfig(kind="adam", batch_size=8, local_epochs=2)
        params = init_model(spec, 1)
        out1 = train_local(params, spec, x, y, cfg, np.random.default_rng(77))
        out2 = train_local(params, spec, x, y, cfg, np.random.default_rng(77))
        assert np.array_equal(out1, out2)

    def test_training_reduces_loss(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[8], output_classes=3)
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(90, 4))
        y = rng.integers(0, 3, size=90)
        x[y == 0, 0] += 2.0
        x[y == 1, 1] += 2.0
        x[y == 2, 2] += 2.0
        cfg = LocalOptimizerConfig(kind="adam", learning_rate=0.01, local_epochs=10)
        params = init_model(spec, 2)
        before, _ = forward_loss_grad(params, spec, x, y)
        trained = train_local(params, spec, x, y, cfg, np.random.default_rng(0))
        after, _ = forward_loss_grad(trained, spec, x, y)
        assert after < before
        assert params.shape == trained.shape

    def test_prox_term_pulls_toward_center(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[6], output_classes=3)
        rng = np.random.default_rng(12)
        x = rng.uniform(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        cfg = LocalOptimizerConfig(kind="adam", local_epochs=3)
        center = init_model(spec, 4)
        free = train_local(center, spec, x, y, cfg, np.random.default_rng(3))
        pinned = train_local(
            center, spec, x, y, cfg, np.random.default_rng(3),
            prox_mu=100.0, prox_center=center,
        )
        assert np.linalg.norm(pinned - center) < np.linalg.norm(free - center)


# The textbook out-of-place expressions. The SGD step reproduces
# reference_sgd bit for bit. The Adam step keeps its moments pre-scaled by
# 1/(1 - b1) and 1/(1 - b2) and folds the bias correction into one step size,
# so it matches reference_adam up to rounding, within ROUNDING_BOUND.
def reference_sgd(params, grad, cfg):
    return params - cfg.lr * grad


def reference_adam(params, grad, m, v, t, cfg):
    m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * grad
    v = cfg.adam_beta2 * v + (1.0 - cfg.adam_beta2) * grad * grad
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    v_hat = v / (1.0 - cfg.adam_beta2**t)
    return params - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon), m, v


# |got - textbook| <= ROUNDING_BOUND * scale + TINY. The scale is the
# largest magnitude the textbook values reached so far, and for the
# parameters also the summed updates that the gradients' magnitudes would
# have made without cancelling in m (with eps small and v small, rounding
# noise in a cancelled m is amplified by lr / eps in either form). TINY, the
# smallest normal float64, absorbs the subnormal updates that a subnormal
# learning rate or gradient makes.
ROUNDING_BOUND = 1e-12
TINY = np.finfo(np.float64).tiny


def assert_within_rounding(got, want, scale):
    assert np.all(np.abs(got - want) <= ROUNDING_BOUND * scale + TINY)


def reference_train_local(params, spec, x, y, cfg, rng, prox_mu, prox_center):
    params = params.copy()
    m = v = np.zeros_like(params)
    t = 0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grad = forward_loss_grad(params, spec, x[batch], y[batch])
            if prox_mu > 0.0:
                grad = grad + prox_mu * (params - prox_center)
            if cfg.kind == "adam":
                t += 1
                params, m, v = reference_adam(params, grad, m, v, t, cfg)
            else:
                params = reference_sgd(params, grad, cfg)
    return params


adam_configs = st.builds(
    LocalOptimizerConfig,
    kind=st.just("adam"),
    learning_rate=st.floats(0.0, 1.0),
    adam_beta1=st.floats(0.0, 0.999),
    adam_beta2=st.floats(0.0, 0.9999),
    adam_epsilon=st.floats(1e-12, 1e-3),
)


def vectors(dim, bound=1e3):
    return arrays(np.float64, dim, elements=st.floats(-bound, bound))


def gradient_sequences(dim):
    return st.lists(vectors(dim), min_size=1, max_size=6)


class TestInPlaceSteps:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), adam_configs, st.integers(1, 12))
    def test_adam_matches_out_of_place(self, data, cfg, dim):
        params = data.draw(vectors(dim, 10.0))
        grads = data.draw(gradient_sequences(dim))
        state = init_opt_state(cfg, dim)
        want, m, v = params.copy(), np.zeros(dim), np.zeros(dim)
        scale, g_max = np.max(np.abs(params)), 0.0
        m_abs, drift = np.zeros(dim), np.zeros(dim)
        for t, grad in enumerate(grads, start=1):
            step_abs, m_abs, _ = reference_adam(0.0, np.abs(grad), m_abs, v, t, cfg)
            drift -= step_abs
            want, m, v = reference_adam(want, grad, m, v, t, cfg)
            scale = max(scale, np.max(np.abs(want)), np.max(drift))
            g_max = max(g_max, np.max(np.abs(grad)))
            got, state = local_adam_step(params, grad, state, cfg)
            assert got is params
            assert_within_rounding(params, want, scale)
            assert_within_rounding((1.0 - cfg.adam_beta1) * state.m, m, g_max)
            assert_within_rounding((1.0 - cfg.adam_beta2) * state.v, v, g_max**2)
            assert state.step == t

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.floats(0.0, 1.0), st.integers(1, 12))
    def test_sgd_matches_out_of_place(self, data, lr, dim):
        cfg = LocalOptimizerConfig(kind="sgd", learning_rate=lr)
        params = data.draw(vectors(dim, 10.0))
        want = params.copy()
        for grad in data.draw(gradient_sequences(dim)):
            want = reference_sgd(want, grad, cfg)
            got, _ = local_sgd_step(params, grad, None, cfg)
            assert got is params
            assert np.array_equal(params, want)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["sgd", "adam"]),
        prox_mu=st.just(0.0) | st.floats(1e-3, 10.0),
        batch_size=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_train_local_matches_out_of_place(self, kind, prox_mu, batch_size, seed):
        spec = ModelSpec(input_dim=4, hidden_dims=[5], output_classes=3)
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        x.flags.writeable = y.flags.writeable = False  # as the cached split
        params = init_model(spec, 1)
        center = params + rng.normal(scale=0.1, size=params.shape)
        params_before, center_before = params.copy(), center.copy()
        cfg = LocalOptimizerConfig(kind=kind, learning_rate=0.05,
                                   batch_size=batch_size, local_epochs=2)
        got = train_local(params, spec, x, y, cfg, np.random.default_rng(seed),
                          prox_mu=prox_mu, prox_center=center)
        want = reference_train_local(params, spec, x, y, cfg,
                                     np.random.default_rng(seed), prox_mu, center)
        if kind == "sgd":
            assert np.array_equal(got, want)
        else:
            steps = cfg.local_epochs * -(-x.shape[0] // batch_size)
            scale = max(np.max(np.abs(params)), np.max(np.abs(want)))
            assert_within_rounding(got, want, max(scale, cfg.lr * steps))
        assert np.array_equal(params, params_before)
        assert np.array_equal(center, center_before)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["sgd", "adam"]),
        dim=st.integers(1, 12),
        where=st.integers(0, 11),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_non_finite_gradient_raises_before_any_write(self, kind, dim, where, bad):
        cfg = LocalOptimizerConfig(kind=kind)
        params = np.arange(dim, dtype=np.float64)
        grad = np.ones(dim)
        grad[where % dim] = bad
        state = init_opt_state(cfg, dim)
        with pytest.raises(NumericError):
            local_step(params, grad, state, cfg)
        assert np.array_equal(params, np.arange(dim, dtype=np.float64))
        if state is not None:
            assert state.step == 0 and not state.m.any() and not state.v.any()

    def test_train_local_raises_on_non_finite_gradient(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[5], output_classes=3)
        x = np.full((6, 4), 0.5)
        x[3, 1] = np.nan
        params = init_model(spec, 1)
        before = params.copy()
        for kind in ("sgd", "adam"):
            with pytest.raises(NumericError):
                train_local(params, spec, x, np.zeros(6, dtype=np.int64),
                            LocalOptimizerConfig(kind=kind), np.random.default_rng(0))
        assert np.array_equal(params, before)

    def test_forward_loss_grad_writes_into_out(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[5], output_classes=3)
        rng = np.random.default_rng(4)
        params, x, y = random_instance(rng, spec)
        out = np.full_like(params, np.nan)
        loss, grad = forward_loss_grad(params, spec, x, y, out=out)
        want_loss, want_grad = forward_loss_grad(params, spec, x, y)
        assert grad is out
        assert loss == want_loss and np.array_equal(grad, want_grad)
