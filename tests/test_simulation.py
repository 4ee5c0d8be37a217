"""Round loop: timing capture, determinism, participation, failure handling."""

import copy
import ctypes
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbench import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    LocalOptimizerConfig,
    ModelSpec,
    NumericError,
    PartitionSpec,
    ProtocolError,
    Strategy,
    StrategyConfig,
    SyntheticSpec,
    run_experiment,
)
import fedbench.simulation
from fedbench.data import Dataset, RowView, load_dataset
from fedbench.model import forward_loss_grad, init_model
from fedbench.partition import partition
from fedbench.strategies import STRATEGY_KINDS
from fedbench.simulation import (
    _TAG_MODEL_INIT,
    _TAG_PARTITION,
    _TAG_SUBSET,
    _transfer,
    derived_rng,
    derived_seed,
    evaluate_centralized,
    replica_seed,
    run_round,
    train_local,
)


def tiny_config(**overrides):
    base = dict(
        dataset="synthetic",
        synthetic=SyntheticSpec(num_classes=3, train_per_class=60, test_per_class=20,
                                input_dim=8, class_sep=6.0, seed=3),
        partition=PartitionSpec(mode="iid"),
        model=ModelSpec(8, [16], 3),
        local=LocalOptimizerConfig(kind="adam", learning_rate=0.01, local_epochs=2),
        strategy=StrategyConfig(kind="fedavg"),
        rounds=3,
        num_clients=4,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_shards(rng, num_clients, per_client, dim, classes):
    return [Dataset(features=rng.uniform(size=(per_client, dim)),
                    labels=rng.integers(0, classes, size=per_client))
            for _ in range(num_clients)]


@pytest.fixture(scope="module")
def pool():
    with ThreadPoolExecutor(2) as pool:
        yield pool


class TestRunRound:
    def setup_round(self, num_clients=3):
        rng = np.random.default_rng(0)
        spec = ModelSpec(input_dim=6, hidden_dims=[5], output_classes=3)
        shards = make_shards(rng, num_clients, 12, 6, 3)
        evaluation = Dataset(rng.uniform(size=(30, 6)), rng.integers(0, 3, size=30))
        return spec, shards, evaluation

    def test_single_client_round_adopts_client_weights(self, pool):
        spec, shards, evaluation = self.setup_round(num_clients=1)
        params = init_model(spec, 1)
        strategy = Strategy(StrategyConfig(kind="fedavg"))
        new_params, metrics = run_round(
            params, shards, strategy, 1,
            cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
            evaluation=evaluation, pool=pool,
        )
        from fedbench.simulation import derived_rng, train_local, _TAG_TRAIN

        expected = train_local(
            params, spec, shards[0].features, shards[0].labels, LocalOptimizerConfig(),
            derived_rng(5, 1, 0, _TAG_TRAIN), prox_mu=0.0, prox_center=params,
        )
        assert np.array_equal(new_params, expected)
        assert metrics.round == 1

    def test_empty_client_list_rejected(self, pool):
        spec, _, evaluation = self.setup_round()
        with pytest.raises(ConfigError, match="at least one client"):
            run_round(
                init_model(spec, 1), [], Strategy(StrategyConfig(kind="fedavg")), 1,
                cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
                evaluation=evaluation, pool=pool,
            )

    def test_zero_lr_leaves_model_and_accuracy_unchanged(self, pool):
        spec, shards, evaluation = self.setup_round()
        params = init_model(spec, 1)
        acc_before, loss_before = evaluate_centralized(params, spec, evaluation.features,
                                                        evaluation.labels)
        strategy = Strategy(StrategyConfig(kind="fedavg"))
        new_params, metrics = run_round(
            params, shards, strategy, 1,
            cfg=ExperimentConfig(model=spec, master_seed=5,
                                 local=LocalOptimizerConfig(kind="sgd", learning_rate=0.0)),
            evaluation=evaluation, pool=pool,
        )
        np.testing.assert_allclose(new_params, params, atol=1e-12)
        assert abs(metrics.acc - acc_before) < 1e-12

    def test_all_clients_participate(self, pool):
        spec, shards, evaluation = self.setup_round(num_clients=5)
        seen = []

        class Recorder(Strategy):
            def aggregate(self, global_params, updates, rng=None):
                seen.extend(u.client_id for u in updates)
                return super().aggregate(global_params, updates, rng=rng)

        run_round(
            init_model(spec, 1), shards, Recorder(StrategyConfig(kind="fedavg")), 1,
            cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
            evaluation=evaluation, pool=pool,
        )
        assert seen == [0, 1, 2, 3, 4]

    def test_timing_fields_positive(self, pool):
        spec, shards, evaluation = self.setup_round()
        _, metrics = run_round(
            init_model(spec, 1), shards, Strategy(StrategyConfig(kind="fedavg")), 1,
            cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
            evaluation=evaluation, pool=pool,
        )
        assert metrics.agg_time_s > 0
        assert metrics.train_time_s > 0
        assert metrics.comm_time_s > 0

    def test_non_finite_client_params_abort_with_context(self, pool):
        spec, shards, evaluation = self.setup_round()
        shards[2].features[0, 0] = np.nan
        with pytest.raises(NumericError, match="client 2.*round 1"):
            run_round(
                init_model(spec, 1), shards, Strategy(StrategyConfig(kind="fedavg")), 1,
                cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
                evaluation=evaluation, pool=pool,
            )

    def test_non_finite_client_params_rejected_before_aggregation(self, monkeypatch):
        spec, shards, evaluation = self.setup_round()
        real_train_local = fedbench.simulation.train_local

        def overflowing_clients_1_and_2(params, *args, **kwargs):
            trained = real_train_local(params, *args, **kwargs)
            if args[1] is shards[1].features:
                time.sleep(0.05)  # client 2 fails first in time, not in client order
            if args[1] is not shards[0].features:
                trained[3] = np.inf
            return trained

        monkeypatch.setattr(fedbench.simulation, "train_local", overflowing_clients_1_and_2)
        strategy = Strategy(StrategyConfig(kind="fedavg"))
        with ThreadPoolExecutor(3) as pool, pytest.raises(
                NumericError, match="client 1 produced non-finite parameters in round 1"):
            run_round(
                init_model(spec, 1), shards, strategy, 1,
                cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
                evaluation=evaluation, pool=pool,
            )
        assert strategy.state.round_index == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_aggregate_aborts_round(self, pool):
        spec, shards, evaluation = self.setup_round()
        # Finite client models; the server's 1e308 step overflows.
        strategy = Strategy(StrategyConfig(kind="fedavgm", server_lr=1e308))
        with pytest.raises(NumericError,
                           match="aggregation produced non-finite parameters in round 1"):
            run_round(
                init_model(spec, 1), shards, strategy, 1,
                cfg=ExperimentConfig(model=spec, master_seed=5,
                                     local=LocalOptimizerConfig(kind="sgd", learning_rate=10.0)),
                evaluation=evaluation, pool=pool,
            )

    def test_dp_round_records_clip_norm(self, pool):
        spec, shards, evaluation = self.setup_round()
        strategy = Strategy(StrategyConfig(kind="dp"))
        _, metrics = run_round(
            init_model(spec, 1), shards, strategy, 1,
            cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
            evaluation=evaluation, pool=pool,
        )
        assert metrics.clip_norm == strategy.state.clip_norm
        assert metrics.clip_norm > 0

    @pytest.mark.parametrize("loss", [np.nan, np.inf])
    def test_non_finite_loss_aborts_round(self, pool, monkeypatch, loss):
        spec, shards, evaluation = self.setup_round()
        monkeypatch.setattr(fedbench.simulation, "evaluate_centralized",
                            lambda *args: (0.5, loss))
        with pytest.raises(NumericError, match="non-finite loss in round 1"):
            run_round(
                init_model(spec, 1), shards, Strategy(StrategyConfig(kind="fedavg")), 1,
                cfg=ExperimentConfig(model=spec, local=LocalOptimizerConfig(), master_seed=5),
                evaluation=evaluation, pool=pool,
            )


class TestEvaluate:
    def test_perfect_predictor(self):
        spec = ModelSpec(input_dim=2, hidden_dims=[], output_classes=2)
        params = np.array([0.0, 0.0, 0.0, 0.0, 50.0, -50.0])
        x = np.random.default_rng(0).uniform(size=(20, 2))
        y = np.zeros(20, dtype=np.int64)
        acc, loss = evaluate_centralized(params, spec, x, y)
        assert acc == 1.0
        assert loss < 1e-12

    def test_uniform_model_on_balanced_set(self):
        spec = ModelSpec(input_dim=4, hidden_dims=[], output_classes=10)
        params = np.zeros(spec.param_count())
        x = np.random.default_rng(1).uniform(size=(100, 4))
        y = np.tile(np.arange(10), 10)
        acc, loss = evaluate_centralized(params, spec, x, y)
        assert abs(loss - np.log(10.0)) < 1e-12
        assert abs(acc - 0.1) < 1e-12  # ties resolve to class 0, which is 10%

    def test_chunks_on_a_pool_give_the_serial_result_bit_for_bit(self):
        spec = ModelSpec(input_dim=6, hidden_dims=[5], output_classes=3)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2500, 6)), rng.integers(0, 3, size=2500)  # three chunks
        params = init_model(spec, 4)
        with ThreadPoolExecutor(2) as pool:
            assert evaluate_centralized(params, spec, x, y, pool) == \
                evaluate_centralized(params, spec, x, y)

    def test_empty_eval_set_rejected(self):
        spec = ModelSpec(input_dim=2, hidden_dims=[], output_classes=2)
        with pytest.raises(ConfigError):
            evaluate_centralized(np.zeros(6), spec, np.zeros((0, 2)), np.zeros(0))


class TestClientRows:
    def test_training_on_a_row_view_equals_training_on_a_copy(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec(input_dim=6, hidden_dims=[5], output_classes=3)
        base, rows = rng.uniform(size=(40, 6)), rng.permutation(40)[:25]
        labels = rng.integers(0, 3, size=25)
        shard = Dataset(RowView(base, rows), labels)
        assert len(shard) == 25
        assert len(shard.features) == 25
        params = init_model(spec, 1)
        cfg = LocalOptimizerConfig(kind="adam", learning_rate=0.01, batch_size=4)
        trained = [
            train_local(params, spec, features, labels, cfg, np.random.default_rng(0))
            for features in (shard.features, base[rows])
        ]
        assert np.array_equal(*trained)

    def test_shards_do_not_copy_the_cached_split(self, monkeypatch):
        train, _ = load_dataset("synthmnist")  # the split is cached from here on
        built = []

        class Built(Exception):
            pass

        def stop_before_round_1(global_params, clients, *args, **kwargs):
            built.extend(clients)
            raise Built

        monkeypatch.setattr(fedbench.simulation, "run_round", stop_before_round_1)
        cfg = ExperimentConfig(dataset="synthmnist", num_clients=10, train_subset=10000)
        tracemalloc.start()
        try:
            with pytest.raises(Built):
                run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(shard.features) for shard in built) == 10000
        shard_copy_bytes = 10000 * train.features.shape[1] * train.features.itemsize
        assert peak < shard_copy_bytes / 10  # 63 MB when each client copies its rows

    def test_transfer_keeps_the_dtype(self):
        params = np.linspace(-1.0, 1.0, 7, dtype=np.float32)
        received, seconds = _transfer(params)
        assert received.dtype == np.float32 and received is not params
        assert np.array_equal(received, params) and seconds >= 0


class TestRunExperiment:
    def test_rounds_zero_rejected_before_running(self):
        with pytest.raises(ConfigError, match="rounds"):
            run_experiment(tiny_config(rounds=0))

    def test_metric_series_deterministic(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert [m.acc for m in a.metrics] == [m.acc for m in b.metrics]
        assert [m.loss for m in a.metrics] == [m.loss for m in b.metrics]
        assert np.array_equal(a.final_params, b.final_params)

    def test_different_seed_changes_series(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config(master_seed=12))
        assert [m.loss for m in a.metrics] != [m.loss for m in b.metrics]

    def test_learns_separable_synthetic(self):
        # The dataset is linearly separable (central-training oracle covers it
        # in test_data); federated averaging should also learn it.
        cfg = tiny_config(
            rounds=10,
            num_clients=10,
            partition=PartitionSpec(mode="iid"),
            synthetic=SyntheticSpec(num_classes=3, train_per_class=120,
                                    test_per_class=40, input_dim=8,
                                    class_sep=6.0, seed=3),
            local=LocalOptimizerConfig(kind="adam", learning_rate=0.01,
                                       local_epochs=5),
        )
        result = run_experiment(cfg)
        assert result.metrics[-1].acc > 0.9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_midrun_numeric_failure_flushes_partial_metrics(self):
        cfg = tiny_config(
            local=LocalOptimizerConfig(kind="sgd", learning_rate=1e300),
            rounds=5,
        )
        with pytest.raises(ExperimentAborted) as excinfo:
            run_experiment(cfg)
        err = excinfo.value
        assert "round" in str(err)
        assert isinstance(err.result.metrics, list)
        assert len(err.result.metrics) < 5

    def test_midrun_protocol_error_keeps_completed_rounds(self, monkeypatch):
        real_aggregate = Strategy.aggregate

        def failing_aggregate(self, global_params, updates, rng=None):
            if self.state.round_index == 2:
                raise ProtocolError("injected failure in round 3")
            return real_aggregate(self, global_params, updates, rng)

        monkeypatch.setattr(Strategy, "aggregate", failing_aggregate)
        cfg = tiny_config(strategy=StrategyConfig(kind="fedavgm"), rounds=5)
        with pytest.raises(ExperimentAborted) as excinfo:
            run_experiment(cfg)
        monkeypatch.undo()
        assert isinstance(excinfo.value.__cause__, ProtocolError)
        aborted = excinfo.value.result
        assert len(aborted.metrics) == 2
        assert aborted.strategy_state.round_index == 2

        complete = run_experiment(tiny_config(strategy=StrategyConfig(kind="fedavgm"), rounds=2))
        assert aborted.final_params.tobytes() == complete.final_params.tobytes()
        assert (aborted.strategy_state.momentum_buffer.tobytes()
                == complete.strategy_state.momentum_buffer.tobytes())
        learning = [(m.round, m.acc, m.loss) for m in aborted.metrics]
        assert learning == [(m.round, m.acc, m.loss) for m in complete.metrics]

    def test_strategy_state_round_counter(self):
        result = run_experiment(tiny_config(rounds=3))
        assert result.strategy_state.round_index == 3

    def test_subsets_respected(self):
        cfg = tiny_config(train_subset=50, eval_subset=10)
        result = run_experiment(cfg)
        assert result.train_size == 50
        assert result.eval_size == 10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_clients=st.integers(1, 6),
           mode=st.sampled_from(["iid", "dirichlet"]),
           alpha=st.sampled_from([0.05, 0.3, 1.0, 100.0]),
           train_subset=st.none() | st.integers(10, 179),
           kind=st.sampled_from(["fedavg", "fedprox", "dp"]), epochs=st.integers(1, 3))
    def test_fedsgd_round_is_one_full_batch_gradient_step(
        self, seed, num_clients, mode, alpha, train_subset, kind, epochs
    ):
        # With one batch per client, each local epoch is one full-batch
        # gradient step, so a client returns GD_k^E(w0). FedAvg averages
        # those with weights n_k / n; at E = 1 that is one gradient step on
        # the union of the shards (FedSGD). FedProx's pull is zero at the
        # broadcast point, so it agrees at E = 1 only. dp without noise and
        # with a clip above every delta norm is their uniform mean.
        epochs = 1 if kind == "fedprox" else epochs
        cfg = tiny_config(
            rounds=1, num_clients=num_clients, master_seed=seed, train_subset=train_subset,
            partition=PartitionSpec(mode=mode, alpha=alpha),
            local=LocalOptimizerConfig(kind="sgd", learning_rate=0.1, batch_size=180,
                                       local_epochs=epochs),
            strategy=StrategyConfig(kind=kind, dp_noise_multiplier=0.0, dp_initial_clip=1e6),
        )
        result = run_experiment(cfg)
        train, _ = load_dataset("synthetic", synthetic=cfg.synthetic)
        n = len(train)
        rows = np.arange(n)
        if train_subset is not None and train_subset < n:
            rows = derived_rng(seed, _TAG_SUBSET, 0).permutation(n)[:train_subset]
        model = cfg.model
        w0 = init_model(model, derived_seed(seed, _TAG_MODEL_INIT))
        shards = partition(train.labels[rows], cfg.partition, num_clients,
                           derived_seed(seed, _TAG_PARTITION))
        clients = []
        for idx in shards:
            w = w0.copy()
            for _ in range(epochs):
                _, grad = forward_loss_grad(w, model, train.features[rows[idx]],
                                            train.labels[rows[idx]])
                w -= 0.1 * grad
            clients.append(w)
        if kind == "dp":
            weights = [1 / num_clients] * num_clients
        else:
            weights = [len(idx) / len(rows) for idx in shards]
        expected = w0 + sum(wk * (w - w0) for wk, w in zip(weights, clients))
        assert result.train_size == len(rows)
        np.testing.assert_allclose(result.final_params, expected, rtol=0, atol=1e-12)
        if epochs == 1 and kind != "dp":
            _, grad = forward_loss_grad(w0, model, train.features[rows], train.labels[rows])
            np.testing.assert_allclose(result.final_params, w0 - 0.1 * grad, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_clients=st.integers(1, 6),
           mode=st.sampled_from(["iid", "dirichlet"]),
           alpha=st.sampled_from([0.05, 0.3, 1.0, 100.0]),
           kind=st.sampled_from(["fedavgm", "fedadam", "fedadagrad"]))
    def test_server_step_rounds_follow_the_full_batch_recurrence(
        self, seed, num_clients, mode, alpha, kind
    ):
        # With one full-batch SGD step per client, FedAvg's weighted delta is
        # delta_t = -lr * grad L(union) at w_t, so every round is the kind's
        # server step on that delta (test_strategies' momentum, Adam without
        # bias correction and Adagrad). The run sums per-client gradients
        # where the oracle takes one on the union, so they differ by rounding
        # only: atol 1e-12, as in the one-round FedSGD check above.
        cfg = tiny_config(
            rounds=3, num_clients=num_clients, master_seed=seed,
            partition=PartitionSpec(mode=mode, alpha=alpha),
            local=LocalOptimizerConfig(kind="sgd", learning_rate=0.1, batch_size=180),
            strategy=StrategyConfig(kind=kind),
        )
        result = run_experiment(cfg)
        train, test = load_dataset("synthetic", synthetic=cfg.synthetic)
        model, server = cfg.model, cfg.strategy
        w = init_model(model, derived_seed(seed, _TAG_MODEL_INIT))
        m, v = np.zeros_like(w), np.zeros_like(w)
        for metrics in result.metrics:
            _, grad = forward_loss_grad(w, model, train.features, train.labels)
            delta = -0.1 * grad
            if kind == "fedavgm":
                m = server.momentum * m + delta
                w = w + server.lr * m
            else:
                m = server.adam_beta1 * m + (1.0 - server.adam_beta1) * delta
                if kind == "fedadagrad":
                    v = v + delta * delta
                else:
                    v = server.adam_beta2 * v + (1.0 - server.adam_beta2) * delta * delta
                w = w + server.lr * m / (np.sqrt(v) + server.adaptivity)
            _, loss = evaluate_centralized(w, model, test.features, test.labels)
            assert metrics.loss == pytest.approx(loss, rel=0, abs=1e-12)
        np.testing.assert_allclose(result.final_params, w, rtol=0, atol=1e-12)
        state = result.strategy_state
        if kind == "fedavgm":
            np.testing.assert_allclose(state.momentum_buffer, m, rtol=0, atol=1e-12)
        else:
            np.testing.assert_allclose(state.first_moment, m, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.second_moment, v, rtol=0, atol=1e-12)

    def test_caller_config_left_unchanged(self):
        cfg = tiny_config(rounds=1)
        before = copy.deepcopy(cfg)
        result = run_experiment(cfg)
        assert cfg == before
        assert result.config is cfg

    @pytest.mark.parametrize("client_threads", [2, 3])
    def test_clients_train_on_at_most_client_threads(self, client_threads, monkeypatch):
        threads = set()
        real_train_local = fedbench.simulation.train_local

        def busy_train_local(*args, **kwargs):
            threads.add(threading.get_ident())
            # Spend 5 ms of this thread's CPU time, which train_time_s counts.
            end = time.thread_time() + 0.005
            while time.thread_time() < end:
                pass
            return real_train_local(*args, **kwargs)

        monkeypatch.setattr(fedbench.simulation, "train_local", busy_train_local)
        cfg = tiny_config(rounds=2)
        result = run_experiment(cfg, client_threads)
        assert result.client_threads == client_threads
        assert 1 <= len(threads) <= client_threads
        assert threading.main_thread().ident not in threads
        for m in result.metrics:
            assert m.train_time_s >= cfg.num_clients * 0.005
        serial = run_experiment(cfg, 1)
        learning = lambda r: [(m.round, m.acc, m.loss, m.clip_norm) for m in r.metrics]
        assert learning(result) == learning(serial)
        assert np.array_equal(result.final_params, serial.final_params)

    def test_one_client_thread_trains_every_client_on_one_pool_thread(self, monkeypatch):
        threads = []
        real_train_local = fedbench.simulation.train_local

        def recording_train_local(*args, **kwargs):
            threads.append(threading.get_ident())
            return real_train_local(*args, **kwargs)

        monkeypatch.setattr(fedbench.simulation, "train_local", recording_train_local)
        cfg = tiny_config(rounds=2)
        assert run_experiment(cfg, 1).client_threads == 1
        assert len(threads) == cfg.rounds * cfg.num_clients
        assert len(set(threads)) == 1
        assert threading.main_thread().ident not in threads

    def test_client_threads_capped_by_clients_and_checked(self):
        assert run_experiment(tiny_config(rounds=1), 64).client_threads == 4
        with pytest.raises(ConfigError, match="client_threads must be >= 1"):
            run_experiment(tiny_config(rounds=1), 0)

    @pytest.mark.parametrize("field, model", [
        ("input_dim", ModelSpec(5, [16], 3)),
        ("output_classes", ModelSpec(8, [16], 2)),   # fewer logits than labels
        ("output_classes", ModelSpec(8, [16], 12)),  # would train silently
    ], ids=["input_dim", "too_few_classes", "too_many_classes"])
    def test_mismatched_model_dims_rejected(self, field, model, monkeypatch):
        def no_load(*args):
            raise AssertionError("data loaded before the config was checked")

        monkeypatch.setattr(fedbench.simulation, "load_dataset", no_load)
        cfg = tiny_config(model=model)
        with pytest.raises(ConfigError, match=f"model.{field}"):
            cfg.validate()
        with pytest.raises(ConfigError, match=f"model.{field}"):
            run_experiment(cfg)

    def test_unknown_dataset_rejected(self):
        ExperimentConfig().validate()  # the default model fits the default dataset
        with pytest.raises(ConfigError, match="unknown dataset 'nope'"):
            ExperimentConfig(dataset="nope").validate()


def _outcome(cfg, client_threads):
    """The learning results of a run, as bytes and reprs, aborted or not."""
    try:
        result, error = run_experiment(cfg, client_threads), None
    except ExperimentAborted as err:
        result, error = err.result, str(err)
    state = {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
             for k, v in vars(result.strategy_state).items()}
    rounds = [(m.round, repr(m.acc), repr(m.loss), repr(m.clip_norm)) for m in result.metrics]
    return rounds, result.final_params.tobytes(), state, error


class TestClientThreads:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(STRATEGY_KINDS), mode=st.sampled_from(["iid", "dirichlet"]),
           seed=st.integers(0, 2**16))
    def test_learning_results_do_not_depend_on_client_threads(self, kind, mode, seed):
        cfg = tiny_config(strategy=StrategyConfig(kind=kind), master_seed=seed, rounds=2,
                          partition=PartitionSpec(mode=mode, alpha=0.5))
        serial = _outcome(cfg, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the client threads finely
        try:
            assert _outcome(cfg, 2) == serial
            assert _outcome(cfg, 3) == serial
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="needs glibc's mallopt")
def test_round_sized_blocks_are_not_faulted_in_afresh():
    # Eight 1 MB blocks allocated and freed 40 times, as a round's parameter
    # vectors are: with glibc's default thresholds the freed heap top is
    # trimmed each time and its 2,048 pages fault in again (about 80,000 faults).
    code = """
import resource, numpy as np, fedbench.simulation
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
blocks = [np.ones(1 << 17) for _ in range(8)]
del blocks
start = faults()
for _ in range(40):
    blocks = [np.ones(1 << 17) for _ in range(8)]
    del blocks
print(faults() - start)
"""
    src = os.path.dirname(os.path.dirname(fedbench.simulation.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert int(proc.stdout) < 2048


class TestReplicaSeeds:
    def test_first_replica_keeps_base(self):
        assert replica_seed(42, 0) == 42

    def test_replicas_distinct(self):
        seeds = {replica_seed(42, r) for r in range(5)}
        assert len(seeds) == 5
