"""Acceptance suite: one test per criterion, each printing its evidence.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
The learning-dynamics criteria execute full federated runs (10 clients x 25
rounds and 20 clients x 50 rounds on the 784-dim surrogate task) and take
about 3 minutes in total on 2 CPU cores. When real MNIST IDX files are
available (FEDBENCH_DATA_DIR), those criteria run on MNIST instead.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from fedbench import (
    AdversarySpec,
    ExperimentConfig,
    LocalOptimizerConfig,
    ModelSpec,
    PartitionSpec,
    Strategy,
    StrategyConfig,
    SyntheticSpec,
    run_experiment,
    write_results,
)
from fedbench.config import run_id_for
from fedbench.data import resolve_data_dir
from fedbench.model import forward_loss_grad
from fedbench.partition import PartitionSpec as PSpec
from fedbench.partition import _check_cover, partition
from fedbench.simulation import replica_seed

from test_partition import balanced_dataset, client_label_skew
from test_strategies import (
    aggregate,
    naive_weighted_mean,
    scalar_recurrence_trajectory,
    sort_median,
)

pytestmark = pytest.mark.acceptance

SEEDS = [replica_seed(42, r) for r in range(3)]


def mnist_available() -> bool:
    root = resolve_data_dir(None)
    if root is None:
        return False
    return any((root / "mnist").glob("train-images-idx3-ubyte*"))


DATASET = "mnist" if mnist_available() else "synthmnist"


def baseline_config(**overrides):
    """10 clients, 25 rounds, MLP 784-128-10, client Adam lr=0.001, 10k subset."""
    base = dict(
        dataset=DATASET,
        partition=PartitionSpec(mode="iid", alpha=0.5),
        model=ModelSpec(784, [128], 10),
        local=LocalOptimizerConfig(kind="adam", learning_rate=0.001,
                                   batch_size=32, local_epochs=1),
        strategy=StrategyConfig(kind="fedavg"),
        rounds=25,
        num_clients=10,
        master_seed=SEEDS[0],
        train_subset=10_000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def final_acc(result):
    return result.metrics[-1].acc


@pytest.fixture(scope="module")
def baseline_runs():
    """FedAvg IID runs for the three replicate seeds; seed 0 doubles as the
    criterion-1 baseline. Returns (results, wall_seconds_of_first)."""
    results = []
    first_elapsed = None
    for seed in SEEDS:
        start = time.perf_counter()
        results.append(run_experiment(baseline_config(master_seed=seed)))
        if first_elapsed is None:
            first_elapsed = time.perf_counter() - start
    return results, first_elapsed


@pytest.fixture(scope="module")
def dirichlet_runs():
    out = {}
    for alpha in (0.5, 0.1):
        out[alpha] = [
            run_experiment(
                baseline_config(
                    master_seed=seed,
                    partition=PartitionSpec(mode="dirichlet", alpha=alpha),
                )
            )
            for seed in SEEDS
        ]
    return out


@pytest.fixture(scope="module")
def scale_up_runs():
    """20 clients / 50 rounds, FedAvg vs FedAdam, IID and dirichlet 0.5."""
    out = {}
    for mode in ("iid", "dirichlet"):
        for kind in ("fedavg", "fedadam"):
            start = time.perf_counter()
            result = run_experiment(
                baseline_config(
                    rounds=50,
                    num_clients=20,
                    partition=PartitionSpec(mode=mode, alpha=0.5),
                    strategy=StrategyConfig(kind=kind),
                )
            )
            out[(mode, kind)] = (result, time.perf_counter() - start)
    return out


def test_criterion_1_baseline_accuracy(baseline_runs):
    results, elapsed = baseline_runs
    acc = final_acc(results[0])
    print(f"\n[criterion 1] {DATASET} IID FedAvg 10c/25r: "
          f"final_acc={acc:.4f} (>=0.90), runtime={elapsed:.0f}s (<=600s)")
    assert acc >= 0.90
    assert elapsed <= 600.0
    # Metric sanity on the baseline: finite loss, accuracy off the floor
    # after round 5.
    for m in results[0].metrics:
        assert math.isfinite(m.loss)
        if m.round > 5:
            assert m.acc >= 1.0 / 10 - 0.05


def test_criterion_2_heterogeneity_degradation(baseline_runs, dirichlet_runs):
    iid_mean = np.mean([final_acc(r) for r in baseline_runs[0]])
    mean_05 = np.mean([final_acc(r) for r in dirichlet_runs[0.5]])
    mean_01 = np.mean([final_acc(r) for r in dirichlet_runs[0.1]])
    print(f"\n[criterion 2] mean final acc over 3 seeds: iid={iid_mean:.4f} "
          f"alpha0.5={mean_05:.4f} (<= iid+0.02) alpha0.1={mean_01:.4f} "
          f"(<= iid-0.01)")
    assert mean_05 <= iid_mean + 0.02
    assert mean_01 <= iid_mean - 0.01


def test_criterion_3_dp_utility_collapse(baseline_runs):
    dp_result = run_experiment(
        baseline_config(strategy=StrategyConfig(kind="dp"))
    )
    fedavg_acc = final_acc(baseline_runs[0][0])
    dp_acc = final_acc(dp_result)
    print(f"\n[criterion 3] DP z=1: acc={dp_acc:.4f} "
          f"(<= 0.5 * fedavg {fedavg_acc:.4f})")
    assert dp_acc <= 0.5 * fedavg_acc
    assert dp_result.metrics[-1].clip_norm is not None


def test_criterion_4_median_robustness(baseline_runs):
    attack = AdversarySpec(kind="scale", scale_factor=100.0,
                           affected_clients=frozenset({0}))
    fedavg_clean = final_acc(baseline_runs[0][0])
    fedavg_bad = final_acc(run_experiment(baseline_config(adversary=attack)))
    med_clean = final_acc(
        run_experiment(baseline_config(strategy=StrategyConfig(kind="fedmedian")))
    )
    med_bad = final_acc(
        run_experiment(
            baseline_config(strategy=StrategyConfig(kind="fedmedian"),
                            adversary=attack)
        )
    )
    print(f"\n[criterion 4] scale-100 on 1/10 clients: "
          f"fedavg {fedavg_clean:.4f}->{fedavg_bad:.4f} (drop >= 0.20), "
          f"fedmedian {med_clean:.4f}->{med_bad:.4f} (|diff| <= 0.05)")
    assert fedavg_clean - fedavg_bad >= 0.20
    assert abs(med_clean - med_bad) <= 0.05


def test_criterion_5_strategy_reduction_equalities():
    rng = np.random.default_rng(2025)
    w_t = rng.normal(size=500)
    params = [w_t + rng.normal(scale=0.1, size=500) for _ in range(10)]
    ns = [int(n) for n in rng.integers(1, 200, size=10)]

    fedavg = Strategy(StrategyConfig())
    reference = aggregate(fedavg, w_t, params, ns)
    avgm = Strategy(StrategyConfig(kind="fedavgm", momentum=0.0, server_lr=1.0))
    prox = Strategy(StrategyConfig(kind="fedprox", prox_mu=0.0))
    dp = Strategy(StrategyConfig(kind="dp", dp_noise_multiplier=0.0,
                                 dp_initial_clip=1e9))

    gap_avgm = np.max(np.abs(aggregate(avgm, w_t, params, ns) - reference))
    gap_prox = np.max(np.abs(aggregate(prox, w_t, params, ns) - reference))
    uniform_reference = aggregate(fedavg, w_t, params)
    gap_dp = np.max(np.abs(
        aggregate(dp, w_t, params, ns, np.random.default_rng(0)) - uniform_reference))
    print(f"\n[criterion 5] reduction gaps: fedavgm={gap_avgm:.2e} "
          f"fedprox={gap_prox:.2e} dp={gap_dp:.2e} (all <= 1e-12)")
    assert gap_avgm <= 1e-12
    assert gap_prox <= 1e-12
    assert gap_dp <= 1e-12


def test_criterion_6a_median_oracle_thousand_instances():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        k = int(rng.integers(1, 16))
        dim = int(rng.integers(1, 9))
        params = [rng.normal(size=dim) for _ in range(k)]
        ours = aggregate(Strategy(StrategyConfig(kind="fedmedian")), np.zeros(dim), params)
        assert np.array_equal(ours, sort_median(params))
    print("\n[criterion 6a] fedmedian == sort oracle on 1000 random instances")


def test_criterion_6b_adaptive_recurrence_oracle():
    rng = np.random.default_rng(62)
    worst = 0.0
    for kind in ("fedadam", "fedadagrad"):
        cfg = StrategyConfig(kind=kind, server_lr=0.2, adam_beta1=0.9,
                             adam_beta2=0.99, adaptivity=1e-3)
        dim = 9
        w_start = rng.normal(size=dim)
        w = w_start.copy()
        strategy = Strategy(cfg)
        per_round, trajectory = [], []
        for _ in range(5):
            params = [w + rng.normal(scale=0.3, size=dim) for _ in range(5)]
            ns = [int(n) for n in rng.integers(1, 20, size=5)]
            per_round.append(list(zip([p.copy() for p in params], ns)))
            w = aggregate(strategy, w, params, ns)
            trajectory.append(w.copy())
        oracle = scalar_recurrence_trajectory(kind, w_start, per_round, cfg)
        for ours, theirs in zip(trajectory, oracle):
            worst = max(worst, float(np.max(np.abs(ours - np.array(theirs)))))
    print(f"\n[criterion 6b] adaptive 5-round trajectories vs scalar oracle: "
          f"max gap={worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_criterion_6c_weighted_mean_oracle():
    rng = np.random.default_rng(63)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 40))
        params = [rng.normal(size=dim) for _ in range(k)]
        ns = [int(n) for n in rng.integers(1, 100, size=k)]
        ours = aggregate(Strategy(StrategyConfig()), np.zeros(dim), params, ns)
        worst = max(worst, float(np.max(np.abs(ours - naive_weighted_mean(params, ns)))))
    print(f"\n[criterion 6c] weighted mean vs naive loop: max gap={worst:.2e} "
          f"(<=1e-12)")
    assert worst <= 1e-12


def test_criterion_7_gradient_correctness():
    from test_model import finite_difference_grad, random_instance

    spec = ModelSpec(input_dim=4, hidden_dims=[5], output_classes=3)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        params, x, y = random_instance(rng, spec)
        _, analytic = forward_loss_grad(params, spec, x, y)
        numeric = finite_difference_grad(params, spec, x, y)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    print(f"\n[criterion 7] analytic vs central differences on 100 instances: "
          f"max rel err={worst:.2e} (<1e-4)")
    assert worst < 1e-4


def test_criterion_8_partition_properties():
    rng = np.random.default_rng(8)
    ds = balanced_dataset(10, 60)
    for _ in range(100):
        mode = "iid" if rng.random() < 0.5 else "dirichlet"
        num_clients = int(rng.integers(1, 20))
        spec = PSpec(mode=mode, alpha=float(10 ** rng.uniform(-1.5, 2.5)))
        part = partition(ds.labels, spec, num_clients, int(rng.integers(0, 2**32)))
        _check_cover(part, len(ds))

    means = {}
    for alpha in (0.1, 0.5, 100.0):
        skews = [
            client_label_skew(
                partition(ds.labels, PSpec(mode="dirichlet", alpha=alpha), 10, seed),
                ds.labels, 10,
            )
            for seed in range(20)
        ]
        means[alpha] = float(np.mean(skews))
    print(f"\n[criterion 8] disjoint-cover ok on 100 draws; TV skew "
          f"alpha 0.1={means[0.1]:.3f} > 0.5={means[0.5]:.3f} > "
          f"100={means[100.0]:.3f}")
    assert means[0.1] > means[0.5] > means[100.0]


def test_criterion_9_dp_clip_dynamics():
    cfg = StrategyConfig(kind="dp", dp_initial_clip=1.0, dp_clip_lr=0.2,
                         dp_target_quantile=0.5, dp_noise_multiplier=0.0)
    # Closed form across a mix of below/above rounds.
    rng = np.random.default_rng(9)
    strategy = Strategy(cfg)
    w_t = np.zeros(4)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 8))
        deltas = [rng.normal(scale=rng.uniform(0.1, 2.0), size=4) for _ in range(k)]
        clip = strategy.state.clip_norm
        below = sum(1 for d in deltas if np.linalg.norm(d) <= clip)
        expected = clip * math.exp(-0.2 * (below / k - 0.5))
        aggregate(strategy, w_t, [w_t + d for d in deltas], rng=np.random.default_rng(0))
        worst = max(worst, abs(strategy.state.clip_norm - expected))

    strategy = Strategy(cfg)
    history = [strategy.state.clip_norm]
    for _ in range(10):
        aggregate(strategy, w_t, [w_t + 1e-6], rng=np.random.default_rng(0))
        history.append(strategy.state.clip_norm)
    monotone = all(a > b for a, b in zip(history, history[1:]))
    print(f"\n[criterion 9] clip update vs closed form: max gap={worst:.2e} "
          f"(<=1e-12); monotone decrease over 10 all-below rounds: {monotone}")
    assert worst <= 1e-12
    assert monotone


def test_criterion_10_determinism_and_export(tmp_path, scale_up_runs):
    cfg_kwargs = dict(
        dataset="synthetic",
        synthetic=SyntheticSpec(num_classes=5, train_per_class=80,
                                test_per_class=20, input_dim=20, seed=4),
        model=ModelSpec(20, [16], 5),
        partition=PartitionSpec(mode="dirichlet", alpha=0.5),
        num_clients=5,
        rounds=5,
        master_seed=77,
        train_subset=None,
    )
    learning_cols = ["run_id", "strategy", "dataset", "partition_mode",
                     "alpha", "round", "acc", "loss"]
    texts, results, summaries = [], [], []
    for sub in ("a", "b"):
        cfg = baseline_config(**cfg_kwargs)
        result = run_experiment(cfg)
        run_dir = write_results(result, run_id_for(cfg, 0), tmp_path / sub)
        with open(run_dir / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        texts.append("\n".join(",".join(r[c] for c in learning_cols) for r in rows))
        results.append(result)
        summaries.append(json.loads((run_dir / "run.json").read_text())["summary"])

    identical = texts[0] == texts[1]

    summary = summaries[0]
    mean_gap = max(
        abs(summary["mean_agg_time_s"]
            - sum(m.agg_time_s for m in results[0].metrics) / 5),
        abs(summary["mean_train_time_s"]
            - sum(m.train_time_s for m in results[0].metrics) / 5),
        abs(summary["mean_comm_time_s"]
            - sum(m.comm_time_s for m in results[0].metrics) / 5),
    )

    timings_positive = all(
        m.agg_time_s > 0 and m.train_time_s > 0 and m.comm_time_s > 0
        for m in results[0].metrics
    )

    # Aggregation stays sub-second per round at 20 clients (101,770 params).
    agg_worst_20c = max(
        m.agg_time_s
        for result, _ in scale_up_runs.values()
        for m in result.metrics
    )
    print(f"\n[criterion 10] byte-identical learning columns: {identical}; "
          f"summary-mean gap={mean_gap:.2e} (<=1e-12); timings positive: "
          f"{timings_positive}; worst 20-client agg_time={agg_worst_20c:.4f}s (<1s)")
    assert identical
    assert mean_gap <= 1e-12
    assert timings_positive
    assert agg_worst_20c < 1.0


def test_criterion_11_scale_up_consistency(scale_up_runs):
    iid_avg = final_acc(scale_up_runs[("iid", "fedavg")][0])
    iid_adam = final_acc(scale_up_runs[("iid", "fedadam")][0])
    dir_avg = final_acc(scale_up_runs[("dirichlet", "fedavg")][0])
    dir_adam = final_acc(scale_up_runs[("dirichlet", "fedadam")][0])
    slowest = max(elapsed for _, elapsed in scale_up_runs.values())
    print(f"\n[criterion 11] 20c/50r: iid fedadam={iid_adam:.4f} >= "
          f"fedavg={iid_avg:.4f}; dirichlet fedadam={dir_adam:.4f} >= "
          f"fedavg={dir_avg:.4f}; slowest run {slowest:.0f}s (<=1800s)")
    assert iid_adam >= iid_avg
    assert dir_adam >= dir_avg
    assert slowest <= 1800.0
