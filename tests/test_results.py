"""Results export: CSV schemas, summary identities, byte-level determinism."""

import csv
import json

import numpy as np
import pytest

from fedbench import (
    ExperimentConfig,
    LocalOptimizerConfig,
    ModelSpec,
    PartitionSpec,
    ResultsBundle,
    StrategyConfig,
    SyntheticSpec,
    config_from_dict,
    regenerate_summary,
    run_experiment,
    write_results,
    write_summary,
)
from fedbench.config import run_id_for
from fedbench.results import ROUNDS_COLUMNS, SUMMARY_COLUMNS


def small_config(**overrides):
    base = dict(
        dataset="synthetic",
        synthetic=SyntheticSpec(num_classes=3, train_per_class=40, test_per_class=15,
                                input_dim=6, class_sep=6.0, seed=2),
        partition=PartitionSpec(mode="dirichlet", num_clients=3, alpha=0.5),
        model=ModelSpec(0, [8], 0),
        local=LocalOptimizerConfig(kind="adam", learning_rate=0.01),
        strategy=StrategyConfig(kind="fedavgm"),
        rounds=4,
        num_clients=3,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def run_and_bundle(tmp_path_factory):
    cfg = small_config()
    result = run_experiment(cfg)
    run_id = run_id_for(cfg, 0)
    bundle = ResultsBundle.from_result(result, run_id, replicate=0)
    out_dir = tmp_path_factory.mktemp("results")
    run_dir = write_results(bundle, out_dir)
    write_summary([bundle.summary], out_dir)
    return cfg, result, bundle, out_dir, run_dir


class TestRoundsCsv:
    def test_row_count_and_header(self, run_and_bundle):
        cfg, _, _, _, run_dir = run_and_bundle
        with open(run_dir / "rounds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ROUNDS_COLUMNS
        assert len(rows) == 1 + cfg.rounds

    def test_round_column_increases(self, run_and_bundle):
        *_, run_dir = run_and_bundle
        with open(run_dir / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["round"]) for r in rows] == [1, 2, 3, 4]
        assert rows[0]["partition_mode"] == "dirichlet"
        assert rows[0]["alpha"] == "0.5"


class TestSummary:
    def test_final_acc_equals_last_round(self, run_and_bundle):
        _, result, bundle, out_dir, run_dir = run_and_bundle
        with open(run_dir / "rounds.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        with open(out_dir / "summary.csv", newline="") as fh:
            (summary,) = list(csv.DictReader(fh))
        assert summary["final_acc"] == last["acc"]
        assert summary["final_loss"] == last["loss"]

    def test_mean_timings_match_round_means(self, run_and_bundle):
        _, result, bundle, out_dir, _ = run_and_bundle
        with open(out_dir / "summary.csv", newline="") as fh:
            (summary,) = list(csv.DictReader(fh))
        for csv_col, attr in [
            ("mean_agg_time_s", "agg_time_s"),
            ("mean_train_time_s", "train_time_s"),
            ("mean_comm_time_s", "comm_time_s"),
        ]:
            independent = sum(getattr(m, attr) for m in result.metrics) / len(
                result.metrics
            )
            assert abs(float(summary[csv_col]) - independent) <= 1e-12

    def test_summary_columns(self, run_and_bundle):
        *_, out_dir, _ = run_and_bundle
        with open(out_dir / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == SUMMARY_COLUMNS


class TestRunJson:
    def test_config_snapshot_round_trips(self, run_and_bundle):
        _, result, _, _, run_dir = run_and_bundle
        payload = json.loads((run_dir / "run.json").read_text())
        assert config_from_dict(payload["config"]) == result.config
        assert payload["metadata"]["rng"] == "numpy-pcg64"
        assert payload["metadata"]["train_size"] == 120

    def test_state_npz_holds_final_params_and_buffers(self, run_and_bundle):
        _, result, _, _, run_dir = run_and_bundle
        with np.load(run_dir / "state.npz") as state:
            assert np.array_equal(state["final_params"], result.final_params)
            # fedavgm persists its momentum buffer
            assert "momentum_buffer" in state


class TestDeterminism:
    def test_learning_columns_byte_identical(self, tmp_path):
        cfg_a, cfg_b = small_config(), small_config()
        learning_cols = ["run_id", "strategy", "dataset", "partition_mode",
                         "alpha", "round", "acc", "loss"]
        texts = []
        for sub, cfg in [("a", cfg_a), ("b", cfg_b)]:
            result = run_experiment(cfg)
            bundle = ResultsBundle.from_result(result, run_id_for(cfg, 0), 0)
            run_dir = write_results(bundle, tmp_path / sub)
            with open(run_dir / "rounds.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            texts.append("\n".join(",".join(r[c] for c in learning_cols) for r in rows))
        assert texts[0] == texts[1]


class TestSummarize:
    def test_regenerates_equal_summary(self, tmp_path):
        rows = []
        for rep in range(2):
            cfg = small_config(master_seed=5 + rep)
            result = run_experiment(cfg)
            bundle = ResultsBundle.from_result(result, run_id_for(cfg, rep), rep)
            write_results(bundle, tmp_path)
            rows.append(bundle.summary)
        write_summary(rows, tmp_path)
        original = (tmp_path / "summary.csv").read_text()

        regenerate_summary(tmp_path)
        rebuilt = (tmp_path / "summary.csv").read_text()
        assert rebuilt == original

    def test_mean_rows_for_replicas(self, tmp_path):
        rows = []
        for rep in range(3):
            cfg = small_config(master_seed=100 + rep)
            result = run_experiment(cfg)
            bundle = ResultsBundle.from_result(result, run_id_for(cfg, rep), rep)
            write_results(bundle, tmp_path)
            rows.append(bundle.summary)
        write_summary(rows, tmp_path)
        with open(tmp_path / "summary.csv", newline="") as fh:
            all_rows = list(csv.DictReader(fh))
        assert len(all_rows) == 4  # 3 replicas + 1 mean row
        mean_row = all_rows[-1]
        assert mean_row["replicate"] == "mean"
        accs = [float(r["final_acc"]) for r in all_rows[:3]]
        assert abs(float(mean_row["final_acc"]) - sum(accs) / 3) <= 1e-12
