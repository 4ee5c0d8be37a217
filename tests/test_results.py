"""Results export: CSV schemas, summary identities, byte-level determinism."""

import csv
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedbench.results
import fedbench.simulation
from fedbench import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    LocalOptimizerConfig,
    ModelSpec,
    PartitionSpec,
    RoundMetrics,
    StrategyConfig,
    SyntheticSpec,
    run_experiment,
    write_results,
    write_summary,
)
from fedbench.config import config_from_dict, run_id_for
from fedbench.results import _fmt, summarize_rounds
from fedbench.simulation import blas_threads

# The output formats, written out: the columns derive from RoundMetrics and
# summarize_rounds, so a renamed field must show up here as a format change.
ROUNDS_HEADER = ["run_id", "strategy", "dataset", "partition_mode", "alpha",
                 "round", "acc", "loss", "agg_time_s", "train_time_s", "comm_time_s"]
SUMMARY_HEADER = ["run_id", "strategy", "dataset", "partition_mode", "alpha", "replicate",
                  "rounds", "final_acc", "final_loss",
                  "mean_agg_time_s", "mean_train_time_s", "mean_comm_time_s"]
ROUND_KEYS = ["round", "acc", "loss", "agg_time_s", "train_time_s", "comm_time_s",
              "clip_norm"]
SUMMARY_KEYS = ["rounds", "final_acc", "final_loss",
                "mean_agg_time_s", "mean_train_time_s", "mean_comm_time_s",
                "run_id", "strategy", "dataset", "partition_mode", "alpha", "replicate"]
METADATA_KEYS = {"fedbench_version", "numpy_version", "python_version", "blas", "blas_threads",
                 "client_threads", "thread_env", "rng", "train_size", "eval_size", "finished_at"}


def small_config(**overrides):
    base = dict(
        dataset="synthetic",
        synthetic=SyntheticSpec(num_classes=3, train_per_class=40, test_per_class=15,
                                input_dim=6, class_sep=6.0, seed=2),
        partition=PartitionSpec(mode="dirichlet", alpha=0.5),
        model=ModelSpec(6, [8], 3),
        local=LocalOptimizerConfig(kind="adam", learning_rate=0.01),
        strategy=StrategyConfig(kind="fedavgm"),
        rounds=4,
        num_clients=3,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def written_run(tmp_path_factory):
    cfg = small_config()
    result = run_experiment(cfg)
    out_dir = tmp_path_factory.mktemp("results")
    run_dir = write_results(result, run_id_for(cfg, 0), out_dir)
    write_summary(out_dir)
    return cfg, result, out_dir, run_dir


class TestRoundsCsv:
    def test_row_count_and_header(self, written_run):
        cfg, _, _, run_dir = written_run
        with open(run_dir / "rounds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ROUNDS_HEADER
        assert len(rows) == 1 + cfg.rounds

    def test_round_column_increases(self, written_run):
        *_, run_dir = written_run
        with open(run_dir / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["round"]) for r in rows] == [1, 2, 3, 4]
        assert rows[0]["partition_mode"] == "dirichlet"
        assert rows[0]["alpha"] == "0.5"


class TestSummary:
    def test_final_acc_equals_last_round(self, written_run):
        _, result, out_dir, run_dir = written_run
        with open(run_dir / "rounds.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        with open(out_dir / "summary.csv", newline="") as fh:
            (summary,) = list(csv.DictReader(fh))
        assert summary["final_acc"] == last["acc"]
        assert summary["final_loss"] == last["loss"]

    def test_mean_timings_match_round_means(self, written_run):
        _, result, out_dir, _ = written_run
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

    def test_summary_columns(self, written_run):
        *_, out_dir, _ = written_run
        with open(out_dir / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == SUMMARY_HEADER


class TestRunJson:
    def test_config_snapshot_round_trips(self, written_run):
        _, result, _, run_dir = written_run
        payload = json.loads((run_dir / "run.json").read_text())
        assert config_from_dict(payload["config"]) == result.config
        assert payload["metadata"]["rng"] == "numpy-pcg64"
        assert payload["metadata"]["train_size"] == 120

    def test_key_order_and_metadata_keys(self, written_run):
        *_, run_dir = written_run
        payload = json.loads((run_dir / "run.json").read_text())
        assert list(payload["rounds"][0]) == ROUND_KEYS
        assert list(payload["summary"]) == SUMMARY_KEYS
        assert set(payload["metadata"]) == METADATA_KEYS

    def test_state_npz_holds_final_params_and_buffers(self, written_run):
        _, result, _, run_dir = written_run
        with np.load(run_dir / "state.npz") as state:
            assert np.array_equal(state["final_params"], result.final_params)
            # fedavgm persists its momentum buffer
            assert "momentum_buffer" in state

    def test_run_aborted_in_round_1_has_empty_summary(self, tmp_path, monkeypatch):
        def non_finite_client(params, *args, **kwargs):
            return np.full_like(params, np.nan)

        monkeypatch.setattr(fedbench.simulation, "train_local", non_finite_client)
        with pytest.raises(ExperimentAborted, match="round 1") as excinfo:
            run_experiment(small_config())
        err = excinfo.value
        run_dir = write_results(err.result, "run_rep0", tmp_path, error=str(err))
        payload = json.loads((run_dir / "run.json").read_text())
        assert payload["rounds"] == []
        assert {k: payload["summary"][k] for k in summarize_rounds([])} == {
            "rounds": 0, "final_acc": None, "final_loss": None,
            "mean_agg_time_s": None, "mean_train_time_s": None, "mean_comm_time_s": None,
        }
        assert "non-finite" in payload["metadata"]["aborted"]
        assert set(payload["metadata"]) == METADATA_KEYS | {"aborted"}
        with open(run_dir / "rounds.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [ROUNDS_HEADER]
        with pytest.raises(ConfigError, match="no completed runs"):
            write_summary(tmp_path)

    def test_metadata_records_blas_build_and_thread_env(self, written_run, tmp_path,
                                                        monkeypatch):
        _, result, _, _ = written_run
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        run_dir = write_results(result, "run_rep0", tmp_path)
        metadata = json.loads((run_dir / "run.json").read_text())["metadata"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert metadata["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert metadata["thread_env"] == {
            "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "3",
        }
        # The count the library reports, not the environment's.
        assert metadata["blas_threads"] == blas_threads()
        assert metadata["client_threads"] == result.client_threads
        assert metadata["fedbench_version"] == fedbench.__version__

    def test_package_version_is_fedbench_version(self):
        # pyproject.toml names no version of its own, so the one run.json records is the package's.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "fedbench.__version__"}


class TestAtomicWrites:
    """A result file reaches its final name whole or not at all, and no
    temporary file outlives a failed write."""

    def test_failed_run_json_write_leaves_no_partial_file(self, written_run, tmp_path,
                                                          monkeypatch):
        _, result, _, _ = written_run

        def dump_partway(obj, fh, **kwargs):
            fh.write('{"run_id": ')
            raise OSError("disk full")

        done = write_results(result, "done_rep0", tmp_path)
        finished = (done / "run.json").read_bytes()
        monkeypatch.setattr(fedbench.results, "json", SimpleNamespace(dump=dump_partway))
        for run_id in ["new_rep0", "done_rep0"]:
            with pytest.raises(ConfigError, match="disk full"):
                write_results(result, run_id, tmp_path)
        # state.npz and rounds.csv are written first and whole; run.json last.
        assert sorted(p.name for p in (tmp_path / "new_rep0").iterdir()) == [
            "rounds.csv", "state.npz"]
        assert sorted(p.name for p in done.iterdir()) == ["rounds.csv", "run.json", "state.npz"]
        assert (done / "run.json").read_bytes() == finished
        with np.load(tmp_path / "new_rep0" / "state.npz") as state:
            assert np.array_equal(state["final_params"], result.final_params)
        with open(tmp_path / "new_rep0" / "rounds.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + len(result.metrics)

    def test_failed_summary_write_leaves_no_summary(self, written_run, tmp_path, monkeypatch):
        _, result, _, _ = written_run
        write_results(result, "run_rep0", tmp_path)
        write_summary(tmp_path)
        cells = iter(range(5))  # the header row is written, then the sixth cell fails

        def fmt_partway(value):
            if next(cells, None) is None:
                raise OSError("disk full")
            return _fmt(value)

        monkeypatch.setattr(fedbench.results, "_fmt", fmt_partway)
        with pytest.raises(OSError, match="disk full"):
            write_summary(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run_rep0"]


class TestDeterminism:
    def test_learning_columns_byte_identical(self, tmp_path):
        cfg_a, cfg_b = small_config(), small_config()
        learning_cols = ["run_id", "strategy", "dataset", "partition_mode",
                         "alpha", "round", "acc", "loss"]
        texts = []
        for sub, cfg in [("a", cfg_a), ("b", cfg_b)]:
            result = run_experiment(cfg)
            run_dir = write_results(result, run_id_for(cfg, 0), tmp_path / sub)
            with open(run_dir / "rounds.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            texts.append("\n".join(",".join(r[c] for c in learning_cols) for r in rows))
        assert texts[0] == texts[1]


finite = st.floats(allow_nan=False, allow_infinity=False)
round_metrics = st.lists(
    st.builds(RoundMetrics, st.integers(1, 10_000), finite, finite, finite, finite, finite),
    min_size=1, max_size=6,
)


class TestSummarize:
    @settings(max_examples=50, deadline=None)
    @given(round_metrics)
    def test_summary_cells_equal_summarize_rounds(self, written_run, metrics):
        _, result, _, _ = written_run
        with tempfile.TemporaryDirectory() as out_dir:
            write_results(replace(result, metrics=metrics), "run_rep0", out_dir)
            with open(write_summary(out_dir), newline="") as fh:
                (row,) = list(csv.DictReader(fh))
        for column, value in summarize_rounds(metrics).items():
            assert row[column] == _fmt(value), column

    @pytest.mark.parametrize("damage, error", [
        (lambda path: path.write_text("{"), "JSONDecodeError"),
        (Path.mkdir, "IsADirectoryError"),
        (lambda path: path.write_text("{}"), "KeyError('metadata')"),
        (lambda path: path.write_text('{"metadata": 3}'), "TypeError"),
    ], ids=["not_json", "directory", "no_metadata", "metadata_not_an_object"])
    def test_unreadable_run_json_is_named_in_the_error(self, damage, error, tmp_path):
        run_json = tmp_path / "run_rep0" / "run.json"
        run_json.parent.mkdir()
        damage(run_json)
        with pytest.raises(ConfigError,
                           match=re.escape(f"{run_json}: cannot read run record: {error}")):
            write_summary(tmp_path)

    def test_mean_rows_for_replicas(self, tmp_path):
        # One replica group, then a grid of kinds x alphas: one mean row per (kind, alpha).
        for sub, kinds, alphas in [("one", ["fedavgm"], [0.5]),
                                   ("grid", ["fedavg", "fedmedian"], [0.1, 1.0])]:
            self.check_mean_rows(tmp_path / sub, kinds, alphas)

    @staticmethod
    def check_mean_rows(out_dir, kinds, alphas):
        for kind in kinds:
            for alpha in alphas:
                for rep in range(3):
                    cfg = small_config(master_seed=100 + rep, strategy=StrategyConfig(kind=kind),
                                       partition=PartitionSpec(mode="dirichlet", alpha=alpha))
                    write_results(run_experiment(cfg), run_id_for(cfg, rep), out_dir, rep)
        with open(write_summary(out_dir), newline="") as fh:
            all_rows = list(csv.DictReader(fh))
        groups = len(kinds) * len(alphas)
        assert len(all_rows) == 4 * groups  # 3 replicas + 1 mean row per group
        replica_rows, mean_rows = all_rows[:3 * groups], all_rows[3 * groups:]
        assert {r["replicate"] for r in mean_rows} == {"mean"}
        assert sorted((r["strategy"], float(r["alpha"])) for r in mean_rows) == sorted(
            (kind, alpha) for kind in kinds for alpha in alphas)
        for mean_row in mean_rows:
            members = [r for r in replica_rows
                       if (r["strategy"], r["alpha"]) == (mean_row["strategy"], mean_row["alpha"])]
            assert [r["replicate"] for r in members] == ["0", "1", "2"]
            assert mean_row["run_id"] == members[0]["run_id"].removesuffix("_rep0")
            accs = [float(r["final_acc"]) for r in members]
            assert abs(float(mean_row["final_acc"]) - sum(accs) / 3) <= 1e-12
