"""End-to-end CLI: validate, run, summarize, exit codes."""

import concurrent.futures
import csv
import gzip
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fedbench.cli
import fedbench.data
from fedbench.cli import _expand_runs, main
from fedbench.config import config_from_dict, config_to_dict, parse_config
from fedbench.errors import (
    ConfigError,
    FedbenchError,
    IngestionError,
    NumericError,
    ProtocolError,
    ShapeError,
)
from fedbench.simulation import blas_threads, default_client_threads, replica_seed, run_experiment
from test_data import write_cifar_files, write_mnist_files

ROOT = Path(__file__).resolve().parent.parent

TINY = """
[experiment]
dataset = synthetic
rounds = 2
num_clients = 3
master_seed = 3

[synthetic]
num_classes = 3
train_per_class = 30
test_per_class = 10
input_dim = 6

[partition]
mode = iid

[strategy]
kind = fedavg, fedmedian

[local]
learning_rate = 0.01
"""

# fedavg completes; fedavgm's server step blows up and aborts it in round 3.
ONE_ABORTS_PARTWAY = (
    TINY.replace("rounds = 2", "rounds = 3")
        .replace("kind = fedavg, fedmedian", "kind = fedavg, fedavgm\nserver_lr = 1e100")
        .replace("[local]", "[local]\noptimizer = sgd")
        .replace("learning_rate = 0.01", "learning_rate = 0.1")
)

# One fedavg run whose client SGD step overflows: round 1's loss is NaN, so it aborts.
EXPLODES = (
    TINY.replace("kind = fedavg, fedmedian", "kind = fedavg")
        .replace("learning_rate = 0.01", "learning_rate = 1e300")
        .replace("[local]", "[local]\noptimizer = sgd")
)

# Two strategies over both kinds of dataset file: dataset is the outer grid axis.
FILE_GRID = """
[experiment]
dataset = mnist, cifar10
rounds = 2
num_clients = 3
master_seed = 3

[partition]
mode = iid

[strategy]
kind = fedavg, fedmedian

[local]
learning_rate = 0.01
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TINY)
    return path


def test_validate_ok(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "2 run(s)" in out


def test_heterogeneity_sweep_lists_42_runs(capsys):
    # 7 kinds x {iid, 5 alphas}; not run here (42 runs of 25 rounds).
    path = Path(__file__).resolve().parent.parent / "configs" / "heterogeneity_sweep.ini"
    assert main(["validate", "--config", str(path)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert "42 run(s)" in header
    ids = [line.split(":")[0].strip() for line in lines]
    assert len(set(ids)) == len(ids) == 42
    assert sum(run_id.endswith("_iid_rep0") for run_id in ids) == 7


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(TINY.replace("mode = iid", "mode = banana"))
    assert main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_duplicate_run_ids_rejected_by_validate_and_run(tmp_path, capsys):
    path = tmp_path / "dup.ini"
    path.write_text(TINY.replace("kind = fedavg, fedmedian", "kind = fedavg, fedmedian, fedavg"))
    out_dir = tmp_path / "out"
    for command in (["validate"], ["run", "--out", str(out_dir)]):
        assert main([*command, "--config", str(path)]) == 1
        # Only the repeated ids are listed.
        assert "duplicate run ids: ['fedavg_synthetic_iid_rep0']\n" in capsys.readouterr().err
    assert not out_dir.exists()


def test_single_class_synthetic_names_its_key(tmp_path, capsys):
    path = tmp_path / "one_class.ini"
    path.write_text("[experiment]\ndataset = synthetic\n[synthetic]\nnum_classes = 1\n")
    assert main(["validate", "--config", str(path)]) == 1
    assert "synthetic.num_classes must be >= 2, got 1" in capsys.readouterr().err


def test_unrunnable_model_exits_1_before_any_run(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(TINY + "\n[model]\nhidden_dims = 0\n")
    assert main(["validate", "--config", str(path)]) == 1
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
    assert "model.hidden_dims" in capsys.readouterr().err
    assert not out_dir.exists()


def _truncate_gzip(path):
    path.write_bytes(path.read_bytes()[:-12])
    return "corrupt gzip"


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()
    return "cannot read"


@pytest.mark.parametrize("damage", [_truncate_gzip, _replace_with_directory],
                         ids=["truncated_gzip", "directory"])
def test_corrupt_dataset_file_fails_only_its_run(damage, tmp_path, capsys):
    mnist = tmp_path / "data" / "mnist"
    mnist.mkdir(parents=True)
    for prefix in ("train", "t10k"):
        images = struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(2 * 784)
        labels = struct.pack(">II", 0x801, 2) + bytes(2)
        (mnist / f"{prefix}-images-idx3-ubyte.gz").write_bytes(gzip.compress(images))
        (mnist / f"{prefix}-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels))
    train_images = mnist / "train-images-idx3-ubyte.gz"
    reason = damage(train_images)
    path = tmp_path / "exp.ini"
    path.write_text(TINY.replace("dataset = synthetic", "dataset = synthetic, mnist")
                        .replace("kind = fedavg, fedmedian", "kind = fedavg"))
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out_dir),
               "--data-dir", str(tmp_path / "data")])
    assert rc == 2
    out = capsys.readouterr().out
    assert "  fedavg_synthetic_iid_rep0: ok\n" in out
    assert f"  fedavg_mnist_iid_rep0: FAILED: {train_images}: {reason}" in out
    with open(out_dir / "summary.csv", newline="") as fh:
        assert [r["run_id"] for r in csv.DictReader(fh)] == ["fedavg_synthetic_iid_rep0"]


def test_empty_idx_split_fails_its_run_without_a_traceback(tmp_path, capsys):
    mnist = tmp_path / "data" / "mnist"
    mnist.mkdir(parents=True)
    for prefix, n in (("train", 0), ("t10k", 2)):
        (mnist / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x803, n, 28, 28) + bytes(n * 784))
        (mnist / f"{prefix}-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, n) + bytes(n))
    path = tmp_path / "exp.ini"
    path.write_text(FILE_GRID.replace("mnist, cifar10", "mnist").replace("fedavg, fedmedian", "fedavg"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--data-dir", str(tmp_path / "data")]) == 2
    captured = capsys.readouterr()
    assert "  fedavg_mnist_iid_rep0: FAILED: cannot partition an empty dataset" in captured.out
    assert "Traceback" not in captured.err


def test_file_datasets_read_only_their_own_directory(tmp_path, capsys):
    # Files placed directly in --data-dir belong to no dataset: neither run may read them.
    data_dir, rng = tmp_path / "data", np.random.default_rng(12)
    write_mnist_files(data_dir, rng, sizes=(36, 12))
    path = tmp_path / "exp.ini"
    path.write_text(FILE_GRID.replace("mnist, cifar10", "mnist, fmnist")
                             .replace("fedavg, fedmedian", "fedavg"))
    missing = "missing train-images-idx3-ubyte[.gz] / train-labels-idx1-ubyte[.gz]"
    for out_name, present in (("flat", ()), ("nested", ("mnist",))):
        for name in present:
            write_mnist_files(data_dir / name, rng, sizes=(36, 12))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / out_name),
                     "--data-dir", str(data_dir)]) == 2
        out = capsys.readouterr().out
        for name in ("mnist", "fmnist"):
            line = (f"  fedavg_{name}_iid_rep0: ok\n" if name in present
                    else f"  fedavg_{name}_iid_rep0: FAILED: {data_dir / name}: {missing}\n")
            assert line in out


def test_file_datasets_run_reading_each_file_once(tmp_path, capsys, monkeypatch):
    data_dir, rng = tmp_path / "data", np.random.default_rng(11)
    write_mnist_files(data_dir / "mnist", rng, sizes=(36, 12))
    write_cifar_files(data_dir / "cifar10", rng, per_batch=8)
    path = tmp_path / "exp.ini"
    path.write_text(FILE_GRID)
    reads = Counter()
    real_read = fedbench.data._read_bytes

    def counting_read(file):
        reads[file] += 1
        return real_read(file)

    monkeypatch.setattr(fedbench.data, "_read_bytes", counting_read)
    monkeypatch.setattr(fedbench.data, "_last_split", None)
    warm = tmp_path / "warm"
    assert main(["run", "--config", str(path), "--out", str(warm), "--data-dir", str(data_dir)]) == 0
    run_ids = [f"{kind}_{dataset}_iid_rep0"
               for dataset in ("mnist", "cifar10") for kind in ("fedavg", "fedmedian")]
    out = capsys.readouterr().out
    assert all(f"  {run_id}: ok\n" in out for run_id in run_ids)
    assert len(reads) == 10 and set(reads.values()) == {1}

    # Every run of the second invocation starts from a cold cache.
    def cold_run(cfg, client_threads=None):
        fedbench.data._last_split = None
        return run_experiment(cfg, client_threads)

    monkeypatch.setattr("fedbench.cli.run_experiment", cold_run)
    cold = tmp_path / "cold"
    assert main(["run", "--config", str(path), "--out", str(cold), "--data-dir", str(data_dir)]) == 0
    assert set(reads.values()) == {3}

    def learning(out_dir, run_id):
        with open(out_dir / run_id / "rounds.csv", newline="") as fh:
            return [{k: v for k, v in row.items() if not k.endswith("_time_s")}
                    for row in csv.DictReader(fh)]

    for run_id in run_ids:
        assert learning(warm, run_id) == learning(cold, run_id)


def test_unexpected_error_fails_only_its_run(tmp_path, capsys, monkeypatch):
    # Any exception, not only a FedbenchError, fails just the run that raised it.
    calls = []

    def second_run_raises(cfg, client_threads=None):
        calls.append(cfg)
        if len(calls) == 2:
            raise RuntimeError("boom")
        return run_experiment(cfg, client_threads)

    monkeypatch.setattr("fedbench.cli.run_experiment", second_run_raises)
    path = tmp_path / "exp.ini"
    path.write_text(TINY.replace("mode = iid", "mode = iid, dirichlet"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    assert len(calls) == 4
    captured = capsys.readouterr()
    assert "  fedmedian_synthetic_iid_rep0: FAILED: RuntimeError: boom\n" in captured.out
    assert "Traceback" in captured.err
    with open(out_dir / "summary.csv", newline="") as fh:
        assert [r["run_id"] for r in csv.DictReader(fh)] == [
            "fedavg_synthetic_dirichlet_a0.5_rep0", "fedavg_synthetic_iid_rep0",
            "fedmedian_synthetic_dirichlet_a0.5_rep0",
        ]


def test_run_grid_with_replicas(config_path, tmp_path):
    out_dir = tmp_path / "out"
    rc = main([
        "run", "--config", str(config_path), "--out", str(out_dir), "--replicas", "2",
    ])
    assert rc == 0
    run_dirs = sorted(p.name for p in out_dir.iterdir() if p.is_dir())
    assert run_dirs == [
        "fedavg_synthetic_iid_rep0", "fedavg_synthetic_iid_rep1",
        "fedmedian_synthetic_iid_rep0", "fedmedian_synthetic_iid_rep1",
    ]
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 4 per-replicate rows + 2 mean rows
    assert len(rows) == 6
    assert sorted(r["replicate"] for r in rows) == ["0", "0", "1", "1", "mean", "mean"]


def test_pool_starts_no_more_workers_than_runs(config_path, tmp_path, monkeypatch):
    started = []

    class RecordingExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    rc = main([
        "run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--jobs", "3",
    ])
    assert rc == 0
    assert started == [2]  # the TINY grid has 2 runs


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_experiment reaches the workers only through fork")
def test_a_dead_worker_fails_only_the_runs_it_had(config_path, tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    run_ids = [f"{kind}_synthetic_iid_rep{rep}" for kind in ("fedavg", "fedmedian") for rep in (0, 1)]

    def last_run_kills_its_worker(cfg, client_threads=None):
        if cfg.strategy.kind == "fedmedian" and cfg.master_seed == replica_seed(3, 1):
            deadline = time.monotonic() + 60
            while (time.monotonic() < deadline
                   and not all((out_dir / r / "run.json").exists() for r in run_ids[:3])):
                time.sleep(0.01)
            time.sleep(0.5)  # let the other worker hand its last result back
            os._exit(9)
        return run_experiment(cfg, client_threads)

    monkeypatch.setattr("fedbench.cli.run_experiment", last_run_kills_its_worker)
    rc = main(["run", "--config", str(config_path), "--out", str(out_dir),
               "--replicas", "2", "--jobs", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    for run_id in run_ids[:3]:
        assert f"  {run_id}: ok\n" in captured.out
    assert f"  {run_ids[3]}: FAILED: worker process died: " in captured.out
    assert f"error: {run_ids[3]}: worker process died: " in captured.err
    with open(out_dir / "summary.csv", newline="") as fh:
        summarized = [r["run_id"] for r in csv.DictReader(fh) if r["replicate"] != "mean"]
    assert sorted(summarized) == sorted(run_ids[:3])


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # Only --jobs > 1 starts a process pool; a serial run never needs multiprocessing.
    src = Path(fedbench.cli.__file__).resolve().parents[1]
    code = "import sys, fedbench.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"], ["--seed", "-1", "--replicas", "2"], ["--jobs", "0"], ["--jobs", "-3"],
    ["--replicas", "0"],
])
def test_bad_seed_or_jobs_exits_1_before_any_run(flags, config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir), *flags]) == 1
    assert "must be >= " in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_parallel_jobs(config_path, tmp_path, capsys):
    out_dir = tmp_path / "out-jobs"
    rc = main([
        "run", "--config", str(config_path), "--out", str(out_dir), "--jobs", "2",
    ])
    assert rc == 0
    assert (out_dir / "summary.csv").exists()
    out = capsys.readouterr().out
    for run_id in ["fedavg_synthetic_iid_rep0", "fedmedian_synthetic_iid_rep0"]:
        assert f"  {run_id}: ok\n" in out


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count is not readable")
def test_parallel_jobs_run_one_blas_thread_and_match_serial(config_path, tmp_path):
    serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
    for out_dir, jobs in ((serial, "1"), (parallel, "2")):
        assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                     "--jobs", jobs]) == 0
    learning = lambda path: [row[:8] for row in csv.reader(path.read_text().splitlines())]
    for run_id in ["fedavg_synthetic_iid_rep0", "fedmedian_synthetic_iid_rep0"]:
        # Read in the forked worker that ran the run, after its clients trained.
        metadata = json.loads((parallel / run_id / "run.json").read_text())["metadata"]
        assert metadata["blas_threads"] == 1
        assert metadata["client_threads"] == min(max(1, default_client_threads() // 2), 3)
        assert learning(parallel / run_id / "rounds.csv") == \
            learning(serial / run_id / "rounds.csv")


def test_seed_override_changes_results(config_path, tmp_path):
    first, second = tmp_path / "s1", tmp_path / "s2"
    main(["run", "--config", str(config_path), "--out", str(first), "--seed", "1"])
    main(["run", "--config", str(config_path), "--out", str(second), "--seed", "2"])
    a = (first / "fedavg_synthetic_iid_rep0" / "rounds.csv").read_text()
    b = (second / "fedavg_synthetic_iid_rep0" / "rounds.csv").read_text()
    assert a != b


def test_snapshot_is_the_run_input(tmp_path):
    quick, out_dir = ROOT / "configs" / "quick.ini", tmp_path / "out"
    flags = ["--replicas", "2", "--seed", "3"]
    assert main(["run", "--config", str(quick), "--out", str(out_dir), *flags]) == 0
    runs = _expand_runs(parse_config(quick), 2, 3, None)
    assert len(runs) == 8
    for cfg, run_id, _ in runs:
        snapshot = json.loads((out_dir / run_id / "run.json").read_text())["config"]
        assert snapshot == config_to_dict(cfg)
        assert config_from_dict(snapshot) == cfg


@pytest.mark.parametrize("command", ["summarize", "run"])
def test_summary_lacking_a_column_names_its_file(command, config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    # A run.json from a version with fewer summary columns; run rewrites only its own runs.
    old = out_dir / "fedavgm_synthetic_iid_rep0" / "run.json"
    old.parent.mkdir()
    run = json.loads((out_dir / "fedavg_synthetic_iid_rep0" / "run.json").read_text())
    del run["summary"]["final_loss"]
    run["summary"]["run_id"], run["summary"]["strategy"] = old.parent.name, "fedavgm"
    old.write_text(json.dumps(run))
    argv = {"summarize": [str(out_dir)],
            "run": ["--config", str(config_path), "--out", str(out_dir)]}[command]
    assert main([command, *argv]) == 1
    assert f"config error: {old}: summary lacks ['final_loss']" in capsys.readouterr().err
    assert not (out_dir / "summary.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "grid, completed", [(TINY, 2), (ONE_ABORTS_PARTWAY, 1)], ids=["completed", "one_aborts"]
)
def test_summarize_rebuilds(grid, completed, tmp_path, request):
    if grid is ONE_ABORTS_PARTWAY:
        # Its 1e100 server step overflows float32 in round 1, float64 in round 2.
        request.getfixturevalue("float64")
    path = tmp_path / "exp.ini"
    path.write_text(grid)
    out_dir = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out_dir)])
    # Both runs wrote some rounds; only completed runs get a summary row.
    files = list(out_dir.glob("*/rounds.csv"))
    assert len(files) == 2 and all(len(f.read_text().splitlines()) > 1 for f in files)
    before = (out_dir / "summary.csv").read_text()
    assert len(before.splitlines()) == 1 + completed
    (out_dir / "summary.csv").unlink()
    assert main(["summarize", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").read_text() == before


def test_two_grids_share_one_summary(config_path, tmp_path):
    other = tmp_path / "other.ini"
    other.write_text(TINY.replace("kind = fedavg, fedmedian", "kind = fedavgm"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert main(["run", "--config", str(other), "--out", str(out_dir)]) == 0
    after_run = (out_dir / "summary.csv").read_text()
    with open(out_dir / "summary.csv", newline="") as fh:
        ids = [r["run_id"] for r in csv.DictReader(fh)]
    assert ids == [
        "fedavg_synthetic_iid_rep0", "fedavgm_synthetic_iid_rep0",
        "fedmedian_synthetic_iid_rep0",
    ]
    (out_dir / "summary.csv").unlink()
    assert main(["summarize", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").read_text() == after_run


def test_summarize_empty_dir(tmp_path):
    assert main(["summarize", str(tmp_path)]) == 1


def test_output_path_that_is_a_file_exits_1(config_path, tmp_path, capsys):
    not_a_dir = tmp_path / "results"
    not_a_dir.write_text("")
    assert main(["run", "--config", str(config_path), "--out", str(not_a_dir)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert main(["summarize", str(not_a_dir)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not_a_dir.read_text() == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exits_2_with_partial_flush(config_path, tmp_path, capsys):
    path = tmp_path / "explode.ini"
    path.write_text(EXPLODES)
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out_dir)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    # Partial results flushed: rounds.csv exists even though the run aborted.
    run_dir = out_dir / "fedavg_synthetic_iid_rep0"
    assert (run_dir / "rounds.csv").exists()
    # Round 1 aborts on its NaN loss, so run.json is strict JSON with no rounds.
    strict = json.loads((run_dir / "run.json").read_text(), parse_constant=pytest.fail)
    assert strict["rounds"] == []
    # Its metadata holds everything a completed run's does, plus the error.
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "ok")])
    completed = json.loads((tmp_path / "ok" / run_dir.name / "run.json").read_text())
    metadata = json.loads((run_dir / "run.json").read_text())["metadata"]
    assert set(metadata) == set(completed["metadata"]) | {"aborted"}
    assert "non-finite" in metadata["aborted"]
    with np.load(run_dir / "state.npz") as state:
        assert "final_params" in state.files
    # Every run aborted, so there is no summary to rebuild.
    assert main(["summarize", str(out_dir)]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_rerun_leaves_no_stale_summary(tmp_path, capsys):
    completes, explodes = tmp_path / "ok.ini", tmp_path / "explode.ini"
    completes.write_text(TINY.replace("kind = fedavg, fedmedian", "kind = fedavg"))
    explodes.write_text(EXPLODES)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(completes), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").exists()
    # Same run id: the rerun overwrites the completed run with an aborted one.
    assert main(["run", "--config", str(explodes), "--out", str(out_dir)]) == 2
    assert "non-finite" in capsys.readouterr().err
    # No completed run is left, so there is no summary, as summarize agrees.
    assert not (out_dir / "summary.csv").exists()
    assert main(["summarize", str(out_dir)]) == 1


def test_rerun_failing_before_writing_leaves_no_stale_summary(tmp_path, capsys, monkeypatch):
    path = tmp_path / "exp.ini"
    path.write_text(TINY.replace("kind = fedavg, fedmedian", "kind = fedavg"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0

    def unreadable(cfg, client_threads=None):
        raise FedbenchError("dataset unreadable")

    # The rerun fails before it writes anything of its own.
    monkeypatch.setattr("fedbench.cli.run_experiment", unreadable)
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    assert "  fedavg_synthetic_iid_rep0: FAILED: dataset unreadable\n" in capsys.readouterr().out
    assert not (out_dir / "summary.csv").exists()
    assert main(["summarize", str(out_dir)]) == 1
    run_dir = out_dir / "fedavg_synthetic_iid_rep0"
    assert not (run_dir / "rounds.csv").exists() and not (run_dir / "state.npz").exists()


def test_unremovable_old_run_fails_only_that_run(tmp_path, capsys, monkeypatch):
    path = tmp_path / "exp.ini"
    path.write_text(TINY)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    real_rmtree = shutil.rmtree

    def refuse_fedavg(run_dir):
        if run_dir.name == "fedavg_synthetic_iid_rep0":
            raise PermissionError("read-only")
        real_rmtree(run_dir)

    monkeypatch.setattr(shutil, "rmtree", refuse_fedavg)
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    out = capsys.readouterr().out
    assert "  fedavg_synthetic_iid_rep0: FAILED: PermissionError: read-only\n" in out
    assert "  fedmedian_synthetic_iid_rep0: ok\n" in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_abort_flush_fails_only_its_run(tmp_path, capsys, monkeypatch):
    real_write = fedbench.cli.write_results

    def aborted_write_fails(*args, error=None):
        if error is not None:
            raise ConfigError("cannot write results: disk full")
        return real_write(*args)

    monkeypatch.setattr("fedbench.cli.write_results", aborted_write_fails)
    path = tmp_path / "exp.ini"
    # fedavgm aborts in round 3, then fedavg completes.
    path.write_text(ONE_ABORTS_PARTWAY.replace("kind = fedavg, fedavgm", "kind = fedavgm, fedavg"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    out = capsys.readouterr().out
    assert "  fedavg_synthetic_iid_rep0: ok\n" in out
    (failed,) = [line for line in out.splitlines() if line.startswith("  fedavgm_")]
    assert "non-finite" in failed and failed.endswith("; cannot write results: disk full")
    with open(out_dir / "summary.csv", newline="") as fh:
        assert [r["run_id"] for r in csv.DictReader(fh)] == ["fedavg_synthetic_iid_rep0"]


def _random_bytes(path):
    path.write_bytes(np.random.default_rng(0).bytes(256))


@pytest.mark.parametrize("make", [Path.mkdir, _random_bytes], ids=["directory", "binary"])
def test_config_that_is_not_a_text_file_exits_1(make, tmp_path, capsys):
    path = tmp_path / "exp.ini"
    make(path)
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(path)]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [IngestionError, ShapeError, NumericError, ProtocolError])
def test_fedbench_error_outside_a_run_exits_2(error, config_path, tmp_path, monkeypatch, capsys):
    def fail(path):
        raise error(f"{path}: unusable")

    monkeypatch.setattr(fedbench.cli, "parse_config", fail)
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"error: {config_path}: unusable\n"
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1
