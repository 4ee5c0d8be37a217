"""End-to-end CLI: validate, run, summarize, exit codes."""

import csv
import json

import pytest

from fedbench.cli import main
from fedbench.simulation import _TAG_MODEL_INIT, _TAG_PARTITION, derived_seed

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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TINY)
    return path


def test_validate_ok(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "2 run(s)" in out


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(TINY.replace("mode = iid", "mode = banana"))
    assert main(["validate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


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


def test_run_parallel_jobs(config_path, tmp_path):
    out_dir = tmp_path / "out-jobs"
    rc = main([
        "run", "--config", str(config_path), "--out", str(out_dir), "--jobs", "2",
    ])
    assert rc == 0
    assert (out_dir / "summary.csv").exists()


def test_seed_override_changes_results(config_path, tmp_path):
    first, second = tmp_path / "s1", tmp_path / "s2"
    main(["run", "--config", str(config_path), "--out", str(first), "--seed", "1"])
    main(["run", "--config", str(config_path), "--out", str(second), "--seed", "2"])
    a = (first / "fedavg_synthetic_iid_rep0" / "rounds.csv").read_text()
    b = (second / "fedavg_synthetic_iid_rep0" / "rounds.csv").read_text()
    assert a != b


def test_summarize_rebuilds(config_path, tmp_path):
    out_dir = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out_dir)])
    before = (out_dir / "summary.csv").read_text()
    (out_dir / "summary.csv").unlink()
    assert main(["summarize", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").read_text() == before


def test_summarize_empty_dir(tmp_path):
    assert main(["summarize", str(tmp_path)]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exits_2_with_partial_flush(tmp_path, capsys):
    path = tmp_path / "explode.ini"
    path.write_text(TINY.replace("kind = fedavg, fedmedian", "kind = fedavg")
                        .replace("learning_rate = 0.01", "learning_rate = 1e300")
                        .replace("[local]", "[local]\noptimizer = sgd"))
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out_dir)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    # Partial results flushed: rounds.csv exists even though the run aborted.
    run_dir = out_dir / "fedavg_synthetic_iid_rep0"
    assert (run_dir / "rounds.csv").exists()
    # The snapshot records the seeds the run derived, as a completed run does.
    config = json.loads((run_dir / "run.json").read_text())["config"]
    assert config["partition"]["seed"] == derived_seed(3, _TAG_PARTITION)
    assert config["model"]["init_seed"] == derived_seed(3, _TAG_MODEL_INIT)


def test_missing_config_exits_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1
