"""Tests of the benchmark's own code: span arithmetic, and a seconds-scale
smoke of the harness on a tiny config.

    python3 -m pytest bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from spans import Target, Tracer, by_name, self_times, union_length  # noqa: E402

TINY = """
[experiment]
dataset = synthetic
rounds = 3
num_clients = 4

[synthetic]
num_classes = 3
train_per_class = 40
test_per_class = 10
input_dim = 6

[partition]
mode = iid, dirichlet
alpha = 0.5

[strategy]
kind = fedavg, fedmedian

[local]
learning_rate = 0.01
"""


def span(name, start, end, parent=-1, cpu=0.0):
    return (name, start, end, parent, 1, cpu)


def test_union_merges_overlaps_and_skips_nested():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_children_once():
    spans = [
        span("round", 0.0, 10.0),
        span("train", 1.0, 5.0, parent=0),
        span("train", 2.0, 6.0, parent=0),  # parallel with the first
        span("step", 1.5, 2.5, parent=1),
        span("eval", 8.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 3.0, 4.0, 1.0, 4.0])


def test_by_name_sums_per_name():
    spans = [span("a", 0.0, 1.0, cpu=0.5), span("b", 0.2, 0.4, parent=0), span("b", 0.5, 0.6)]
    layers = by_name(spans)
    assert layers["a"].calls == 1
    assert layers["a"].self_seconds == pytest.approx(0.8)
    assert layers["a"].cpu_seconds == pytest.approx(0.5)
    assert layers["b"].calls == 2
    assert layers["b"].seconds == pytest.approx(0.3)


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    outer = tracer.wrap(lambda f: f(), Target("m", "outer", "outer"))
    inner = tracer.wrap(len, Target("m", "inner", "inner", count=lambda args: len(args[0])))
    assert outer(lambda: inner([1, 2, 3])) == 3
    (n0, s0, e0, p0, _, _), (n1, s1, e1, p1, _, _) = tracer.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0
    assert tracer.counts == {"inner": 3}
    json.dumps(tracer.spans)


def test_install_rejects_a_renamed_entry_point():
    with pytest.raises(AttributeError):
        Tracer().install([Target("json", "no_such_function", "x")], package="json")


def test_median_of_child_values_in_metrics():
    children = [run.Child(i, False, Path("."), wall=w, setup=s) for i, (w, s) in
                enumerate([(3.0, 1.0), (1.0, 2.0), (2.0, 3.0)])]
    for child in children:
        child.rounds = [child.wall]
        child.record = {"maxrss_kb": 1024}
        child.learning = {"r": [("1", "0.5", "1.0")]}
    wl = run.Workload("w", Path("w.ini"), runs=1, rounds=1, kinds=("fedavg",), payload_bytes=0)
    m = run.end_to_end(wl, children, attempted=3, failed=0)
    assert (m["wall_s"], m["setup_s"], m["round_p50_s"]) == (2.0, 2.0, 2.0)
    assert (m["peak_rss_mb"], m["final_acc"], m["run_ok_ratio"]) == (1.0, 0.5, 1.0)


@pytest.mark.parametrize("trace", [False, True])
def test_harness_smoke_on_tiny_config(tmp_path, trace):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    workload = run.Workload.load(config)
    assert (workload.runs, workload.rounds, workload.kinds) == (4, 3, ("fedavg", "fedmedian"))
    # Default model for a 6-feature, 3-class synthetic set: one hidden layer of 128.
    params = 6 * 128 + 128 + 128 * 3 + 3
    assert workload.payload_bytes == 2 * 8 * params * 4 * 3 * 4
    children = run.measure(workload, seed=5, seconds=0.0, trace=trace, work=tmp_path / "work")
    assert [c.traced for c in children] == [False, trace]
    assert all(not c.problems for c in children), [c.problems for c in children]
    result = run.summarize(workload, children, trace, nproc=1)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 8, 0)
    metrics = result["metrics"]
    if trace:
        assert metrics["simulation.client_samples"] == 4 * 3 * 120
        assert metrics["data.load_dataset.calls"] == 4
        # Per-kind breakdowns exist only for the kinds the workload runs.
        assert "strategies.aggregate.fedavgm.ms_per_call" not in metrics
        assert metrics["strategies.aggregate.fedmedian.ms_per_call"] > 0.0
        assert metrics["strategies.aggregate.ms_per_call"] > 0.0
        assert metrics["trace.overhead_ratio"] > 0.0
    else:
        assert metrics["run_ok_ratio"] == 1.0
        assert 0.0 < metrics["setup_s"] < metrics["wall_s"]


def test_harness_counts_a_changed_output_as_failed(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    workload = run.Workload.load(config)
    children = run.measure(workload, seed=5, seconds=0.0, trace=False, work=tmp_path / "work")
    rows = children[1].learning["fedavg_synthetic_iid_rep0"]
    rows[-1] = (rows[-1][0], "0.0", rows[-1][2])
    for child in children:
        child.problems.clear()
        child.bad_runs.clear()
    run.check_repeats(children)
    result = run.summarize(workload, children, False, nproc=1)
    assert (result["correct"], result["failed"]) == (False, 1)
    assert result["metrics"]["run_ok_ratio"] == pytest.approx(7 / 8)
