"""fedbench benchmark: run ``fedbench run`` on one named workload in fresh
child processes, check the outputs and print the metrics.

    python3 bench/run.py --workload baseline_iid --seed 1 --seconds 60 --trace 0

One single-threaded driver starts the children one at a time (a closed loop:
every run is a batch job) until the next would end after ``--seconds``. At
least two run, so each invocation also checks that repeats with one seed give
bit-identical learning columns. ``--trace 0`` runs untraced children and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
children and prints the per-layer metrics of the traced ones, with the
tracing overhead. The seed goes to ``fedbench run --seed``; thread counts
are left as the machine sets them. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; metric
names and units come from BENCHMARK.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import by_name

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

ROUNDS_COLUMNS = [
    "run_id", "strategy", "dataset", "partition_mode", "alpha",
    "round", "acc", "loss", "agg_time_s", "train_time_s", "comm_time_s",
]
# Entry points every traced child must reach; aggregate spans are per kind.
REQUIRED_SPANS = (
    "config.parse_config", "data.load_dataset", "partition.partition",
    "model.init_model", "model.forward_loss_grad", "model.local_step",
    "cli.run_experiment", "simulation.run_round", "simulation.train_local",
    "simulation.evaluate_centralized", "results.write_results",
    "results.write_summary",
)
# No child starts that could not end by then (each invocation must end in 180 s).
HARD_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Workload:
    name: str
    config: Path
    runs: int
    rounds: int
    kinds: tuple[str, ...]
    # Computed, not measured: params out and back, 8 bytes each, per client-round.
    payload_bytes: int

    @classmethod
    def load(cls, config: Path) -> Workload:
        """Expand the workload's grid the way ``fedbench run`` does."""
        # Imported here: main() first checks that the checkout has the sources.
        from fedbench.config import parse_config

        configs = parse_config(config)
        return cls(
            name=config.stem,
            config=config,
            runs=len(configs),
            rounds=configs[0].rounds,
            kinds=tuple(dict.fromkeys(cfg.strategy.kind for cfg in configs)),
            payload_bytes=sum(
                2 * 8 * cfg.model.param_count() * cfg.num_clients * cfg.rounds
                for cfg in configs
            ),
        )


@dataclass
class Child:
    """One child process: what it recorded and what checking its output found."""

    index: int
    traced: bool
    out_dir: Path
    wall: float = 0.0
    spawn: float = 0.0
    record: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    # True after a problem no single run explains: every run counts failed.
    broken: bool = False
    bad_runs: set[str] = field(default_factory=set)
    learning: dict[str, list[tuple[str, str, str]]] = field(default_factory=dict)
    timings: dict[str, list[float]] = field(default_factory=dict)
    setup: float = 0.0
    rounds: list[float] = field(default_factory=list)

    def fail(self, problem: str, run_id: str | None = None) -> None:
        self.problems.append(problem if run_id is None else f"{run_id}: {problem}")
        if run_id is None:
            self.broken = True
        else:
            self.bad_runs.add(run_id)


def machine_facts() -> dict:
    """Read-only facts about where the benchmark ran."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cgroup_cpu_quota": None,
    }
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            facts["cgroup_cpu_quota"] = Path(path).read_text().strip()
            break
        except OSError:
            continue
    return facts


def run_child(workload: Workload, seed: int, child: Child, work: Path, timeout: float) -> None:
    result = work / f"child-{child.index}.json"
    log = work / f"child-{child.index}.log"
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(result),
        "traced" if child.traced else "plain",
        "run", "--config", str(workload.config), "--out", str(child.out_dir),
        "--seed", str(seed), "--jobs", "1",
    ]
    with open(log, "w") as fh:
        child.spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        child.wall = time.monotonic() - child.spawn
    if code != 0 or not result.is_file():
        tail = log.read_text()[-2000:]
        child.fail(f"exit status {code}; log tail:\n{tail}")
        return
    with open(result) as fh:
        child.record = json.load(fh)
    check_outputs(workload, child)
    check_spans(workload, child)


def check_rounds(path: Path, rounds: int) -> tuple[list[str], list[list[str]]]:
    """Problems with one rounds.csv, and its data rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != ROUNDS_COLUMNS:
        return [f"rounds.csv columns {header}"], []
    issues = []
    if [r[5] for r in rows] != [str(i) for i in range(1, rounds + 1)]:
        issues.append(f"rounds.csv has rounds {[r[5] for r in rows]}, expected 1..{rounds}")
    for r in rows:
        try:
            acc, loss, *times = (float(v) for v in r[6:])
        except ValueError:
            issues.append(f"round {r[5]}: unparsable values {r[6:]}")
            continue
        if not (math.isfinite(acc) and math.isfinite(loss) and 0.0 <= acc <= 1.0):
            issues.append(f"round {r[5]}: acc {acc}, loss {loss}")
        if not all(math.isfinite(t) and t >= 0.0 for t in times):
            issues.append(f"round {r[5]}: timings {times}")
    return issues, rows


def check_outputs(workload: Workload, child: Child) -> None:
    """Every run has a complete rounds.csv and one summary.csv row."""
    run_dirs = sorted(p for p in child.out_dir.iterdir() if (p / "rounds.csv").is_file())
    if len(run_dirs) != workload.runs:
        child.fail(f"{len(run_dirs)} runs wrote rounds.csv, expected {workload.runs}")
    finals = {}
    for run_dir in run_dirs:
        issues, rows = check_rounds(run_dir / "rounds.csv", workload.rounds)
        for issue in issues:
            child.fail(issue, run_dir.name)
        if issues:
            continue
        child.learning[run_dir.name] = [(r[5], r[6], r[7]) for r in rows]
        finals[run_dir.name] = rows[-1][6]
        for column, index in (("agg", 8), ("train", 9), ("comm", 10)):
            child.timings.setdefault(column, []).extend(float(r[index]) for r in rows)
    summary = child.out_dir / "summary.csv"
    if not summary.is_file():
        child.fail("no summary.csv")
        return
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids = sorted(r["run_id"] for r in rows)
    if ids != [d.name for d in run_dirs]:
        child.fail(f"summary.csv rows {ids} do not match the run directories")
    for r in rows:
        if r["run_id"] in finals and r["final_acc"] != finals[r["run_id"]]:
            child.fail(f"summary final_acc {r['final_acc']} != last rounds.csv acc "
                       f"{finals[r['run_id']]}", r["run_id"])


def check_spans(workload: Workload, child: Child) -> None:
    """Derive set-up and round times; a missing entry point is an error, not a zero."""
    spans = child.record["spans"]
    rounds = [s for s in spans if s[0] == "simulation.run_round"]
    expected = workload.runs * workload.rounds
    if len(rounds) != expected:
        child.fail(f"simulation.run_round was called {len(rounds)} times, expected {expected}")
        return
    # A run's set-up is the time before its first round: since process start
    # for the first run, since the previous run's last round for the others.
    boundary = child.spawn
    for start in range(0, expected, workload.rounds):
        chunk = rounds[start : start + workload.rounds]
        child.setup += chunk[0][1] - boundary
        boundary = chunk[-1][2]
    child.rounds = [s[2] - s[1] for s in rounds]
    if child.traced:
        seen = {s[0] for s in spans}
        needed = list(REQUIRED_SPANS) + [f"strategies.aggregate.{k}" for k in workload.kinds]
        for name in needed:
            if name not in seen:
                child.fail(f"entry point {name} was never called")


def check_repeats(children: list[Child]) -> None:
    """Learning columns must be bit-identical across children with one seed."""
    reference: dict[str, list] = {}
    for child in children:
        for run_id, rows in child.learning.items():
            first = reference.setdefault(run_id, rows)
            if rows != first:
                child.fail("learning columns differ from an earlier repeat", run_id)


def end_to_end(workload: Workload, children: list[Child], attempted: int, failed: int) -> dict:
    good = [c for c in children if not c.traced and not c.broken]
    finals = [float(rows[-1][1]) for rows in good[0].learning.values()]
    return {
        "wall_s": statistics.median(c.wall for c in good),
        "setup_s": statistics.median(c.setup for c in good),
        "round_p50_s": statistics.median(d for c in good for d in c.rounds),
        "peak_rss_mb": statistics.median(c.record["maxrss_kb"] / 1024 for c in good),
        "final_acc": statistics.fmean(finals),
        "run_ok_ratio": (attempted - failed) / attempted,
    }


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def per_layer_of(workload: Workload, child: Child, nproc: int) -> dict:
    spans = [tuple(s) for s in child.record["spans"]]
    layers = by_name(spans)
    m: dict[str, float] = {}
    for name in REQUIRED_SPANS:
        m[f"{name}.s"] = layers[name].seconds
    m["data.load_dataset.calls"] = layers["data.load_dataset"].calls
    for name in ("model.local_step", "model.forward_loss_grad", "simulation.train_local"):
        m[f"{name}.calls"] = layers[name].calls
    for name in ("model.local_step", "model.forward_loss_grad"):
        m[f"{name}.us_per_call"] = layers[name].seconds / layers[name].calls * 1e6
    train = layers["simulation.train_local"]
    m["simulation.train_local.self_s"] = train.self_seconds
    m["simulation.train_local.cpu_frac"] = train.cpu_seconds / train.seconds
    m["simulation.cpu_util"] = child.record["cpu_s"] / (child.wall * nproc)
    run_round = layers["simulation.run_round"]
    m["simulation.run_round.self_s"] = run_round.self_seconds
    reported = child.timings
    m["simulation.reported_train_s_p50"] = statistics.median(reported["train"])
    m["simulation.reported_comm_ms_p50"] = statistics.median(reported["comm"]) * 1e3
    m["simulation.evaluate_share"] = (
        layers["simulation.evaluate_centralized"].seconds / run_round.seconds
    )
    # Share of run_round that no program column (train, aggregate) covers.
    m["simulation.uncovered_share"] = 1.0 - (
        sum(reported["train"]) + sum(reported["agg"])
    ) / run_round.seconds
    m["simulation.client_samples"] = child.record["counts"]["simulation.train_local"]
    m["simulation.payload_bytes"] = workload.payload_bytes
    # Every kind the workload runs was checked to be called (check_spans).
    aggs = [layers[f"strategies.aggregate.{kind}"] for kind in workload.kinds]
    agg_seconds = sum(a.seconds for a in aggs)
    m["strategies.aggregate.ms_per_call"] = agg_seconds / sum(a.calls for a in aggs) * 1e3
    for kind, agg in zip(workload.kinds, aggs):
        m[f"strategies.aggregate.{kind}.ms_per_call"] = agg.seconds / agg.calls * 1e3
    m["strategies.reported_agg_ms_p50"] = statistics.median(reported["agg"]) * 1e3
    m["strategies.agg_timer_ratio"] = sum(reported["agg"]) / agg_seconds
    m["results.bytes_written"] = directory_bytes(child.out_dir)
    m["cli.outside_runs_s"] = child.wall - layers["cli.run_experiment"].seconds
    m["trace.spans"] = len(spans)
    return m


def per_layer(workload: Workload, children: list[Child], nproc: int) -> dict:
    plain = [c.wall for c in children if not c.traced and not c.broken]
    traced = [c for c in children if c.traced and not c.broken]
    samples = [per_layer_of(workload, c, nproc) for c in traced]
    m = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    traced_wall = statistics.median(c.wall for c in traced)
    m["trace.overhead_ratio"] = traced_wall / statistics.median(plain)
    # A difference of two noisy medians, often below zero: printed, not compared.
    m["trace.overhead_s"] = traced_wall - statistics.median(plain)
    return m


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run children one at a time until the time is spent."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    start = time.monotonic()
    children: list[Child] = []
    while True:
        elapsed = time.monotonic() - start
        estimate = statistics.median(c.wall for c in children) if children else 0.0
        if len(children) >= 2 and elapsed + estimate > seconds:
            break
        if children and elapsed + estimate > HARD_LIMIT_S:
            break
        index = len(children)
        child = Child(index, traced=trace and index % 2 == 1, out_dir=work / f"child-{index}")
        run_child(workload, seed, child, work, timeout=max(1.0, HARD_LIMIT_S + 20 - elapsed))
        children.append(child)
    check_repeats(children)
    return children


def summarize(workload: Workload, children: list[Child], trace: bool, nproc: int) -> dict:
    attempted = workload.runs * len(children)
    failed = sum(workload.runs if c.broken else len(c.bad_runs) for c in children)
    usable = [c for c in children if not c.broken]
    have_all = any(not c.traced for c in usable) and (not trace or any(c.traced for c in usable))
    metrics = {}
    if have_all:
        metrics = (per_layer(workload, children, nproc) if trace
                   else end_to_end(workload, children, attempted, failed))
    return {"correct": failed == 0 and have_all, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    config = BENCH / "workloads" / f"{args.workload}.ini"
    if not config.is_file():
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fedbench" / "cli.py").is_file():
        print(f"no fedbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    workload = Workload.load(config)
    work = OUT / workload.name
    children = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    result = summarize(workload, children, bool(args.trace), facts["nproc"])

    for child in children:
        kind = "traced" if child.traced else "plain"
        status = "ok" if not child.problems else f"{len(child.problems)} problem(s)"
        print(f"child {child.index} ({kind}): wall {child.wall:.3f} s, "
              f"setup {child.setup:.3f} s, {status}")
        for problem in child.problems:
            print(f"  child {child.index}: {problem}", file=sys.stderr)
        shutil.rmtree(child.out_dir, ignore_errors=True)
    if result["metrics"]:
        computed = result["metrics"]
        missing = sorted({m["name"] for m in declared} - set(computed))
        if missing:
            raise RuntimeError(f"metrics BENCHMARK.json declares were not computed: {missing}")
        result["metrics"] = {
            m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared
        }
        for name, value in result["metrics"].items():
            print(f"{name} = {value['value']:.6g} {value['unit']}")
        # Diagnostics: per-kind breakdowns that exist only for the kinds a
        # workload runs, and the tracing overhead in seconds.
        for name in sorted(set(computed) - set(result["metrics"])):
            print(f"{name} = {computed[name]:.6g} (not in the result line)")
    print(f"{workload.name}: {result['attempted']} runs attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
