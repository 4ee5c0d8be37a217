"""Command-line entry point.

    fedbench run --config exp.ini --out results/ [--replicas N] [--jobs N]
                 [--seed S] [--data-dir DIR]
    fedbench validate --config exp.ini
    fedbench summarize results/

Exit codes: 0 success, 1 configuration error, 2 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures  # loads ProcessPoolExecutor (multiprocessing) on first use
import copy
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

from .config import parse_config, run_id_for
from .errors import ConfigError, ExperimentAborted, FedbenchError
from .results import write_results, write_summary
from .simulation import ExperimentConfig, default_client_threads, replica_seed, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbench",
        description="Federated-learning aggregation strategy benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the experiment grid in a config file")
    run.add_argument("--config", required=True, help="experiment INI file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--replicas", type=int, default=1, metavar="N",
                     help="repeat each run N times with derived seeds")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run up to N experiments in parallel")
    run.add_argument("--seed", type=int, default=None, metavar="S",
                     help="override the master seed for every run")
    run.add_argument("--data-dir", default=None,
                     help="dataset directory (fallback: FEDBENCH_DATA_DIR)")

    val = sub.add_parser("validate", help="parse and validate a config file")
    val.add_argument("--config", required=True)

    summ = sub.add_parser("summarize", help="rebuild summary.csv from the run.json files")
    summ.add_argument("out_dir")
    return parser


def _expand_runs(
    configs: list[ExperimentConfig], replicas: int, seed: int | None, data_dir: str | None
) -> list[tuple[ExperimentConfig, str, int]]:
    if replicas < 1:
        raise ConfigError(f"--replicas must be >= 1, got {replicas}")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    runs = []
    for cfg in configs:
        base_seed = seed if seed is not None else cfg.master_seed
        for rep in range(replicas):
            instance = copy.deepcopy(cfg)
            instance.master_seed = replica_seed(base_seed, rep)
            if data_dir is not None:
                instance.data_dir = data_dir
            runs.append((instance, run_id_for(instance, rep), rep))
    ids = [run_id for _, run_id, _ in runs]
    if repeated := sorted({run_id for run_id in ids if ids.count(run_id) > 1}):
        raise ConfigError(f"grid produces duplicate run ids: {repeated}")
    return runs


def _execute_one(args: tuple[ExperimentConfig, str, int, str, int]) -> str | None:
    """Run one experiment and write its files; returns its error, or None."""
    cfg, run_id, replicate, out_dir, client_threads = args
    run_dir = Path(out_dir) / run_id
    aborted = failure = None
    try:
        # A rerun that fails before writing must leave none of an earlier run's files.
        if run_dir.exists():
            shutil.rmtree(run_dir)
        try:
            result = run_experiment(cfg, client_threads)
        except ExperimentAborted as err:  # flush the rounds completed before the failure
            result, aborted = err.result, str(err)
        write_results(result, run_id, out_dir, replicate, error=aborted)
    except FedbenchError as err:
        failure = str(err)
    except Exception as err:  # a defect: keep its traceback, and fail only this run
        traceback.print_exc()
        failure = f"{type(err).__name__}: {err}"
    # An aborted run whose flush failed reports both errors.
    return "; ".join(filter(None, [aborted, failure])) or None


def _cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    configs = parse_config(args.config)
    runs = _expand_runs(configs, args.replicas, args.seed, args.data_dir)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out_dir}: {err}") from err

    workers = min(args.jobs, len(runs))
    # The workers share the cores: each trains its clients on its share of them.
    client_threads = max(1, default_client_threads() // workers)
    jobs = [(cfg, run_id, rep, str(out_dir), client_threads) for cfg, run_id, rep in runs]
    print(f"running {len(jobs)} experiment(s) -> {out_dir}")
    failures = []
    with concurrent.futures.ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # Runs are read in grid order, so progress prints in grid order.
        pending = jobs if pool is None else [pool.submit(_execute_one, job) for job in jobs]
        for (_, run_id, *_), run in zip(jobs, pending):
            try:
                error = _execute_one(run) if pool is None else run.result()
            except concurrent.futures.BrokenExecutor as err:  # a worker died before this run ended
                error = f"worker process died: {err}"
            print(f"  {run_id}: {'ok' if error is None else f'FAILED: {error}'}", flush=True)
            if error is not None:
                failures.append((run_id, error))

    try:
        write_summary(out_dir)
    except ConfigError as err:
        # With every run failed, "no completed runs" is expected: exit 2 below.
        if len(failures) < len(jobs):
            raise
        print(f"summary: {err}", file=sys.stderr)
    for run_id, error in failures:
        print(f"error: {run_id}: {error}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    # The grid `run` would expand, so its duplicate-id check applies too.
    runs = _expand_runs(parse_config(args.config), 1, None, None)
    print(f"{args.config}: valid, {len(runs)} run(s) in grid")
    for cfg, run_id, _ in runs:
        print(f"  {run_id}: {cfg.rounds} rounds, {cfg.num_clients} clients")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    path = write_summary(args.out_dir)
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_summarize(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except FedbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
