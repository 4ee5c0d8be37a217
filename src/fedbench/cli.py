"""Command-line entry point.

    fedbench run --config exp.ini --out results/ [--replicas N] [--jobs N]
                 [--seed S] [--data-dir DIR]
    fedbench validate --config exp.ini
    fedbench summarize results/

Exit codes: 0 success, 1 configuration error, 2 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import parse_config, run_id_for
from .errors import ConfigError, ExperimentAborted, FedbenchError
from .results import ResultsBundle, regenerate_summary, write_results, write_summary
from .simulation import ExperimentConfig, replica_seed, run_experiment


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

    summ = sub.add_parser("summarize", help="rebuild summary.csv from rounds.csv files")
    summ.add_argument("out_dir")
    return parser


def _expand_runs(
    configs: list[ExperimentConfig], replicas: int, seed: int | None, data_dir: str | None
) -> list[tuple[ExperimentConfig, str, int]]:
    if replicas < 1:
        raise ConfigError(f"--replicas must be >= 1, got {replicas}")
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
    if len(set(ids)) != len(ids):
        raise ConfigError(f"grid produces duplicate run ids: {sorted(ids)}")
    return runs


def _execute_one(args: tuple[ExperimentConfig, str, int, str]) -> dict:
    """Run one experiment and write its files; returns a status record."""
    cfg, run_id, replicate, out_dir = args
    try:
        result = run_experiment(cfg)
        bundle = ResultsBundle.from_result(result, run_id, replicate)
        write_results(bundle, out_dir)
        return {"ok": True, "run_id": run_id, "summary": bundle.summary}
    except ExperimentAborted as err:
        # Flush the rounds that completed before the failure.
        bundle = ResultsBundle.partial(err.config, err.metrics, run_id, replicate, str(err))
        write_results(bundle, out_dir)
        return {"ok": False, "run_id": run_id, "error": str(err), "summary": None}
    except FedbenchError as err:
        return {"ok": False, "run_id": run_id, "error": str(err), "summary": None}


def _cmd_run(args: argparse.Namespace) -> int:
    configs = parse_config(args.config)
    runs = _expand_runs(configs, args.replicas, args.seed, args.data_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(cfg, run_id, rep, str(out_dir)) for cfg, run_id, rep in runs]
    print(f"running {len(jobs)} experiment(s) -> {out_dir}")
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_execute_one, jobs))
    else:
        outcomes = []
        for job in jobs:
            outcomes.append(_execute_one(job))
            status = "ok" if outcomes[-1]["ok"] else f"FAILED: {outcomes[-1]['error']}"
            print(f"  {job[1]}: {status}")

    summary_rows = [o["summary"] for o in outcomes if o["summary"] is not None]
    if summary_rows:
        write_summary(summary_rows, out_dir)

    failures = [o for o in outcomes if not o["ok"]]
    for failure in failures:
        print(f"error: {failure['run_id']}: {failure['error']}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    configs = parse_config(args.config)
    print(f"{args.config}: valid, {len(configs)} run(s) in grid")
    for cfg in configs:
        print(f"  {run_id_for(cfg, 0)}: {cfg.rounds} rounds, {cfg.num_clients} clients")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    path = regenerate_summary(args.out_dir)
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
