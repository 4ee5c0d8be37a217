"""Results export: per-round CSV, run-level JSON, and summary tables.

Layout under the output directory:

    <out>/<run_id>/rounds.csv    one row per communication round
    <out>/<run_id>/run.json      config snapshot + rounds + summary + metadata
    <out>/<run_id>/state.npz     final model and server strategy state
    <out>/summary.csv            one row per completed run under <out>, from
                                 its run.json (+ mean rows across replicas)

Floats are written with repr, so identical runs produce byte-identical
learning-metric columns.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
import platform
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_to_dict, run_identity, run_name
from .data import _replacing
from .errors import ConfigError
from .partition import GENERATOR_NAME
from .simulation import ExperimentConfig, ExperimentResult, RoundMetrics, blas_threads

_IDENTITY_COLUMNS = ["run_id", *run_identity(ExperimentConfig())]

# rounds.csv has one column per RoundMetrics field; the clip norm is in run.json only.
_METRIC_COLUMNS = [f.name for f in fields(RoundMetrics) if f.name != "clip_norm"]
_TIMING_COLUMNS = [name for name in _METRIC_COLUMNS if name.endswith("_time_s")]

ROUNDS_COLUMNS = _IDENTITY_COLUMNS + _METRIC_COLUMNS

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _blas_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def summarize_rounds(rounds: list[RoundMetrics]) -> dict:
    """Final accuracy/loss plus arithmetic means of the timing columns; None
    for each of them when there is no round."""
    n = len(rounds)
    summary = {
        "rounds": n,
        "final_acc": rounds[-1].acc if n else None,
        "final_loss": rounds[-1].loss if n else None,
    }
    for name in _TIMING_COLUMNS:
        summary[f"mean_{name}"] = sum(getattr(r, name) for r in rounds) / n if n else None
    return summary


SUMMARY_COLUMNS = _IDENTITY_COLUMNS + ["replicate", *summarize_rounds([])]


def write_results(
    result: ExperimentResult,
    run_id: str,
    out_dir: str | Path,
    replicate: int = 0,
    error: str | None = None,
) -> Path:
    """Write one run's rounds.csv, run.json and state.npz; error, when given,
    marks an aborted run's metadata. Returns the run directory."""
    cfg = result.config
    summary = summarize_rounds(result.metrics) | {
        "run_id": run_id, **run_identity(cfg), "replicate": replicate,
    }
    state = result.strategy_state
    metadata = {
        "fedbench_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        # Learning columns are bit-identical only for one BLAS build and
        # thread count, so both are recorded.
        "blas": _blas_build(),
        "blas_threads": blas_threads(),
        "client_threads": result.client_threads,
        "thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        "rng": GENERATOR_NAME,
        "train_size": result.train_size,
        "eval_size": result.eval_size,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if error is not None:
        metadata["aborted"] = error
    run = {
        "run_id": run_id,
        "replicate": replicate,
        "config": config_to_dict(cfg),
        "rounds": [asdict(r) for r in result.metrics],
        "summary": summary,
        "metadata": metadata,
        "state_file": "state.npz",
    }
    identity = [_fmt(summary[c]) for c in _IDENTITY_COLUMNS]
    state_arrays = {k: v for k, v in vars(state).items() if isinstance(v, np.ndarray)}

    run_dir = Path(out_dir) / run_id
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        # run.json goes last: a run directory without it holds no finished run.
        with _replacing(run_dir / "state.npz") as tmp:
            np.savez(tmp, **state_arrays, final_params=result.final_params)
        with _replacing(run_dir / "rounds.csv") as tmp, open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ROUNDS_COLUMNS)
            for r in result.metrics:
                writer.writerow(identity + [_fmt(getattr(r, c)) for c in _METRIC_COLUMNS])
        with _replacing(run_dir / "run.json") as tmp, open(tmp, "w") as fh:
            json.dump(run, fh, indent=2)
            fh.write("\n")
    except OSError as err:
        raise ConfigError(f"cannot write results under {run_dir}: {err}") from err
    return run_dir


def write_summary(out_dir: str | Path) -> Path:
    """Write summary.csv from the run.json of every completed run under
    out_dir: one row per run, plus mean rows for replica groups. Aborted runs
    are left out. An existing summary.csv is removed first, so it never
    outlives the runs it describes."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ConfigError(f"not a directory: {out_dir}")
    path = out_dir / "summary.csv"
    path.unlink(missing_ok=True)
    rows = []
    for run_json in sorted(out_dir.glob("*/run.json")):
        try:
            with open(run_json) as fh:
                run = json.load(fh)
            if "aborted" not in run["metadata"]:
                if missing := [c for c in SUMMARY_COLUMNS if c not in run["summary"]]:
                    raise ConfigError(f"{run_json}: summary lacks {missing}")
                rows.append(run["summary"])
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"{run_json}: cannot read run record: {err!r}") from err
    if not rows:
        raise ConfigError(f"no completed runs under {out_dir}")
    rows.sort(key=lambda r: (str(r["run_id"]), r["replicate"]))
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows + _mean_rows(rows):
            writer.writerow([_fmt(row[c]) for c in SUMMARY_COLUMNS])
    return path


def _mean_rows(rows: list[dict]) -> list[dict]:
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(run_name(row), []).append(row)
    _, *averaged = summarize_rounds([])  # every statistic but the round count
    means = []
    for base, members in sorted(groups.items()):
        if len(members) < 2:
            continue
        mean_row = dict(members[0])
        mean_row["run_id"] = base
        mean_row["replicate"] = "mean"
        for col in averaged:
            values = [m[col] for m in members if m[col] is not None]
            mean_row[col] = sum(values) / len(values) if values else None
        means.append(mean_row)
    return means
