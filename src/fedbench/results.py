"""Results export: per-round CSV, run-level JSON, and summary tables.

Layout under the output directory:

    <out>/<run_id>/rounds.csv    one row per communication round
    <out>/<run_id>/run.json      config snapshot + rounds + summary + metadata
    <out>/<run_id>/state.npz     final model and server strategy state
    <out>/summary.csv            one row per run (+ mean rows across replicas)

Floats are written with repr, so identical runs produce byte-identical
learning-metric columns.
"""

from __future__ import annotations

import csv
import datetime
import json
import platform
import re
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .config import config_to_dict
from .errors import ConfigError
from .partition import GENERATOR_NAME
from .simulation import ExperimentResult, RoundMetrics

_IDENTITY_COLUMNS = ["run_id", "strategy", "dataset", "partition_mode", "alpha"]

# Per-round column in rounds.csv and run.json -> RoundMetrics field.
_ROUND_FIELDS = {
    "round": "round",
    "acc": "centralized_accuracy",
    "loss": "centralized_loss",
    "agg_time_s": "agg_time_s",
    "train_time_s": "train_time_s",
    "comm_time_s": "comm_time_s",
}
_ROUND_TYPES = get_type_hints(RoundMetrics)

ROUNDS_COLUMNS = _IDENTITY_COLUMNS + list(_ROUND_FIELDS)

SUMMARY_COLUMNS = [
    "run_id", "strategy", "dataset", "partition_mode", "alpha", "replicate",
    "rounds", "final_acc", "final_loss",
    "mean_agg_time_s", "mean_train_time_s", "mean_comm_time_s",
]

_REP_SUFFIX = re.compile(r"_rep\d+$")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class ResultsBundle:
    run_id: str
    replicate: int
    config: dict
    rounds: list[RoundMetrics]
    summary: dict
    metadata: dict
    final_params: np.ndarray
    state_arrays: dict

    @classmethod
    def from_result(
        cls,
        result: ExperimentResult,
        run_id: str,
        replicate: int = 0,
        error: str | None = None,
    ) -> "ResultsBundle":
        """Bundle one run; error, when given, marks an aborted run's metadata."""
        cfg = result.config
        summary = summarize_rounds(result.metrics)
        summary.update({
            "run_id": run_id,
            "strategy": cfg.strategy.kind,
            "dataset": cfg.dataset,
            "partition_mode": cfg.partition.mode,
            "alpha": cfg.partition.alpha if cfg.partition.mode == "dirichlet" else None,
            "replicate": replicate,
        })
        state = result.strategy_state
        state_arrays = {k: v for k, v in vars(state).items() if isinstance(v, np.ndarray)}
        metadata = {
            "fedbench_version": _package_version(),
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "rng": GENERATOR_NAME,
            "master_seed": cfg.master_seed,
            "partition_seed": cfg.partition.seed,
            "model_init_seed": cfg.model.init_seed,
            "train_size": result.train_size,
            "eval_size": result.eval_size,
            "replicate": replicate,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "strategy_round_index": state.round_index,
            "strategy_clip_norm": state.clip_norm,
        }
        if error is not None:
            metadata["aborted"] = error
        return cls(
            run_id=run_id,
            replicate=replicate,
            config=config_to_dict(cfg),
            rounds=list(result.metrics),
            summary=summary,
            metadata=metadata,
            final_params=result.final_params,
            state_arrays=state_arrays,
        )


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("fedbench")
    except Exception:
        return "unknown"


def summarize_rounds(rounds: list[RoundMetrics]) -> dict:
    """Final accuracy/loss plus arithmetic means of the timing columns."""
    if not rounds:
        return {
            "rounds": 0, "final_acc": None, "final_loss": None,
            "mean_agg_time_s": None, "mean_train_time_s": None,
            "mean_comm_time_s": None,
        }
    return {
        "rounds": len(rounds),
        "final_acc": rounds[-1].centralized_accuracy,
        "final_loss": rounds[-1].centralized_loss,
        "mean_agg_time_s": sum(r.agg_time_s for r in rounds) / len(rounds),
        "mean_train_time_s": sum(r.train_time_s for r in rounds) / len(rounds),
        "mean_comm_time_s": sum(r.comm_time_s for r in rounds) / len(rounds),
    }


def write_results(bundle: ResultsBundle, out_dir: str | Path) -> Path:
    """Write one run's files; returns the run directory."""
    run_dir = Path(out_dir) / bundle.run_id
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_rounds_csv(bundle, run_dir / "rounds.csv")
        _write_run_json(bundle, run_dir / "run.json")
        _write_state(bundle, run_dir / "state.npz")
    except OSError as err:
        raise ConfigError(f"cannot write results under {run_dir}: {err}") from err
    return run_dir


def _write_rounds_csv(bundle: ResultsBundle, path: Path) -> None:
    identity = [_fmt(bundle.summary[c]) for c in _IDENTITY_COLUMNS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_COLUMNS)
        for r in bundle.rounds:
            writer.writerow(identity + [_fmt(getattr(r, f)) for f in _ROUND_FIELDS.values()])


def _write_run_json(bundle: ResultsBundle, path: Path) -> None:
    payload = {
        "run_id": bundle.run_id,
        "replicate": bundle.replicate,
        "config": bundle.config,
        "rounds": [
            {c: getattr(r, f) for c, f in _ROUND_FIELDS.items()} | {"clip_norm": r.clip_norm}
            for r in bundle.rounds
        ],
        "summary": bundle.summary,
        "metadata": bundle.metadata,
        "state_file": "state.npz",
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_state(bundle: ResultsBundle, path: Path) -> None:
    np.savez_compressed(path, **bundle.state_arrays, final_params=bundle.final_params)


def write_summary(rows: list[dict], out_dir: str | Path) -> Path:
    """Write summary.csv: one row per run, plus mean rows for replica groups."""
    path = Path(out_dir) / "summary.csv"
    rows = sorted(rows, key=lambda r: (str(r["run_id"]), r["replicate"]))
    all_rows = list(rows) + _mean_rows(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in all_rows:
            writer.writerow([_fmt(row[c]) for c in SUMMARY_COLUMNS])
    return path


def _mean_rows(rows: list[dict]) -> list[dict]:
    groups: dict[str, list[dict]] = {}
    for row in rows:
        base = _REP_SUFFIX.sub("", str(row["run_id"]))
        groups.setdefault(base, []).append(row)
    numeric = [
        "final_acc", "final_loss",
        "mean_agg_time_s", "mean_train_time_s", "mean_comm_time_s",
    ]
    means = []
    for base, members in sorted(groups.items()):
        if len(members) < 2:
            continue
        mean_row = dict(members[0])
        mean_row["run_id"] = base
        mean_row["replicate"] = "mean"
        for col in numeric:
            values = [m[col] for m in members if m[col] is not None]
            mean_row[col] = sum(values) / len(values) if values else None
        means.append(mean_row)
    return means


def summary_row_from_rounds_csv(path: Path) -> dict:
    """Rebuild one summary row from a rounds.csv file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ROUNDS_COLUMNS:
            raise ConfigError(f"{path}: unexpected columns {reader.fieldnames}")
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    row = {c: rows[-1][c] for c in _IDENTITY_COLUMNS}
    row["alpha"] = float(row["alpha"]) if row["alpha"] else None
    rep_match = re.search(r"_rep(\d+)$", row["run_id"])
    row["replicate"] = int(rep_match.group(1)) if rep_match else 0
    row.update(summarize_rounds([
        RoundMetrics(**{f: _ROUND_TYPES[f](r[c]) for c, f in _ROUND_FIELDS.items()})
        for r in rows
    ]))
    return row


def regenerate_summary(out_dir: str | Path) -> Path:
    """Rewrite summary.csv from the rounds.csv of every completed run under
    out_dir; aborted runs are left out, as `fedbench run` leaves them out."""
    out_dir = Path(out_dir)
    files = sorted(out_dir.glob("*/rounds.csv"))
    if not files:
        raise ConfigError(f"no rounds.csv files found under {out_dir}")
    rows = [summary_row_from_rounds_csv(f) for f in files if not _aborted(f.parent)]
    if not rows:
        raise ConfigError(f"no completed runs under {out_dir}")
    return write_summary(rows, out_dir)


def _aborted(run_dir: Path) -> bool:
    path = run_dir / "run.json"
    try:
        with open(path) as fh:
            return "aborted" in json.load(fh)["metadata"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"{path}: cannot read run metadata: {err!r}") from err
