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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import config_to_dict
from .errors import ConfigError
from .partition import GENERATOR_NAME
from .simulation import ExperimentConfig, ExperimentResult, RoundMetrics

ROUNDS_COLUMNS = [
    "run_id", "strategy", "dataset", "partition_mode", "alpha",
    "round", "acc", "loss", "agg_time_s", "train_time_s", "comm_time_s",
]

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
    final_params: np.ndarray | None = None
    state_arrays: dict = field(default_factory=dict)

    @classmethod
    def partial(
        cls,
        cfg: ExperimentConfig,
        metrics: list[RoundMetrics],
        run_id: str,
        replicate: int,
        error: str,
    ) -> "ResultsBundle":
        """Bundle for an aborted run: whatever rounds completed, no state."""
        summary = summarize_rounds(metrics)
        summary.update(_run_identity(cfg, run_id, replicate))
        return cls(
            run_id=run_id,
            replicate=replicate,
            config=config_to_dict(cfg),
            rounds=list(metrics),
            summary=summary,
            metadata={"aborted": error, "replicate": replicate},
        )

    @classmethod
    def from_result(
        cls,
        result: ExperimentResult,
        run_id: str,
        replicate: int = 0,
        error: str | None = None,
    ) -> "ResultsBundle":
        cfg = result.config
        summary = summarize_rounds(result.metrics)
        summary.update(_run_identity(cfg, run_id, replicate))
        state = result.strategy_state
        state_arrays = {}
        for name in ("momentum_buffer", "first_moment", "second_moment"):
            arr = getattr(state, name)
            if arr is not None:
                state_arrays[name] = arr
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


def _run_identity(cfg: ExperimentConfig, run_id: str, replicate: int) -> dict:
    return {
        "run_id": run_id,
        "strategy": cfg.strategy.kind,
        "dataset": cfg.dataset,
        "partition_mode": cfg.partition.mode,
        "alpha": cfg.partition.alpha if cfg.partition.mode == "dirichlet" else None,
        "replicate": replicate,
    }


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
    identity = [
        bundle.summary["run_id"],
        bundle.summary["strategy"],
        bundle.summary["dataset"],
        bundle.summary["partition_mode"],
        _fmt(bundle.summary["alpha"]),
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_COLUMNS)
        for r in bundle.rounds:
            writer.writerow(
                identity
                + [
                    r.round,
                    _fmt(r.centralized_accuracy),
                    _fmt(r.centralized_loss),
                    _fmt(r.agg_time_s),
                    _fmt(r.train_time_s),
                    _fmt(r.comm_time_s),
                ]
            )


def _write_run_json(bundle: ResultsBundle, path: Path) -> None:
    payload = {
        "run_id": bundle.run_id,
        "replicate": bundle.replicate,
        "config": bundle.config,
        "rounds": [
            {
                "round": r.round,
                "acc": r.centralized_accuracy,
                "loss": r.centralized_loss,
                "agg_time_s": r.agg_time_s,
                "train_time_s": r.train_time_s,
                "comm_time_s": r.comm_time_s,
                "clip_norm": r.clip_norm,
            }
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
    arrays = dict(bundle.state_arrays)
    if bundle.final_params is not None:
        arrays["final_params"] = bundle.final_params
    np.savez_compressed(path, **arrays)


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
    last = rows[-1]
    run_id = last["run_id"]
    rep_match = re.search(r"_rep(\d+)$", run_id)
    row = {
        "run_id": run_id,
        "strategy": last["strategy"],
        "dataset": last["dataset"],
        "partition_mode": last["partition_mode"],
        "alpha": float(last["alpha"]) if last["alpha"] else None,
        "replicate": int(rep_match.group(1)) if rep_match else 0,
    }
    row.update(summarize_rounds([
        RoundMetrics(
            round=int(r["round"]),
            centralized_accuracy=float(r["acc"]),
            centralized_loss=float(r["loss"]),
            agg_time_s=float(r["agg_time_s"]),
            train_time_s=float(r["train_time_s"]),
            comm_time_s=float(r["comm_time_s"]),
        )
        for r in rows
    ]))
    return row


def regenerate_summary(out_dir: str | Path) -> Path:
    """Scan <out_dir>/*/rounds.csv and rewrite summary.csv from them."""
    out_dir = Path(out_dir)
    files = sorted(out_dir.glob("*/rounds.csv"))
    if not files:
        raise ConfigError(f"no rounds.csv files found under {out_dir}")
    rows = [summary_row_from_rounds_csv(f) for f in files]
    return write_summary(rows, out_dir)
