"""Pinned reference trajectories: short runs whose learning results are
committed and compared by test_trajectories.py, once per dtype:
trajectories.json holds them computed in float64, the reference dtype, and
trajectories_float32.json in float32, the dtype the program computes in.

The runs are the seven strategy kinds on IID and Dirichlet(0.5) shards of a
4-class, 24-feature `synthetic` task, plus one FedAvg run with a client whose
delta is scaled by -4: 3 rounds, 5 clients, 400 training and 200 evaluation
rows, a 24-32-4 MLP. Each record holds the
per-round accuracy, loss and DP clip norm, a summary of the final parameters
(L2 norm, sum, a few coordinates) and the L2 norms of the server state.

The tolerances let rounding noise pass and fail any change in behaviour.
float64 keeps rtol 1e-9. float32's rtol is 10x the largest relative gap
measured between the 15 runs on one machine (an AVX-512 Xeon) under three
OpenBLAS kernels: the default, and OPENBLAS_CORETYPE=Haswell and Sandybridge.
That gap, 5.8e-7, is the rounding noise another machine brings (it was
1.9e-15 in float64). One and two OpenBLAS threads gave identical results in
both dtypes, as these matrices are too small for OpenBLAS to split.

Regenerate the fixtures only when a change is meant to alter learning
results, and say in CHANGES.md when and why:

    PYTHONPATH=src python tests/trajectories.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import fedbench.model
from fedbench import (
    AdversarySpec,
    ExperimentConfig,
    LocalOptimizerConfig,
    ModelSpec,
    PartitionSpec,
    StrategyConfig,
    SyntheticSpec,
    run_experiment,
)
from fedbench.config import config_to_dict
from fedbench.strategies import STRATEGY_KINDS

# dtype -> (fixture, rtol); atol 1e-12 guards values pinned at zero.
FIXTURES = {
    np.float64: (Path(__file__).with_name("trajectories.json"), 1e-9),
    np.float32: (Path(__file__).with_name("trajectories_float32.json"), 6e-6),
}


def _config(kind: str, mode: str, adversary: AdversarySpec | None = None) -> ExperimentConfig:
    return ExperimentConfig(
        dataset="synthetic",
        synthetic=SyntheticSpec(num_classes=4, train_per_class=150, test_per_class=60,
                                input_dim=24, class_sep=4.0, seed=5),
        rounds=3,
        num_clients=5,
        master_seed=3,
        train_subset=400,
        eval_subset=200,
        partition=PartitionSpec(mode=mode, alpha=0.5),
        model=ModelSpec(24, [32], 4),
        local=LocalOptimizerConfig(kind="adam", learning_rate=0.01, batch_size=32),
        strategy=StrategyConfig(kind=kind),
        adversary=adversary or AdversarySpec(),
    )


def runs() -> dict[str, ExperimentConfig]:
    """The pinned runs by name."""
    grid = {
        f"{kind}_{mode}": _config(kind, mode)
        for kind in STRATEGY_KINDS
        for mode in ("iid", "dirichlet")
    }
    grid["fedavg_iid_scale_attack"] = _config(
        "fedavg", "iid", AdversarySpec(kind="scale", scale_factor=-4.0,
                                       affected_clients=frozenset({1}))
    )
    return grid


def _norm(array) -> float | None:
    return None if array is None else float(np.linalg.norm(array))


def record(cfg: ExperimentConfig) -> dict:
    """Run cfg and summarise what the fixture pins."""
    result = run_experiment(cfg)
    params = result.final_params
    coords = [0, 1, params.size // 3, params.size // 2, params.size - 1]
    state = result.strategy_state
    return {
        "config": config_to_dict(cfg),
        "acc": [m.acc for m in result.metrics],
        "loss": [m.loss for m in result.metrics],
        "clip_norm": [m.clip_norm for m in result.metrics],
        "params": {
            "size": int(params.size),
            "l2": _norm(params),
            "sum": float(params.sum()),
            "coords": {str(i): float(params[i]) for i in coords},
        },
        "state": {
            "round_index": state.round_index,
            "clip_norm": state.clip_norm,
            "momentum_buffer": _norm(state.momentum_buffer),
            "first_moment": _norm(state.first_moment),
            "second_moment": _norm(state.second_moment),
        },
    }


def main() -> None:
    for dtype, (fixture, _) in FIXTURES.items():
        fedbench.model.DTYPE = dtype
        pinned = {name: record(cfg) for name, cfg in runs().items()}
        fixture.write_text(json.dumps(pinned, indent=1) + "\n")
        print(f"wrote {len(pinned)} {np.dtype(dtype)} trajectories to {fixture}")


if __name__ == "__main__":
    main()
