"""Assigning dataset indices to clients: IID shuffle-split or per-class
Dirichlet label skew."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

Array = np.ndarray

PARTITION_MODES = ("iid", "dirichlet")

# Recorded in run metadata so golden partition fixtures stay pinned to the
# bit generator that produced them.
GENERATOR_NAME = "numpy-pcg64"


@dataclass
class PartitionSpec:
    mode: str = "iid"
    alpha: float = 0.5

    def validate(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ConfigError(
                f"partition.mode must be one of {PARTITION_MODES}, got {self.mode!r}"
            )
        if self.alpha <= 0:
            raise ConfigError(f"partition.alpha must be > 0, got {self.alpha}")


def partition(labels: Array, spec: PartitionSpec, num_clients: int, seed: int) -> list[Array]:
    """Split the indices of a label vector across num_clients clients per the
    spec, drawing from seed: one index array per client, each holding at least
    one sample."""
    spec.validate()
    n = len(labels)
    if n == 0:
        raise ConfigError("cannot partition an empty dataset")
    if labels.min() < 0:
        raise ConfigError(f"labels must be >= 0, got {labels.min()}")
    if not 1 <= num_clients <= n:
        raise ConfigError(f"cannot give {num_clients} clients at least one of {n} samples")
    rng = np.random.default_rng(seed)

    if spec.mode == "iid":
        assignments = np.array_split(rng.permutation(n), num_clients)
    else:
        assignments = _dirichlet_assignments(labels, spec.alpha, num_clients, rng)

    _repair_empty(assignments)
    _check_cover(assignments, n)
    return assignments


def _check_cover(assignments: list[Array], total: int) -> None:
    """Raise unless the index arrays are a disjoint cover of {0..total-1}."""
    merged = np.concatenate(assignments)
    if len(merged) != total or len(np.unique(merged)) != total:
        raise ConfigError("partition is not a disjoint cover of the dataset")
    if merged.min() != 0 or merged.max() != total - 1:
        raise ConfigError("partition indices out of range")


def _dirichlet_assignments(
    labels: Array, alpha: float, k: int, rng: np.random.Generator
) -> list[Array]:
    """Per class, draw client proportions ~ Dir(alpha) over k clients and slice
    that class's shuffled indices by cumulative proportion."""
    per_client: list[list[Array]] = [[] for _ in range(k)]
    num_classes = int(labels.max()) + 1
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(k, alpha))
        cuts = (np.cumsum(proportions)[:-1] * len(idx)).astype(np.int64)
        for client, piece in enumerate(np.split(idx, cuts)):
            per_client[client].append(piece)
    return [np.concatenate(pieces) for pieces in per_client]


def _repair_empty(assignments: list[Array]) -> None:
    """Move single samples from the largest client until no client is empty."""
    while True:
        sizes = [len(a) for a in assignments]
        if min(sizes) > 0:
            return
        donor = int(np.argmax(sizes))
        recipient = sizes.index(0)
        assignments[recipient] = assignments[donor][-1:]
        assignments[donor] = assignments[donor][:-1]
