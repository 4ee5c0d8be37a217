"""Assigning dataset indices to clients: IID shuffle-split or per-class
Dirichlet label skew."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    num_clients: int = 10
    alpha: float = 0.5
    seed: int | None = None  # None: derived from the experiment master seed

    def validate(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ConfigError(
                f"partition.mode must be one of {PARTITION_MODES}, got {self.mode!r}"
            )
        if self.num_clients < 1:
            raise ConfigError(f"partition.num_clients must be >= 1, got {self.num_clients}")
        if self.alpha <= 0:
            raise ConfigError(f"partition.alpha must be > 0, got {self.alpha}")


@dataclass
class Partition:
    """Disjoint cover of {0..N-1} by per-client index lists."""

    assignments: list[Array] = field(default_factory=list)

    def sizes(self) -> list[int]:
        return [len(a) for a in self.assignments]

    def check_disjoint_cover(self, total: int) -> None:
        merged = np.concatenate([np.asarray(a) for a in self.assignments])
        if len(merged) != total or len(np.unique(merged)) != total:
            raise ConfigError("partition is not a disjoint cover of the dataset")
        if merged.min() != 0 or merged.max() != total - 1:
            raise ConfigError("partition indices out of range")

    def class_counts(self, labels: Array, num_classes: int) -> Array:
        """(num_clients, num_classes) matrix of per-client label counts."""
        counts = np.zeros((len(self.assignments), num_classes), dtype=np.int64)
        for k, idx in enumerate(self.assignments):
            counts[k] = np.bincount(labels[idx], minlength=num_classes)
        return counts


def partition(labels: Array, spec: PartitionSpec) -> Partition:
    """Split the indices of a label vector across clients per the spec;
    every client gets at least one sample."""
    spec.validate()
    n = len(labels)
    if n == 0:
        raise ConfigError("cannot partition an empty dataset")
    if labels.min() < 0:
        raise ConfigError(f"labels must be >= 0, got {labels.min()}")
    if spec.num_clients > n:
        raise ConfigError(
            f"cannot give {spec.num_clients} clients at least one of {n} samples"
        )
    seed = 0 if spec.seed is None else spec.seed
    rng = np.random.default_rng(seed)

    if spec.mode == "iid":
        order = rng.permutation(n)
        assignments = [chunk for chunk in np.array_split(order, spec.num_clients)]
    else:
        assignments = _dirichlet_assignments(labels, spec, rng)

    _repair_empty(assignments)
    part = Partition(assignments=assignments)
    part.check_disjoint_cover(n)
    return part


def _dirichlet_assignments(
    labels: Array, spec: PartitionSpec, rng: np.random.Generator
) -> list[Array]:
    """Per class, draw client proportions ~ Dir(alpha) and slice that class's
    shuffled indices by cumulative proportion."""
    k = spec.num_clients
    per_client: list[list[Array]] = [[] for _ in range(k)]
    num_classes = int(labels.max()) + 1
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(k, spec.alpha))
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


def client_label_skew(
    part: Partition, labels: Array, num_classes: int
) -> float:
    """Mean total-variation distance between client and global label
    distributions; used by the heterogeneity monotonicity checks."""
    global_dist = np.bincount(labels, minlength=num_classes) / len(labels)
    counts = part.class_counts(labels, num_classes)
    dists = counts / counts.sum(axis=1, keepdims=True)
    return float(0.5 * np.abs(dists - global_dist).sum(axis=1).mean())
