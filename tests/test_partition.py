"""Partitioning: IID splits, Dirichlet label skew, and the cover invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbench import ConfigError, PartitionSpec
from fedbench.data import Dataset
from fedbench.partition import _check_cover, partition


def sizes(assignments):
    return [len(a) for a in assignments]


def class_counts(assignments, labels, num_classes):
    """(num_clients, num_classes) matrix of per-client label counts."""
    counts = np.zeros((len(assignments), num_classes), dtype=np.int64)
    for k, idx in enumerate(assignments):
        counts[k] = np.bincount(labels[idx], minlength=num_classes)
    return counts


def client_label_skew(assignments, labels, num_classes):
    """Mean total-variation distance between client and global label
    distributions; used by the heterogeneity monotonicity checks."""
    global_dist = np.bincount(labels, minlength=num_classes) / len(labels)
    counts = class_counts(assignments, labels, num_classes)
    dists = counts / counts.sum(axis=1, keepdims=True)
    return float(0.5 * np.abs(dists - global_dist).sum(axis=1).mean())


def label_dataset(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(features=np.zeros((len(labels), 1)), labels=labels)


def balanced_dataset(num_classes, per_class):
    return label_dataset(np.tile(np.arange(num_classes), per_class))


# Frozen from the first audited run of this implementation on a 60k balanced
# 10-class label vector (alpha=0.5, 10 clients, seed=42). The skew matches
# the expected pattern: some clients hold almost none of some classes.
GOLDEN_ALPHA05_SEED42 = np.array([
    [1311, 1134,   31, 2363, 1531,  572, 2105,  306,  777, 1685],
    [ 125,  705,    1,  245,   24,   64,  565,   83,    2,    2],
    [   0,  190,  101,   25,  169,    2, 1348,  501, 1652,   28],
    [ 176, 2698,    0,   30,  544,   32,  253, 1042,  266, 1580],
    [ 749,  193,  932, 2406,  627, 2299,   44,  299,  222, 1301],
    [ 687,  560, 2762,  556, 1165, 1033,  466, 2932,  346,  453],
    [  66,  402,   46,   21,  629,  816,  114,   29,  342,   80],
    [ 180,   33,  431,  205, 1096,  377,    4,  679,   40,  199],
    [2063,   56,  311,  146,  175,  467,  250,   69,  114,   18],
    [ 643,   29, 1385,    3,   40,  338,  851,   60, 2239,  654],
])


class TestIid:
    def test_equal_split(self):
        ds = balanced_dataset(10, 10)  # 100 samples
        part = partition(ds.labels, PartitionSpec(mode="iid"), 10, 0)
        assert sizes(part) == [10] * 10
        _check_cover(part, 100)

    def test_near_equal_when_not_divisible(self):
        ds = balanced_dataset(5, 21)  # 105 samples over 10 clients
        part = partition(ds.labels, PartitionSpec(mode="iid"), 10, 1)
        counts = sizes(part)
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 105


class TestDirichlet:
    def test_huge_alpha_is_near_uniform(self):
        ds = balanced_dataset(10, 100)  # 1000 samples
        part = partition(ds.labels, PartitionSpec(mode="dirichlet", alpha=1e6), 10, 3)
        counts = class_counts(part, ds.labels, 10)
        proportions = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(proportions - 0.1)) < 0.02

    def test_golden_fixture(self):
        ds = balanced_dataset(10, 6000)
        part = partition(ds.labels, PartitionSpec(mode="dirichlet", alpha=0.5), 10, 42)
        counts = class_counts(part, ds.labels, 10)
        assert np.array_equal(counts, GOLDEN_ALPHA05_SEED42)
        # Skew sanity the fixture was audited for.
        assert (counts < 30).sum() >= 10
        assert counts.max() > 2000

    def test_skew_monotone_in_alpha(self):
        ds = balanced_dataset(10, 100)
        means = {}
        for alpha in (0.1, 0.5, 100.0):
            skews = []
            for seed in range(20):
                spec = PartitionSpec(mode="dirichlet", alpha=alpha)
                part = partition(ds.labels, spec, 10, seed)
                skews.append(client_label_skew(part, ds.labels, 10))
            means[alpha] = float(np.mean(skews))
        assert means[0.1] > means[0.5] > means[100.0]

    def test_every_client_nonempty_under_extreme_skew(self):
        ds = balanced_dataset(2, 10)  # 20 samples, extreme alpha
        spec = PartitionSpec(mode="dirichlet", alpha=0.01)
        part = partition(ds.labels, spec, 10, 5)
        assert min(sizes(part)) >= 1
        _check_cover(part, 20)


class TestInvariants:
    def test_disjoint_cover_over_random_draws(self):
        rng = np.random.default_rng(123)
        ds = balanced_dataset(7, 40)  # 280 samples
        for _ in range(100):
            mode = "iid" if rng.random() < 0.5 else "dirichlet"
            num_clients = int(rng.integers(1, 15))
            spec = PartitionSpec(mode=mode, alpha=float(10 ** rng.uniform(-1.5, 2)))
            part = partition(ds.labels, spec, num_clients, int(rng.integers(0, 2**32)))
            _check_cover(part, 280)
            assert min(sizes(part)) >= 1

    def test_deterministic(self):
        ds = balanced_dataset(4, 25)
        spec = PartitionSpec(mode="dirichlet", alpha=0.3)
        a = partition(ds.labels, spec, 6, 9)
        b = partition(ds.labels, spec, 6, 9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestErrors:
    def test_more_clients_than_samples(self):
        ds = balanced_dataset(2, 2)
        with pytest.raises(ConfigError, match="at least one"):
            partition(ds.labels, PartitionSpec(mode="iid"), 5, 0)
        with pytest.raises(ConfigError, match="cannot give 0 clients"):
            partition(ds.labels, PartitionSpec(mode="iid"), 0, 0)

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            PartitionSpec(mode="sorted").validate()

    def test_bad_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            PartitionSpec(mode="dirichlet", alpha=0.0).validate()

    def test_cover_check_rejects_overlap_gap_and_range(self):
        with pytest.raises(ConfigError, match="not a disjoint cover"):
            _check_cover([np.array([0, 1]), np.array([1])], 3)  # 1 twice, 2 missing
        with pytest.raises(ConfigError, match="not a disjoint cover"):
            _check_cover([np.array([0]), np.array([2])], 3)
        with pytest.raises(ConfigError, match="out of range"):
            _check_cover([np.array([1, 2]), np.array([3])], 3)
        _check_cover([np.array([2, 0]), np.array([1])], 3)

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ConfigError):
            partition(ds.labels, PartitionSpec(mode="iid"), 1, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.integers(-5, 9), min_size=1, max_size=40).filter(
            lambda xs: min(xs) < 0
        ),
        mode=st.sampled_from(["iid", "dirichlet"]),
        num_clients=st.integers(1, 4),
    )
    def test_negative_label_rejected(self, labels, mode, num_clients):
        labels = np.array(labels, dtype=np.int64)
        with pytest.raises(ConfigError, match=f"got {labels.min()}$"):
            partition(labels, PartitionSpec(mode=mode), num_clients, 0)
