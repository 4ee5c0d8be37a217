"""Partitioning: IID splits, Dirichlet label skew, and the cover invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbench import ConfigError, PartitionSpec, client_label_skew, partition
from fedbench.data import Dataset


def label_dataset(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(
        features=np.zeros((len(labels), 1)),
        labels=labels,
        name="labels-only",
        num_classes=int(labels.max()) + 1,
    )


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
        part = partition(ds.labels, PartitionSpec(mode="iid", num_clients=10, seed=0))
        assert part.sizes() == [10] * 10
        part.check_disjoint_cover(100)

    def test_near_equal_when_not_divisible(self):
        ds = balanced_dataset(5, 21)  # 105 samples over 10 clients
        part = partition(ds.labels, PartitionSpec(mode="iid", num_clients=10, seed=1))
        sizes = part.sizes()
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 105


class TestDirichlet:
    def test_huge_alpha_is_near_uniform(self):
        ds = balanced_dataset(10, 100)  # 1000 samples
        spec = PartitionSpec(mode="dirichlet", num_clients=10, alpha=1e6, seed=3)
        part = partition(ds.labels, spec)
        counts = part.class_counts(ds.labels, 10)
        proportions = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(proportions - 0.1)) < 0.02

    def test_golden_fixture(self):
        ds = balanced_dataset(10, 6000)
        spec = PartitionSpec(mode="dirichlet", num_clients=10, alpha=0.5, seed=42)
        part = partition(ds.labels, spec)
        counts = part.class_counts(ds.labels, 10)
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
                spec = PartitionSpec(
                    mode="dirichlet", num_clients=10, alpha=alpha, seed=seed
                )
                part = partition(ds.labels, spec)
                skews.append(client_label_skew(part, ds.labels, 10))
            means[alpha] = float(np.mean(skews))
        assert means[0.1] > means[0.5] > means[100.0]

    def test_every_client_nonempty_under_extreme_skew(self):
        ds = balanced_dataset(2, 10)  # 20 samples, extreme alpha
        spec = PartitionSpec(mode="dirichlet", num_clients=10, alpha=0.01, seed=5)
        part = partition(ds.labels, spec)
        assert min(part.sizes()) >= 1
        part.check_disjoint_cover(20)


class TestInvariants:
    def test_disjoint_cover_over_random_draws(self):
        rng = np.random.default_rng(123)
        ds = balanced_dataset(7, 40)  # 280 samples
        for _ in range(100):
            mode = "iid" if rng.random() < 0.5 else "dirichlet"
            spec = PartitionSpec(
                mode=mode,
                num_clients=int(rng.integers(1, 15)),
                alpha=float(10 ** rng.uniform(-1.5, 2)),
                seed=int(rng.integers(0, 2**32)),
            )
            part = partition(ds.labels, spec)
            part.check_disjoint_cover(280)
            assert min(part.sizes()) >= 1

    def test_deterministic(self):
        ds = balanced_dataset(4, 25)
        spec = PartitionSpec(mode="dirichlet", num_clients=6, alpha=0.3, seed=9)
        a = partition(ds.labels, spec)
        b = partition(ds.labels, spec)
        for x, y in zip(a.assignments, b.assignments):
            assert np.array_equal(x, y)


class TestErrors:
    def test_more_clients_than_samples(self):
        ds = balanced_dataset(2, 2)
        with pytest.raises(ConfigError, match="at least one"):
            partition(ds.labels, PartitionSpec(mode="iid", num_clients=5, seed=0))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            PartitionSpec(mode="sorted", num_clients=2).validate()

    def test_bad_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            PartitionSpec(mode="dirichlet", num_clients=2, alpha=0.0).validate()

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=np.int64), "empty", 1)
        with pytest.raises(ConfigError):
            partition(ds.labels, PartitionSpec(mode="iid", num_clients=1, seed=0))

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
        spec = PartitionSpec(mode=mode, num_clients=num_clients, seed=0)
        with pytest.raises(ConfigError, match=f"got {labels.min()}$"):
            partition(labels, spec)
