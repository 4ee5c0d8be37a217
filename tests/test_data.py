"""Ingestion: IDX parsing, CIFAR-10 binary batches, synthetic blobs."""

import gzip
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedbench.data
from fedbench import (
    ConfigError,
    ExperimentConfig,
    IngestionError,
    LocalOptimizerConfig,
    ModelSpec,
    PartitionSpec,
    generate_synthetic,
    init_model,
    load_cifar10,
    load_dataset,
    load_idx_dataset,
    run_experiment,
    train_local,
)
from fedbench.data import (
    _NOISE_TRUNCATION,
    SYNTH_MNIST,
    Dataset,
    SyntheticSpec,
    _class_means,
    dataset_shape,
)
from fedbench.simulation import evaluate_centralized


def write_idx_images(path, arrays, magic=0x00000803):
    n, rows, cols = arrays.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", magic, n, rows, cols))
        fh.write(arrays.astype(np.uint8).tobytes())


def write_idx_labels(path, labels, magic=0x00000801):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", magic, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[1, 0, 0] = 0
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
    img_path = tmp_path / "train-images-idx3-ubyte"
    lab_path = tmp_path / "train-labels-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


class TestIdx:
    def test_accepts_valid_pair(self, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        ds = load_idx_dataset(img_path, lab_path, name="toy")
        assert ds.features.shape == (6, 12)
        assert ds.features.max() == 1.0  # 255 scaled
        assert ds.features.min() == 0.0
        assert np.array_equal(ds.labels, labels)
        assert ds.num_classes == 3

    def test_accepts_gzip(self, idx_pair, tmp_path):
        img_path, lab_path, *_ = idx_pair
        gz_img = tmp_path / "imgs.gz"
        gz_lab = tmp_path / "labs.gz"
        gz_img.write_bytes(gzip.compress(img_path.read_bytes()))
        gz_lab.write_bytes(gzip.compress(lab_path.read_bytes()))
        ds = load_idx_dataset(gz_img, gz_lab)
        assert ds.features.shape == (6, 12)

    def test_rejects_label_file_with_image_magic(self, idx_pair, tmp_path):
        img_path, *_ = idx_pair
        bad = tmp_path / "bad-labels"
        write_idx_labels(bad, [0, 1], magic=0x00000803)
        with pytest.raises(IngestionError, match="magic"):
            load_idx_dataset(img_path, bad)

    def test_rejects_wrong_image_magic(self, idx_pair, tmp_path):
        _, lab_path, images, _ = idx_pair
        bad = tmp_path / "bad-images"
        write_idx_images(bad, images, magic=0x00000801)
        with pytest.raises(IngestionError, match="magic"):
            load_idx_dataset(bad, lab_path)

    def test_rejects_truncated_file(self, idx_pair, tmp_path):
        img_path, lab_path, *_ = idx_pair
        cut = tmp_path / "truncated"
        cut.write_bytes(img_path.read_bytes()[:-5])
        with pytest.raises(IngestionError, match=str(cut)):
            load_idx_dataset(cut, lab_path)

    def test_rejects_count_mismatch(self, idx_pair, tmp_path):
        img_path, *_ = idx_pair
        short = tmp_path / "short-labels"
        write_idx_labels(short, [0, 1, 2])
        with pytest.raises(IngestionError, match="3 labels"):
            load_idx_dataset(img_path, short)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="not found"):
            load_idx_dataset(tmp_path / "nope", tmp_path / "nope2")

    @pytest.mark.parametrize("corrupt", [
        lambda gz: gz[:-8] + bytes(8),                 # CRC mismatch: BadGzipFile
        lambda gz: gz[:-12],                           # truncated: EOFError
        lambda gz: gz[:10] + b"\xff" * 8 + gz[18:],    # bad deflate block: zlib.error
    ], ids=["bad_crc", "truncated", "bad_deflate"])
    def test_rejects_corrupt_gzip(self, idx_pair, tmp_path, corrupt):
        img_path, lab_path, *_ = idx_pair
        bad = tmp_path / "imgs.gz"
        bad.write_bytes(corrupt(gzip.compress(img_path.read_bytes())))
        with pytest.raises(IngestionError, match=f"{bad}: corrupt gzip"):
            load_idx_dataset(bad, lab_path)


class TestCifar:
    def test_binary_batches(self, tmp_path):
        rng = np.random.default_rng(1)
        root = tmp_path / "cifar10"
        root.mkdir()
        written = []
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            records = []
            for _ in range(4):
                label = rng.integers(0, 10, dtype=np.uint8)
                written.append(int(label))
                pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
                records.append(bytes([label]) + pixels.tobytes())
            (root / name).write_bytes(b"".join(records))
        train = load_cifar10(root, "train")
        test = load_cifar10(root, "test")
        assert train.features.shape == (20, 3072)
        assert test.features.shape == (4, 3072)
        assert 0.0 <= train.features.min() and train.features.max() <= 1.0
        assert train.labels.tolist() == written[:20]
        assert test.labels.tolist() == written[20:]
        # load_dataset finds the batches under <data_dir>/cifar10/.
        for loaded, direct in zip(load_dataset("cifar10", str(tmp_path)), (train, test)):
            assert np.array_equal(loaded.features, direct.features)
            assert np.array_equal(loaded.labels, direct.labels)

    def test_missing_batch(self, tmp_path):
        with pytest.raises(IngestionError, match="data_batch_1"):
            load_cifar10(tmp_path, "train")


def reference_generate_synthetic(spec, name="synthetic"):
    """The generator as an out-of-place chain of full-size arrays: gather the
    class means, add the noise, shuffle, clip, rescale, mask."""
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec.num_classes, spec.input_dim, spec.class_sep, rng)
    per_class = spec.train_per_class + spec.test_per_class
    n = spec.num_classes * per_class
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class)
    features = means[labels] + rng.standard_normal((n, spec.input_dim))
    order = rng.permutation(n)
    features, labels = features[order], labels[order]
    features = np.clip(features, means.min() - _NOISE_TRUNCATION,
                       means.max() + _NOISE_TRUNCATION)
    lo, hi = features.min(), features.max()
    features = (features - lo) / (hi - lo)
    train_mask = np.zeros(n, dtype=bool)
    for c in range(spec.num_classes):
        train_mask[np.flatnonzero(labels == c)[: spec.train_per_class]] = True
    return (Dataset(features[train_mask], labels[train_mask], name, spec.num_classes),
            Dataset(features[~train_mask], labels[~train_mask], name, spec.num_classes))


def assert_same_split(actual, expected):
    for a, e in zip(actual, expected, strict=True):
        for got, want in ((a.features, e.features), (a.labels, e.labels)):
            assert got.dtype == want.dtype
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestSynthetic:
    @settings(max_examples=60, deadline=None)
    @given(st.builds(
        SyntheticSpec,
        num_classes=st.integers(2, 7),
        train_per_class=st.integers(1, 9),
        test_per_class=st.integers(1, 5),
        input_dim=st.integers(1, 14),
        class_sep=st.floats(0.1, 20.0),
        seed=st.integers(0, 2**32 - 1),
    ))
    def test_in_place_draw_equals_reference(self, spec):
        assert_same_split(generate_synthetic(spec), reference_generate_synthetic(spec))

    def test_synthmnist_equals_reference(self):
        assert_same_split(generate_synthetic(SYNTH_MNIST, "synthmnist"),
                          reference_generate_synthetic(SYNTH_MNIST, "synthmnist"))

    def test_split_is_one_buffer(self):
        train, test = generate_synthetic(SyntheticSpec(3, 10, 4, 5, seed=1))
        assert train.features.base is test.features.base is not None

    def test_synthmnist_peak_memory_is_the_split(self):
        # numpy reports its data buffers to tracemalloc.
        tracemalloc.start()
        try:
            split = generate_synthetic(SYNTH_MNIST, "synthmnist")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        split_bytes = sum(ds.features.nbytes + ds.labels.nbytes for ds in split)
        assert peak <= 1.1 * split_bytes

    def test_counts_and_balance(self):
        ds, _ = generate_synthetic(SyntheticSpec(3, 10, 1, 2, seed=1))
        assert len(ds) == 30
        assert sorted(np.unique(ds.labels)) == [0, 1, 2]
        assert np.all(np.bincount(ds.labels) == 10)
        assert 0.0 <= ds.features.min() and ds.features.max() <= 1.0

    def test_deterministic(self):
        a, _ = generate_synthetic(SyntheticSpec(3, 10, 1, 2, seed=1))
        b, _ = generate_synthetic(SyntheticSpec(3, 10, 1, 2, seed=1))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_linearly_separable(self):
        # Central training of a bare linear softmax is the separability oracle.
        ds, _ = generate_synthetic(SyntheticSpec(3, 40, 1, 2, seed=1))
        spec = ModelSpec(input_dim=2, hidden_dims=[], output_classes=3, init_seed=0)
        cfg = LocalOptimizerConfig(kind="adam", learning_rate=0.05,
                                   batch_size=30, local_epochs=60)
        trained = train_local(
            init_model(spec), spec, ds.features, ds.labels, cfg,
            np.random.default_rng(0),
        )
        acc, _ = evaluate_centralized(trained, spec, ds.features, ds.labels)
        assert acc > 0.95

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(0, 5, 1, 2, seed=1))
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(3, 5, 1, 2, class_sep=-1.0, seed=1))


class TestRegistry:
    def test_synthetic_split_is_disjoint_and_sized(self):
        spec = SyntheticSpec(num_classes=4, train_per_class=30, test_per_class=10,
                             input_dim=6, seed=5)
        train, test = load_dataset("synthetic", synthetic=spec)
        assert len(train) == 120 and len(test) == 40
        assert np.all(np.bincount(train.labels) == 30)
        assert np.all(np.bincount(test.labels) == 10)

    def test_synthmnist_shape(self):
        train, test = load_dataset("synthmnist")
        assert train.features.shape == (10 * SYNTH_MNIST.train_per_class, 784)
        assert test.features.shape == (10 * SYNTH_MNIST.test_per_class, 784)
        assert train.num_classes == 10

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown dataset"):
            load_dataset("imagenet")

    def test_mnist_requires_data_dir(self, monkeypatch):
        monkeypatch.delenv("FEDBENCH_DATA_DIR", raising=False)
        with pytest.raises(IngestionError, match="data-dir|FEDBENCH_DATA_DIR"):
            load_dataset("mnist")

    def test_mnist_from_idx_files(self, tmp_path):
        rng = np.random.default_rng(2)
        root = tmp_path / "mnist"
        root.mkdir()
        for split, (img_name, lab_name) in {
            "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
        }.items():
            n = 8 if split == "train" else 4
            write_idx_images(root / img_name,
                             rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
            write_idx_labels(root / lab_name, rng.integers(0, 10, size=n))
        train, test = load_dataset("mnist", data_dir=tmp_path)
        assert train.features.shape == (8, 784)
        assert test.features.shape == (4, 784)


class TestDatasetShape:
    """data.py's shape table is the one record of each dataset's width and
    class count: the loaders agree with it."""

    @settings(max_examples=25, deadline=None)
    @given(st.builds(
        SyntheticSpec,
        num_classes=st.integers(2, 6),  # one class is a config error
        train_per_class=st.integers(1, 5),
        test_per_class=st.integers(1, 3),
        input_dim=st.integers(1, 12),
        class_sep=st.floats(0.5, 10.0),
        seed=st.integers(0, 2**32 - 1),
    ))
    def test_synthetic_shape_is_what_loads(self, spec):
        for ds in load_dataset("synthetic", synthetic=spec):
            assert dataset_shape("synthetic", spec) == (ds.features.shape[1], ds.num_classes)

    def test_synthmnist_shape_is_what_loads(self):
        for ds in load_dataset("synthmnist"):
            assert dataset_shape("synthmnist") == (ds.features.shape[1], ds.num_classes)
        assert dataset_shape("synthetic") == dataset_shape("synthetic", SyntheticSpec())

    def test_idx_width_other_than_the_table_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        root = tmp_path / "mnist"
        root.mkdir()
        for img_name, lab_name in fedbench.data.IDX_FILES.values():
            write_idx_images(root / img_name,
                             rng.integers(0, 256, size=(4, 5, 5), dtype=np.uint8))
            write_idx_labels(root / lab_name, rng.integers(0, 10, size=4))
        with pytest.raises(IngestionError, match="25 features, expected 784"):
            load_dataset("mnist", data_dir=tmp_path)


SMALL = SyntheticSpec(num_classes=3, train_per_class=20, test_per_class=5,
                      input_dim=6, seed=5)


class TestSplitCache:
    @pytest.fixture(autouse=True)
    def generations(self, monkeypatch):
        """Start each test with a cold cache; count the generator's calls."""
        monkeypatch.setattr(fedbench.data, "_last_split", None)
        calls = []
        real = fedbench.data.generate_synthetic

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fedbench.data, "generate_synthetic", counting)
        return calls

    def test_repeated_load_generates_once(self, generations):
        first = load_dataset("synthmnist")
        second = load_dataset("synthmnist")
        assert len(generations) == 1
        for a, b in zip(first, second):
            assert a.features is b.features and a.labels is b.labels

    def test_arrays_are_read_only(self):
        for ds in load_dataset("synthetic", synthetic=SMALL):
            with pytest.raises(ValueError):
                ds.features[0, 0] = 0.5
            with pytest.raises(ValueError):
                ds.labels[0] = 0

    def test_new_spec_generates_anew(self, generations):
        a, _ = load_dataset("synthetic", synthetic=SMALL)
        b, _ = load_dataset("synthetic", synthetic=replace(SMALL, seed=SMALL.seed + 1))
        assert len(generations) == 2
        assert a.features.shape == b.features.shape
        assert not np.array_equal(a.features, b.features)

    def test_warm_cache_run_equals_cold_run(self, generations):
        cfg = ExperimentConfig(
            dataset="synthetic", synthetic=SMALL, rounds=2, num_clients=3,
            partition=PartitionSpec(mode="dirichlet", alpha=0.5),
            model=ModelSpec(6, [8], 3), local=LocalOptimizerConfig(learning_rate=0.01),
        )
        cold = run_experiment(cfg)
        warm = run_experiment(cfg)
        assert len(generations) == 1
        learning = [[(r.acc, r.loss) for r in res.metrics] for res in (cold, warm)]
        assert learning[0] == learning[1]
        assert np.array_equal(cold.final_params, warm.final_params)
