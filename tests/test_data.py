"""Ingestion: IDX parsing, CIFAR-10 binary batches, synthetic blobs."""

import gzip
import hashlib
import multiprocessing
import os
import re
import struct
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedbench.data
import fedbench.model
from fedbench import (
    ConfigError,
    ExperimentConfig,
    IngestionError,
    LocalOptimizerConfig,
    ModelSpec,
    PartitionSpec,
    SyntheticSpec,
    run_experiment,
)
from fedbench.data import (
    _NOISE_TRUNCATION,
    DATASET_NAMES,
    SYNTH_MNIST,
    Dataset,
    _class_means,
    dataset_shape,
    generate_synthetic,
    load_cifar10,
    load_dataset,
    load_idx_dataset,
)
from fedbench.model import init_model
from fedbench.simulation import evaluate_centralized, train_local


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


CIFAR_BATCHES = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]


def write_mnist_files(root, rng, sizes=(8, 4)):
    """Random MNIST-shaped (train, test) IDX files; returns each split's
    (images, labels) bytes."""
    root.mkdir(parents=True)
    written = []
    for (img_name, lab_name), n in zip(fedbench.data.IDX_FILES.values(), sizes):
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        write_idx_images(root / img_name, images)
        write_idx_labels(root / lab_name, labels)
        written.append((images, labels))
    return written


def write_cifar_files(root, rng, per_batch=4):
    """Random CIFAR-10 batch files; returns each batch's (pixels, labels) bytes."""
    root.mkdir(parents=True)
    written = []
    for name in CIFAR_BATCHES:
        pixels = rng.integers(0, 256, size=(per_batch, 3072), dtype=np.uint8)
        labels = rng.integers(0, 10, size=per_batch, dtype=np.uint8)
        (root / name).write_bytes(np.column_stack([labels, pixels]).tobytes())
        written.append((pixels, labels))
    return written


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestIdx:
    def test_accepts_valid_pair(self, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        ds = load_idx_dataset(img_path, lab_path)
        assert ds.features.shape == (6, 12)
        assert ds.features.max() == 1.0  # 255 scaled
        assert ds.features.min() == 0.0
        assert np.array_equal(ds.labels, labels)

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
        root = tmp_path / "cifar10"
        written = [labels.tolist() for _, labels in write_cifar_files(root, np.random.default_rng(1))]
        train = load_cifar10(root, "train")
        test = load_cifar10(root, "test")
        assert train.features.shape == (20, 3072)
        assert test.features.shape == (4, 3072)
        assert 0.0 <= train.features.min() and train.features.max() <= 1.0
        assert train.labels.tolist() == sum(written[:5], [])
        assert test.labels.tolist() == written[5]
        # load_dataset finds the batches under <data_dir>/cifar10/.
        for loaded, direct in zip(load_dataset("cifar10", str(tmp_path)), (train, test)):
            assert np.array_equal(loaded.features, direct.features)
            assert np.array_equal(loaded.labels, direct.labels)

    def test_missing_batch(self, tmp_path):
        with pytest.raises(IngestionError, match="data_batch_1"):
            load_cifar10(tmp_path, "train")


def load_idx_in(root):
    return load_idx_dataset(root / "images", root / "labels")


@pytest.mark.parametrize("name, content, load, message", [
    pytest.param("images", b"\x00\x00\x08", load_idx_in, "truncated header", id="idx_header"),
    pytest.param("images", struct.pack(">II", 0x00000803, 2), load_idx_in,
                 "truncated dimension header", id="idx_dimensions"),
    pytest.param("data_batch_1.bin", bytes(2 * 3073 + 5), lambda root: load_cifar10(root, "train"),
                 "size 6151 not a multiple of 3073", id="cifar_record"),
])
def test_malformed_file_is_named_in_the_error(name, content, load, message, tmp_path):
    (tmp_path / name).write_bytes(content)
    with pytest.raises(IngestionError, match=re.escape(f"{tmp_path / name}: {message}")):
        load(tmp_path)


def reference_generate_synthetic(spec):
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
    return (Dataset(features[train_mask], labels[train_mask]),
            Dataset(features[~train_mask], labels[~train_mask]))


def assert_same_split(actual, expected):
    for a, e in zip(actual, expected, strict=True):
        for got, want in ((a.features, e.features), (a.labels, e.labels)):
            assert got.dtype == want.dtype
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestSynthetic:
    # The reference draws float64 noise, so the two are compared at float64.
    @pytest.mark.usefixtures("float64")
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

    @pytest.mark.usefixtures("float64")
    def test_synthmnist_equals_reference(self):
        assert_same_split(generate_synthetic(SYNTH_MNIST),
                          reference_generate_synthetic(SYNTH_MNIST))

    def test_split_is_one_buffer(self):
        train, test = generate_synthetic(SyntheticSpec(3, 10, 4, 5, seed=1))
        assert train.features.base is test.features.base is not None

    def test_synthmnist_peak_memory_is_the_split(self):
        # numpy reports its data buffers to tracemalloc.
        tracemalloc.start()
        try:
            split = generate_synthetic(SYNTH_MNIST)
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
        spec = ModelSpec(input_dim=2, hidden_dims=[], output_classes=3)
        cfg = LocalOptimizerConfig(kind="adam", learning_rate=0.05,
                                   batch_size=30, local_epochs=60)
        trained = train_local(
            init_model(spec, 0), spec, ds.features, ds.labels, cfg,
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
        assert np.unique(train.labels).tolist() == list(range(10))

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown dataset"):
            load_dataset("imagenet")

    def test_mnist_requires_data_dir(self, monkeypatch):
        monkeypatch.delenv("FEDBENCH_DATA_DIR", raising=False)
        with pytest.raises(IngestionError, match="data-dir|FEDBENCH_DATA_DIR"):
            load_dataset("mnist")

    def test_mnist_from_idx_files(self, tmp_path):
        write_mnist_files(tmp_path / "mnist", np.random.default_rng(2))
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
            assert dataset_shape("synthetic", spec) == (ds.features.shape[1],
                                                        len(np.unique(ds.labels)))

    def test_synthmnist_shape_is_what_loads(self):
        for ds in load_dataset("synthmnist"):
            assert dataset_shape("synthmnist") == (ds.features.shape[1], len(np.unique(ds.labels)))
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

    def test_idx_label_beyond_the_class_count_rejected(self, tmp_path):
        root = tmp_path / "mnist"
        root.mkdir()
        for img_name, lab_name in fedbench.data.IDX_FILES.values():
            write_idx_images(root / img_name, np.zeros((3, 28, 28), dtype=np.uint8))
            write_idx_labels(root / lab_name, [0, 9, 9])
        write_idx_labels(root / fedbench.data.IDX_FILES["test"][1], [0, 10, 9])
        with pytest.raises(IngestionError, match=f"^{re.escape(str(root))}: mnist labels outside"):
            load_dataset("mnist", data_dir=tmp_path)

    def test_cifar_label_beyond_the_class_count_rejected(self, tmp_path):
        root = tmp_path / "cifar10"
        root.mkdir()
        record = bytes([3]) + bytes(3072)
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            (root / name).write_bytes(record)
        (root / "data_batch_2.bin").write_bytes(record + bytes([10]) + bytes(3072))
        with pytest.raises(IngestionError, match=f"^{re.escape(str(root))}: cifar10 labels"):
            load_dataset("cifar10", data_dir=tmp_path)


SMALL = SyntheticSpec(num_classes=3, train_per_class=20, test_per_class=5,
                      input_dim=6, seed=5)
# Large enough that four processes generate and write it at once.
RACED = SyntheticSpec(num_classes=4, train_per_class=500, test_per_class=100,
                      input_dim=64, seed=11)


def load_anew(spec=SMALL):
    """Load spec's split past the process's entry, from the disk cache or the generator."""
    fedbench.data._last_split = None
    return load_dataset("synthetic", synthetic=spec)


def stored_files(cache_home):
    return sorted(p.name for p in (cache_home / "fedbench").iterdir())


def stored_pair(cache_home):
    """The (features, labels) paths of the one split stored under cache_home."""
    return (next((cache_home / "fedbench").glob("*.features.npy")),
            next((cache_home / "fedbench").glob("*.labels.npy")))


def split_digest(split):
    digest = hashlib.sha256()
    for ds in split:
        digest.update(ds.features.tobytes())
        digest.update(ds.labels.tobytes())
    return digest.hexdigest()


def load_when_all_ready(cache_home, ready, results):
    """Spawned-process body: load RACED into cache_home together with the others."""
    os.environ["XDG_CACHE_HOME"] = cache_home
    ready.wait(timeout=60)
    results.put(split_digest(load_dataset("synthetic", synthetic=RACED)))


def truncate(features, labels):
    features.write_bytes(features.read_bytes()[:-8])


def reshape(features, labels):
    np.save(features, np.load(features).reshape(-1, 3))


def narrow(features, labels):
    np.save(features, np.load(features).astype(np.float16))


def reorder(features, labels):
    np.save(features, np.asfortranarray(np.load(features)))


def shorten_labels(features, labels):
    np.save(labels, np.load(labels)[:-1])


def overwrite(features, labels):
    features.write_bytes(b"not an array file")


def drop_features(features, labels):
    features.unlink()


class TestSplitCache:
    @pytest.fixture(autouse=True)
    def generations(self, monkeypatch, tmp_path):
        """Start each test with a cold cache, in the process and on disk; count
        the generator's calls."""
        monkeypatch.setattr(fedbench.data, "_last_split", None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        calls = []
        real = fedbench.data.generate_synthetic

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fedbench.data, "generate_synthetic", counting)
        return calls

    @pytest.fixture
    def reads(self, monkeypatch):
        """Count the reads of each dataset file."""
        counts = Counter()
        real = fedbench.data._read_bytes

        def counting(path):
            counts[path.name] += 1
            return real(path)

        monkeypatch.setattr(fedbench.data, "_read_bytes", counting)
        return counts

    @pytest.mark.parametrize("name, write", [("mnist", write_mnist_files),
                                             ("cifar10", write_cifar_files)])
    def test_repeated_file_load_reads_once(self, name, write, reads, tmp_path):
        write(tmp_path / name, np.random.default_rng(4))
        first = load_dataset(name, str(tmp_path))
        second = load_dataset(name, str(tmp_path))
        assert list(reads.values()) == [1] * (6 if name == "cifar10" else 4)
        for a, b in zip(first, second):
            assert a.features is b.features and a.labels is b.labels

    def test_data_dir_from_the_environment_is_the_same_key(self, reads, tmp_path, monkeypatch):
        write_mnist_files(tmp_path / "mnist", np.random.default_rng(4))
        monkeypatch.setenv("FEDBENCH_DATA_DIR", str(tmp_path))
        first = load_dataset("mnist")
        assert load_dataset("mnist", str(tmp_path)) is first
        assert list(reads.values()) == [1] * 4

    def test_file_splits_equal_the_per_batch_formulas(self, tmp_path):
        rng = np.random.default_rng(5)
        idx = write_mnist_files(tmp_path / "mnist", rng, sizes=(9, 3))
        batches = write_cifar_files(tmp_path / "cifar10", rng, per_batch=3)
        for ds, (images, labels) in zip(load_dataset("mnist", str(tmp_path)), idx):
            assert_same_bits(ds.features,
                             images.reshape(len(images), -1).astype(fedbench.model.DTYPE) / 255.0)
            assert_same_bits(ds.labels, labels.astype(np.int64))
        for ds, parts in zip(load_dataset("cifar10", str(tmp_path)), (batches[:5], batches[5:])):
            assert_same_bits(ds.features, np.concatenate(
                [pixels.astype(fedbench.model.DTYPE) / 255.0 for pixels, _ in parts]))
            assert_same_bits(ds.labels, np.concatenate(
                [labels.astype(np.int64) for _, labels in parts]))

    def test_cifar_peak_memory_is_near_its_floats(self, tmp_path):
        write_cifar_files(tmp_path / "cifar10", np.random.default_rng(6), per_batch=100)
        tracemalloc.start()
        try:
            train = load_cifar10(tmp_path / "cifar10", "train")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * train.features.nbytes

    def test_repeated_load_generates_once(self, generations):
        first = load_dataset("synthmnist")
        second = load_dataset("synthmnist")
        assert len(generations) == 1
        for a, b in zip(first, second):
            assert a.features is b.features and a.labels is b.labels

    def test_arrays_are_read_only(self, tmp_path):
        rng = np.random.default_rng(7)
        for name in ("mnist", "fmnist"):
            write_mnist_files(tmp_path / name, rng)
        write_cifar_files(tmp_path / "cifar10", rng)
        for name in DATASET_NAMES:
            for ds in load_dataset(name, str(tmp_path), SMALL):
                with pytest.raises(ValueError):
                    ds.features[0, 0] = 0.5
                with pytest.raises(ValueError):
                    ds.labels[0] = 0

    def test_public_loaders_stay_writable(self, idx_pair, tmp_path):
        img_path, lab_path, *_ = idx_pair
        write_cifar_files(tmp_path / "cifar10", np.random.default_rng(8))
        for ds in (load_idx_dataset(img_path, lab_path), load_cifar10(tmp_path / "cifar10")):
            assert ds.features.flags.writeable and ds.labels.flags.writeable

    def test_next_dataset_loads_after_the_last_is_released(self, monkeypatch, tmp_path):
        write_mnist_files(tmp_path / "mnist", np.random.default_rng(9))
        refs = [weakref.ref(ds.features) for ds in load_dataset("synthetic", synthetic=SMALL)]
        alive_at_reads = []
        real = fedbench.data._read_bytes

        def noting(path):
            alive_at_reads.append(any(ref() is not None for ref in refs))
            return real(path)

        monkeypatch.setattr(fedbench.data, "_read_bytes", noting)
        load_dataset("mnist", str(tmp_path))
        assert alive_at_reads == [False] * 4

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

    def test_disk_hit_equals_the_generator(self, generations):
        load_anew()
        hit = load_anew()
        assert len(generations) == 1
        for ds, ref in zip(hit, generate_synthetic(SMALL)):
            for got, want in ((ds.features, ref.features), (ds.labels, ref.labels)):
                assert_same_bits(got, want)
                assert type(got) is np.ndarray and not got.flags.writeable

    @pytest.mark.parametrize("damage", [truncate, reshape, narrow, reorder,
                                        shorten_labels, overwrite, drop_features])
    def test_damaged_store_is_ignored_and_rewritten(self, damage, generations, tmp_path):
        load_anew()
        damage(*stored_pair(tmp_path))
        split = load_anew()
        assert len(generations) == 2
        assert split_digest(split) == split_digest(generate_synthetic(SMALL))
        assert split_digest(load_anew()) == split_digest(split)
        assert len(generations) == 2
        assert len(stored_files(tmp_path)) == 2

    @pytest.mark.parametrize("change", ["spec", "numpy", "source"])
    def test_key_change_misses(self, change, generations, tmp_path, monkeypatch):
        load_anew()
        spec = SMALL
        if change == "spec":
            spec = replace(SMALL, class_sep=SMALL.class_sep + 1.0)
        elif change == "numpy":
            monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        else:
            edited = tmp_path / "data.py"
            edited.write_text(Path(fedbench.data.__file__).read_text() + "# edited\n")
            monkeypatch.setattr(fedbench.data, "__file__", str(edited))
        load_anew(spec)
        load_anew(spec)
        assert len(generations) == 2
        # One pair per spec: a new key for the same spec replaces the old pair.
        assert len(stored_files(tmp_path)) == (4 if change == "spec" else 2)

    def test_float32_and_float64_stores_coexist(self, generations, tmp_path, monkeypatch):
        digests = {}
        for dtype in (np.float32, np.float64, np.float32, np.float64):
            monkeypatch.setattr(fedbench.model, "DTYPE", dtype)
            split = load_anew()
            assert split[0].features.dtype == dtype
            assert digests.setdefault(dtype, split_digest(split)) == split_digest(split)
        # One generation per dtype; neither store replaced the other.
        assert len(generations) == 2
        assert len(stored_files(tmp_path)) == 4

    def test_cache_under_a_regular_file_still_loads(self, generations, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        first, second = load_anew(), load_anew()
        assert len(generations) == 2
        assert split_digest(first) == split_digest(second)

    def test_concurrent_cold_loads_leave_one_pair(self, generations, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        ready, results = ctx.Barrier(4), ctx.Queue()
        procs = [ctx.Process(target=load_when_all_ready, args=(str(tmp_path), ready, results))
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        try:
            digests = [results.get(timeout=120) for _ in procs]
        finally:
            for proc in procs:
                proc.join(timeout=60)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=10)
        assert not any(proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0] * 4
        assert digests == [split_digest(generate_synthetic(RACED))] * 4
        assert len(stored_files(tmp_path)) == 2
        assert not any(name.startswith(".") for name in stored_files(tmp_path))
        assert split_digest(load_anew(RACED)) == digests[0]
        assert not generations
