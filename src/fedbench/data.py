"""Dataset ingestion and synthesis.

Supports the IDX byte format used by MNIST/FMNIST (plain or gzipped), the
CIFAR-10 binary batch format, and a seeded Gaussian-blob generator for fast,
download-free experiments.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError

Array = np.ndarray

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

# Conventional filenames inside a dataset directory.
IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass
class Dataset:
    """Row-major feature matrix in [0, 1] plus integer class labels."""

    features: Array
    labels: Array
    name: str
    num_classes: int

    def __len__(self) -> int:
        return self.features.shape[0]

    def validate(self) -> None:
        if self.features.ndim != 2:
            raise IngestionError(f"{self.name}: features must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise IngestionError(
                f"{self.name}: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels"
            )
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise IngestionError(
                f"{self.name}: labels outside [0, {self.num_classes})"
            )


@dataclass
class SyntheticSpec:
    """Parameters of the Gaussian-blob generator.

    class_sep is the distance between class means in units of the per-axis
    noise standard deviation; larger values make the task easier.
    """

    num_classes: int = 10
    train_per_class: int = 1200
    test_per_class: int = 200
    input_dim: int = 784
    class_sep: float = 6.0
    seed: int = 7

    def validate(self) -> None:
        minimums = {"num_classes": 2, "train_per_class": 1, "test_per_class": 1, "input_dim": 1}
        for name, low in minimums.items():
            if getattr(self, name) < low:
                raise ConfigError(f"synthetic.{name} must be >= {low}, got {getattr(self, name)}")
        if self.class_sep <= 0:
            raise ConfigError(f"synthetic.class_sep must be > 0, got {self.class_sep}")


# Fixed stand-in used when MNIST files are unavailable: same feature width,
# class count, and desk-scale sample budget as the MNIST defaults. The
# separation is tuned so a 25-round federated baseline lands in the
# mid-0.9 accuracy band rather than saturating immediately.
SYNTH_MNIST = SyntheticSpec(
    num_classes=10,
    train_per_class=1200,
    test_per_class=200,
    input_dim=784,
    class_sep=6.5,
    seed=20240501,
)

# (feature width, class count) of each dataset, which the loaded files must
# match. synthetic (None) takes both from its SyntheticSpec.
_SHAPES = {
    "mnist": (784, 10),
    "fmnist": (784, 10),
    "cifar10": (3072, 10),
    "synthetic": None,
    "synthmnist": (SYNTH_MNIST.input_dim, SYNTH_MNIST.num_classes),
}
DATASET_NAMES = tuple(_SHAPES)


def dataset_shape(name: str, synthetic: SyntheticSpec | None = None) -> tuple[int, int]:
    """(input_dim, num_classes) of a dataset; synthetic reads its spec, as load_dataset does."""
    if name not in _SHAPES:
        raise ConfigError(f"unknown dataset {name!r}, expected one of {DATASET_NAMES}")
    if name == "synthetic":
        spec = synthetic if synthetic is not None else SyntheticSpec()
        return spec.input_dim, spec.num_classes
    return _SHAPES[name]


# Noise values beyond this many sigmas from the class-mean range are clipped
# before the [0, 1] rescale.
_NOISE_TRUNCATION = 2.0


def _read_bytes(path: Path) -> bytes:
    """A dataset file's contents; a missing or unreadable file is an IngestionError."""
    if not path.exists():
        raise IngestionError(f"{path}: file not found")
    try:
        return path.read_bytes()
    except OSError as err:
        raise IngestionError(f"{path}: cannot read: {err.strerror or err}") from None


def _read_idx(path: Path, expected_magic: int) -> Array:
    """Parse one IDX file, plain or gzipped: big-endian magic and dims, then
    raw unsigned bytes."""
    raw = _read_bytes(path)
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (gzip.BadGzipFile, EOFError, zlib.error) as err:
            raise IngestionError(f"{path}: corrupt gzip data: {err}") from None
    if len(raw) < 4:
        raise IngestionError(f"{path}: truncated header")
    (magic,) = struct.unpack_from(">I", raw)
    if magic != expected_magic:
        raise IngestionError(
            f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    ndim = magic & 0xFF
    start = 4 + 4 * ndim
    if len(raw) < start:
        raise IngestionError(f"{path}: truncated dimension header")
    dims = struct.unpack_from(f">{ndim}I", raw, 4)
    expected = int(np.prod(dims))
    if len(raw) - start < expected:
        raise IngestionError(
            f"{path}: expected {expected} data bytes, found {len(raw) - start}"
        )
    return np.frombuffer(raw, np.uint8, expected, start).reshape(dims)


def load_idx_dataset(
    images_path: str | os.PathLike,
    labels_path: str | os.PathLike,
    name: str = "idx",
    num_classes: int | None = None,
) -> Dataset:
    """Load an images/labels IDX pair; pixels are scaled by 1/255."""
    images = _read_idx(Path(images_path), IDX_MAGIC_IMAGES)
    labels = _read_idx(Path(labels_path), IDX_MAGIC_LABELS)
    if images.shape[0] != labels.shape[0]:
        raise IngestionError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    features = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    ds = Dataset(features=features, labels=labels, name=name, num_classes=num_classes)
    ds.validate()
    return ds


def load_cifar10(data_dir: str | os.PathLike, split: str = "train") -> Dataset:
    """CIFAR-10 binary batches: 1 label byte + 3072 pixel bytes per record."""
    root = Path(data_dir)
    names = (
        [f"data_batch_{i}.bin" for i in range(1, 6)]
        if split == "train"
        else ["test_batch.bin"]
    )
    feats, labs = [], []
    for fname in names:
        path = root / fname
        raw = np.frombuffer(_read_bytes(path), dtype=np.uint8)
        if raw.size % 3073 != 0:
            raise IngestionError(f"{path}: size {raw.size} not a multiple of 3073")
        records = raw.reshape(-1, 3073)
        labs.append(records[:, 0].astype(np.int64))
        feats.append(records[:, 1:].astype(np.float64) / 255.0)
    ds = Dataset(
        features=np.concatenate(feats),
        labels=np.concatenate(labs),
        name="cifar10",
        num_classes=10,
    )
    ds.validate()
    return ds


def _class_means(
    num_classes: int, input_dim: int, class_sep: float, rng: np.random.Generator
) -> Array:
    """Class means on a scaled simplex (or polygon/line for low input_dim).

    For input_dim >= num_classes the simplex vertices are scaled orthonormal
    directions drawn from rng: a rotation of the standard-basis construction,
    so the class signal is dense across coordinates the way image features
    are, rather than confined to one coordinate per class.
    """
    means = np.zeros((num_classes, input_dim))
    if input_dim >= num_classes:
        gaussian = rng.standard_normal((input_dim, num_classes))
        q, _ = np.linalg.qr(gaussian)
        radius = class_sep / np.sqrt(2.0)
        means = radius * q.T
    elif input_dim >= 2:
        # Regular polygon in the first two coordinates; adjacent chord = class_sep.
        radius = class_sep / (2.0 * np.sin(np.pi / num_classes))
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    else:
        means[:, 0] = class_sep * np.arange(num_classes)
    return means


def _permute_rows(a: Array, src: Array) -> None:
    """Reorder a's rows in place, row i becoming old row src[i], one cycle at a time."""
    src, row = src.tolist(), np.empty(a.shape[1], a.dtype)
    for start in range(len(src)):
        if src[start] < 0:  # already moved, as part of an earlier cycle
            continue
        row[:] = a[start]
        i = start
        while src[i] != start:
            a[i] = a[src[i]]
            src[i], i = -1, src[i]
        a[i], src[i] = row, -1


def generate_synthetic(
    spec: SyntheticSpec, name: str = "synthetic"
) -> tuple[Dataset, Dataset]:
    """Seeded Gaussian blobs, one per class, rescaled into [0, 1], as (train, test).

    Means sit on a scaled simplex so the classes are linearly separable;
    the affine rescale to [0, 1] preserves separability. One draw covers
    train + test; each class's first train_per_class rows (in shuffled
    order) are its training rows. Train and test are row slices of one buffer.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec.num_classes, spec.input_dim, spec.class_sep, rng)
    per_class = spec.train_per_class + spec.test_per_class
    n = spec.num_classes * per_class
    features = rng.standard_normal((n, spec.input_dim))
    for c in range(spec.num_classes):  # rows are in class order until permuted
        features[c * per_class : (c + 1) * per_class] += means[c]
    order = rng.permutation(n)
    labels = order // per_class

    # Truncate noise tails at 2 sigma beyond the mean range before rescaling,
    # so the [0, 1] dynamic range is carried by class structure rather than
    # rare extremes (as in image data, where many pixels saturate).
    np.clip(features, means.min() - _NOISE_TRUNCATION, means.max() + _NOISE_TRUNCATION,
            out=features)
    lo, hi = features.min(), features.max()
    features -= lo
    features /= hi - lo

    train_mask = np.zeros(n, dtype=bool)
    for c in range(spec.num_classes):
        train_mask[np.flatnonzero(labels == c)[: spec.train_per_class]] = True
    train_rows, test_rows = np.flatnonzero(train_mask), np.flatnonzero(~train_mask)
    _permute_rows(features, order[np.concatenate([train_rows, test_rows])])
    train = Dataset(features[: len(train_rows)], labels[train_rows], name, spec.num_classes)
    test = Dataset(features[len(train_rows) :], labels[test_rows], name, spec.num_classes)
    train.validate()
    test.validate()
    return train, test


# The last generated split, keyed by (name, spec fields). A grid varies the
# dataset in its outermost axis, so one entry serves every run of a dataset.
_last_split: tuple[tuple, tuple[Dataset, Dataset]] | None = None


def _generate_split(spec: SyntheticSpec, name: str) -> tuple[Dataset, Dataset]:
    """generate_synthetic's split, cached for the process with read-only
    arrays, so every caller sees the same data."""
    global _last_split
    key = (name, astuple(spec))
    if _last_split is not None and _last_split[0] == key:
        return _last_split[1]
    split = generate_synthetic(spec, name)
    for ds in split:
        ds.features.flags.writeable = False
        ds.labels.flags.writeable = False
    _last_split = (key, split)
    return split


def _idx_pair(root: Path, split: str) -> tuple[Path, Path]:
    images_name, labels_name = IDX_FILES[split]
    for suffix in ("", ".gz"):
        images, labels = root / (images_name + suffix), root / (labels_name + suffix)
        if images.exists() and labels.exists():
            return images, labels
    raise IngestionError(
        f"{root}: missing {images_name}[.gz] / {labels_name}[.gz]"
    )


def resolve_data_dir(data_dir: str | None) -> Path | None:
    if data_dir:
        return Path(data_dir)
    env = os.environ.get("FEDBENCH_DATA_DIR")
    return Path(env) if env else None


def load_dataset(
    name: str,
    data_dir: str | None = None,
    synthetic: SyntheticSpec | None = None,
) -> tuple[Dataset, Dataset]:
    """Return (train, test) for a registered dataset name.

    mnist/fmnist/cifar10 read files from <data_dir>/<name>/ (FEDBENCH_DATA_DIR
    is the fallback location). synthetic uses the provided SyntheticSpec;
    synthmnist is the fixed 784-dim surrogate used when MNIST is absent.
    """
    width, classes = dataset_shape(name, synthetic)
    if name == "synthetic":
        return _generate_split(synthetic or SyntheticSpec(), "synthetic")
    if name == "synthmnist":
        return _generate_split(SYNTH_MNIST, "synthmnist")

    root = resolve_data_dir(data_dir)
    if root is None:
        raise IngestionError(
            f"dataset {name!r} needs --data-dir or FEDBENCH_DATA_DIR"
        )
    base = root / name if (root / name).is_dir() else root
    if name == "cifar10":
        return load_cifar10(base, "train"), load_cifar10(base, "test")
    train, test = (
        load_idx_dataset(*_idx_pair(base, split), name=name, num_classes=classes)
        for split in ("train", "test")
    )
    for ds in (train, test):
        if ds.features.shape[1] != width:
            raise IngestionError(
                f"{base}: {name} images have {ds.features.shape[1]} features, expected {width}"
            )
    return train, test
