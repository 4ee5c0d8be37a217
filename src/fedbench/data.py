"""Dataset ingestion and synthesis.

Supports the IDX byte format used by MNIST/FMNIST (plain or gzipped), the
CIFAR-10 binary batch format, and a seeded Gaussian-blob generator for fast,
download-free experiments.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import platform
import struct
import zlib
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import model
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
class RowView:
    """Rows of base picked by index, read-only: view[idx] gathers base[rows[idx]]."""

    base: Array
    rows: Array

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx) -> Array:
        return self.base[self.rows[idx]]


@dataclass
class Dataset:
    """Row-major model.DTYPE features in [0, 1] plus integer class labels. A
    client's features are a RowView of the loaded split."""

    features: Array | RowView
    labels: Array

    def __len__(self) -> int:
        return len(self.labels)


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
# match. The generated datasets (None) take both from their SyntheticSpec.
_SHAPES = {
    "mnist": (784, 10),
    "fmnist": (784, 10),
    "cifar10": (3072, 10),
    "synthetic": None,
    "synthmnist": None,
}
DATASET_NAMES = tuple(_SHAPES)


def _generator_spec(name: str, synthetic: SyntheticSpec | None) -> SyntheticSpec | None:
    """The settings a generated dataset is drawn with; None for a file dataset."""
    if name == "synthmnist":
        return SYNTH_MNIST
    if name == "synthetic":
        return synthetic if synthetic is not None else SyntheticSpec()
    return None


def dataset_shape(name: str, synthetic: SyntheticSpec | None = None) -> tuple[int, int]:
    """(input_dim, num_classes) of a dataset; synthetic reads its spec, as load_dataset does."""
    if name not in _SHAPES:
        raise ConfigError(f"unknown dataset {name!r}, expected one of {DATASET_NAMES}")
    spec = _generator_spec(name, synthetic)
    return _SHAPES[name] if spec is None else (spec.input_dim, spec.num_classes)


# Noise values beyond this many sigmas from the class-mean range are clipped
# before the [0, 1] rescale.
_NOISE_TRUNCATION = 2.0


@contextmanager
def _replacing(path: Path):
    """Yield a temporary name beside path (np.save and np.savez keep its
    suffix), moved onto path once the body has written it: path never holds a
    partial file."""
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp{path.suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_bytes(path: Path) -> bytes:
    """A dataset file's contents; a missing or unreadable file is an IngestionError."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise IngestionError(f"{path}: file not found") from None
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


def load_idx_dataset(images_path: str | os.PathLike, labels_path: str | os.PathLike) -> Dataset:
    """Load an images/labels IDX pair; pixels are divided by 255 into model.DTYPE."""
    images = _read_idx(Path(images_path), IDX_MAGIC_IMAGES)
    labels = _read_idx(Path(labels_path), IDX_MAGIC_LABELS)
    if images.shape[0] != labels.shape[0]:
        raise IngestionError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    # The header's width, not -1, which numpy rejects for 0 rows.
    pixels = images.reshape(len(images), int(np.prod(images.shape[1:])))
    return Dataset(np.divide(pixels, 255, dtype=model.DTYPE), labels.astype(np.int64))


def load_cifar10(data_dir: str | os.PathLike, split: str = "train") -> Dataset:
    """CIFAR-10 binary batches: 1 label byte + 3072 pixel bytes per record."""
    root = Path(data_dir)
    names = ([f"data_batch_{i}.bin" for i in range(1, 6)] if split == "train"
             else ["test_batch.bin"])
    batches = []
    for fname in names:
        path = root / fname
        batches.append(_read_bytes(path))
        if len(batches[-1]) % 3073 != 0:
            raise IngestionError(f"{path}: size {len(batches[-1])} not a multiple of 3073")
    records = np.frombuffer(b"".join(batches), np.uint8).reshape(-1, 3073)
    del batches  # the joined bytes are the only copy alive during the division
    # One division of the joined bytes: it casts them in chunks, making no float copy.
    return Dataset(np.divide(records[:, 1:], 255, dtype=model.DTYPE),
                   records[:, 0].astype(np.int64))


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


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Seeded Gaussian blobs, one per class, rescaled into [0, 1], as (train, test),
    drawn and kept in model.DTYPE.

    Means sit on a scaled simplex so the classes are linearly separable;
    the affine rescale to [0, 1] preserves separability. One draw covers
    train + test; each class's first train_per_class rows (in shuffled
    order) are its training rows. Train and test are row slices of one
    features buffer and one labels buffer.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec.num_classes, spec.input_dim, spec.class_sep, rng)
    per_class = spec.train_per_class + spec.test_per_class
    n = spec.num_classes * per_class
    features = rng.standard_normal((n, spec.input_dim), dtype=model.DTYPE)
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
    rows = np.concatenate([np.flatnonzero(train_mask), np.flatnonzero(~train_mask)])
    _permute_rows(features, order[rows])
    return _split(features, labels[rows], spec.num_classes * spec.train_per_class)


def _split(features: Array, labels: Array, n_train: int) -> tuple[Dataset, Dataset]:
    """(train, test): the first n_train rows of each buffer, and the rest."""
    return (Dataset(features[:n_train], labels[:n_train]),
            Dataset(features[n_train:], labels[n_train:]))


def _cache_stem(spec: SyntheticSpec) -> tuple[str, str]:
    """(spec id, file stem) of spec's cached split in model.DTYPE. The id covers
    the spec and the dtype, so each dtype keeps its own store. The stem adds a
    hash of all else the bytes depend on: numpy's version, this file's source,
    the C library and the class means, which run the generator's one
    BLAS/LAPACK step."""
    ident = (astuple(spec), np.dtype(model.DTYPE).str)
    spec_id = hashlib.sha256(repr(ident).encode()).hexdigest()[:16]
    means = _class_means(spec.num_classes, spec.input_dim, spec.class_sep,
                         np.random.default_rng(spec.seed))
    key = hashlib.sha256(repr((ident, np.__version__, platform.libc_ver())).encode())
    key.update(Path(__file__).read_bytes())
    key.update(means.tobytes())
    return spec_id, f"{spec_id}-{key.hexdigest()[:16]}"


def _cache_paths(stem: str) -> tuple[Path, Path]:
    """(features, labels) files under $XDG_CACHE_HOME/fedbench, else ~/.cache/fedbench."""
    root = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fedbench"
    return root / f"{stem}.features.npy", root / f"{stem}.labels.npy"


def _read_cached(spec: SyntheticSpec, stem: str) -> tuple[Dataset, Dataset] | None:
    """spec's split mapped read-only from the cache; None when the files are
    missing, unreadable or not shaped as spec's split."""
    n_train = spec.num_classes * spec.train_per_class
    n = n_train + spec.num_classes * spec.test_per_class
    try:
        # open_memmap reads only the .npy format, and never unpickles.
        features, labels = (np.lib.format.open_memmap(path, mode="r").view(np.ndarray)
                            for path in _cache_paths(stem))
    except (OSError, ValueError):
        return None
    if (features.dtype != model.DTYPE or features.shape != (n, spec.input_dim)
            or not features.flags.c_contiguous
            or labels.dtype != np.int64 or labels.shape != (n,)):
        return None
    return _split(features, labels, n_train)


def _write_cached(split: tuple[Dataset, Dataset], spec_id: str, stem: str) -> None:
    """Store split under stem, replacing the spec's files kept under other keys;
    an unwritable cache skips the write. split is generate_synthetic's, so the
    train and test rows of each array share one buffer, which is written whole."""
    features, labels = _cache_paths(stem)
    try:
        features.parent.mkdir(parents=True, exist_ok=True)
        for old in features.parent.glob(f"*{spec_id}-*"):
            if stem not in old.name:
                old.unlink(missing_ok=True)
        # Features go last: a reader finds them only beside their labels.
        for path, rows in ((labels, split[0].labels), (features, split[0].features)):
            with _replacing(path) as tmp:
                np.save(tmp, rows.base)
    except OSError:
        pass


def _generated_split(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """generate_synthetic(spec), read from the machine's cache when stored
    there and stored there when not."""
    spec.validate()
    spec_id, stem = _cache_stem(spec)
    split = _read_cached(spec, stem)
    if split is None:
        split = generate_synthetic(spec)
        _write_cached(split, spec_id, stem)
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


# (key, split) of the last load. A grid varies the dataset in its outermost
# axis, so one entry serves every run of a dataset.
_last_split: tuple[tuple, tuple[Dataset, Dataset]] | None = None


def load_dataset(
    name: str,
    data_dir: str | None = None,
    synthetic: SyntheticSpec | None = None,
) -> tuple[Dataset, Dataset]:
    """Return (train, test) for a registered dataset name.

    mnist/fmnist/cifar10 read files from <data_dir>/<name>/ (FEDBENCH_DATA_DIR
    is the fallback location). synthetic uses the provided SyntheticSpec;
    synthmnist is the fixed 784-dim surrogate used when MNIST is absent.
    Loaded files must match the dataset's width and class count. The split's
    arrays are read-only, since every later caller in the process shares them.

    A generated split is stored once per machine under $XDG_CACHE_HOME/fedbench
    (default ~/.cache/fedbench), keyed by everything its bytes depend on, and
    later loads memory-map it. A missing or damaged store is a miss: the split
    is generated and stored again. An unwritable cache only skips the store.
    """
    global _last_split
    width, classes = dataset_shape(name, synthetic)
    spec = _generator_spec(name, synthetic)
    root = resolve_data_dir(data_dir) if spec is None else None
    key = (name, root if spec is None else astuple(spec), model.DTYPE)
    if _last_split is not None and _last_split[0] == key:
        return _last_split[1]
    _last_split = None  # free the old split before the new one loads
    if spec is not None:
        split = _generated_split(spec)
    elif root is None:
        raise IngestionError(f"dataset {name!r} needs --data-dir or FEDBENCH_DATA_DIR")
    else:
        base = root / name
        if name == "cifar10":
            split = load_cifar10(base, "train"), load_cifar10(base, "test")
        else:
            split = tuple(load_idx_dataset(*_idx_pair(base, part)) for part in ("train", "test"))
        for ds in split:
            if ds.features.shape[1] != width:
                raise IngestionError(
                    f"{base}: {name} images have {ds.features.shape[1]} features, expected {width}"
                )
            # The loaders read labels as unsigned bytes, so none is negative.
            if len(ds) and ds.labels.max() >= classes:
                raise IngestionError(
                    f"{base}: {name} labels outside [0, {classes}): found {ds.labels.max()}"
                )
    for ds in split:
        ds.features.flags.writeable = False
        ds.labels.flags.writeable = False
    _last_split = (key, split)
    return split
