"""Round loop: broadcast, local training, aggregation, centralized
evaluation, and per-round metric capture.

Learning metrics (accuracy, loss) are a pure function of the experiment
configuration; timing metrics are measured thread CPU times and exempt from
the determinism contract.

Importing this module sets the process's thread policy: OpenBLAS runs one
thread, and a run trains its clients on a pool of one thread per usable core
instead (see blas_threads and default_client_threads).
"""

from __future__ import annotations

import ctypes
import os
import time
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adversary import AdversarySpec, corrupt
from .data import Dataset, RowView, SyntheticSpec, dataset_shape, load_dataset
from .errors import ConfigError, ExperimentAborted, FedbenchError, NumericError
from .model import (
    LocalOptimizerConfig,
    ModelSpec,
    _log_softmax,
    forward_logits,
    forward_loss_grad,
    init_model,
    init_opt_state,
    local_step,
)
from .partition import PartitionSpec, partition
from .strategies import Strategy, StrategyConfig, StrategyState

Array = np.ndarray

# Stable stream tags for deriving independent per-purpose seeds from the
# master seed. Python's hash() is salted, so seeds go through SeedSequence.
_TAG_TRAIN = 1
_TAG_ADVERSARY = 2
_TAG_DP = 3
_TAG_SUBSET = 4
_TAG_PARTITION = 5
_TAG_MODEL_INIT = 6
_TAG_REPLICA = 7

# glibc's mallopt parameters: the most malloc arenas a process may keep, the
# size from which a block is mmapped, and the free heap top kept before trimming.
_M_ARENA_MAX = -8
_M_MMAP_THRESHOLD = -3
_M_TRIM_THRESHOLD = -1
# Rows per evaluation chunk: one forward pass's activations stay small.
_EVAL_CHUNK = 1024


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles, if it has the thread setter."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        if (hasattr(lib, "scipy_openblas_set_num_threads64_")
                and hasattr(lib, "scipy_openblas_get_num_threads64_")):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


_OPENBLAS = _openblas()


def blas_threads() -> int | None:
    """OpenBLAS's thread count as the library reports it; None when it cannot be read."""
    return None if _OPENBLAS is None else _OPENBLAS.scipy_openblas_get_num_threads64_()


def _set_thread_policy() -> None:
    """One BLAS thread, so that client threads cannot oversubscribe the cores;
    one malloc arena, so that each client thread does not keep its own; and
    blocks under 16 MB from a heap that keeps 32 MB free, so rounds do not fault
    their parameter vectors in afresh (glibc's dynamic thresholds rise only after
    a block that large is freed)."""
    if _OPENBLAS is not None:
        _OPENBLAS.scipy_openblas_set_num_threads64_(1)
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        mallopt(_M_TRIM_THRESHOLD, 32 << 20)


_set_thread_policy()


def default_client_threads() -> int:
    """Usable cores when BLAS runs one thread; else 1, as serial clients
    cannot oversubscribe the cores. (Only Linux wheels bundle the OpenBLAS
    found above, and Linux has sched_getaffinity.)"""
    return len(os.sched_getaffinity(0)) if blas_threads() == 1 else 1


def derived_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def replica_seed(base_seed: int, replicate: int) -> int:
    """Master seed for replicate r of a run (replicate 0 keeps the base)."""
    if replicate == 0:
        return base_seed
    return derived_seed(base_seed, _TAG_REPLICA, replicate)


@dataclass
class RoundMetrics:
    """One round's outputs. The field names are the run.json round keys and,
    clip_norm aside, the rounds.csv columns."""

    round: int
    acc: float  # centralized accuracy
    loss: float  # centralized loss
    agg_time_s: float
    train_time_s: float
    comm_time_s: float
    clip_norm: float | None = None


@dataclass
class ExperimentConfig:
    # Field order is the key order of the config snapshot in run.json.
    dataset: str = "synthmnist"
    rounds: int = 25
    num_clients: int = 10
    master_seed: int = 42
    train_subset: int | None = None
    eval_subset: int | None = None
    data_dir: str | None = None
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    model: ModelSpec = field(default_factory=lambda: ModelSpec(784, [128], 10))
    local: LocalOptimizerConfig = field(default_factory=LocalOptimizerConfig)
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    synthetic: SyntheticSpec | None = None
    adversary: AdversarySpec = field(default_factory=AdversarySpec)

    def validate(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"experiment.rounds must be >= 1, got {self.rounds}")
        if self.num_clients < 1:
            raise ConfigError(
                f"experiment.num_clients must be >= 1, got {self.num_clients}"
            )
        if self.master_seed < 0:
            raise ConfigError(f"experiment.master_seed must be >= 0, got {self.master_seed}")
        for name in ("train_subset", "eval_subset"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"experiment.{name} must be >= 1, got {value}")
        self.partition.validate()
        self.local.validate()
        self.strategy.validate()
        self.adversary.validate(self.num_clients)
        if self.synthetic is not None:
            self.synthetic.validate()
        shape = dataset_shape(self.dataset, self.synthetic)
        self.model.validate()
        for name, width in zip(("input_dim", "output_classes"), shape):
            value = getattr(self.model, name)
            if value != width:
                raise ConfigError(f"model.{name} {value} does not match {self.dataset}'s {width}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    metrics: list[RoundMetrics]
    final_params: Array
    strategy_state: StrategyState
    train_size: int
    eval_size: int
    client_threads: int  # threads the run's clients trained on


def train_local(
    params: Array,
    spec: ModelSpec,
    features: Array | RowView,
    labels: Array,
    cfg: LocalOptimizerConfig,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
    prox_center: Array | None = None,
) -> Array:
    """Run local_epochs of minibatch training and return the new parameters.

    Optimizer state is fresh per call (clients restart from the broadcast
    global weights each round). Partial trailing batches are kept. With
    prox_mu > 0 the gradient gains the proximal pull mu * (w - w_global).
    The steps update a copy of params in place; the arguments are not written.
    """
    params = params.copy()
    state = init_opt_state(cfg, params)
    grad = np.empty_like(params)
    pull = np.empty_like(params) if prox_mu > 0.0 else None
    n = len(features)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grad = forward_loss_grad(
                params, spec, features[batch], labels[batch], out=grad
            )
            if pull is not None:
                # grad + mu * (params - prox_center), in place.
                np.subtract(params, prox_center, out=pull)
                np.add(grad, np.multiply(pull, prox_mu, out=pull), out=grad)
            params, state = local_step(params, grad, state, cfg)
    return params


def evaluate_centralized(
    params: Array, spec: ModelSpec, features: Array, labels: Array, pool: Executor | None = None
) -> tuple[float, float]:
    """Accuracy (argmax-correct fraction) and mean cross-entropy on a test set.

    Chunks of rows may be scored on pool; their partial sums are added in
    chunk order, so the result does not depend on it.
    """
    n = features.shape[0]
    if n == 0:
        raise ConfigError("evaluation set is empty")

    def score(start: int) -> tuple[int, float]:
        x = features[start : start + _EVAL_CHUNK]
        y = labels[start : start + _EVAL_CHUNK]
        logits = forward_logits(params, spec, x)
        log_probs = _log_softmax(logits)
        loss = float(-log_probs[np.arange(len(y)), y].sum())
        return int((logits.argmax(axis=1) == y).sum()), loss

    correct = 0
    loss_sum = 0.0
    for hits, loss in (map if pool is None else pool.map)(score, range(0, n, _EVAL_CHUNK)):
        correct += hits
        loss_sum += loss
    return correct / n, loss_sum / n


def _transfer(params: Array) -> tuple[Array, float]:
    """Simulated transfer of one parameter vector: serialize, deserialize.
    Returns the received copy and the thread CPU seconds it took."""
    t0 = time.thread_time()
    received = np.frombuffer(params.tobytes(), dtype=params.dtype).copy()
    return received, time.thread_time() - t0


def run_round(
    global_params: Array,
    clients: list[Dataset],
    strategy: Strategy,
    round_idx: int,
    cfg: ExperimentConfig,
    evaluation: Dataset,
    pool: ThreadPoolExecutor,
) -> tuple[Array, RoundMetrics]:
    """Execute one communication round and measure the paper-style metrics.

    cfg is the run's config: it supplies the model, the client
    optimizer, the master seed and the adversary. A client's id is its
    index in clients. Clients train on pool, and each checks and corrupts
    its own reply there. The calling thread folds the replies into the
    aggregate in client order as they arrive; at most 2W clients (W pool
    threads) are submitted and not yet folded. All three times are
    thread CPU time, so waiting for a core does not count: train_time_s is
    the sum of the clients' broadcast-to-reply times (transfers included),
    comm_time_s the sum of their downlink and uplink transfer times, and
    agg_time_s the calling thread's time in the folds and in the
    Strategy.aggregate call that finishes them.
    """
    if not clients:
        raise ConfigError("round needs at least one client")
    fold = strategy.start(global_params, [len(c) for c in clients])

    def train_client(client_id: int) -> tuple[Array, float, float]:
        shard = clients[client_id]
        start = time.thread_time()
        local_params, down = _transfer(global_params)
        rng = derived_rng(cfg.master_seed, round_idx, client_id, _TAG_TRAIN)
        try:
            trained = train_local(local_params, cfg.model, shard.features, shard.labels, cfg.local,
                                  rng, prox_mu=strategy.client_prox_mu, prox_center=global_params)
        except NumericError as err:
            raise NumericError(f"client {client_id} failed in round {round_idx}: {err}") from err
        received, up = _transfer(trained)
        busy = time.thread_time() - start
        if not np.all(np.isfinite(received)):
            raise NumericError(
                f"client {client_id} produced non-finite parameters in round {round_idx}"
            )
        adversary_rng = derived_rng(cfg.master_seed, round_idx, client_id, _TAG_ADVERSARY)
        reply = corrupt(client_id, received, cfg.adversary, global_params, adversary_rng)
        return reply, busy, down + up

    train_time = comm_time = agg_time = 0.0
    # As pool.map does, the loop takes the replies in client order and raises
    # a client's error at its place in that order, cancelling the clients not
    # yet started. Unlike pool.map, it submits a client only once the reply
    # 2W places before it is folded (W pool threads), so that replies cannot
    # pile up while this thread waits for the GIL or for a core.
    window = 2 * pool._max_workers
    futures = deque(pool.submit(train_client, k) for k in range(min(window, len(clients))))
    try:
        for k in range(len(clients)):
            reply, busy, transfers = futures.popleft().result()
            train_time += busy
            comm_time += transfers
            agg_start = time.thread_time()
            fold.add(k, reply)
            agg_time += time.thread_time() - agg_start
            if k + window < len(clients):
                futures.append(pool.submit(train_client, k + window))
    finally:
        for future in futures:
            future.cancel()

    agg_start = time.thread_time()
    new_params = strategy.aggregate(fold, derived_rng(cfg.master_seed, round_idx, _TAG_DP))
    agg_time += time.thread_time() - agg_start

    if not np.all(np.isfinite(new_params)):
        raise NumericError(f"aggregation produced non-finite parameters in round {round_idx}")

    acc, loss = evaluate_centralized(new_params, cfg.model, evaluation.features,
                                     evaluation.labels, pool)
    if not np.isfinite(loss):
        raise NumericError(f"evaluation produced a non-finite loss in round {round_idx}")
    metrics = RoundMetrics(
        round=round_idx,
        acc=acc,
        loss=loss,
        agg_time_s=agg_time,
        train_time_s=train_time,
        comm_time_s=comm_time,
        clip_norm=strategy.clip_norm,
    )
    return new_params, metrics


def _subset(n: int, count: int | None, rng: np.random.Generator) -> slice | Array:
    """Rows of n that a run uses: all of them as a slice, so indexing copies
    nothing, or a random `count` of them."""
    if count is None or count >= n:
        return slice(None)
    return rng.permutation(n)[:count]


def run_experiment(cfg: ExperimentConfig, client_threads: int | None = None) -> ExperimentResult:
    """Run the full round loop for one configuration.

    Clients train on up to client_threads threads (default:
    default_client_threads()); the learning results do not depend on it.
    Configuration problems surface before round 1. Any FedbenchError raised
    in a round is re-raised as ExperimentAborted, carrying the result of the
    rounds completed before it.
    """
    cfg.validate()
    if client_threads is None:
        client_threads = default_client_threads()
    if client_threads < 1:
        raise ConfigError(f"client_threads must be >= 1, got {client_threads}")
    workers = min(client_threads, cfg.num_clients)
    train, test = load_dataset(cfg.dataset, cfg.data_dir, cfg.synthetic)

    rows = np.arange(len(train))[
        _subset(len(train), cfg.train_subset, derived_rng(cfg.master_seed, _TAG_SUBSET, 0))
    ]
    eval_rows = _subset(len(test), cfg.eval_subset, derived_rng(cfg.master_seed, _TAG_SUBSET, 1))
    evaluation = Dataset(test.features[eval_rows], test.labels[eval_rows])

    # Clients index the loaded split; only their labels are copied.
    labels = train.labels[rows]
    assignments = partition(labels, cfg.partition, cfg.num_clients,
                            derived_seed(cfg.master_seed, _TAG_PARTITION))
    clients = [Dataset(RowView(train.features, rows[idx]), labels[idx]) for idx in assignments]

    global_params = init_model(cfg.model, derived_seed(cfg.master_seed, _TAG_MODEL_INIT))
    strategy = Strategy(cfg.strategy)

    # Holds the rounds completed so far; ExperimentAborted carries it.
    result = ExperimentResult(
        config=cfg,
        metrics=[],
        final_params=global_params,
        strategy_state=strategy.state,
        train_size=len(rows),
        eval_size=len(evaluation),
        client_threads=workers,
    )
    with ThreadPoolExecutor(workers) as pool:
        for round_idx in range(1, cfg.rounds + 1):
            try:
                global_params, record = run_round(
                    global_params, clients, strategy, round_idx, cfg, evaluation, pool
                )
            except FedbenchError as err:
                raise ExperimentAborted(str(err), result) from err
            result.metrics.append(record)
            result.final_params = global_params
            result.strategy_state = strategy.state
    return result
