"""fedbench: desk-scale federated learning simulator for comparing server
aggregation strategies under IID and Dirichlet-skewed data."""

# Defined before the submodule imports: results reads it.
__version__ = "0.1.0"

from .adversary import AdversarySpec, corrupt
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_cifar10,
    load_dataset,
    load_idx_dataset,
)
from .errors import (
    ConfigError,
    ExperimentAborted,
    FedbenchError,
    IngestionError,
    NumericError,
    ProtocolError,
    ShapeError,
)
from .model import (
    LocalOptimizerConfig,
    ModelSpec,
    forward_logits,
    forward_loss_grad,
    init_model,
    local_adam_step,
    local_sgd_step,
)
from .partition import Partition, PartitionSpec, client_label_skew, partition
from .simulation import (
    ClientShard,
    ExperimentConfig,
    ExperimentResult,
    RoundMetrics,
    evaluate_centralized,
    run_experiment,
    run_round,
    train_local,
)
from .strategies import (
    ClientUpdate,
    Strategy,
    StrategyConfig,
    StrategyState,
    dp_clip,
    pseudo_gradient,
)
from .config import config_from_dict, config_to_dict, parse_config, run_id_for
from .results import write_results, write_summary
