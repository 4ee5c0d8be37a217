"""fedbench: desk-scale federated learning simulator for comparing server
aggregation strategies under IID and Dirichlet-skewed data.

The package exports what building, running, aggregating and writing an
experiment needs; everything else is imported from its module."""

# Defined before the submodule imports: results reads it.
__version__ = "0.1.0"

from .adversary import AdversarySpec
from .data import SyntheticSpec
from .errors import (
    ConfigError,
    ExperimentAborted,
    FedbenchError,
    IngestionError,
    NumericError,
    ProtocolError,
    ShapeError,
)
from .model import LocalOptimizerConfig, ModelSpec
from .partition import PartitionSpec
from .simulation import ExperimentConfig, ExperimentResult, RoundMetrics, run_experiment
from .strategies import Strategy, StrategyConfig, StrategyState
from .config import parse_config
from .results import write_results, write_summary
