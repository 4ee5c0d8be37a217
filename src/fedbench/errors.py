"""Exception hierarchy shared across the package."""


class FedbenchError(Exception):
    """Base class for all errors raised by fedbench."""


class ConfigError(FedbenchError):
    """Invalid configuration value, key, or combination (CLI exit code 1)."""


class ShapeError(FedbenchError):
    """Array dimensions disagree with the model or the global parameter vector."""


class IngestionError(FedbenchError):
    """A dataset file is missing, malformed, or inconsistent."""


class ProtocolError(FedbenchError):
    """The round protocol was violated, e.g. an empty update set."""


class NumericError(FedbenchError):
    """Non-finite values appeared during training or aggregation."""


class ExperimentAborted(FedbenchError):
    """A run failed mid-way; carries the metrics collected so far.

    Attributes:
        metrics: per-round metric records completed before the failure.
        cause: the underlying error.
        config: the run's config with dims and seeds resolved.
    """

    def __init__(self, message, metrics, cause, config):
        super().__init__(message)
        self.metrics = metrics
        self.cause = cause
        self.config = config
