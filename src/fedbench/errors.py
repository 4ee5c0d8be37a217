"""Exception hierarchy shared across the package."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .simulation import ExperimentResult


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
    """A run failed mid-way; the underlying error is ``__cause__``.

    Attributes:
        result: the ExperimentResult of the rounds that completed, with the
            global params after the last of them and the strategy state that
            goes with those params.
    """

    def __init__(self, message: str, result: ExperimentResult):
        super().__init__(message)
        self.result = result
