"""Exception hierarchy shared across the package.

The CLI maps TgatError subclasses to exit code 1 (user/config errors) and
OS-level failures to exit code 2.
"""


class TgatError(Exception):
    """Base class for all errors raised by this package."""


class IngestionError(TgatError):
    """A CSV row could not be parsed; the message cites the line number."""


class ValidationError(TgatError):
    """A value violates a documented precondition (negative timestamp, bad fraction, ...)."""


class SplitError(TgatError):
    """A chronological split cannot be formed (too few events)."""


class MaskingError(TgatError):
    """Unseen-node masking would leave the training period empty."""


class DimensionError(TgatError):
    """Tensor shapes are incompatible; the message names both shapes."""


class ContractError(TgatError):
    """An operation was invoked outside its contract (non-scalar loss, empty batch, ...)."""


class InferenceError(ValidationError):
    """A query names a node the graph does not hold, or a model does not fit the graph."""


class TrainingError(TgatError):
    """Training diverged: a batch loss or a parameter became non-finite."""


class EvaluationError(TgatError):
    """An evaluation set is empty or single-class after filtering, its labels
    are not 0 or 1, or its scores contain NaN."""


class ConfigError(TgatError):
    """A configuration file contains an unknown key or an unparsable value."""


class CheckpointError(TgatError):
    """A checkpoint file is missing fields or structurally invalid."""
