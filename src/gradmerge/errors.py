"""Exception taxonomy shared by every module.

Two broad families exist: validation failures (bad layouts, bad config,
missing or corrupt files) and numeric failures (non-finite values,
singular systems, diverging optimizers).  The CLI maps the former to
exit code 1 and the latter to exit code 2 via the ``exit_code``
attribute, so new exception types should subclass the appropriate base.
"""

__all__ = [
    "GradmergeError",
    "LayoutError",
    "ConfigError",
    "IoError",
    "CorruptCheckpointError",
    "EmptyDataError",
    "EmptyMergeError",
    "MissingCurvatureError",
    "UnsupportedModelError",
    "NumericError",
    "SingularCurvatureError",
    "SingularSystemError",
    "DivergenceError",
]


class GradmergeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class LayoutError(GradmergeError):
    """Parameter layouts disagree or a vector does not fit its layout."""


class ConfigError(GradmergeError):
    """Invalid configuration value or precondition violation."""


class IoError(GradmergeError):
    """Filesystem read/write failure."""


class CorruptCheckpointError(IoError):
    """Checkpoint files exist but are inconsistent or unparseable."""


class EmptyDataError(GradmergeError):
    """An operation that needs at least one example received none."""


class EmptyMergeError(GradmergeError):
    """A merge that needs at least one task checkpoint received none."""


class MissingCurvatureError(GradmergeError):
    """A curvature-weighted merge was given a checkpoint without curvature."""


class UnsupportedModelError(GradmergeError):
    """The requested operation is not defined for this model kind."""


class NumericError(GradmergeError):
    """A computation produced non-finite or otherwise invalid numbers."""

    exit_code = 2


class SingularCurvatureError(NumericError):
    """A curvature diagonal that must be strictly positive is not."""


class SingularSystemError(NumericError):
    """A linear system to be solved exactly is singular or too ill-conditioned."""


class DivergenceError(NumericError):
    """Training diverged or failed to reach the required stationarity."""
