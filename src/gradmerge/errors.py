"""Exception taxonomy shared by every module.

Two broad families exist: validation failures (bad layouts, bad config,
missing or corrupt files) and numeric failures (non-finite values,
singular systems, diverging optimizers).  The CLI maps the former to
exit code 1 and the latter to exit code 2 via the ``exit_code``
attribute, so new exception types should subclass the appropriate base.
"""

import dataclasses
import functools
import numbers

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
    """A dataset was given no examples or no features."""


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


@functools.cache
def _scalar_fields(cls) -> tuple:
    """``(name, annotation, admitted types)`` of each scalar field of config class ``cls``."""
    admits = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str, "None": type(None)}
    fields = ((f, tuple(admits.get(k.strip()) for k in f.type.split("|"))) for f in dataclasses.fields(cls))
    return tuple((f.name, f.type, kinds) for f, kinds in fields if None not in kinds)


def check_field_types(config) -> None:
    """Hold each scalar field of a config dataclass to its (string) annotation: ``int``
    admits any ``numbers.Integral``, ``float`` any ``numbers.Real``, only ``bool`` a ``bool``.
    A number is then stored as a plain ``int`` or ``float``, so ``1`` and ``1.0`` build equal configs."""
    for name, annotation, kinds in _scalar_fields(type(config)):
        value = getattr(config, name)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise ConfigError(f"{type(config).__name__} field {name!r} must be {annotation}, got {value!r}")
        if value is not None and (numbers.Integral in kinds or numbers.Real in kinds):
            object.__setattr__(config, name, int(value) if numbers.Integral in kinds else float(value))
