"""Exception taxonomy shared by every module.

Two broad families exist: validation failures (bad layouts, bad config,
missing or corrupt files) and numeric failures (non-finite values,
singular systems, diverging optimizers).  The CLI maps the former to
exit code 1 and the latter to exit code 2 via the ``exit_code``
attribute, so new exception types should subclass the appropriate base.
"""

import dataclasses
import functools
import math
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


#: The value types each annotation name admits; a field whose annotation names any other type is a section.
_ADMITS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "None": type(None)}


@functools.cache
def _declared(cls) -> tuple:
    """``(field, many, admitted types)`` of each field of ``cls`` but its sections, which check their own fields;
    ``many`` marks a ``tuple[X, ...]`` field, typed as ``X``."""
    fields = ((f, f.type.startswith("tuple[")) for f in dataclasses.fields(cls))
    typed = ((f, many, tuple(_ADMITS.get(k.strip()) for k in (f.type[6:-6] if many else f.type).split("|"))) for f, many in fields)
    return tuple(entry for entry in typed if None not in entry[2])


def check_fields(config) -> None:
    """Hold each field of a config dataclass to its (string) annotation and to the bound in its
    ``metadata``: ``"min"`` (of a string, its length), ``"finite"``, ``"choices"`` and, for a
    ``tuple[X, ...]`` field (a nonempty list, each element held to ``X`` and the bound), ``"unique"``.
    ``int`` admits any ``numbers.Integral`` and ``float`` any ``numbers.Real``, but neither a ``bool``.
    A number is stored as a plain ``int`` or ``float``, so ``1`` and ``1.0`` build equal configs."""
    for f, many, kinds in _declared(type(config)):
        value = getattr(config, f.name)
        if many:
            try:
                items = () if isinstance(value, (str, bytes)) else tuple(value)
            except TypeError:
                items = ()
            if not items:
                noun = "finite numbers" if f.metadata.get("finite") else "strings"
                raise ConfigError(f"{f.name} must be a nonempty list of {noun}, got {value!r}")
            value = tuple(_checked(config, f, kinds, v) for v in items)
            if f.metadata.get("unique") and len(set(value)) != len(value):
                raise ConfigError(f"{f.name} must not contain duplicates, got {value!r}")
        else:
            value = _checked(config, f, kinds, value)
        object.__setattr__(config, f.name, value)


def _checked(config, f, kinds, value):
    """``value`` as field ``f`` of ``config`` stores it; a value of another type or outside the bound raises."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"{type(config).__name__} field {f.name!r} must be {f.type}, got {value!r}")
    if value is None:
        return value
    if str not in kinds:  # a number
        try:
            value = int(value) if numbers.Integral in kinds else float(value)
        except OverflowError:  # an integer past 1e308 for a float field
            raise ConfigError(f"{f.name} is too large for a float") from None
    choices, low, finite = f.metadata.get("choices"), f.metadata.get("min"), f.metadata.get("finite")
    if choices is not None and value not in choices:
        raise ConfigError(f"{f.name} must be one of {choices}, got {value!r}")
    subject, size = (f"len({f.name})", len(value)) if isinstance(value, str) else (f.name, value)
    if (low is not None and not size >= low) or (finite and not math.isfinite(size)):
        rule = " and ".join(r for r in ("finite" if finite else "", "" if low is None else f">= {low}") if r)
        raise ConfigError(f"{subject} must be {rule}, got {value!r}")
    return value
