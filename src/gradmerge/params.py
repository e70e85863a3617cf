"""Flat parameter vectors, diagonal curvature, and bit-exact checkpoint IO.

Every model in this package lives in a single flat float64 vector plus a
:class:`ParamLayout`, the ordered (name, shape) entries that fix its
length and identify the architecture it belongs to.  Merging, curvature
estimation, training and diagnostics all compute on the flat vectors, so
the types here are the common currency of the whole package.  They
validate their values once, on construction.

Checkpoints are stored as two files sharing a stem: ``<stem>.meta.json``
(layout, curvature flag, free-form string metadata) and
``<stem>.f64le`` (raw little-endian float64 values, parameters first,
then the curvature diagonal when present).  The representation is chosen
so that a save/load round trip is bit-exact and the metadata stays
diffable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    ConfigError,
    CorruptCheckpointError,
    IoError,
    LayoutError,
    MissingCurvatureError,
    NumericError,
)

__all__ = [
    "ParamLayout",
    "ParamVector",
    "DiagCurvature",
    "Checkpoint",
    "anchor_penalty",
    "save_checkpoint",
    "load_checkpoint",
]


def _normalize_entries(entries) -> tuple[tuple[str, tuple[int, ...]], ...]:
    out = []
    seen = set()
    for item in entries:
        try:
            name, shape = item
        except (TypeError, ValueError) as exc:
            raise LayoutError(f"layout entry {item!r} is not a (name, shape) pair") from exc
        if not isinstance(name, str) or not name:
            raise LayoutError(f"layout entry name {name!r} must be a nonempty string")
        if name in seen:
            raise LayoutError(f"duplicate layout entry name {name!r}")
        seen.add(name)
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in shape):
            raise LayoutError(f"layout entry {name!r} has a non-integer shape {shape!r}")
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise LayoutError(f"layout entry {name!r} has non-positive shape {shape}")
        out.append((name, shape))
    return tuple(out)


@dataclass(frozen=True)
class ParamLayout:
    """Ordered (name, shape) index structure over one flat vector."""

    entries: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _normalize_entries(self.entries))

    # Cached in the instance ``__dict__``, not in the dataclass fields, so
    # equality and hashing still see only ``entries``.
    @cached_property
    def total_len(self) -> int:
        return sum(math.prod(shape) for _, shape in self.entries)


def _validated_values(layout: ParamLayout, values, *, nonnegative: bool) -> np.ndarray:
    arr = np.array(values, dtype=np.float64).reshape(-1)
    if arr.size != layout.total_len:
        raise LayoutError(
            f"value array of length {arr.size} does not fit layout of length {layout.total_len}"
        )
    if not np.isfinite(arr).all():
        raise NumericError("parameter values must be finite")
    if nonnegative and (arr < 0.0).any():
        raise NumericError("curvature diagonal must be elementwise >= 0")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat float64 parameter vector bound to a layout."""

    layout: ParamLayout
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_values(self.layout, self.values, nonnegative=False))

    @classmethod
    def zeros(cls, layout: ParamLayout) -> "ParamVector":
        return cls(layout, np.zeros(layout.total_len))


@dataclass(frozen=True, eq=False)
class DiagCurvature:
    """Nonnegative per-parameter diagonal of a Hessian or Fisher matrix."""

    layout: ParamLayout
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_values(self.layout, self.values, nonnegative=True))

    @classmethod
    def zeros(cls, layout: ParamLayout) -> "DiagCurvature":
        return cls(layout, np.zeros(layout.total_len))


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Parameters plus optional curvature and string metadata."""

    params: ParamVector
    curvature: DiagCurvature | None = None
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.curvature is not None and self.curvature.layout != self.layout:
            raise LayoutError("checkpoint curvature layout does not match checkpoint layout")
        meta = dict(self.meta)
        for key, value in meta.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ConfigError(f"checkpoint meta must map strings to strings, got {key!r}: {value!r}")
        object.__setattr__(self, "meta", meta)

    @property
    def layout(self) -> ParamLayout:
        return self.params.layout


def anchor_penalty(anchor: Checkpoint, delta: float) -> np.ndarray:
    """The anchored penalty diagonal ``h0 + delta``: the anchor's curvature plus a finite ridge >= 0.

    Training, merging, removal and the diagnostics read it here; only the oracles form it again.
    """
    if anchor.curvature is None:
        raise MissingCurvatureError("the anchor penalty needs curvature on the anchor checkpoint")
    if not (math.isfinite(delta) and delta >= 0):
        raise ConfigError("delta must be finite and >= 0")
    return anchor.curvature.values + delta


def _meta_path(path_stem) -> Path:
    return Path(str(path_stem) + ".meta.json")


def _blob_path(path_stem) -> Path:
    return Path(str(path_stem) + ".f64le")


def save_checkpoint(ckpt: Checkpoint, path_stem) -> None:
    """Write ``<stem>.meta.json`` and ``<stem>.f64le`` for a checkpoint."""
    doc = {
        "layout": [[name, list(shape)] for name, shape in ckpt.layout.entries],
        "has_curvature": ckpt.curvature is not None,
        "meta": dict(ckpt.meta),
    }
    blob = ckpt.params.values.astype("<f8").tobytes()
    if ckpt.curvature is not None:
        blob += ckpt.curvature.values.astype("<f8").tobytes()
    try:
        _meta_path(path_stem).write_text(json.dumps(doc, indent=2) + "\n")
        _blob_path(path_stem).write_bytes(blob)
    except OSError as exc:
        raise IoError(f"failed to write checkpoint {path_stem!s}: {exc}") from exc


def load_checkpoint(path_stem) -> Checkpoint:
    """Inverse of :func:`save_checkpoint`; validates lengths and finiteness.

    Metadata keys other than ``layout``, ``has_curvature`` and ``meta``
    are ignored.
    """
    try:
        meta_text = _meta_path(path_stem).read_text()
        blob = _blob_path(path_stem).read_bytes()
    except OSError as exc:
        raise IoError(f"failed to read checkpoint {path_stem!s}: {exc}") from exc
    try:
        doc = json.loads(meta_text)
    except json.JSONDecodeError as exc:
        raise CorruptCheckpointError(f"unparseable checkpoint metadata {path_stem!s}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptCheckpointError(f"checkpoint metadata {path_stem!s} is not an object")
    for key in ("layout", "has_curvature", "meta"):
        if key not in doc:
            raise CorruptCheckpointError(f"checkpoint metadata {path_stem!s} is missing key {key!r}")
    try:
        layout = ParamLayout(tuple((name, tuple(shape)) for name, shape in doc["layout"]))
    except (LayoutError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"checkpoint metadata {path_stem!s} has a bad layout: {exc}") from exc
    meta = doc["meta"]
    if not isinstance(meta, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()
    ):
        raise CorruptCheckpointError(f"checkpoint metadata {path_stem!s} has non-string meta entries")
    has_curvature = doc["has_curvature"]
    if not isinstance(has_curvature, bool):
        raise CorruptCheckpointError(f"checkpoint metadata {path_stem!s} has a non-boolean has_curvature")
    n = layout.total_len
    expected = 8 * n * (2 if has_curvature else 1)
    if len(blob) != expected:
        raise CorruptCheckpointError(
            f"checkpoint blob {path_stem!s} has {len(blob)} bytes, expected {expected}"
        )
    values = np.frombuffer(blob, dtype="<f8")
    params = ParamVector(layout, values[:n])
    curvature = DiagCurvature(layout, values[n:]) if has_curvature else None
    return Checkpoint(params, curvature, meta)
