"""Model merging schemes and the curvature-weighted data-removal update.

Every merge in the catalog and the removal update are one kernel over
stacked task rows:

    base + sum_k coef_k * (rows_k - base)

where ``rows`` is ``(k, d)`` and ``coef`` is ``(A, k, d)`` (per
coordinate) or ``(A, k, 1)`` (per row), computed from an ``(A, T)``
matrix of task weights: :func:`merge_grid` returns all ``A`` merges of a
weight sweep at once, and every single merge is its ``A = 1`` row.  A
method is only a choice of base, rows and coefficients, which is the
paper's point that averaging, task arithmetic and Fisher averaging are
special cases of one curvature-preconditioned update.  Each registry
name is one rule.  With ``h0`` the anchor curvature plus the ridge
``delta`` and ``hbar = h0 + sum_t alpha_t h_t``:

* ``am`` — base 0, coefficient ``1/T`` on each task: the plain mean of
  the task checkpoints, ignoring the anchor and the weights.
* ``wam`` — base 0, rows ``[anchor; theta_1..theta_T]`` with
  coefficients ``[alpha0; alpha_t]``, where ``alpha0 = max(0, 1 -
  sum_t alpha_t)``.
* ``ta`` — base anchor, coefficient ``alpha_t``; negative weights
  subtract a task (:func:`merge_task_arithmetic`).
* ``fa`` — base anchor, coefficient ``alpha_t F_t / (F0 + sum_t alpha_t
  F_t)`` with ``F0`` the anchor's curvature: a per-coordinate
  Fisher-weighted mean of the anchor and the tasks.
* ``ties`` — base anchor, coefficient ``alpha_t * mask_t * agree_t``:
  only each task's top :data:`TIES_KEEP` share of increment
  coordinates survives, and only where it agrees with a per-coordinate
  sign election.
* ``ours`` — base anchor, coefficient ``alpha_t (h0 + h_t) / hbar``
  (:func:`merge_uncertainty`).  With identity anchor curvature and zero
  task curvature this is ``ta`` (and with alpha = 1/T the mean).  On
  anchored linear regression with exact Hessians it reproduces the
  jointly trained model, and its output is the stationary point of the
  quadratic surrogate objective checked by the oracles module.
* :func:`remove_task` — ``ours`` run backwards: base anchor, coefficient
  ``-alpha_t (h0 + h_t) / (hbar_minus + delta)``, where ``hbar_minus`` is
  the curvature of the data left once every listed task is removed:
  subtract the listed tasks' contribution from a model trained on a
  superset of data.  On anchored linear regression with exact curvature
  this coincides with leave-subset-out retraining.

Degenerate inputs follow one rule across the catalog: :class:`MergeInputs`
refuses an empty task list with :class:`EmptyMergeError` where it is
built, a method in ``CURVATURE_METHODS`` (and :func:`remove_task`) raises
:class:`MissingCurvatureError` when a checkpoint it reads has no
curvature, and a merge whose task weights are all zero is the anchor
(adding nothing leaves it unchanged, exactly; ``am`` would otherwise
ignore the weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyMergeError,
    LayoutError,
    MissingCurvatureError,
    NumericError,
    SingularCurvatureError,
)
from .params import Checkpoint, DiagCurvature, ParamVector, anchor_penalty

__all__ = [
    "MergeInputs",
    "merge_task_arithmetic",
    "merge_uncertainty",
    "remove_task",
    "merge",
    "merge_grid",
    "merged_checkpoint",
    "ADDITION_METHODS",
    "CURVATURE_METHODS",
]

#: Methods whose merge reads curvature diagonals from the checkpoints.
CURVATURE_METHODS = ("fa", "ours")

#: Methods that read task weights as mixture masses, so reject negative ones.
_NONNEGATIVE_METHODS = ("am", "wam", "fa", "ties")

#: Share of each task's increment coordinates that ``ties`` keeps (TIES-merging:
#: trim, elect a sign, merge).
TIES_KEEP = 0.2


def _check_weights(method: str, weights) -> None:
    """Refuse negative task weights for the methods in :data:`_NONNEGATIVE_METHODS`."""
    if method in _NONNEGATIVE_METHODS and (np.asarray(weights) < 0).any():
        raise ConfigError(f"{method} does not accept negative task weights")


@dataclass(frozen=True, eq=False)
class MergeInputs:
    """Anchor checkpoint, weighted task checkpoints, and a curvature ridge.

    ``delta`` is the ridge the task models were fine-tuned under.  Only
    ``ours`` and :func:`remove_task` read it, adding it elementwise to the
    anchor curvature (:func:`~gradmerge.params.anchor_penalty`); ``fa``
    weighs by the anchor curvature ``F0`` alone, and the other methods
    read no curvature.  A merge needs at least one task: an empty list
    raises :class:`EmptyMergeError` here.
    Negative task weights are legal at this level; merges that cannot
    interpret them reject them individually.
    """

    anchor: Checkpoint
    tasks: tuple[tuple[float, Checkpoint], ...]
    delta: float = 0.0

    def __post_init__(self):
        tasks = tuple((float(alpha), ckpt) for alpha, ckpt in self.tasks)
        if not tasks:
            raise EmptyMergeError("a merge needs at least one task checkpoint")
        layout = self.anchor.layout
        for alpha, ckpt in tasks:
            if not math.isfinite(alpha):
                raise ConfigError("task weights must be finite")
            if ckpt.layout != layout:
                raise LayoutError("all merge checkpoints must share the anchor layout")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ConfigError("delta must be finite and >= 0")
        object.__setattr__(self, "tasks", tasks)

    @property
    def layout(self):
        return self.anchor.layout

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(alpha for alpha, _ in self.tasks)


def _stack(inputs: MergeInputs, method: str, weights: np.ndarray):
    """Validate a merge's inputs and ``(A, T)`` task weights, and stack the tasks.

    Returns the task parameters ``(T, d)`` and for ``CURVATURE_METHODS``
    the task curvatures ``(T, d)`` (otherwise ``None``); those methods
    also read the anchor's curvature.
    """
    _check_weights(method, weights)
    thetas = np.stack([ckpt.params.values for _, ckpt in inputs.tasks])
    if method not in CURVATURE_METHODS:
        return thetas, None
    for t, (_, ckpt) in enumerate(inputs.tasks, start=1):  # task t is a run's ``task{t}`` checkpoint
        if ckpt.curvature is None:
            raise MissingCurvatureError(f"{method} needs curvature on every task checkpoint; task {t} has none")
    if inputs.anchor.curvature is None:
        raise MissingCurvatureError(f"{method} needs curvature on the anchor checkpoint")
    return thetas, np.stack([ckpt.curvature.values for _, ckpt in inputs.tasks])


def _require_positive(den: np.ndarray, what: str) -> None:
    if (den <= 0.0).any():
        raise SingularCurvatureError(f"{what} must be strictly positive elementwise")


def _kernel(base, rows: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``base + sum_k coef[a, k] * (rows_k - base)``: the one merge expression.

    Evaluated at half scale, which is exact for normal floats and keeps
    ``rows - base`` finite whenever the merge is (a Fisher mean of -1e308
    and 1e308, say); an overflowing merge raises :class:`NumericError`.
    Callers evaluate it and its coefficients under ``np.errstate(over=
    "ignore", invalid="ignore")``, so that this check (or
    :func:`_require_positive`) is the one signal of an overflow.
    """
    half = 0.5 * base
    values = 2.0 * (half + (coef * (0.5 * rows - half)).sum(axis=1))
    if not np.isfinite(values).all():
        raise NumericError("parameter values must be finite")
    return values


def _average(inputs: MergeInputs, thetas, curvs, weights: np.ndarray) -> np.ndarray:
    return _kernel(0.0, thetas, np.full((len(weights), len(thetas), 1), 1.0 / len(thetas)))


def _weighted_average(inputs: MergeInputs, thetas, curvs, weights: np.ndarray) -> np.ndarray:
    alpha0 = np.maximum(0.0, 1.0 - weights.sum(axis=1))
    rows = np.vstack([inputs.anchor.params.values, thetas])
    return _kernel(0.0, rows, np.column_stack([alpha0, weights])[:, :, None])


def _task_arithmetic(inputs: MergeInputs, thetas, curvs, weights: np.ndarray) -> np.ndarray:
    return _kernel(inputs.anchor.params.values, thetas, weights[:, :, None])


def _fisher(inputs: MergeInputs, thetas, curvs, weights: np.ndarray) -> np.ndarray:
    weighted = weights[:, :, None] * curvs
    den = inputs.anchor.curvature.values + weighted.sum(axis=1)
    _require_positive(den, "pooled Fisher")
    return _kernel(inputs.anchor.params.values, thetas, weighted / den[:, None])


def _ties(inputs: MergeInputs, thetas, curvs, weights: np.ndarray) -> np.ndarray:
    """Per task, only the ``ceil(TIES_KEEP * d)`` largest-magnitude increment
    coordinates survive (ties broken toward lower indices).  Each coordinate
    then elects a sign by magnitude-weighted majority over the masked,
    weighted increments, and contributions disagreeing with it are zeroed.
    The election rule is one concrete choice among several used in practice.
    """
    anchor = inputs.anchor.params.values
    increments = thetas - anchor
    k = int(math.ceil(TIES_KEEP * anchor.size))
    keep = np.argsort(-np.abs(increments), axis=1, kind="stable")[:, :k]
    mask = np.zeros_like(increments)
    np.put_along_axis(mask, keep, 1.0, axis=1)
    coef = weights[:, :, None] * mask
    contributions = coef * increments
    coef = coef * (np.sign(contributions) == np.sign(contributions.sum(axis=1, keepdims=True)))
    return _kernel(anchor, thetas, coef)


def _uncertainty(inputs: MergeInputs, thetas, curvs, weights: np.ndarray) -> np.ndarray:
    h0 = anchor_penalty(inputs.anchor, inputs.delta)
    weights = weights[:, :, None]
    hbar = h0 + (weights * curvs).sum(axis=1)
    _require_positive(hbar, "pooled curvature")
    return _kernel(inputs.anchor.params.values, thetas, weights * (h0 + curvs) / hbar[:, None])


#: The catalog: each registry name and its one rule on the stacked tasks and
#: ``(A, T)`` task weights with a nonzero entry in every row.
_RULES = {
    "am": _average,
    "wam": _weighted_average,
    "ta": _task_arithmetic,
    "fa": _fisher,
    "ties": _ties,
    "ours": _uncertainty,
}

#: Method registry keys accepted by :func:`merge` and :func:`merge_grid`.
ADDITION_METHODS = tuple(_RULES)


def merge_grid(method: str, inputs: MergeInputs, scales) -> np.ndarray:
    """One catalog method at many weightings: an ``(A, d)`` array in one broadcast.

    Row ``a`` merges with task weights ``scales[a] * alpha_t``; a row
    whose weights are all zero is the anchor.
    """
    scales = np.asarray(scales, dtype=np.float64).reshape(-1)
    if not np.isfinite(scales).all():
        raise ConfigError("merge scales must be finite")
    if method not in _RULES:
        raise ConfigError(f"unknown merge method {method!r}; expected one of {ADDITION_METHODS}")
    with np.errstate(over="ignore", invalid="ignore"):  # see _kernel
        weights = scales[:, None] * np.array(inputs.alphas)
        thetas, curvs = _stack(inputs, method, weights)
        values = np.tile(inputs.anchor.params.values, (len(weights), 1))
        live = weights.any(axis=1)
        if live.any():
            values[live] = _RULES[method](inputs, thetas, curvs, weights[live])
    return values


def merge(method: str, inputs: MergeInputs) -> ParamVector:
    """Dispatch a merge by registry name (see ``ADDITION_METHODS``): :func:`merge_grid` at scale 1."""
    return ParamVector(inputs.layout, merge_grid(method, inputs, (1.0,))[0])


def merge_task_arithmetic(inputs: MergeInputs) -> ParamVector:
    """``ta``: anchor plus weighted task increments; negative weights subtract."""
    return merge("ta", inputs)


def merge_uncertainty(inputs: MergeInputs) -> ParamVector:
    """``ours``: curvature-preconditioned merge around the anchor.

    Pools curvature as ``hbar = h0 + sum_t alpha_t h_t`` and moves the
    anchor along each task increment with the per-coordinate factor
    ``alpha_t * (h0 + h_t) / hbar``, where ``h0`` is the anchor curvature
    plus the ridge ``delta``.
    """
    return merge("ours", inputs)


def remove_task(inputs: MergeInputs, hbar_minus: DiagCurvature) -> ParamVector:
    """``ours`` run backwards: subtract the listed tasks' contribution from the anchor model.

    ``anchor - sum_t alpha_t (h0 + h_t) / (hbar_minus + delta) (theta_t -
    anchor)``, with ``h0`` and ``h_t`` read as :func:`merge_uncertainty`
    reads them and ``hbar_minus`` the curvature at the anchor of the data
    left once every listed task is removed, on the anchor layout.  The
    plain variant is :func:`merge_task_arithmetic` with negative weights.
    """
    weights = np.array([inputs.alphas])
    thetas, curvs = _stack(inputs, "ours", weights)
    h0 = anchor_penalty(inputs.anchor, inputs.delta)
    denom = anchor_penalty(Checkpoint(inputs.anchor.params, hbar_minus), inputs.delta)
    _require_positive(denom, "retained-data curvature plus delta")
    with np.errstate(over="ignore", invalid="ignore"):  # see _kernel
        values = _kernel(inputs.anchor.params.values, thetas, -weights[:, :, None] * (h0 + curvs) / denom)
    return ParamVector(inputs.layout, values[0])


def merged_checkpoint(method: str, params: ParamVector, alphas) -> Checkpoint:
    """Wrap a merge result as a checkpoint recording method and weights."""
    meta = {"method": method, "alphas": ",".join(repr(float(a)) for a in alphas)}
    return Checkpoint(params, meta=meta)
