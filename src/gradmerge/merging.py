"""Model merging schemes and the curvature-weighted data-removal update.

Every merge in the catalog and the removal update are one kernel over
stacked task rows:

    base + sum_k coef_k * (rows_k - base)

where ``rows`` is ``(k, d)`` and ``coef`` is ``(k, d)`` (per coordinate)
or ``(k, 1)`` (per row).  A method is only a choice of base, rows and
coefficients, which is the paper's point that averaging, task
arithmetic and Fisher averaging are special cases of one curvature-
preconditioned update.  With ``h0`` the anchor curvature plus the ridge
``delta`` and ``hbar = h0 + sum_t alpha_t h_t``:

* ``merge_task_arithmetic`` (``ta``) — base anchor, coefficient
  ``alpha_t``; negative weights subtract a task.
* ``merge_uncertainty`` (``ours``) — base anchor, coefficient
  ``alpha_t (h0 + h_t) / hbar``.  With identity anchor curvature and
  zero task curvature this is ``ta`` (and with alpha = 1/T the mean).
  On anchored linear regression with exact Hessians it reproduces the
  jointly trained model, and its output is the stationary point of the
  quadratic surrogate objective checked by the oracles module.
* ``merge_fisher`` (``fa``) — coefficient ``alpha_t F_t / (F0 + sum_t
  alpha_t F_t)``: a per-coordinate Fisher-weighted mean.  ``F0`` is the
  anchor Fisher (base anchor) with ``include_anchor``, else 0 (base 0).
* ``merge_average`` — base 0.  Unweighted (``am``): coefficient ``1/T``
  on each task, ignoring the anchor and the weights.  Weighted
  (``wam``): rows ``[anchor; theta_1..theta_T]`` with coefficients
  ``[alpha0; alpha_t]``.
* ``merge_masked`` (``ties``) — base anchor, coefficient ``alpha_t *
  mask_t * agree_t``: only the largest task increments survive, and
  optionally only those agreeing with a per-coordinate sign election.
* ``remove_task`` — one row, coefficient ``-alpha (h0 + h_t) /
  (hbar_minus + delta)``: subtract one task's contribution from a model
  trained on a superset of data.  On anchored linear regression with
  exact curvature this coincides with leave-subset-out retraining.

Degenerate inputs follow one rule across the catalog: a merge of zero
tasks raises :class:`EmptyMergeError`, and a method in
``CURVATURE_METHODS`` raises :class:`MissingCurvatureError` when a
checkpoint it reads has no curvature.
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
    SingularCurvatureError,
)
from .params import Checkpoint, DiagCurvature, ParamVector

__all__ = [
    "MergeInputs",
    "MaskConfig",
    "merge_average",
    "merge_fisher",
    "merge_task_arithmetic",
    "merge_uncertainty",
    "merge_masked",
    "remove_task",
    "merge",
    "merged_checkpoint",
    "ADDITION_METHODS",
    "CURVATURE_METHODS",
]

#: Method registry keys accepted by :func:`merge`.
ADDITION_METHODS = ("am", "wam", "ta", "fa", "ties", "ours")

#: Methods whose merge reads curvature diagonals from the checkpoints.
CURVATURE_METHODS = ("fa", "ours")

#: Methods that read task weights as mixture masses, so reject negative ones.
_NONNEGATIVE_METHODS = ("am", "wam", "fa", "ties")


@dataclass(frozen=True, eq=False)
class MergeInputs:
    """Anchor checkpoint, weighted task checkpoints, and a curvature ridge.

    ``delta`` is added elementwise to the anchor curvature wherever a
    merge uses it, mirroring the ridge used when the anchor was trained.
    Negative task weights are legal at this level; merges that cannot
    interpret them reject them individually.
    """

    anchor: Checkpoint
    tasks: tuple[tuple[float, Checkpoint], ...] = ()
    delta: float = 0.0

    def __post_init__(self):
        tasks = tuple((float(alpha), ckpt) for alpha, ckpt in self.tasks)
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


@dataclass(frozen=True)
class MaskConfig:
    """Sparse-merge settings: fraction of coordinates kept per task, and
    whether conflicting signs are resolved by majority election."""

    keep_fraction: float = 0.2
    elect_sign: bool = False

    def __post_init__(self):
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError("keep_fraction must lie in (0, 1]")


def _stack(inputs: MergeInputs, method: str, anchor_curvature: bool = True):
    """Validate a merge's inputs once and stack the tasks into arrays.

    Returns the task weights as a ``(T, 1)`` column, the task parameters
    ``(T, d)``, and for ``CURVATURE_METHODS`` the task curvatures
    ``(T, d)`` (otherwise ``None``).  ``anchor_curvature`` says whether a
    curvature method also reads the anchor's curvature.
    """
    if not inputs.tasks:
        raise EmptyMergeError(f"{method} needs at least one task checkpoint")
    if method in _NONNEGATIVE_METHODS and any(alpha < 0 for alpha in inputs.alphas):
        raise ConfigError(f"{method} does not accept negative task weights")
    alphas = np.array(inputs.alphas)[:, None]
    thetas = np.stack([ckpt.params.values for _, ckpt in inputs.tasks])
    if method not in CURVATURE_METHODS:
        return alphas, thetas, None
    for i, (_, ckpt) in enumerate(inputs.tasks):
        if ckpt.curvature is None:
            raise MissingCurvatureError(f"{method} needs curvature on every task checkpoint; task {i} has none")
    if anchor_curvature and inputs.anchor.curvature is None:
        raise MissingCurvatureError(f"{method} needs curvature on the anchor checkpoint")
    return alphas, thetas, np.stack([ckpt.curvature.values for _, ckpt in inputs.tasks])


def _require_positive(den: np.ndarray, what: str) -> None:
    if np.any(den <= 0.0):
        raise SingularCurvatureError(f"{what} must be strictly positive elementwise")


def _kernel(layout, base, rows: np.ndarray, coef: np.ndarray) -> ParamVector:
    """``base + sum_k coef_k * (rows_k - base)``: the one merge expression.

    An overflow surfaces as the :class:`NumericError` that
    :class:`ParamVector` raises for non-finite values.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = base + (coef * (rows - base)).sum(axis=0)
    return ParamVector(layout, values)


def merge_average(inputs: MergeInputs, weighted: bool = False, alpha0: float = 0.0) -> ParamVector:
    """Arithmetic mean of task parameters, or a weighted sum with the anchor.

    Unweighted: ignores the anchor and the stored task weights and
    averages the task checkpoints with weight 1/T.  Weighted: ``alpha0 *
    anchor + sum_t alpha_t * theta_t``; the weights are used as given and
    are not renormalized.
    """
    alphas, thetas, _ = _stack(inputs, "wam" if weighted else "am")
    if not weighted:
        return _kernel(inputs.layout, 0.0, thetas, np.full_like(alphas, 1.0 / len(thetas)))
    if alpha0 < 0:
        raise ConfigError("weighted averaging does not accept a negative anchor weight")
    rows = np.vstack([inputs.anchor.params.values, thetas])
    return _kernel(inputs.layout, 0.0, rows, np.vstack([[float(alpha0)], alphas]))


def merge_fisher(inputs: MergeInputs, include_anchor: bool = False) -> ParamVector:
    """Fisher averaging: elementwise curvature-weighted mean of parameters.

    Computes ``(sum_t alpha_t F_t theta_t) / (sum_t alpha_t F_t)``; with
    ``include_anchor`` the anchor joins the mean with weight 1 and its
    own Fisher.
    """
    alphas, thetas, fishers = _stack(inputs, "fa", anchor_curvature=include_anchor)
    weighted = alphas * fishers
    f0, base = 0.0, 0.0
    if include_anchor:
        f0, base = inputs.anchor.curvature.values, inputs.anchor.params.values
    den = f0 + weighted.sum(axis=0)
    _require_positive(den, "pooled Fisher")
    return _kernel(inputs.layout, base, thetas, weighted / den)


def merge_task_arithmetic(inputs: MergeInputs) -> ParamVector:
    """Anchor plus weighted task increments; negative weights subtract."""
    alphas, thetas, _ = _stack(inputs, "ta")
    return _kernel(inputs.layout, inputs.anchor.params.values, thetas, alphas)


def merge_uncertainty(inputs: MergeInputs) -> ParamVector:
    """Curvature-preconditioned merge around the anchor.

    Pools curvature as ``hbar = h0 + sum_t alpha_t h_t`` and moves the
    anchor along each task increment with the per-coordinate factor
    ``alpha_t * (h0 + h_t) / hbar``, where ``h0`` is the anchor curvature
    plus the ridge ``delta``.
    """
    alphas, thetas, curvs = _stack(inputs, "ours")
    h0 = inputs.anchor.curvature.values + inputs.delta
    hbar = h0 + (alphas * curvs).sum(axis=0)
    _require_positive(hbar, "pooled curvature")
    return _kernel(inputs.layout, inputs.anchor.params.values, thetas, alphas * (h0 + curvs) / hbar)


def merge_masked(inputs: MergeInputs, mask_cfg: MaskConfig = MaskConfig()) -> ParamVector:
    """Trim/elect-sign sparse merge.

    Per task, only the ``ceil(keep_fraction * d)`` largest-magnitude
    increment coordinates survive (ties broken toward lower indices), and
    task arithmetic runs on the survivors.  With ``elect_sign``, each
    coordinate first elects a sign by magnitude-weighted majority over
    the masked, weighted increments; contributions disagreeing with the
    elected sign are zeroed.  The election rule is one concrete choice
    among several used in practice and is labeled experimental.
    """
    alphas, thetas, _ = _stack(inputs, "ties")
    anchor = inputs.anchor.params.values
    increments = thetas - anchor
    k = int(math.ceil(mask_cfg.keep_fraction * anchor.size))
    keep = np.argsort(-np.abs(increments), axis=1, kind="stable")[:, :k]
    mask = np.zeros_like(increments)
    np.put_along_axis(mask, keep, 1.0, axis=1)
    coef = alphas * mask
    if mask_cfg.elect_sign:
        contributions = coef * increments
        coef = coef * (np.sign(contributions) == np.sign(contributions.sum(axis=0)))
    return _kernel(inputs.layout, anchor, thetas, coef)


def remove_task(
    anchor: Checkpoint,
    task: tuple[float, Checkpoint],
    hbar_minus: DiagCurvature,
    h0: DiagCurvature,
    delta: float = 0.0,
) -> ParamVector:
    """Subtract one task's contribution from an anchor model.

    ``anchor - alpha * (h0 + h_t) / (hbar_minus + delta) * (theta_t -
    anchor)``, where ``hbar_minus`` is the curvature of the *retained*
    data at the anchor and ``h0`` the penalty diagonal the task model was
    fine-tuned under.  The plain increment-subtraction variant is
    :func:`merge_task_arithmetic` with a negative weight.
    """
    alpha, ckpt = task
    layout = anchor.layout
    if ckpt.layout != layout or hbar_minus.layout != layout or h0.layout != layout:
        raise LayoutError("removal inputs must share the anchor layout")
    if ckpt.curvature is None:
        raise MissingCurvatureError("remove_task needs curvature on the task checkpoint")
    if delta < 0 or not math.isfinite(delta):
        raise ConfigError("delta must be finite and >= 0")
    denom = hbar_minus.values + delta
    _require_positive(denom, "retained-data curvature plus delta")
    coef = -float(alpha) * (h0.values + ckpt.curvature.values) / denom
    return _kernel(layout, anchor.params.values, ckpt.params.values[None], coef[None])


def merge(method: str, inputs: MergeInputs, *, mask: MaskConfig | None = None) -> ParamVector:
    """Dispatch a merge by registry name (see ``ADDITION_METHODS``).

    For ``wam``, the anchor weight is ``max(0, 1 - sum alpha_t)`` so that
    the weights form a convex-style combination around the anchor.
    """
    if method == "am":
        return merge_average(inputs)
    if method == "wam":
        return merge_average(inputs, weighted=True, alpha0=max(0.0, 1.0 - sum(inputs.alphas)))
    if method == "ta":
        return merge_task_arithmetic(inputs)
    if method == "fa":
        return merge_fisher(inputs, include_anchor=True)
    if method == "ties":
        return merge_masked(inputs, mask or MaskConfig())
    if method == "ours":
        return merge_uncertainty(inputs)
    raise ConfigError(f"unknown merge method {method!r}; expected one of {ADDITION_METHODS}")


def merged_checkpoint(
    method: str,
    params: ParamVector,
    alphas,
    anchor_id: str | None = None,
    extra_meta: dict[str, str] | None = None,
) -> Checkpoint:
    """Wrap a merge result as a checkpoint recording method and weights."""
    meta = {"method": method, "alphas": ",".join(repr(float(a)) for a in alphas)}
    meta.update(extra_meta or {})
    return Checkpoint.of(params, anchor_id=anchor_id, meta=meta)
