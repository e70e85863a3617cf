"""Diagonal curvature estimation: empirical Fisher and exact Hessians.

The merging and diagnostics modules consume per-parameter diagonal
curvature for the anchor and for each task model.  Two estimators are
provided:

* :func:`fisher_diag` — empirical Fisher, the sum (or mean) of squared
  per-example gradients evaluated at the observed targets.
* :func:`exact_hessian_diag` — the exact Hessian diagonal, available for
  the two models whose Hessians have a closed form (linear regression:
  ``sum_i x_ij^2``; logistic: ``sum_i s_i (1 - s_i) x_ij^2``).

A small floor is *added* to the Fisher diagonal (not clipped to), which
keeps every entry strictly positive so pooled curvatures stay
invertible; adding a floor behaves better than clipping because it
leaves the relative ordering of large entries untouched while still
regularizing near-zero ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, EmptyDataError, UnsupportedModelError
from .models import ModelSpec, TaskDataset, _per_example_grad_matrix
from .params import DiagCurvature, ParamLayout, ParamVector

__all__ = [
    "FisherConfig",
    "fisher_diag",
    "exact_hessian_diag",
    "anchor_curvature",
]


@dataclass(frozen=True)
class FisherConfig:
    """How to turn squared per-example gradients into a diagonal estimate.

    ``mode`` selects summing or averaging over examples (sum matches a
    summed training loss).  ``delta_floor`` is added elementwise after
    the reduction.  ``max_examples`` truncates to the first k examples in
    dataset order, which makes the estimate deterministic under
    truncation; the default is far above desk scale and exists for
    fidelity with large-corpus practice.
    """

    mode: str = "sum"
    delta_floor: float = 1e-10
    max_examples: int | None = 100_000

    def __post_init__(self):
        if self.mode not in ("sum", "avg"):
            raise ConfigError(f"fisher mode must be 'sum' or 'avg', got {self.mode!r}")
        if not np.isfinite(self.delta_floor) or self.delta_floor < 0:
            raise ConfigError("delta_floor must be finite and >= 0")
        if self.max_examples is not None and int(self.max_examples) < 1:
            raise ConfigError("max_examples must be a positive int or None")


def fisher_diag(
    spec: ModelSpec,
    loss_kind: str,
    theta: ParamVector,
    data: TaskDataset,
    cfg: FisherConfig = FisherConfig(),
) -> DiagCurvature:
    """Empirical Fisher diagonal: reduced squared per-example gradients plus floor."""
    if data.n == 0:
        raise EmptyDataError("cannot estimate a Fisher from an empty dataset")
    k = data.n if cfg.max_examples is None else min(data.n, int(cfg.max_examples))
    subset = data if k == data.n else data.slice(np.arange(k))
    G = _per_example_grad_matrix(spec, loss_kind, theta, subset)
    sq = (G * G).sum(axis=0)
    if cfg.mode == "avg":
        sq /= k
    return DiagCurvature(theta.layout, sq + cfg.delta_floor)


def exact_hessian_diag(
    spec: ModelSpec,
    loss_kind: str,
    theta: ParamVector,
    data: TaskDataset,
) -> DiagCurvature:
    """Exact Hessian diagonal of the summed loss; linear and logistic only."""
    if spec.kind == "mlp":
        raise UnsupportedModelError("exact Hessian diagonals are only available for linear_regression and logistic")
    if theta.layout != spec.layout():
        raise ConfigError("theta layout does not match the model")
    X = data.inputs
    if data.n == 0:
        return DiagCurvature.zeros(spec.layout())
    if spec.kind == "linear_regression":
        diag = np.sum(X * X, axis=0)
    else:
        s = expit(X @ theta.values)
        diag = (s * (1.0 - s)) @ (X * X)
    return DiagCurvature(spec.layout(), diag)


def anchor_curvature(
    source: str,
    *,
    layout: ParamLayout | None = None,
    scale: float | None = None,
    spec: ModelSpec | None = None,
    loss_kind: str | None = None,
    theta: ParamVector | None = None,
    data: TaskDataset | None = None,
    cfg: FisherConfig | None = None,
) -> DiagCurvature:
    """Anchor curvature from one of three sources.

    ``identity`` needs ``layout`` and a strictly positive ``scale`` and
    covers the case where no anchor data is available; ``fisher`` and
    ``exact`` delegate to the corresponding estimator and need ``spec``,
    ``loss_kind``, ``theta``, and ``data`` (plus ``cfg`` for fisher).
    """
    if source == "identity":
        if layout is None:
            raise ConfigError("identity curvature needs an explicit layout")
        if scale is None or not scale > 0:
            raise ConfigError("identity curvature needs a strictly positive scale")
        return DiagCurvature.constant(layout, float(scale))
    if source in ("fisher", "exact"):
        if spec is None or loss_kind is None or theta is None or data is None:
            raise ConfigError(f"{source} curvature needs spec, loss_kind, theta, and data")
        if source == "fisher":
            return fisher_diag(spec, loss_kind, theta, data, cfg or FisherConfig())
        return exact_hessian_diag(spec, loss_kind, theta, data)
    raise ConfigError(f"unknown curvature source {source!r}; expected identity, fisher, or exact")
