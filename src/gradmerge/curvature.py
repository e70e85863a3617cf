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
from .models import ModelSpec, TaskDataset, _check_inputs, per_example_grads
from .params import DiagCurvature, ParamVector

__all__ = [
    "FisherConfig",
    "fisher_diag",
    "exact_hessian_diag",
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
        if self.max_examples is not None and self.max_examples < 1:
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
    k = data.n if cfg.max_examples is None else min(data.n, cfg.max_examples)
    subset = data if k == data.n else data.slice(np.arange(k))
    G = per_example_grads(spec, loss_kind, theta, subset)
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
    _check_inputs(spec, loss_kind, theta, data)
    X = data.inputs
    if data.n == 0:
        return DiagCurvature.zeros(spec.layout())
    if spec.kind == "linear_regression":
        diag = np.sum(X * X, axis=0)
    else:
        s = expit(X @ theta.values)
        diag = (s * (1.0 - s)) @ (X * X)
    return DiagCurvature(spec.layout(), diag)
