"""Diagonal curvature estimation: empirical Fisher and exact Hessians.

The merging and diagnostics modules consume per-parameter diagonal
curvature for the anchor and for each task model.  Two estimators are
provided; a :class:`TaskDataset` always has data, so neither has an
empty case:

* :func:`fisher_diag` — empirical Fisher, the sum of squared per-example
  gradients evaluated at the observed targets: the same scale as the
  summed losses the fits minimize.
* :func:`exact_hessian_diag` — the exact Hessian diagonal, available for
  the two models whose Hessians have a closed form (linear regression:
  ``sum_i x_ij^2``; logistic: ``sum_i s_i (1 - s_i) x_ij^2``).

A fixed floor, :data:`FISHER_FLOOR`, is *added* to the Fisher diagonal
(not clipped to), which keeps every entry strictly positive so pooled
curvatures stay invertible; adding a floor behaves better than clipping
because it leaves the relative ordering of large entries untouched while
still regularizing near-zero ones.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedModelError
from .models import ModelSpec, TaskDataset, _check_inputs, _sigmoid, per_example_grads
from .params import DiagCurvature, ParamVector

__all__ = [
    "fisher_diag",
    "exact_hessian_diag",
]

#: Added elementwise to every empirical Fisher diagonal.
FISHER_FLOOR = 1e-10


def fisher_diag(spec: ModelSpec, theta: ParamVector, data: TaskDataset) -> DiagCurvature:
    """Empirical Fisher diagonal: summed squared per-example gradients plus :data:`FISHER_FLOOR`."""
    G = per_example_grads(spec, theta, data)  # a fresh array, so it is squared in place
    return DiagCurvature(theta.layout, np.square(G, out=G).sum(axis=0) + FISHER_FLOOR)


def exact_hessian_diag(spec: ModelSpec, theta: ParamVector, data: TaskDataset) -> DiagCurvature:
    """Exact Hessian diagonal of the summed loss; linear and logistic only."""
    if spec.kind == "mlp":
        raise UnsupportedModelError("exact Hessian diagonals are only available for linear_regression and logistic")
    _check_inputs(spec, theta, data)
    X = data.inputs
    if spec.kind == "linear_regression":
        diag = np.sum(X * X, axis=0)
    else:
        s = _sigmoid(X @ theta.values)
        diag = (s * (1.0 - s)) @ (X * X)
    return DiagCurvature(spec.layout(), diag)
