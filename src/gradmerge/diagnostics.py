"""Merging-error diagnostics built on gradient differences.

The error of a merged model against the jointly trained target can be
rewritten, for anchored objectives, as a curvature-weighted sum of
gradient differences between the target and the task models.  This
module computes those differences, checks the rewriting numerically, and
tabulates how well the gradient-difference norm tracks actual test-loss
degradation across merge methods.

A fixture holds the :class:`~gradmerge.merging.MergeInputs` of the
merges it scores: the anchor, its penalty ``h0 + delta`` and the task
weights are read from them, as the merge reads them.  A candidate is one
merged parameter vector, scored against the fixture's target; the caller
merges it, so the table scores the very merges a protocol evaluated.
Everything here is evaluation-only: nothing merges or trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LayoutError, SingularCurvatureError
from .merging import MergeInputs
from .models import ModelSpec, TaskDataset, grad, loss
from .params import ParamVector, anchor_penalty

__all__ = [
    "MismatchReport",
    "MismatchRow",
    "DiagnosticFixture",
    "verify_identity",
    "mismatch_report",
    "mismatch_vs_error_table",
    "mismatch_table_csv",
]

#: Column order of the diagnostic table CSV.
MISMATCH_TABLE_HEADER = (
    "method,fixture,task_id,mismatch_l2,error_l2,identity_residual,"
    "test_loss_delta_exact,test_loss_delta_fo"
)


@dataclass(frozen=True)
class MismatchReport:
    """Gradient-difference summary for one merged candidate.

    ``per_task`` holds the L2 norm of the gradient difference between the
    target and the candidate on each task's training data;
    ``total_weighted_norm`` is their task-weighted sum; ``error_norm`` is
    the L2 parameter-space distance to the target; ``identity_residual``
    is the rewriting check of :func:`verify_identity` for the fixture the
    report came from.
    """

    per_task: tuple[tuple[str, float], ...]
    total_weighted_norm: float
    error_norm: float
    identity_residual: float

    def __post_init__(self):
        norms = [n for _, n in self.per_task] + [
            self.total_weighted_norm,
            self.error_norm,
            self.identity_residual,
        ]
        if any(not np.isfinite(n) or n < 0 for n in norms):
            raise ConfigError("report norms must be finite and >= 0")


@dataclass(frozen=True)
class MismatchRow:
    """One CSV row of :func:`mismatch_vs_error_table`."""

    method: str
    fixture: str
    task_id: str
    mismatch_l2: float
    error_l2: float
    identity_residual: float
    test_loss_delta_exact: float
    test_loss_delta_fo: float

    def __post_init__(self):
        if any(not np.isfinite(n) or n < 0 for n in (self.mismatch_l2, self.error_l2, self.identity_residual)):
            raise ConfigError("report norms must be finite and >= 0")

    def as_csv(self) -> str:
        values = (self.mismatch_l2, self.error_l2, self.identity_residual, self.test_loss_delta_exact, self.test_loss_delta_fo)
        return ",".join([self.method, self.fixture, self.task_id] + [repr(float(v)) for v in values])


@dataclass(frozen=True, eq=False)
class DiagnosticFixture:
    """Everything needed to score merge methods on one problem instance.

    ``inputs`` is the merge being scored, and ``splits`` holds per task the
    training split the gradients are measured on and a held-out split for
    loss deltas.  ``target`` is the jointly trained reference model.
    """

    name: str
    spec: ModelSpec
    inputs: MergeInputs
    target: ParamVector
    splits: tuple[tuple[TaskDataset, TaskDataset], ...]

    def __post_init__(self):
        layout = self.spec.layout()
        if self.target.layout != layout or self.inputs.layout != layout:
            raise LayoutError("fixture target and merge inputs must match the model layout")
        if len(self.splits) != len(self.inputs.tasks):
            raise ConfigError(f"fixture has {len(self.inputs.tasks)} tasks but {len(self.splits)} (train, test) splits")


def _mismatch(spec: ModelSpec, target_grad: np.ndarray, theta: ParamVector, data: TaskDataset) -> np.ndarray:
    """``grad(target) - grad(theta)`` on ``data``, given the target's gradient there.

    Refuses a difference that overflowed (``NumericError``, from
    :class:`ParamVector`).
    """
    return ParamVector(theta.layout, target_grad - grad(spec, theta, data).values).values


def verify_identity(
    inputs: MergeInputs,
    target: ParamVector,
    datasets: list[TaskDataset],
    spec: ModelSpec,
    target_grads: list[np.ndarray] | None = None,
) -> float:
    """Max-norm residual of the error-rewriting identity.

    Checks that the target's distance from the plain increment merge is
    accounted for by penalty-preconditioned gradient differences:

        target - [a + sum_t alpha_t (theta_t - a)]
            + sum_t alpha_t (h0 + delta)^-1 [grad_t(target) - grad_t(theta_t)]

    is zero whenever target and every task model are exactly stationary
    for their anchored objectives.  The anchor, ``h0 + delta``, the
    weights ``alpha_t`` and the task models ``theta_t`` come from
    ``inputs``; task t was trained on ``datasets[t]``.  For approximately
    trained models the residual is bounded by
    :func:`identity_residual_bound`.  ``target_grads`` holds
    ``grad_t(target)`` per task when the caller already has them.
    """
    h0eff = anchor_penalty(inputs.anchor, inputs.delta)
    if (h0eff <= 0.0).any():
        raise SingularCurvatureError("anchor penalty diagonal must be strictly positive")
    if target_grads is None:
        target_grads = [grad(spec, target, data).values for data in datasets]
    a = inputs.anchor.params.values
    residual = target.values - a
    for (alpha, ckpt), data, g in zip(inputs.tasks, datasets, target_grads, strict=True):
        residual = residual - alpha * (ckpt.params.values - a)
        residual = residual + alpha * _mismatch(spec, g, ckpt.params, data) / h0eff
    return float(np.max(np.abs(residual)))


def identity_residual_bound(inputs: MergeInputs, joint_residual: float, task_residuals: list[float]) -> float:
    """Upper bound on the identity residual from training tolerances.

    The residual vector equals the inverse penalty diagonal applied to
    the joint stationarity defect minus the weighted task defects, so its
    max norm is at most the summed defect norms divided by the smallest
    penalty entry.  The penalty and the weights are those of ``inputs``,
    and ``task_residuals`` has one entry per task.  The bound holds for
    the residual in exact arithmetic; it has no rounding term, so once the
    fits are stationary to rounding level, both sides are rounding noise.
    """
    alphas = inputs.alphas
    if len(task_residuals) != len(alphas):
        raise ConfigError("task_residuals and the merge's tasks must have equal length")
    h_min = float(np.min(anchor_penalty(inputs.anchor, inputs.delta)))
    if h_min <= 0.0:
        raise SingularCurvatureError("anchor penalty diagonal must be strictly positive")
    total = float(joint_residual) + sum(
        abs(float(a)) * float(r) for a, r in zip(alphas, task_residuals)
    )
    return total / h_min


def mismatch_report(fixture: DiagnosticFixture, merged: ParamVector) -> MismatchReport:
    """Score one merged candidate against the fixture's target: its rows of :func:`mismatch_vs_error_table`."""
    rows = mismatch_vs_error_table(fixture, {"candidate": merged})
    total = 0.0
    for alpha, row in zip(fixture.inputs.alphas, rows):
        total += abs(alpha) * row.mismatch_l2
    per_task = tuple((row.task_id, row.mismatch_l2) for row in rows)
    return MismatchReport(per_task, total, rows[0].error_l2, rows[0].identity_residual)


def mismatch_vs_error_table(fixture: DiagnosticFixture, candidates: dict[str, ParamVector]) -> list[MismatchRow]:
    """Per-(candidate, task) table of gradient mismatch vs actual error.

    ``candidates`` maps each method name to its merged parameters, and
    rows come out in that order, then in task order.  The target side
    (the identity residual, the target's training gradients and its
    held-out losses) is evaluated once per call.  The two loss-gap
    columns are ``loss(target) - loss(merged)`` on each held-out split
    and its first-order estimate ``grad(merged)^T (target - merged)``.
    """
    spec, target = fixture.spec, fixture.target
    trains = [train for train, _ in fixture.splits]
    target_grads = [grad(spec, target, train).values for train in trains]
    residual = verify_identity(fixture.inputs, target, trains, spec, target_grads)
    target_losses = [loss(spec, target, test) for _, test in fixture.splits]
    rows = []
    for method, merged in candidates.items():
        mismatches = [_mismatch(spec, g, merged, train) for g, train in zip(target_grads, trains)]
        error = float(np.linalg.norm(target.values - merged.values))
        for (train, test), mm, target_loss in zip(fixture.splits, mismatches, target_losses):
            rows.append(
                MismatchRow(
                    method=method,
                    fixture=fixture.name,
                    task_id=train.task_id,
                    mismatch_l2=float(np.linalg.norm(mm)),
                    error_l2=error,
                    identity_residual=residual,
                    test_loss_delta_exact=float(target_loss - loss(spec, merged, test)),
                    test_loss_delta_fo=float(grad(spec, merged, test).values @ (target.values - merged.values)),
                )
            )
    return rows


def mismatch_table_csv(rows: list[MismatchRow]) -> str:
    """Render table rows as CSV text with a fixed header and newline endings."""
    lines = [MISMATCH_TABLE_HEADER]
    lines += [row.as_csv() for row in rows]
    return "\n".join(lines) + "\n"
