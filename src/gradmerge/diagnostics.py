"""Merging-error diagnostics built on gradient differences.

The error of a merged model against the jointly trained target can be
rewritten, for anchored objectives, as a curvature-weighted sum of
gradient differences between the target and the task models.  This
module computes those differences, checks the rewriting numerically, and
tabulates how well the gradient-difference norm tracks actual test-loss
degradation across merge methods.

Everything here is evaluation-only: targets and task models must be
supplied by the caller, and no function trains anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LayoutError, SingularCurvatureError
from .merging import MergeInputs, merge
from .models import ModelSpec, TaskDataset, grad, loss
from .params import Checkpoint, ParamVector
from .training import QuadraticAnchor

__all__ = [
    "MismatchReport",
    "MismatchRow",
    "DiagnosticFixture",
    "gradient_mismatch",
    "verify_identity",
    "identity_residual_bound",
    "test_loss_delta",
    "mismatch_report",
    "mismatch_vs_error_table",
    "mismatch_table_csv",
    "MISMATCH_TABLE_HEADER",
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

    def as_csv(self) -> str:
        values = (self.mismatch_l2, self.error_l2, self.identity_residual, self.test_loss_delta_exact, self.test_loss_delta_fo)
        return ",".join([self.method, self.fixture, self.task_id] + [repr(float(v)) for v in values])


@dataclass(frozen=True, eq=False)
class DiagnosticFixture:
    """Everything needed to score merge methods on one problem instance.

    ``tasks`` holds, per task, the merge weight, the task checkpoint
    (parameters plus curvature for the curvature-aware methods), the
    training split the gradients are measured on, and a held-out split
    for loss deltas.  ``target`` is the jointly trained reference model.
    """

    name: str
    spec: ModelSpec
    loss_kind: str
    anchor: QuadraticAnchor
    target: ParamVector
    tasks: tuple[tuple[float, Checkpoint, TaskDataset, TaskDataset], ...]

    def __post_init__(self):
        layout = self.spec.layout()
        if self.target.layout != layout or self.anchor.anchor.layout != layout:
            raise LayoutError("fixture target and anchor must match the model layout")
        for _, ckpt, _, _ in self.tasks:
            if ckpt.layout != layout:
                raise LayoutError("fixture task checkpoints must match the model layout")

    def merge_inputs(self) -> MergeInputs:
        anchor_ckpt = Checkpoint.of(self.anchor.anchor, curvature=self.anchor.h0)
        return MergeInputs(
            anchor=anchor_ckpt,
            tasks=tuple((alpha, ckpt) for alpha, ckpt, _, _ in self.tasks),
            delta=self.anchor.delta,
        )


def gradient_mismatch(
    spec: ModelSpec,
    loss_kind: str,
    target: ParamVector,
    task_theta: ParamVector,
    data: TaskDataset,
) -> ParamVector:
    """Difference of summed-loss gradients between two parameter points.

    Returns ``grad(target) - grad(task_theta)`` on ``data``; callers
    report its L2 norm.  For squared-error losses this equals the Hessian
    times the parameter difference, so it doubles as an exact curvature
    probe.
    """
    g_target = grad(spec, loss_kind, target, data)
    g_task = grad(spec, loss_kind, task_theta, data)
    return ParamVector(target.layout, g_target.values - g_task.values)


def verify_identity(
    anchor: QuadraticAnchor,
    target: ParamVector,
    tasks: list[tuple[float, ParamVector, TaskDataset]],
    spec: ModelSpec,
    loss_kind: str,
) -> float:
    """Max-norm residual of the error-rewriting identity.

    Checks that the target's distance from the plain increment merge is
    accounted for by penalty-preconditioned gradient differences:

        target - [a + sum_t alpha_t (theta_t - a)]
            + sum_t alpha_t (h0 + delta)^-1 [grad_t(target) - grad_t(theta_t)]

    is zero whenever target and every task model are exactly stationary
    for their anchored objectives.  For approximately trained models the
    residual is bounded by :func:`identity_residual_bound`.
    """
    if not tasks:
        raise ConfigError("the identity needs at least one task")
    h0eff = anchor.effective_diag
    if (h0eff <= 0.0).any():
        raise SingularCurvatureError("anchor penalty diagonal must be strictly positive")
    a = anchor.anchor.values
    residual = target.values - a
    for alpha, theta_t, data in tasks:
        residual = residual - float(alpha) * (theta_t.values - a)
        mm = gradient_mismatch(spec, loss_kind, target, theta_t, data)
        residual = residual + float(alpha) * mm.values / h0eff
    return float(np.max(np.abs(residual)))


def identity_residual_bound(
    anchor: QuadraticAnchor,
    joint_residual: float,
    task_residuals: list[float],
    alphas: list[float],
) -> float:
    """Upper bound on the identity residual from training tolerances.

    The residual vector equals the inverse penalty diagonal applied to
    the joint stationarity defect minus the weighted task defects, so its
    max norm is at most the summed defect norms divided by the smallest
    penalty entry.  The bound holds for the residual in exact arithmetic;
    it has no rounding term, so once the fits are stationary to rounding
    level, both sides are rounding noise.
    """
    if len(task_residuals) != len(alphas):
        raise ConfigError("task_residuals and alphas must have equal length")
    h_min = float(np.min(anchor.effective_diag))
    if h_min <= 0.0:
        raise SingularCurvatureError("anchor penalty diagonal must be strictly positive")
    total = float(joint_residual) + sum(
        abs(float(a)) * float(r) for a, r in zip(alphas, task_residuals)
    )
    return total / h_min


def test_loss_delta(
    spec: ModelSpec,
    loss_kind: str,
    target: ParamVector,
    merged: ParamVector,
    test_data: TaskDataset,
) -> tuple[float, float]:
    """Held-out loss gap between target and merged, exact and linearized.

    Returns ``(loss(target) - loss(merged), grad(merged)^T (target -
    merged))``; the second is the first-order estimate of the first and
    the two agree when the models are close.
    """
    exact = loss(spec, loss_kind, target, test_data) - loss(spec, loss_kind, merged, test_data)
    g = grad(spec, loss_kind, merged, test_data)
    first_order = float(g.values @ (target.values - merged.values))
    return float(exact), first_order


def mismatch_report(fixture: DiagnosticFixture, merged: ParamVector) -> MismatchReport:
    """Score one merged candidate against the fixture's target."""
    return _mismatch_report(fixture, merged, _identity_residual(fixture))


def _identity_residual(fixture: DiagnosticFixture) -> float:
    """:func:`verify_identity` on the fixture's tasks: one value per fixture, whatever the merge."""
    tasks = [(alpha, ckpt.params, train) for alpha, ckpt, train, _ in fixture.tasks]
    return verify_identity(fixture.anchor, fixture.target, tasks, fixture.spec, fixture.loss_kind)


def _mismatch_report(fixture: DiagnosticFixture, merged: ParamVector, residual: float) -> MismatchReport:
    per_task = []
    total = 0.0
    for alpha, _, train, _ in fixture.tasks:
        mm = gradient_mismatch(fixture.spec, fixture.loss_kind, fixture.target, merged, train)
        norm = float(np.linalg.norm(mm.values))
        per_task.append((train.task_id, norm))
        total += abs(float(alpha)) * norm
    return MismatchReport(
        per_task=tuple(per_task),
        total_weighted_norm=total,
        error_norm=float(np.linalg.norm(fixture.target.values - merged.values)),
        identity_residual=residual,
    )


def mismatch_vs_error_table(methods: list[str], fixtures: list[DiagnosticFixture]) -> list[MismatchRow]:
    """Flat per-(method, fixture, task) table of mismatch vs actual error.

    Rows come out in deterministic method-major, fixture-minor, task
    order; an empty fixture list yields an empty table.  Each fixture's
    identity residual is computed once, at its first merge.
    """
    rows = []
    residuals: dict[int, float] = {}
    for method in methods:
        for i, fixture in enumerate(fixtures):
            merged = merge(method, fixture.merge_inputs())
            if i not in residuals:
                residuals[i] = _identity_residual(fixture)
            report = _mismatch_report(fixture, merged, residuals[i])
            for (alpha, _, train, test), (task_id, norm) in zip(fixture.tasks, report.per_task):
                exact, first_order = test_loss_delta(
                    fixture.spec, fixture.loss_kind, fixture.target, merged, test
                )
                rows.append(
                    MismatchRow(
                        method=method,
                        fixture=fixture.name,
                        task_id=task_id,
                        mismatch_l2=norm,
                        error_l2=report.error_norm,
                        identity_residual=report.identity_residual,
                        test_loss_delta_exact=exact,
                        test_loss_delta_fo=first_order,
                    )
                )
    return rows


def mismatch_table_csv(rows: list[MismatchRow]) -> str:
    """Render table rows as CSV text with a fixed header and newline endings."""
    lines = [MISMATCH_TABLE_HEADER]
    lines += [row.as_csv() for row in rows]
    return "\n".join(lines) + "\n"
