"""Independent ground-truth computations for validating merges and removals.

Every oracle here recomputes its answer through a numerical path that the
tested modules do not use: the joint solve stacks rows into one
least-squares problem handled by SVD, the influence oracle factorizes
dense normal matrices with Cholesky, and gradients are formed inline
rather than through the model zoo.  Keeping the paths disjoint means an
agreement between module and oracle is evidence, not circularity.

The randomized suite draws features from a standard normal and targets
from a planted coefficient vector plus noise with standard deviation
0.1.  Fixtures that feed diagonal-curvature code paths orthogonalize the
feature columns first (otherwise a diagonal curvature cannot represent
the exact Hessian and none of the exactness identities can hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .errors import (
    ConfigError,
    NumericError,
    SingularCurvatureError,
    SingularSystemError,
)
from .merging import MergeInputs, merge_uncertainty, remove_task
from .models import TaskDataset
from .params import Checkpoint, DiagCurvature, ParamLayout, ParamVector
from .training import QuadraticAnchor

__all__ = [
    "OracleResult",
    "joint_closed_form_oracle",
    "influence_oracle",
    "map_surrogate_check",
    "alt_removal_oracle",
    "MergeFixture",
    "RemovalFixture",
    "MapFixture",
    "random_linear_dataset",
    "linear_merge_fixture",
    "linear_removal_fixture",
    "map_fixture",
    "run_oracle_suite",
    "oracle_table_csv",
    "oracle_summary",
    "ORACLE_TABLE_HEADER",
]

ORACLE_TABLE_HEADER = "name,status,abs_err,rel_err,tolerance"


def _flat(value) -> np.ndarray:
    if isinstance(value, ParamVector):
        return value.values
    return np.atleast_1d(np.asarray(value, dtype=float))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one reference-vs-produced comparison.

    ``passed`` is true exactly when the absolute or the relative error is
    within ``tolerance``; the relative error is infinite when the
    reference is identically zero.
    """

    name: str
    reference: object
    produced: object
    abs_err: float
    rel_err: float
    passed: bool
    tolerance: float

    def __post_init__(self):
        ok = self.abs_err <= self.tolerance or self.rel_err <= self.tolerance
        if self.passed != ok:
            raise ConfigError("passed flag must match the error/tolerance comparison")

    @classmethod
    def compare(cls, name: str, reference, produced, tolerance: float) -> "OracleResult":
        ref, got = _flat(reference), _flat(produced)
        abs_err = float(np.max(np.abs(ref - got))) if ref.size else 0.0
        denom = float(np.max(np.abs(ref))) if ref.size else 0.0
        rel_err = abs_err / denom if denom > 0.0 else math.inf
        passed = abs_err <= tolerance or rel_err <= tolerance
        return cls(
            name=name,
            reference=reference,
            produced=produced,
            abs_err=abs_err,
            rel_err=rel_err,
            passed=passed,
            tolerance=float(tolerance),
        )


def _vector_layout(d: int) -> ParamLayout:
    return ParamLayout([("w", (d,))])


def joint_closed_form_oracle(
    datasets: list[TaskDataset], alphas: list[float], anchor: QuadraticAnchor
) -> ParamVector:
    """Exact anchored least-squares solution via one stacked SVD solve.

    The weighted task losses and the anchor penalty are rewritten as a
    single tall least-squares system and solved with an SVD-based
    routine; no normal equations are formed, so the path shares nothing
    with the training module's direct solver.
    """
    if len(datasets) != len(alphas):
        raise ConfigError("datasets and alphas must have equal length")
    if any(a < 0 for a in alphas):
        raise ConfigError("oracle weights must be >= 0")
    layout = anchor.anchor.layout
    d = layout.total_len
    sqrt_pen = np.sqrt(anchor.effective_diag)
    blocks = [np.diag(sqrt_pen)]
    rhs = [sqrt_pen * anchor.anchor.values]
    for alpha, data in zip(alphas, datasets):
        if data.n == 0 or alpha == 0.0:
            continue
        if data.n_features != d:
            raise ConfigError("dataset width does not match the anchor layout")
        root = math.sqrt(float(alpha))
        blocks.append(root * data.inputs)
        rhs.append(root * data.targets)
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    solution, _, rank, _ = sla.lstsq(A, b)
    if rank < d:
        raise SingularSystemError("stacked system is rank deficient; add data or a ridge")
    return ParamVector(layout, solution)


def _ridge_solve(X: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
    d = X.shape[1]
    try:
        factor = sla.cho_factor(X.T @ X + delta * np.eye(d))
    except sla.LinAlgError as exc:
        raise SingularSystemError("normal matrix is not positive definite") from exc
    return sla.cho_solve(factor, X.T @ y)


def _influence_pair(
    full_data: TaskDataset, removed: list[int], delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot update and exact retrain after deleting the given rows."""
    idx = np.asarray(sorted(set(int(i) for i in removed)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= full_data.n):
        raise ConfigError("removed indices out of range")
    if len(idx) != len(removed):
        raise ConfigError("removed indices must be unique")
    X, y = full_data.inputs, full_data.targets
    d = full_data.n_features
    keep = np.setdiff1d(np.arange(full_data.n), idx)
    theta_full = _ridge_solve(X, y, delta)
    Xk, yk = X[keep], y[keep]
    Xr, yr = X[idx], y[idx]
    try:
        factor = sla.cho_factor(Xk.T @ Xk + delta * np.eye(d))
    except sla.LinAlgError as exc:
        raise SingularSystemError("retained normal matrix is not positive definite") from exc
    retrain = sla.cho_solve(factor, Xk.T @ yk)
    if idx.size:
        one_shot = theta_full + sla.cho_solve(factor, Xr.T @ (Xr @ theta_full - yr))
    else:
        one_shot = theta_full
    return one_shot, retrain


def influence_oracle(full_data: TaskDataset, removed: list[int], delta: float) -> ParamVector:
    """Exact ridge retrain after deleting rows, cross-checked two ways.

    Computes both the one-shot update from the full-data solution and a
    from-scratch retrain on the surviving rows, requires them to agree to
    1e-9 (they must, for quadratics), and returns the retrain.
    """
    if delta < 0:
        raise ConfigError("delta must be >= 0")
    one_shot, retrain = _influence_pair(full_data, removed, delta)
    gap = float(np.max(np.abs(one_shot - retrain))) if retrain.size else 0.0
    if gap > 1e-9:
        raise NumericError(
            f"one-shot removal and retrain disagree by {gap:.3e}; system too ill-conditioned"
        )
    return ParamVector(_vector_layout(full_data.n_features), retrain)


def map_surrogate_check(
    anchor: ParamVector,
    h0: DiagCurvature,
    tasks: list[tuple[float, ParamVector, DiagCurvature]],
    candidate: ParamVector,
) -> float:
    """Gradient norm of the pooled quadratic surrogate at a candidate.

    The surrogate keeps the anchor penalty with weight ``1 - sum(alpha)``
    and adds each task's local quadratic with weight ``alpha_t``; its
    gradient is zero exactly at the preconditioned merge output.
    """
    c = candidate.values
    a = anchor.values
    total = sum(float(alpha) for alpha, _, _ in tasks)
    g = (1.0 - total) * h0.values * (c - a)
    for alpha, theta_t, ht in tasks:
        g = g + float(alpha) * (h0.values + ht.values) * (c - theta_t.values)
    return float(np.linalg.norm(g))


def alt_removal_oracle(
    anchor: ParamVector, task_data: TaskDataset, delta: float, hbar_minus: DiagCurvature
) -> ParamVector:
    """Removal via the summed gradient at the anchor.

    ``anchor + (hbar_minus + delta)^-1 X^T (X anchor - y)`` — adding back
    the deleted data's pull on the anchor, scaled by the retained
    curvature.  The sign is positive: the deleted loss used to pull the
    anchor toward its data, so undoing it moves along the residual
    direction, which the retrain oracle confirms.
    """
    if hbar_minus.layout != anchor.layout:
        raise ConfigError("hbar_minus layout does not match the anchor")
    denom = hbar_minus.values + float(delta)
    if np.any(denom <= 0.0):
        raise SingularCurvatureError("retained curvature plus delta must be strictly positive")
    X, y = task_data.inputs, task_data.targets
    g = X.T @ (X @ anchor.values - y)
    return ParamVector(anchor.layout, anchor.values + g / denom)


# ---------------------------------------------------------------------------
# Randomized fixtures


@dataclass(frozen=True, eq=False)
class MergeFixture:
    """Linear-regression merge problem with exactly diagonal task Hessians."""

    inputs: MergeInputs
    datasets: tuple[TaskDataset, ...]
    alphas: tuple[float, ...]
    quad: QuadraticAnchor


@dataclass(frozen=True, eq=False)
class RemovalFixture:
    """Ridge-trained base model plus one removable data block."""

    anchor: Checkpoint
    task: tuple[float, Checkpoint]
    full_data: TaskDataset
    removed: tuple[int, ...]
    removed_data: TaskDataset
    hbar_minus: DiagCurvature
    h0: DiagCurvature
    delta: float


@dataclass(frozen=True, eq=False)
class MapFixture:
    """Random positive-curvature inputs for the surrogate-gradient check."""

    anchor: ParamVector
    h0: DiagCurvature
    tasks: tuple[tuple[float, ParamVector, DiagCurvature], ...]
    inputs: MergeInputs


def random_linear_dataset(
    rng: np.random.Generator,
    d: int,
    n: int,
    orthogonal: bool = False,
    task_id: str = "task",
    seed: int = 0,
) -> TaskDataset:
    """Planted-coefficient regression data with optional orthogonal columns."""
    X = rng.standard_normal((n, d))
    if orthogonal:
        q, _ = np.linalg.qr(X)
        X = q[:, :d] * rng.uniform(0.5, 2.0, size=d)
    theta_star = rng.standard_normal(d)
    y = X @ theta_star + 0.1 * rng.standard_normal(n)
    return TaskDataset(task_id=task_id, inputs=X, targets=y, seed=seed)


def linear_merge_fixture(rng: np.random.Generator, seed: int = 0) -> MergeFixture:
    """Random anchored merge problem where the preconditioned merge is exact."""
    d = int(rng.integers(1, 11))
    T = int(rng.integers(2, 6))
    layout = _vector_layout(d)
    a = rng.standard_normal(d)
    h0 = rng.uniform(0.5, 2.0, size=d)
    tasks, datasets, alphas = [], [], []
    for t in range(T):
        n = d + int(rng.integers(2, 30))
        data = random_linear_dataset(rng, d, n, orthogonal=True, task_id=f"task{t}", seed=seed)
        ht = np.einsum("ij,ij->j", data.inputs, data.inputs)
        theta_t = (h0 * a + data.inputs.T @ data.targets) / (h0 + ht)
        alpha = float(rng.uniform(0.3, 1.0))
        tasks.append(
            (alpha, Checkpoint.of(ParamVector(layout, theta_t), curvature=DiagCurvature(layout, ht)))
        )
        datasets.append(data)
        alphas.append(alpha)
    anchor_vec = ParamVector(layout, a)
    h0_diag = DiagCurvature(layout, h0)
    inputs = MergeInputs(
        anchor=Checkpoint.of(anchor_vec, curvature=h0_diag), tasks=tuple(tasks)
    )
    return MergeFixture(
        inputs=inputs,
        datasets=tuple(datasets),
        alphas=tuple(alphas),
        quad=QuadraticAnchor(anchor=anchor_vec, h0=h0_diag, delta=0.0),
    )


def linear_removal_fixture(rng: np.random.Generator, seed: int = 0) -> RemovalFixture:
    """Random removal problem whose curvatures are exactly diagonal.

    The kept and removed blocks are orthogonalized separately so both
    block Hessians (and the ridge-trained full Hessian) stay diagonal;
    the fine-tuned per-block model then satisfies its stationarity
    condition in closed form.
    """
    d = int(rng.integers(1, 11))
    delta = float(rng.choice([0.1, 1.0, 10.0]))
    layout = _vector_layout(d)
    n_keep = d + int(rng.integers(2, 45))
    n_drop = d + int(rng.integers(2, 45))
    keep = random_linear_dataset(rng, d, n_keep, orthogonal=True, task_id="kept", seed=seed)
    drop = random_linear_dataset(rng, d, n_drop, orthogonal=True, task_id="removed", seed=seed)
    h_keep = np.einsum("ij,ij->j", keep.inputs, keep.inputs)
    h_drop = np.einsum("ij,ij->j", drop.inputs, drop.inputs)
    pooled_rhs = keep.inputs.T @ keep.targets + drop.inputs.T @ drop.targets
    theta_llm = pooled_rhs / (delta + h_keep + h_drop)
    h0 = delta + h_keep + h_drop
    theta_t = (h0 * theta_llm + drop.inputs.T @ drop.targets) / (h0 + h_drop)
    full = TaskDataset(
        task_id="full",
        inputs=np.vstack([keep.inputs, drop.inputs]),
        targets=np.concatenate([keep.targets, drop.targets]),
        seed=seed,
    )
    removed = tuple(range(n_keep, n_keep + n_drop))
    return RemovalFixture(
        anchor=Checkpoint.of(ParamVector(layout, theta_llm)),
        task=(
            1.0,
            Checkpoint.of(ParamVector(layout, theta_t), curvature=DiagCurvature(layout, h_drop)),
        ),
        full_data=full,
        removed=removed,
        removed_data=drop,
        hbar_minus=DiagCurvature(layout, h_keep),
        h0=DiagCurvature(layout, h0),
        delta=delta,
    )


def map_fixture(rng: np.random.Generator) -> MapFixture:
    """Random strictly positive curvatures and task parameters."""
    d = int(rng.integers(1, 11))
    T = int(rng.integers(1, 5))
    layout = _vector_layout(d)
    anchor = ParamVector(layout, rng.standard_normal(d))
    h0 = DiagCurvature(layout, rng.uniform(0.3, 2.5, size=d))
    tasks = tuple(
        (
            float(rng.uniform(0.2, 1.0)),
            ParamVector(layout, rng.standard_normal(d)),
            DiagCurvature(layout, rng.uniform(0.1, 3.0, size=d)),
        )
        for _ in range(T)
    )
    inputs = MergeInputs(
        anchor=Checkpoint.of(anchor, curvature=h0),
        tasks=tuple((alpha, Checkpoint.of(theta, curvature=ht)) for alpha, theta, ht in tasks),
    )
    return MapFixture(anchor=anchor, h0=h0, tasks=tasks, inputs=inputs)


def run_oracle_suite(seed: int = 0, n_fixtures: int = 50) -> list[OracleResult]:
    """Randomized agreement checks between modules and oracles.

    Four families, ``n_fixtures`` draws each: preconditioned merge vs the
    stacked joint solve; one-shot removal vs retrain inside the influence
    oracle; the removal update vs the retrain and vs the gradient-at-
    anchor variant; and the surrogate-gradient norm at the merge output.
    All fixtures derive from the single seed, which callers should log.
    """
    if n_fixtures < 1:
        raise ConfigError(f"a suite of zero checks proves nothing: n_fixtures must be >= 1, got {n_fixtures}")
    rng = np.random.default_rng(seed)
    results = []
    for i in range(n_fixtures):
        fix = linear_merge_fixture(rng, seed=seed)
        merged = merge_uncertainty(fix.inputs)
        joint = joint_closed_form_oracle(list(fix.datasets), list(fix.alphas), fix.quad)
        results.append(OracleResult.compare(f"merge-joint-{i:02d}", joint, merged, 1e-9))
    for i in range(n_fixtures):
        d = int(rng.integers(1, 11))
        n = d + int(rng.integers(2, 90))
        delta = float(rng.choice([0.1, 1.0, 10.0]))
        data = random_linear_dataset(rng, d, n, task_id="full", seed=seed)
        removed = [int(j) for j in rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)]
        one_shot, retrain = _influence_pair(data, removed, delta)
        results.append(OracleResult.compare(f"influence-self-{i:02d}", retrain, one_shot, 1e-9))
    for i in range(n_fixtures):
        fix = linear_removal_fixture(rng, seed=seed)
        removed_model = remove_task(fix.anchor, fix.task, fix.hbar_minus, fix.h0, fix.delta)
        retrain = influence_oracle(fix.full_data, list(fix.removed), fix.delta)
        results.append(OracleResult.compare(f"removal-retrain-{i:02d}", retrain, removed_model, 1e-9))
        grad_form = alt_removal_oracle(
            fix.anchor.params, fix.removed_data, fix.delta, fix.hbar_minus
        )
        results.append(OracleResult.compare(f"removal-grad-{i:02d}", grad_form, removed_model, 1e-9))
    for i in range(n_fixtures):
        fix = map_fixture(rng)
        candidate = merge_uncertainty(fix.inputs)
        norm = map_surrogate_check(fix.anchor, fix.h0, list(fix.tasks), candidate)
        tol = 1e-9 * (1.0 + float(np.linalg.norm(candidate.values)))
        results.append(OracleResult.compare(f"map-grad-{i:02d}", 0.0, norm, tol))
    return results


def oracle_table_csv(results: list[OracleResult]) -> str:
    lines = [ORACLE_TABLE_HEADER]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name},{status},{r.abs_err!r},{r.rel_err!r},{r.tolerance!r}"
        )
    return "\n".join(lines) + "\n"


def oracle_summary(results: list[OracleResult]) -> str:
    failed = [r for r in results if not r.passed]
    lines = [f"oracle suite: {len(results)} checks, {len(results) - len(failed)} passed, {len(failed)} failed"]
    for r in failed:
        lines.append(f"  FAIL {r.name}: abs_err={r.abs_err:.3e} tol={r.tolerance:.3e}")
    return "\n".join(lines) + "\n"
