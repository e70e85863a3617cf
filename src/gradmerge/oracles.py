"""Independent ground-truth computations for validating merges and removals.

Every oracle here recomputes its answer through a numerical path that the
tested modules do not use: the joint solve stacks rows into one
least-squares problem handled by SVD, the influence oracle factorizes
dense normal matrices with Cholesky, and gradients are formed inline
rather than through the model zoo.  Keeping the paths disjoint means an
agreement between module and oracle is evidence, not circularity.  The
joint solve and the surrogate check take the :class:`MergeInputs` of the
merge they check, and form the penalty ``h0 + delta`` from it inline; the
joint solve reads only the anchor, the penalty and the task weights, never
the task checkpoints.  The fixtures hand out the same type: a merge or
removal fixture holds the ``MergeInputs`` it checks, and
:func:`map_fixture` returns one bare.  Both solves run on NumPy's LAPACK
bindings: ``np.linalg.lstsq`` (the SVD-based ``gelsd`` driver) for the
joint solve and ``np.linalg.cholesky`` for the normal matrices, so the
oracles load no SciPy.

The randomized suite draws features from a standard normal and targets
from a planted coefficient vector plus noise with standard deviation
0.1.  Fixtures that feed diagonal-curvature code paths orthogonalize the
feature columns first (otherwise a diagonal curvature cannot represent
the exact Hessian and none of the exactness identities can hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import (
    ConfigError,
    MissingCurvatureError,
    NumericError,
    SingularCurvatureError,
    SingularSystemError,
)
from .merging import MergeInputs, merge_uncertainty, remove_task
from .models import TaskDataset
from .params import Checkpoint, DiagCurvature, ParamLayout, ParamVector

__all__ = [
    "OracleResult",
    "joint_closed_form_oracle",
    "influence_oracle",
    "MergeFixture",
    "RemovalFixture",
    "linear_merge_fixture",
    "run_oracle_suite",
    "oracle_table_csv",
    "oracle_summary",
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
    abs_err: float
    rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.abs_err <= self.tolerance or self.rel_err <= self.tolerance

    @classmethod
    def compare(cls, name: str, reference, produced, tolerance: float) -> "OracleResult":
        ref, got = _flat(reference), _flat(produced)
        abs_err = float(np.max(np.abs(ref - got))) if ref.size else 0.0
        denom = float(np.max(np.abs(ref))) if ref.size else 0.0
        rel_err = abs_err / denom if denom > 0.0 else math.inf
        return cls(name, abs_err, rel_err, float(tolerance))


@cache
def _vector_layout(d: int) -> ParamLayout:
    return ParamLayout([("w", (d,))])


def joint_closed_form_oracle(inputs: MergeInputs, datasets: list[TaskDataset]) -> ParamVector:
    """Exact anchored least-squares solution via one stacked SVD solve.

    The joint target of the merge ``inputs``: its anchor, penalty ``h0 +
    delta`` and task weights, with task t trained on ``datasets[t]``; the
    task checkpoints are never read.  The weighted task losses and the
    anchor penalty are rewritten as a single tall least-squares system and
    solved with an SVD-based routine; no normal equations are formed, so
    the path shares nothing with the training module's direct solver.
    """
    alphas = inputs.alphas
    if len(datasets) != len(alphas):
        raise ConfigError("datasets and task weights must have equal length")
    if any(a < 0 for a in alphas):
        raise ConfigError("oracle weights must be >= 0")
    if inputs.anchor.curvature is None:
        raise MissingCurvatureError("the joint oracle needs curvature on the anchor checkpoint")
    layout = inputs.layout
    d = layout.total_len
    sqrt_pen = np.sqrt(inputs.anchor.curvature.values + inputs.delta)
    blocks = [np.diag(sqrt_pen)]
    rhs = [sqrt_pen * inputs.anchor.params.values]
    for alpha, data in zip(alphas, datasets):
        if alpha == 0.0:
            continue
        if data.n_features != d:
            raise ConfigError("dataset width does not match the anchor layout")
        root = math.sqrt(float(alpha))
        blocks.append(root * data.inputs)
        rhs.append(root * data.targets)
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    solution, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < d:
        raise SingularSystemError("stacked system is rank deficient; add data or a ridge")
    return ParamVector(layout, solution)


def _cholesky_solve(M: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve ``M x = rhs`` for symmetric positive definite ``M`` via ``L L^T``."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} is not positive definite") from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


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
    ridge = delta * np.eye(full_data.n_features)
    keep = np.ones(full_data.n, dtype=bool)
    keep[idx] = False
    theta_full = _cholesky_solve(X.T @ X + ridge, X.T @ y, "normal matrix")
    Xk, yk = X[keep], y[keep]
    Xr, yr = X[idx], y[idx]
    # Retrain and one-shot right-hand sides share the retained factor.
    rhs = np.column_stack([Xk.T @ yk, Xr.T @ (Xr @ theta_full - yr)])
    sol = _cholesky_solve(Xk.T @ Xk + ridge, rhs, "retained normal matrix")
    return theta_full + sol[:, 1], sol[:, 0]


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


def map_surrogate_check(inputs: MergeInputs, candidate: ParamVector) -> float:
    """Gradient norm of the pooled quadratic surrogate at a candidate.

    The surrogate keeps the anchor penalty ``h0 + delta`` (the anchor
    checkpoint's curvature plus ``inputs.delta``) with weight ``1 -
    sum(alpha)`` and adds each task's local quadratic, with curvature
    ``h0 + delta + h_t``, with weight ``alpha_t``; its gradient is zero
    exactly at the preconditioned merge output.
    """
    if any(ckpt.curvature is None for ckpt in (inputs.anchor, *(ckpt for _, ckpt in inputs.tasks))):
        raise MissingCurvatureError("the surrogate check needs curvature on the anchor and every task checkpoint")
    c = candidate.values
    a = inputs.anchor.params.values
    h0 = inputs.anchor.curvature.values + inputs.delta
    g = (1.0 - sum(inputs.alphas)) * h0 * (c - a)
    for alpha, ckpt in inputs.tasks:
        g = g + alpha * (h0 + ckpt.curvature.values) * (c - ckpt.params.values)
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
    if (denom <= 0.0).any():
        raise SingularCurvatureError("retained curvature plus delta must be strictly positive")
    X, y = task_data.inputs, task_data.targets
    g = X.T @ (X @ anchor.values - y)
    return ParamVector(anchor.layout, anchor.values + g / denom)


# ---------------------------------------------------------------------------
# Randomized fixtures


@dataclass(frozen=True, eq=False)
class MergeFixture:
    """Linear-regression merge inputs with exactly diagonal task Hessians (``delta`` 0),
    and in ``datasets[t]`` the training data of task t."""

    inputs: MergeInputs
    datasets: tuple[TaskDataset, ...]


@dataclass(frozen=True, eq=False)
class RemovalFixture:
    """Ridge-trained base model plus one removable data block.

    ``inputs`` holds the removal: its anchor checkpoint carries the pooled
    data curvature ``h_keep + h_drop``, its one task (weight 1) was
    fine-tuned under that plus ``inputs.delta``, and ``hbar_minus`` is
    the kept block's curvature.
    """

    inputs: MergeInputs
    full_data: TaskDataset
    removed: tuple[int, ...]
    removed_data: TaskDataset
    hbar_minus: DiagCurvature


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
    tasks, datasets = [], []
    for t in range(T):
        n = d + int(rng.integers(2, 30))
        data = random_linear_dataset(rng, d, n, orthogonal=True, task_id=f"task{t}", seed=seed)
        ht = np.einsum("ij,ij->j", data.inputs, data.inputs)
        theta_t = (h0 * a + data.inputs.T @ data.targets) / (h0 + ht)
        alpha = float(rng.uniform(0.3, 1.0))
        tasks.append(
            (alpha, Checkpoint(ParamVector(layout, theta_t), curvature=DiagCurvature(layout, ht)))
        )
        datasets.append(data)
    anchor = Checkpoint(ParamVector(layout, a), curvature=DiagCurvature(layout, h0))
    return MergeFixture(inputs=MergeInputs(anchor, tuple(tasks)), datasets=tuple(datasets))


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
    penalty = delta + h_keep + h_drop
    theta_t = (penalty * theta_llm + drop.inputs.T @ drop.targets) / (penalty + h_drop)
    full = TaskDataset(
        task_id="full",
        inputs=np.vstack([keep.inputs, drop.inputs]),
        targets=np.concatenate([keep.targets, drop.targets]),
        seed=seed,
    )
    removed = tuple(range(n_keep, n_keep + n_drop))
    anchor = Checkpoint(ParamVector(layout, theta_llm), curvature=DiagCurvature(layout, h_keep + h_drop))
    task = Checkpoint(ParamVector(layout, theta_t), curvature=DiagCurvature(layout, h_drop))
    return RemovalFixture(
        inputs=MergeInputs(anchor, ((1.0, task),), delta),
        full_data=full,
        removed=removed,
        removed_data=drop,
        hbar_minus=DiagCurvature(layout, h_keep),
    )


def map_fixture(rng: np.random.Generator) -> MergeInputs:
    """Random positive-curvature merge inputs (``delta`` 0) for the surrogate-gradient check."""
    d = int(rng.integers(1, 11))
    T = int(rng.integers(1, 5))
    layout = _vector_layout(d)
    anchor = Checkpoint(ParamVector(layout, rng.standard_normal(d)), DiagCurvature(layout, rng.uniform(0.3, 2.5, size=d)))
    tasks = tuple(
        (
            float(rng.uniform(0.2, 1.0)),
            Checkpoint(ParamVector(layout, rng.standard_normal(d)), DiagCurvature(layout, rng.uniform(0.1, 3.0, size=d))),
        )
        for _ in range(T)
    )
    return MergeInputs(anchor, tasks)


def run_oracle_suite(seed: int = 0, n_fixtures: int = 50) -> list[OracleResult]:
    """Randomized agreement checks between modules and oracles.

    Four families, ``n_fixtures`` draws each: preconditioned merge vs the
    stacked joint solve; one-shot removal vs retrain inside the influence
    oracle; the removal update vs the retrain and vs the gradient-at-
    anchor variant; and the surrogate-gradient norm at the merge output,
    under a ridge ``delta`` drawn from {0, 0.1, 1} per fixture.  All
    fixtures derive from the single seed, which callers should log.
    """
    if n_fixtures < 1:
        raise ConfigError(f"a suite of zero checks proves nothing: n_fixtures must be >= 1, got {n_fixtures}")
    rng = np.random.default_rng(seed)
    results = []
    for i in range(n_fixtures):
        fix = linear_merge_fixture(rng, seed=seed)
        merged = merge_uncertainty(fix.inputs)
        joint = joint_closed_form_oracle(fix.inputs, list(fix.datasets))
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
        removed_model = remove_task(fix.inputs, fix.hbar_minus)
        retrain = influence_oracle(fix.full_data, list(fix.removed), fix.inputs.delta)
        results.append(OracleResult.compare(f"removal-retrain-{i:02d}", retrain, removed_model, 1e-9))
        grad_form = alt_removal_oracle(fix.inputs.anchor.params, fix.removed_data, fix.inputs.delta, fix.hbar_minus)
        results.append(OracleResult.compare(f"removal-grad-{i:02d}", grad_form, removed_model, 1e-9))
    for i in range(n_fixtures):
        inputs = replace(map_fixture(rng), delta=float(rng.choice([0.0, 0.1, 1.0])))
        candidate = merge_uncertainty(inputs)
        norm = map_surrogate_check(inputs, candidate)
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
