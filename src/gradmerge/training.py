"""Anchored training: base models, per-task fine-tunes, and joint targets.

Three objectives are supported, all over the summed per-example loss
``L(theta) = sum_i l_i(theta)``:

* base/anchor training:   ``L(theta) + (delta/2) ||theta||^2``
* fine-tuning:            ``L_t(theta) + (1/2) ||theta - a||^2_{H0 + delta}``
* joint target:           ``sum_t alpha_t L_t(theta) + (1/2) ||theta - a||^2_{H0 + delta}``

where the anchored quadratic penalty uses a diagonal scaling matrix
(a Mahalanobis distance to the anchor ``a``).  Downstream identities in
the merging and diagnostics modules assume the returned parameters are
(approximately) stationary points of these objectives, so convergence is
expressed as a stationarity-residual bound rather than an epoch count.

The linear and logistic objectives are strictly convex once the penalty
is positive, and at desk scale their dense ``(d, d)`` Hessian is cheap to
form exactly, so they are solved directly: linear regression by one
normal-equation solve (:func:`closed_form_solve`), logistic regression by
damped Newton on ``sum_t alpha_t X_t^T diag(s (1 - s)) X_t + diag(h0 +
delta)``.  Neither needs SciPy.  The MLP objective is not convex, and the
minimum found depends on the path: an MLP fit first runs Adam, with the
quadratic penalty applied *decoupled* from the adaptive preconditioner
(the AdamW treatment of its L2 term), and SciPy's L-BFGS-B then polishes
the full objective until a step no longer lowers it by a representable
amount, which meets the stationarity gate.  The polish does not single
out one minimizer: where the objective is flat to about 1e-8 of its
value, the last bits of the gradient decide where it stops, so a
rounding change in the kernel can move an MLP fit's parameters by O(1)
at an equal objective value.

A fit checks its datasets once and stacks its live tasks into one row
block ``(X, y, w)``, each row weighted by its task's alpha, before its
first step; every evaluation of the data term is then one call to the
kernel ``models._value_grad`` on the flat ``(d,)`` parameter array, and
Adam minibatches index the block's rows.  Every fit ends in the same
stationarity gate, which goes through the public, checked ``grad``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    LayoutError,
    SingularSystemError,
    check_field_types,
)
from .models import ModelSpec, TaskDataset, _check_data, _sigmoid, _value_grad, grad, loss
from .params import Checkpoint, DiagCurvature, ParamLayout, ParamVector

__all__ = [
    "TrainConfig",
    "QuadraticAnchor",
    "train_anchor",
    "finetune_task",
    "train_joint_target",
    "closed_form_solve",
    "adam_decoupled_minimize",
    "anchored_objective",
    "stationarity_residual",
]

#: Residual bound factor accepted by the trainers: the L2 norm of the
#: full-objective gradient at the returned theta must be at most
#: RESIDUAL_TOL * (1 + ||theta||).
RESIDUAL_TOL = 1e-4

#: Newton stops at the first iterate whose full-objective gradient norm is
#: at most NEWTON_TOL * (1 + ||theta||): far inside RESIDUAL_TOL, and short
#: of the rounding noise a further step would chase.
NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    """Adam hyperparameters; defaults follow common Adam practice.

    They govern only the Adam warm start of MLP fits.  Linear and logistic
    fits are convex and solved exactly (normal equations, damped Newton),
    so these fields do not change their result (``seed`` and ``epochs``
    are still recorded in the checkpoint metadata).
    """

    lr: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 200
    batch_size: int | str = "full"
    grad_clip_norm: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not self.lr > 0:
            raise ConfigError("lr must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1/beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ConfigError("eps must be > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size != "full" and (isinstance(self.batch_size, str) or self.batch_size < 1):
            raise ConfigError("batch_size must be a positive int or 'full'")
        if self.grad_clip_norm is not None and not self.grad_clip_norm > 0:
            raise ConfigError("grad_clip_norm must be > 0 when set")


@dataclass(frozen=True, eq=False)
class QuadraticAnchor:
    """Anchor point plus diagonal penalty scaling and ridge strength."""

    anchor: ParamVector
    h0: DiagCurvature
    delta: float = 0.0

    def __post_init__(self):
        if self.h0.layout != self.anchor.layout:
            raise LayoutError("anchor and h0 must share one layout")
        if self.delta < 0:
            raise ConfigError("delta must be >= 0")

    @property
    def effective_diag(self) -> np.ndarray:
        """Elementwise penalty diagonal, ``h0 + delta``."""
        return self.h0.values + self.delta

    @classmethod
    def ridge_only(cls, layout: ParamLayout, delta: float) -> "QuadraticAnchor":
        """Plain ridge toward the origin: anchor 0, h0 = 0, given delta."""
        return cls(ParamVector.zeros(layout), DiagCurvature.zeros(layout), delta)


def _weighted_tasks(datasets, alphas):
    """(alpha, data) pairs that contribute to ``sum_t alpha_t * L_t``."""
    return [(alpha, data) for alpha, data in zip(alphas, datasets) if alpha != 0.0 and data.n]


def _rows(spec, datasets, alphas):
    """The row block ``(X, y, w)`` of ``sum_t alpha_t * L_t``: live tasks' rows, weighted by alpha."""
    live = _weighted_tasks(datasets, alphas)
    X = np.concatenate([np.zeros((0, spec.n_features))] + [data.inputs for _, data in live])
    y = np.concatenate([np.zeros(0)] + [data.targets for _, data in live])
    return X, y, np.concatenate([np.zeros(0)] + [np.full(data.n, alpha) for alpha, data in live])


def anchored_objective(spec, loss_kind, datasets, alphas, anchor: QuadraticAnchor, theta: ParamVector) -> float:
    """Full objective value: weighted data losses plus the anchored penalty."""
    value = 0.0
    for alpha, data in _weighted_tasks(datasets, alphas):
        value += alpha * loss(spec, loss_kind, theta, data, "sum")
    diff = theta.values - anchor.anchor.values
    return float(value + 0.5 * np.sum(anchor.effective_diag * diff * diff))


def stationarity_residual(spec, loss_kind, datasets, alphas, anchor: QuadraticAnchor, theta: ParamVector) -> float:
    """L2 norm of the full-objective gradient at theta.

    Built from the public :func:`grad`, so the trainers' final gate is an
    independent check on the fused evaluation they optimize with.
    """
    g = np.zeros(theta.layout.total_len)
    for alpha, data in _weighted_tasks(datasets, alphas):
        g += alpha * grad(spec, loss_kind, theta, data, "sum").values
    g = g + anchor.effective_diag * (theta.values - anchor.anchor.values)
    return float(np.linalg.norm(g))


def adam_decoupled_minimize(
    data_value_grad,
    x0: np.ndarray,
    cfg: TrainConfig,
    anchor: QuadraticAnchor,
    n_examples: int = 0,
) -> np.ndarray:
    """Adam loop with the quadratic penalty applied outside the preconditioner.

    ``data_value_grad(theta, idx)`` must return the value and gradient of
    the data term restricted to example indices ``idx`` (``None`` for the
    full dataset), scaled so that the full-index call matches the summed
    objective.  The penalty is applied directly to the update, not fed
    through the Adam moments, using its proximal (implicit) form: after
    the gradient step, ``theta <- theta - f * (theta - a)`` with
    ``f = lr*reg / (1 + lr*reg)``.  For small ``lr*reg`` this matches the
    explicit decoupled step to first order, and it is stable for any
    penalty strength; a step on zero data loss therefore always moves
    each coordinate with positive penalty strictly toward the anchor,
    never past it.  A step that leaves a non-finite iterate, as a
    non-finite gradient does, raises :class:`DivergenceError`.
    """
    theta = np.array(x0, dtype=np.float64)
    reg = anchor.effective_diag
    a = anchor.anchor.values
    shrink = cfg.lr * reg / (1.0 + cfg.lr * reg)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    rng = np.random.default_rng(cfg.seed)
    full = cfg.batch_size == "full" or n_examples == 0 or cfg.batch_size >= n_examples
    for _ in range(cfg.epochs):
        if full:
            batches = [None]
        else:
            order = rng.permutation(n_examples)
            bs = cfg.batch_size
            batches = [order[i : i + bs] for i in range(0, n_examples, bs)]
        for idx in batches:
            _, g = data_value_grad(theta, idx)
            if idx is not None and len(idx):
                g = g * (n_examples / len(idx))
            if cfg.grad_clip_norm is not None:
                norm = float(np.linalg.norm(g))
                if norm > cfg.grad_clip_norm:
                    g = g * (cfg.grad_clip_norm / norm)
            step += 1
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            mhat = m / (1 - cfg.beta1**step)
            vhat = v / (1 - cfg.beta2**step)
            theta = theta - cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
            theta = theta - shrink * (theta - a)
            if not np.all(np.isfinite(theta)):
                raise DivergenceError("training iterate became non-finite")
    return theta


def _logistic_hessian(X, w, reg, theta_values):
    """Dense Hessian of the anchored logistic objective at ``theta_values``.

    The data term is formed as ``Xs^T Xs`` with rows scaled by
    ``sqrt(w s (1 - s))``, which NumPy computes as one symmetric rank-k
    update at half the cost of a general product (weights are >= 0).
    """
    s = _sigmoid(X @ theta_values)
    Xs = X * np.sqrt(w * s * (1.0 - s))[:, None]
    return np.diag(reg) + Xs.T @ Xs


def _newton(value_grad, hessian, theta):
    """Damped Newton for a strictly convex objective.

    Each step solves ``H p = -g`` and backtracks by halving.  While the
    predicted decrease ``g^T H^{-1} g`` is resolvable in the objective's
    value, a step must pass the Armijo test; below about
    ``1e-12 (1 + |f|)`` the summed loss cannot tell a better point from a
    worse one, and a step is accepted only if it lowers the gradient norm.
    Stops at the first iterate meeting :data:`NEWTON_TOL`.  A step that
    finds no acceptable point ends the loop, and the caller's
    stationarity gate judges where it stopped.
    """
    f, g = value_grad(theta)
    for _ in range(50):
        g_norm = np.linalg.norm(g)
        if g_norm <= NEWTON_TOL * (1.0 + np.linalg.norm(theta)):
            break
        try:
            step = np.linalg.solve(hessian(theta), -g)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"Newton system is singular: {exc}") from exc
        decrease = -float(g @ step)
        resolvable = decrease > 1e-12 * (1.0 + abs(f))
        t = 1.0
        for _ in range(60):
            trial = theta + t * step
            f_trial, g_trial = value_grad(trial)
            if (f_trial <= f - 1e-4 * t * decrease) if resolvable else (np.linalg.norm(g_trial) < g_norm):
                break
            t *= 0.5
        else:
            break
        theta, f, g = trial, f_trial, g_trial
    return theta


def _fit(
    spec: ModelSpec,
    loss_kind: str,
    datasets: list[TaskDataset],
    alphas: list[float],
    anchor: QuadraticAnchor,
    cfg: TrainConfig,
    x0: np.ndarray,
) -> ParamVector:
    if anchor.anchor.layout != spec.layout():
        raise LayoutError("anchor layout does not match the model")
    for data in datasets:
        _check_data(spec, loss_kind, data)
    X, y, w = _rows(spec, datasets, alphas)
    a = anchor.anchor.values
    reg = anchor.effective_diag

    def full_value_grad(theta_values):
        value, g = _value_grad(spec, loss_kind, theta_values, X, y, w)
        diff = theta_values - a
        return value + 0.5 * np.sum(reg * diff * diff), g + reg * diff

    if spec.kind == "linear_regression":
        theta = closed_form_solve(datasets, alphas, anchor).values
    elif spec.kind == "logistic":
        theta = _newton(full_value_grad, lambda th: _logistic_hessian(X, w, reg, th), x0)
    else:
        # Nonconvex: the Adam path decides which local minimum L-BFGS-B
        # refines.  Only this branch needs SciPy, so it imports it here.
        from scipy.optimize import minimize

        def data_value_grad(theta_values, idx):
            rows = (X, y, w) if idx is None else (X[idx], y[idx], w[idx])
            return _value_grad(spec, loss_kind, theta_values, *rows)

        # Minibatching shuffles indices of a single dataset; multi-dataset
        # objectives (the joint target) always run full-batch.
        n_examples = len(y) if len(datasets) == 1 else 0
        theta = adam_decoupled_minimize(data_value_grad, x0, cfg, anchor, n_examples)
        options = {"maxiter": 5000, "maxcor": 30, "ftol": 1e-18, "gtol": 1e-14}
        theta = minimize(full_value_grad, theta, jac=True, method="L-BFGS-B", options=options).x
    out = ParamVector(spec.layout(), theta)
    residual = stationarity_residual(spec, loss_kind, datasets, alphas, anchor, out)
    bound = RESIDUAL_TOL * (1.0 + float(np.linalg.norm(theta)))
    if residual > bound:
        raise DivergenceError(
            f"training failed to reach stationarity: residual {residual:.3e} > bound {bound:.3e}"
        )
    return out


def _init_theta(spec: ModelSpec, cfg: TrainConfig, at: np.ndarray | None) -> np.ndarray:
    layout = spec.layout()
    if at is not None:
        return np.array(at, dtype=np.float64)
    if spec.kind == "mlp":
        # Zero init is a symmetric saddle for an MLP; break it with a
        # small seeded Gaussian.
        rng = np.random.default_rng(cfg.seed)
        return 0.1 * rng.standard_normal(layout.total_len)
    return np.zeros(layout.total_len)


def _meta(cfg: TrainConfig, objective: str, delta: float, spec: ModelSpec, loss_kind: str) -> dict[str, str]:
    return {
        "objective": objective,
        "seed": str(cfg.seed),
        "epochs": str(cfg.epochs),
        "delta": repr(float(delta)),
        "model": spec.kind,
        "loss": loss_kind,
    }


def train_anchor(
    spec: ModelSpec,
    loss_kind: str,
    data: TaskDataset,
    delta: float,
    cfg: TrainConfig,
) -> Checkpoint:
    """Train a base model: summed loss plus ``(delta/2) ||theta||^2``."""
    if delta < 0:
        raise ConfigError("delta must be >= 0")
    anchor = QuadraticAnchor.ridge_only(spec.layout(), delta)
    theta = _fit(spec, loss_kind, [data], [1.0], anchor, cfg, _init_theta(spec, cfg, None))
    return Checkpoint.of(theta, meta=_meta(cfg, "anchor", delta, spec, loss_kind))


def finetune_task(
    spec: ModelSpec,
    loss_kind: str,
    data: TaskDataset,
    anchor: QuadraticAnchor,
    cfg: TrainConfig,
    anchor_id: str | None = None,
) -> Checkpoint:
    """Fine-tune from an anchor under its quadratic penalty.

    The returned parameters approximately satisfy the stationarity
    condition ``(h0 + delta) * (theta - a) = -grad L_t(theta)``,
    with residual norm at most ``1e-4 * (1 + ||theta||)``.
    """
    theta = _fit(spec, loss_kind, [data], [1.0], anchor, cfg, _init_theta(spec, cfg, anchor.anchor.values))
    return Checkpoint.of(
        theta, anchor_id=anchor_id, meta=_meta(cfg, "finetune", anchor.delta, spec, loss_kind)
    )


def train_joint_target(
    spec: ModelSpec,
    loss_kind: str,
    datasets: list[TaskDataset],
    alphas: list[float],
    anchor: QuadraticAnchor,
    cfg: TrainConfig,
    anchor_id: str | None = None,
) -> Checkpoint:
    """Train the joint target: ``sum_t alpha_t L_t`` plus the anchored penalty."""
    if len(datasets) != len(alphas):
        raise ConfigError("datasets and alphas must have equal length")
    if any(a < 0 for a in alphas):
        raise ConfigError("joint-target alphas must be >= 0")
    theta = _fit(
        spec, loss_kind, list(datasets), [float(a) for a in alphas], anchor, cfg,
        _init_theta(spec, cfg, anchor.anchor.values),
    )
    return Checkpoint.of(
        theta, anchor_id=anchor_id, meta=_meta(cfg, "joint_target", anchor.delta, spec, loss_kind)
    )


def closed_form_solve(
    datasets: list[TaskDataset],
    alphas: list[float],
    anchor: QuadraticAnchor,
) -> ParamVector:
    """Exact anchored least-squares solve (linear regression only).

    Solves the normal equations

        (sum_t alpha_t X_t^T X_t + diag(h0 + delta)) theta
            = sum_t alpha_t X_t^T y_t + diag(h0 + delta) a

    with a direct dense solve, and verifies the solution satisfies them
    to a 1e-9 relative residual.
    """
    if len(datasets) != len(alphas):
        raise ConfigError("datasets and alphas must have equal length")
    layout = anchor.anchor.layout
    d = layout.total_len
    A = np.diag(anchor.effective_diag.copy())
    b = anchor.effective_diag * anchor.anchor.values
    for alpha, data in zip(alphas, datasets):
        if data.n == 0:
            continue
        if data.n_features != d:
            raise LayoutError("dataset width does not match the anchor layout")
        X, y = data.inputs, data.targets
        A += float(alpha) * (X.T @ X)
        b += float(alpha) * (X.T @ y)
    try:
        theta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"normal equations are singular: {exc}") from exc
    residual = float(np.linalg.norm(A @ theta - b))
    if not np.all(np.isfinite(theta)) or residual > 1e-9 * (1.0 + float(np.linalg.norm(b))):
        raise SingularSystemError(
            f"normal-equation solve is unreliable (residual {residual:.3e}); "
            "the system is singular or too ill-conditioned"
        )
    return ParamVector(layout, theta)
