"""Anchored training: base models, per-task fine-tunes, and joint targets.

Three objectives are supported, all over the summed per-example loss
``L(theta) = sum_i l_i(theta)`` of the model kind (``ModelSpec.loss``):

* base/anchor training:   ``L(theta) + (delta/2) ||theta||^2``
* fine-tuning:            ``L_t(theta) + (1/2) ||theta - a||^2_{H0 + delta}``
* joint target:           ``sum_t alpha_t L_t(theta) + (1/2) ||theta - a||^2_{H0 + delta}``

where the anchored quadratic penalty uses a diagonal scaling matrix
(a Mahalanobis distance to the anchor ``a``).  Every trainer takes the
anchor as a checkpoint plus ``delta``: ``a`` is its parameters and
``H0`` its curvature (:func:`~gradmerge.params.anchor_penalty`); base
training is the same objective toward a zero checkpoint with zero
curvature.  Downstream identities in the merging and diagnostics modules
assume the returned parameters are (approximately) stationary points of
these objectives, so convergence is expressed as a stationarity-residual
bound rather than an epoch count.

The linear and logistic objectives are strictly convex once the penalty
is positive, and at desk scale their dense ``(d, d)`` Hessian is cheap to
form exactly, so they are solved directly: linear regression by one
normal-equation solve (:func:`closed_form_solve`), logistic regression by
damped Newton on ``sum_t alpha_t X_t^T diag(s (1 - s)) X_t + diag(h0 +
delta)``.  The MLP objective is not convex, and the minimum found depends
on the path: an MLP fit first runs Adam, with the quadratic penalty
applied *decoupled* from the adaptive preconditioner (the AdamW
treatment of its L2 term), for :data:`ADAM_EPOCHS` steps from a random
init (the anchor, and the removal retrain) but :data:`WARM_START_EPOCHS`
from the anchor (a fine-tune or a joint target, whose basin the anchor
already picked; their later epochs saved Newton no work), and the same
Newton loop then refines the point Adam reached, on the exact Hessian
(``models._hessian``: the Gauss-Newton part plus the residual term).  Where that Hessian is
indefinite the step uses the magnitudes of its eigenvalues, and next to
a saddle, where the value can no longer rank such steps, the loop moves
along the negative curvature instead of converging onto the saddle.
No fit needs SciPy.

A fit checks its datasets once.  A linear fit then goes straight to the
closed-form solve, which loops over the datasets itself; an iterative
fit stacks its live tasks into one row block ``(X, y, w)``, each row
weighted by its task's alpha, before its first step.  Every evaluation
of the data term is then one kernel call on the flat ``(d,)`` parameter
array, over the whole block: Adam runs full-batch on the gradient alone
(``models._grad``), and Newton on ``models._value_grad`` and
``models._hessian``.  A Newton step's Hessian reuses the forward pass of
the value/gradient evaluation at the same iterate, output sigmoid
included, so each iterate evaluates it once, and the block's data-only
products (``models._HessianRows``), which the fit builds once.  The
loop's bookkeeping avoids NumPy's Python wrappers, with the same bits: a
norm is ``math.sqrt(v @ v)``, which is ``np.linalg.norm(v)`` for a 1-D
float64 ``v``, a sum is the array's ``sum()`` method, and the penalty is
added to H's diagonal through a strided view.  Every fit ends in the
same stationarity gate, which goes through the public, checked ``grad``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    LayoutError,
    SingularSystemError,
)
# ``loss`` is unused here but stays importable: ``perfbench/spans.py`` wraps it on this module.
from .models import ModelSpec, TaskDataset, _check_data, _grad, _hessian, _HessianRows, _value_grad, grad, loss  # noqa: F401
from .params import Checkpoint, DiagCurvature, ParamVector, anchor_penalty

__all__ = [
    "train_anchor",
    "finetune_task",
    "train_joint_target",
    "task_weight",
    "adam_decoupled_minimize",
]

#: Residual bound factor accepted by the trainers: the L2 norm of the
#: full-objective gradient at the returned theta must be at most
#: RESIDUAL_TOL * (1 + ||theta||).
RESIDUAL_TOL = 1e-4

#: Newton stops at the first iterate whose full-objective gradient norm is
#: at most NEWTON_TOL * (1 + ||theta||): far inside RESIDUAL_TOL, and short
#: of the rounding noise a further step would chase.
NEWTON_TOL = 1e-10

#: Newton steps allowed per fit.  Convex fits take about 10.  MLP fits,
#: starting where Adam stopped, take a median of 12 and at most 111 (one
#: fit over 100) over the 576 fits of seeds 0-95 of the mlp-report config.
NEWTON_MAX_ITER = 200

#: Halvings a Newton step tries, backtracking or moving along negative curvature, before it gives up.
NEWTON_MAX_HALVINGS = 60

#: Longest step an MLP Newton iteration tries, in parameter units.  Longer
#: steps on an indefinite model can carry a fine-tune out of the basin
#: Adam chose, far from the anchor, where the merge's quadratic picture
#: fails (uncut, one seed of the mlp-report config lost 32 points of merge
#: accuracy); at 0.25 some fits need more than NEWTON_MAX_ITER steps.
MLP_MAX_STEP = 0.5


#: Adam's step size, moment decay rates and denominator guard, which
#: follow common Adam practice.  Only the Adam phase of MLP fits reads them.
ADAM_LR = 0.05
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Adam epochs of an MLP fit from a random init (the anchor, and the
#: removal retrain).  Linear and logistic fits run no Adam and their
#: checkpoint metadata records no epochs.
ADAM_EPOCHS = 200

#: Adam epochs of an MLP fit that starts at the anchor (a fine-tune or a
#: joint target).  From the anchor, Adam's later epochs no longer save
#: Newton any work: over seeds 100-147 of the mlp-report config,
#: 0/20/30/50/100/200 warm epochs took 0.366/0.264/0.268/0.274/0.310/0.383 s
#: and 168/112/110/105/106/107 Hessian builds per report (one Newton step
#: costs 10-15 Adam epochs).
WARM_START_EPOCHS = 50


def _weighted_tasks(datasets, alphas):
    """(alpha, data) pairs that contribute to ``sum_t alpha_t * L_t``."""
    return [(alpha, data) for alpha, data in zip(alphas, datasets) if alpha != 0.0]


def _rows(spec, datasets, alphas):
    """The row block ``(X, y, w)`` of ``sum_t alpha_t * L_t``: live tasks' rows, weighted by alpha.

    One live task (the anchor, a fine-tune, a retrain) gives its dataset's
    own read-only arrays and its weight as the float alpha, which
    multiplies exactly as a row of alphas would; several live tasks are
    stacked, with one weight per row.
    """
    live = _weighted_tasks(datasets, alphas)
    if len(live) == 1:
        ((alpha, data),) = live
        return data.inputs, data.targets, alpha
    # The empty pads give the block its shape when every weight is zero (a joint target at alpha 0).
    X = np.concatenate([np.zeros((0, spec.n_features))] + [data.inputs for _, data in live])
    y = np.concatenate([np.zeros(0)] + [data.targets for _, data in live])
    return X, y, np.concatenate([np.zeros(0)] + [np.full(data.n, alpha) for alpha, data in live])


def stationarity_residual(spec, datasets, alphas, anchor: Checkpoint, delta: float, theta: ParamVector) -> float:
    """L2 norm of the full-objective gradient at theta.

    Built from the public :func:`grad`, so the trainers' final gate is an
    independent check on the fused evaluation they optimize with.
    """
    g = np.zeros(theta.layout.total_len)
    for alpha, data in _weighted_tasks(datasets, alphas):
        g += alpha * grad(spec, theta, data).values
    g = g + anchor_penalty(anchor, delta) * (theta.values - anchor.params.values)
    return float(np.linalg.norm(g))


def adam_decoupled_minimize(grad_fn, x0: np.ndarray, epochs: int, a: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """Full-batch Adam with the quadratic penalty applied outside the preconditioner.

    ``grad_fn(theta)`` must return the gradient of the summed data term
    (Adam never needs its value).  It takes ``epochs`` steps with the
    ``ADAM_*`` constants.  The penalty ``(1/2) ||theta - a||^2_reg`` (``reg``
    is ``h0 + delta``) is applied directly to the update, not fed
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
    shrink = ADAM_LR * reg / (1.0 + ADAM_LR * reg)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for step in range(1, epochs + 1):
        g = grad_fn(theta)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1**step)
        vhat = v / (1 - ADAM_BETA2**step)
        theta = theta - ADAM_LR * mhat / (np.sqrt(vhat) + ADAM_EPS)
        theta = theta - shrink * (theta - a)
        if not np.isfinite(theta).all():
            raise DivergenceError("training iterate became non-finite")
    return theta


def _convex_step(H, g):
    """Newton's step ``-H^{-1} g``; a convex objective has no negative curvature to report."""
    return np.linalg.solve(H, -g), 0.0, None


def _symmetric_eigh(H):
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric H.

    LAPACK's divide-and-conquer eigensolver behind ``np.linalg.eigh`` can
    fail to converge on tightly clustered eigenvalues, which near-identical
    hidden units produce; the SVD of a symmetric matrix carries the same
    decomposition, with the sign of eigenvalue k in ``u_k . v_k``.
    """
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError:
        U, size, Vt = np.linalg.svd(H)
        lam = np.copysign(size, np.sum(U * Vt.T, axis=0))
        order = np.argsort(lam)
        return lam[order], Vt.T[:, order]


def _saddle_free_step(H, g):
    """Modified-Newton step for an indefinite H, and H's most negative curvature.

    The step is ``-V |Lambda|^{-1} V^T g``, with H's eigenvalues replaced
    by their magnitudes and floored at ``1e-12 max|lambda|``: a descent
    direction everywhere, and Newton's step where H is positive definite
    (which a Cholesky factorization detects without the eigensolve).  It
    is cut to length :data:`MLP_MAX_STEP`: far from a minimum the
    quadratic model is a poor guide over longer steps, and they can leave
    the basin Adam chose.
    Also returns H's smallest eigenvalue (0.0 where H is positive
    definite) and a unit eigenvector for it, signed so that ``g^T u <= 0``.
    """
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        lam, V = _symmetric_eigh(H)
        size = np.abs(lam)
        floor = 1e-12 * size.max()
        if not floor > 0.0:
            raise np.linalg.LinAlgError("Hessian is zero or non-finite")
        step = -(V @ ((V.T @ g) / np.maximum(size, floor)))
        lowest, u = lam[0], (V[:, 0] if g @ V[:, 0] <= 0.0 else -V[:, 0])
    else:
        step, lowest, u = _convex_step(H, g)
    return step / max(1.0, math.sqrt(step @ step) / MLP_MAX_STEP), lowest, u


def _descend_negative_curvature(value_grad, theta, f, u, kappa, resolution):
    """First ``theta + s u`` whose value is resolvably lower, or None.

    s starts at :data:`MLP_MAX_STEP` and halves.  Along a unit descent
    direction u of curvature ``-kappa`` the quadratic model falls by more
    than ``kappa s^2 / 2``; a trial must realise half of that, and halving
    stops once half is no longer resolvable, or after
    :data:`NEWTON_MAX_HALVINGS` trials.
    """
    for k in range(NEWTON_MAX_HALVINGS):
        s = MLP_MAX_STEP * 0.5**k
        if 0.25 * kappa * s * s <= resolution:
            break
        trial = theta + s * u
        f_trial, g_trial, fwd_trial = value_grad(trial)
        if f_trial <= f - 0.25 * kappa * s * s:
            return trial, f_trial, g_trial, fwd_trial
    return None


def _newton(value_grad, hessian, theta, newton_step=_convex_step):
    """Damped Newton for the logistic fit and the MLP's nonconvex one.

    A convex fit steps by ``H p = -g``; the MLP's H may be indefinite, so
    it passes :func:`_saddle_free_step`.  While the predicted decrease
    ``-g^T p`` is resolvable in the objective's value, a step must pass
    the Armijo test, backtracking by halving; below about
    ``1e-12 (1 + |f|)`` the summed loss cannot tell a better point from a
    worse one, and the full step is accepted only if it lowers the
    gradient norm.  A full step that does not has reached the gradient's
    rounding floor, where shorter ones only crawl.  Near a saddle that
    test would converge onto it, so when H has negative curvature there,
    a move along it that lowers the value resolvably comes first.  Stops
    at the first iterate meeting :data:`NEWTON_TOL`, after
    :data:`NEWTON_MAX_ITER` steps, or at a step with no acceptable point;
    the caller's stationarity gate judges where it stopped.
    ``value_grad(theta)`` returns the value, the gradient and the forward
    pass behind them, and ``hessian(theta, fwd)`` builds H at an iterate
    from that forward pass, so a Newton step runs no forward pass twice.
    """
    f, g, fwd = value_grad(theta)
    for _ in range(NEWTON_MAX_ITER):
        g_norm = math.sqrt(g @ g)
        if g_norm <= NEWTON_TOL * (1.0 + math.sqrt(theta @ theta)):
            break
        try:
            step, curvature, u = newton_step(hessian(theta, fwd), g)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"Newton system is singular: {exc}") from exc
        decrease = -float(g @ step)
        resolution = 1e-12 * (1.0 + abs(f))
        resolvable = decrease > resolution
        if not resolvable and curvature < 0.0:
            escaped = _descend_negative_curvature(value_grad, theta, f, u, -curvature, resolution)
            if escaped is not None:
                theta, f, g, fwd = escaped
                continue
        t = 1.0
        for _ in range(NEWTON_MAX_HALVINGS if resolvable else 1):
            trial = theta + t * step
            f_trial, g_trial, fwd_trial = value_grad(trial)
            if (f_trial <= f - 1e-4 * t * decrease) if resolvable else (math.sqrt(g_trial @ g_trial) < g_norm):
                break
            t *= 0.5
        else:
            break
        theta, f, g, fwd = trial, f_trial, g_trial, fwd_trial
    return theta


def _fit(
    spec: ModelSpec,
    datasets: list[TaskDataset],
    alphas: list[float],
    anchor: Checkpoint,
    delta: float,
    epochs: int,
    x0: np.ndarray,
) -> ParamVector:
    if anchor.layout != spec.layout():
        raise LayoutError("anchor layout does not match the model")
    a, reg = anchor.params.values, anchor_penalty(anchor, delta)
    for data in datasets:
        _check_data(spec, data)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a finiteness check or the gate
        if spec.kind == "linear_regression":
            theta = closed_form_solve(datasets, alphas, anchor, delta).values
        else:
            theta = _iterate(spec, datasets, alphas, a, reg, epochs, x0)
        out = ParamVector(spec.layout(), theta)
        residual = stationarity_residual(spec, datasets, alphas, anchor, delta, out)
        bound = RESIDUAL_TOL * (1.0 + float(np.linalg.norm(theta)))
    if residual > bound:
        raise DivergenceError(
            f"training failed to reach stationarity: residual {residual:.3e} > bound {bound:.3e}"
        )
    return out


def _iterate(spec: ModelSpec, datasets, alphas, a: np.ndarray, reg: np.ndarray, epochs: int, x0: np.ndarray) -> np.ndarray:
    """Minimize a logistic or MLP anchored objective by Newton (after Adam, for an MLP)."""
    X, y, w = _rows(spec, datasets, alphas)
    rows = _HessianRows(spec, X)

    def full_value_grad(theta_values):
        value, g, fwd = _value_grad(spec, theta_values, X, y, w)
        diff = theta_values - a
        pull = reg * diff
        return value + 0.5 * (pull * diff).sum(), g + pull, fwd

    def full_hessian(theta_values, fwd):
        H = _hessian(spec, theta_values, rows, y, w, fwd)
        H.flat[:: len(H) + 1] += reg
        return H

    if spec.kind == "logistic":
        return _newton(full_value_grad, full_hessian, x0)
    # Nonconvex: the Adam path decides which local minimum Newton refines.
    theta = adam_decoupled_minimize(lambda th: _grad(spec, th, X, y, w), x0, epochs, a, reg)
    return _newton(full_value_grad, full_hessian, theta, _saddle_free_step)


def _init_theta(spec: ModelSpec, seed: int) -> np.ndarray:
    """The start of a fit from a random init: zeros, or for an MLP a seeded Gaussian."""
    layout = spec.layout()
    if spec.kind == "mlp":
        # Zero init is a symmetric saddle for an MLP; break it with a
        # small seeded Gaussian.
        rng = np.random.default_rng(seed)
        return 0.1 * rng.standard_normal(layout.total_len)
    return np.zeros(layout.total_len)


def _meta(seed: int, epochs: int, objective: str, delta: float, spec: ModelSpec) -> dict[str, str]:
    return {
        "objective": objective,
        "seed": str(seed),
        # Linear and logistic fits run no Adam: only an MLP's meta records epochs.
        **({"epochs": str(epochs)} if spec.kind == "mlp" else {}),
        "delta": repr(float(delta)),
        "model": spec.kind,
        "loss": spec.loss,
    }


def train_anchor(spec: ModelSpec, data: TaskDataset, delta: float, seed: int) -> Checkpoint:
    """Train a base model: summed loss plus ``(delta/2) ||theta||^2``.

    That is the anchored objective toward a zero checkpoint with zero
    curvature.  An MLP starts at a Gaussian drawn from ``seed`` and runs
    :data:`ADAM_EPOCHS` Adam epochs before Newton.
    """
    layout = spec.layout()
    origin = Checkpoint(ParamVector.zeros(layout), DiagCurvature.zeros(layout))
    theta = _fit(spec, [data], [1.0], origin, delta, ADAM_EPOCHS, _init_theta(spec, seed))
    return Checkpoint(theta, meta=_meta(seed, ADAM_EPOCHS, "anchor", delta, spec))


def finetune_task(
    spec: ModelSpec,
    data: TaskDataset,
    anchor: Checkpoint,
    delta: float,
    seed: int,
) -> Checkpoint:
    """Fine-tune from an anchor checkpoint under its penalty ``h0 + delta``.

    ``h0`` is the anchor's curvature, which it must carry.  The returned
    parameters approximately satisfy the stationarity condition
    ``(h0 + delta) * (theta - a) = -grad L_t(theta)``,
    with residual norm at most ``1e-4 * (1 + ||theta||)``.  An MLP runs
    :data:`WARM_START_EPOCHS` Adam epochs before Newton.  ``seed`` is
    recorded in the metadata; the fit starts at the anchor.
    """
    theta = _fit(spec, [data], [1.0], anchor, delta, WARM_START_EPOCHS, anchor.params.values.copy())
    return Checkpoint(theta, meta=_meta(seed, WARM_START_EPOCHS, "finetune", delta, spec))


def task_weight(alpha) -> float:
    """One task's weight in a joint target, as a float: finite and >= 0."""
    alpha = float(alpha)
    if not 0.0 <= alpha < np.inf:
        raise ConfigError(f"task weights must be finite and >= 0, got {alpha!r}")
    return alpha


def train_joint_target(
    spec: ModelSpec,
    datasets: list[TaskDataset],
    alphas: list[float],
    anchor: Checkpoint,
    delta: float,
    seed: int,
) -> Checkpoint:
    """Train the joint target: ``sum_t alpha_t L_t`` plus the anchored penalty ``h0 + delta``.

    It starts at the anchor, so an MLP runs :data:`WARM_START_EPOCHS` Adam
    epochs before Newton; ``seed`` is recorded in the metadata.
    """
    if len(datasets) != len(alphas):
        raise ConfigError("datasets and alphas must have equal length")
    weights = [task_weight(a) for a in alphas]
    theta = _fit(spec, list(datasets), weights, anchor, delta, WARM_START_EPOCHS, anchor.params.values.copy())
    return Checkpoint(theta, meta=_meta(seed, WARM_START_EPOCHS, "joint_target", delta, spec))


def closed_form_solve(
    datasets: list[TaskDataset],
    alphas: list[float],
    anchor: Checkpoint,
    delta: float,
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
    layout = anchor.layout
    d = layout.total_len
    penalty = anchor_penalty(anchor, delta)
    A = np.diag(penalty)
    b = penalty * anchor.params.values
    for alpha, data in zip(alphas, datasets):
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
    if not np.isfinite(theta).all() or residual > 1e-9 * (1.0 + float(np.linalg.norm(b))):
        raise SingularSystemError(
            f"normal-equation solve is unreliable (residual {residual:.3e}); "
            "the system is singular or too ill-conditioned"
        )
    return ParamVector(layout, theta)
