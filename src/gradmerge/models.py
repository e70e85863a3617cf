"""Tiny differentiable model zoo: linear regression, binary logistic
regression, and a one-hidden-layer MLP.

Each model exposes its loss summed over the examples, analytic gradients, the
``(n, d)`` matrix of per-example gradients (the raw material for
empirical-Fisher curvature), a central finite-difference gradient as an
independent check, and a classification accuracy helper.  Gradients are hand-derived backprop rather than a
general autodiff engine: three fixed architectures keep the arithmetic
auditable and the package dependency-light.

Conventions
-----------
* Linear and logistic models have no bias term; the decision boundary of
  the classifiers passes through the origin.
* Each kind has one loss, :attr:`ModelSpec.loss`: squared error for
  linear regression, the Bernoulli negative log-likelihood of the raw
  output (a logit) for the two classifiers.
* The MLP computes ``w2 . tanh(W1 x + b1) + b2`` with parameter layout
  order [w1, b1, w2, b2].
* The logistic loss uses the log-sum-exp form throughout; curvature
  estimates square gradients, which amplifies any instability.
* Classification tie at probability exactly 0.5 predicts class 1.

Validation happens where data enters.  A :class:`TaskDataset` with no
examples or no features is refused when it is built
(:class:`EmptyDataError`), so no function here has an empty-data case.
The public functions check every call, while the kernels ``_forward``,
``_backward``, ``_value_grad``, ``_grad`` and ``_hessian`` take the flat
``(d,)`` parameter array and trust their caller, so a fit checks each
dataset once (:func:`_check_data`) and then steps on arrays.  The last
three weight each row, so one call evaluates a fit's whole data term
``sum_t alpha_t L_t`` over its stacked tasks: its value and gradient,
its gradient alone (for Adam), or its dense Hessian (for Newton), which
reuses the forward pass ``(out, a1, s)`` that ``_value_grad`` returns,
``s`` being the classifiers' output sigmoid, evaluated once per iterate,
and the data-only products a fit builds once (:class:`_HessianRows`).  The
MLP's only hidden state is the tanh activation array ``a1``, built in
place; its derivative is ``D = 1 - a1^2``.  The summed gradient keeps
the output gradients ``g`` and ``w2`` out of the ``(n, h)`` products:
``dW1 = w2 ((X g)^T D)^T`` and ``db1 = w2 (g^T D)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EmptyDataError,
    IoError,
    LayoutError,
    NumericError,
    check_field_types,
)
from .params import ParamLayout, ParamVector

__all__ = [
    "TaskDataset",
    "ModelSpec",
    "loss",
    "grad",
    "per_example_grads",
    "accuracy",
    "save_dataset",
]

MODEL_KINDS = ("linear_regression", "logistic", "mlp")
ACTIVATIONS = ("tanh",)


@dataclass(frozen=True, eq=False)
class TaskDataset:
    """Supervised examples with a task identifier and seed provenance.

    Empty data, no rows or no feature columns, raises :class:`EmptyDataError`.
    """

    task_id: str
    inputs: np.ndarray
    targets: np.ndarray
    seed: int = 0

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        targets = np.asarray(self.targets, dtype=np.float64).reshape(-1)
        if inputs.ndim != 2:
            raise ConfigError("dataset inputs must be a 2-D (n_examples, n_features) array")
        if inputs.size == 0:
            raise EmptyDataError(f"dataset {self.task_id!r} has no examples or no features")
        if inputs.shape[0] != targets.shape[0]:
            raise ConfigError(
                f"dataset has {inputs.shape[0]} input rows but {targets.shape[0]} targets"
            )
        if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
            raise NumericError("dataset values must be finite")
        inputs.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description for one of the three model kinds."""

    kind: str
    n_features: int
    hidden: int | None = None
    activation: str | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.n_features < 1:
            raise ConfigError("n_features must be >= 1")
        if self.kind == "mlp":
            if self.hidden is None or self.hidden < 1:
                raise ConfigError("mlp models require a positive hidden width")
            if self.activation not in ACTIVATIONS:
                raise ConfigError(f"mlp activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        else:
            if self.hidden is not None or self.activation is not None:
                raise ConfigError(f"hidden/activation are only valid for mlp, not {self.kind!r}")

    @property
    def loss(self) -> str:
        """The loss this kind is defined with: the classifiers' is the Bernoulli NLL."""
        return "squared_error" if self.kind == "linear_regression" else "logistic_nll"

    def layout(self) -> ParamLayout:
        """Canonical parameter layout for this architecture."""
        return self._layout

    # Cached in the instance ``__dict__``; equality and hashing still
    # compare only the dataclass fields.
    @cached_property
    def _layout(self) -> ParamLayout:
        if self.kind == "mlp":
            h, d = self.hidden, self.n_features
            return ParamLayout((("w1", (h, d)), ("b1", (h,)), ("w2", (h,)), ("b2", (1,))))
        return ParamLayout((("w", (self.n_features,)),))

    def _mlp_views(self, values: np.ndarray):
        """``w1, b1, w2, b2`` of a flat MLP parameter array, as views in layout order."""
        h, d = self.hidden, self.n_features
        hd = h * d
        return values[:hd].reshape(h, d), values[hd : hd + h], values[hd + h : hd + 2 * h], values[-1]


def _check_data(spec: ModelSpec, data: TaskDataset) -> None:
    """Feature count, and a classifier's {0,1} targets: what a fit checks once per dataset."""
    if data.n_features != spec.n_features:
        raise LayoutError(
            f"dataset has {data.n_features} features but the model expects {spec.n_features}"
        )
    if spec.loss == "logistic_nll":
        t = data.targets
        if not ((t == 0.0) | (t == 1.0)).all():
            raise ConfigError("logistic_nll requires {0,1} targets")


def _check_inputs(spec: ModelSpec, theta: ParamVector, data: TaskDataset) -> None:
    _check_data(spec, data)
    if theta.layout != spec.layout():
        raise LayoutError("theta layout does not match the model's canonical layout")


def _forward(spec: ModelSpec, values: np.ndarray, X: np.ndarray):
    """Raw outputs plus the hidden activations ``a1`` (None for linear models)."""
    if spec.kind != "mlp":
        return X @ values, None
    w1, b1, w2, b2 = spec._mlp_views(values)
    a1 = X @ w1.T
    a1 += b1
    np.tanh(a1, out=a1)
    return a1 @ w2 + b2, a1


#: The float32 and float64 unit roundoffs, and the norm bound past which the float32 screen could overflow.
_U32, _U64, _SCREEN_MAX = 2.0**-24, 2.0**-53, 2.0**100

#: Entries :meth:`_SignKernel.signs` settles at once (or one row), so its memory does not grow with the rows.
_SCREEN_ENTRIES = 2**17


class _SignKernel:
    """A set's examples ``X`` ``(n, d)`` as the certified sign reads them, built once per set.

    ``XT32`` is a contiguous float32 ``(d, n)`` copy and ``norm`` the largest
    example norm ``max_j ||x_j||_2``.  :meth:`signs` gives the exact sign of
    ``x . v`` in up to three stages:

    * screen: ``o = v32 @ XT32`` settles an entry when ``|o| > 2 (c32
      ||v|| ||x|| + 2^-146 (||v||_1 + ||x||_1 + d))``, with ``c32 = (d+4)
      u32 / (1 - (d+4) u32)`` covering both roundings to float32 and any
      summation order, the ``2^-146`` term covering subnormals, ``||x||``
      the set's largest norm and ``||.||_1 <= sqrt(d) ||.||_2``; the
      comparison runs in float64, where a float32 ``|o|`` is exact.  A
      row settles nothing here if its ``||v||`` or ``||v|| ||x||`` exceeds
      ``2^100``, where float32 could overflow, and no row does if ``||x||``
      does (or if ``(d+4) u32 >= 1``, where the bound fails);
    * recheck: an unsettled entry's float64 dot ``p`` settles it when ``|p|
      > 2 (c64 sum_k |v_k x_k| + d 2^-1070)``, ``c64`` as ``c32`` with
      ``u64``;
    * exact: anything left is a sum of :class:`fractions.Fraction` products.

    So a sign depends only on ``v`` and ``x``: not on the other rows
    scored with it, nor on the BLAS kernel.  ``rechecked`` and ``exact``
    count the entries that reached the last two stages.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.rechecked = self.exact = 0
        with np.errstate(over="ignore"):  # an entry past float32's range is inf, and trips the screen's guard
            self.XT32 = np.ascontiguousarray(X.T, dtype=np.float32)
        self.norm = math.sqrt(np.einsum("ij,ij->i", X, X).max())  # einsum overflows to inf without a warning

    def signs(self, V: np.ndarray) -> np.ndarray:
        """``x . v >= 0`` for each row ``v`` of ``V`` ``(U, d)`` and example ``x``: a ``(U, n)`` bool."""
        signs = np.empty((len(V), len(self.X)), dtype=bool)
        step = max(1, _SCREEN_ENTRIES // len(self.X))
        for r in range(0, len(V), step):
            self._settle(V[r : r + step], signs[r : r + step])
        return signs

    def _settle(self, V: np.ndarray, signs: np.ndarray) -> None:
        """Write the signs of the rows ``V`` into ``signs``, through all three stages."""
        X, m = self.X, self.norm
        n, d = X.shape
        norms = np.sqrt(np.einsum("ij,ij->i", V, V))
        if m > _SCREEN_MAX or (d + 4) * _U32 >= 1.0:  # the screen settles nothing
            i, j = np.divmod(np.arange(signs.size), n)
        else:
            c32, rd = (d + 4) * _U32 / (1.0 - (d + 4) * _U32), math.sqrt(d)
            tol = norms * (2.0 * (c32 * m + 2.0**-146 * rd)) + 2.0**-145 * (rd * m + d)
            wild = norms > _SCREEN_MAX / max(m, 1.0)  # screened as zero rows, whose entries all stay unsettled
            screened = np.where(wild[:, None], 0.0, V) if wild.any() else V
            out = screened.astype(np.float32) @ self.XT32  # compared with tol in float64, which is exact
            np.greater_equal(out, 0.0, out=signs)
            rows = (np.abs(out, out=out).min(axis=1) <= tol).nonzero()[0]
            if not len(rows):
                return
            k = (out[rows] <= tol[rows, None]).ravel().nonzero()[0]
            i, j = rows[k // n], k % n
        Vi, Xj = V[i], X[j]
        dots = np.einsum("ij,ij->i", Vi, Xj)
        c64 = (d + 4) * _U64 / (1.0 - (d + 4) * _U64)
        sure = np.abs(dots) > 2.0 * (c64 * np.einsum("ij,ij->i", np.abs(Vi), np.abs(Xj)) + d * 2.0**-1070)
        signs[i, j] = dots >= 0.0
        left = (~sure).nonzero()[0]
        self.rechecked += len(i)
        self.exact += len(left)
        if len(left):  # imported here: ``fractions`` loads ``decimal``, about 0.5 MB per process
            from fractions import Fraction
        for a, b in zip(i[left].tolist(), j[left].tolist()):
            signs[a, b] = sum(Fraction(p) * Fraction(q) for p, q in zip(V[a].tolist(), X[b].tolist())) >= 0


def _predict(spec: ModelSpec, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Class-1 predictions ``(U, n)`` of the rows ``V`` ``(U, d)`` on ``X``: output >= 0, ties to class 1.

    A logistic output is read as the exact sign of ``x . v`` through the
    :class:`_SignKernel` of ``X``, built once per call, so a caller scores
    all its rows on a set in one call; an MLP row takes its own float64
    forward pass.
    """
    if spec.kind == "logistic":
        return _SignKernel(X).signs(V)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([_forward(spec, v, X)[0] >= 0.0 for v in V])


def _losses(spec: ModelSpec, out: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if spec.loss == "squared_error":
        return 0.5 * (out - targets) ** 2
    return np.logaddexp(0.0, out) - targets * out


def loss(spec: ModelSpec, theta: ParamVector, data: TaskDataset) -> float:
    """The model's loss (:attr:`ModelSpec.loss`) summed over the dataset."""
    _check_inputs(spec, theta, data)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = _losses(spec, _forward(spec, theta.values, data.inputs)[0], data.targets)
    value = float(np.sum(losses))
    if not np.isfinite(value):
        raise NumericError("loss overflowed to a non-finite value")
    return value


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-x))``; saturates to 0 or 1 without warnings."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _output_grads(spec: ModelSpec, out: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if spec.loss == "squared_error":
        return out - targets
    return _sigmoid(out) - targets


def _backward(spec, values, X, g, a1, per_example=False) -> np.ndarray:
    """Backprop output gradients ``g`` to the flat parameter gradient.

    Returns the summed ``(d,)`` gradient, or the ``(n, d)`` matrix of
    per-example gradients when ``per_example`` is set (only the empirical
    Fisher asks for those).
    """
    if a1 is None:
        return X * g[:, None] if per_example else X.T @ g
    w2 = spec._mlp_views(values)[2]
    D = a1 * a1
    np.subtract(1.0, D, out=D)
    if per_example:
        dz1 = g[:, None] * w2 * D
        dW1 = (dz1[:, :, None] * X[:, None, :]).reshape(len(g), -1)
        return np.concatenate([dW1, dz1, a1 * g[:, None], g[:, None]], axis=1)
    dW1 = w2[:, None] * ((X * g[:, None]).T @ D).T
    return np.concatenate([dW1.reshape(-1), w2 * (g @ D), a1.T @ g, np.array([g.sum()])])


def grad(spec: ModelSpec, theta: ParamVector, data: TaskDataset) -> ParamVector:
    """Analytic gradient of :func:`loss`."""
    _check_inputs(spec, theta, data)
    out, a1 = _forward(spec, theta.values, data.inputs)
    flat = _backward(spec, theta.values, data.inputs, _output_grads(spec, out, data.targets), a1)
    if not np.isfinite(flat).all():
        raise NumericError("gradient overflowed to non-finite values")
    return ParamVector(spec.layout(), flat)


def _value_grad(spec: ModelSpec, values, X, y, w=1.0):
    """Weighted summed loss ``sum_i w_i l_i``, its flat gradient, and their forward pass ``(out, a1, s)``.

    ``s`` is the output sigmoid of a ``logistic_nll`` kind (None for
    squared error), computed once here for the gradient and reused by
    :func:`_hessian`.  For rows that passed :func:`_check_data` and unit
    weights (1.0 multiplies exactly) the first two equal :func:`loss` and
    ``grad(...).values``, raising the same overflow errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, a1 = _forward(spec, values, X)
        value = float((w * _losses(spec, out, y)).sum())
        s = None if spec.loss == "squared_error" else 1.0 / (1.0 + np.exp(-out))
    if not np.isfinite(value):
        raise NumericError("loss overflowed to a non-finite value")
    return value, _summed_grad(spec, values, X, w * ((out if s is None else s) - y), a1), (out, a1, s)


def _grad(spec: ModelSpec, values, X, y, w=1.0) -> np.ndarray:
    """The gradient :func:`_value_grad` returns, without forming the loss value."""
    with np.errstate(over="ignore", invalid="ignore"):
        out, a1 = _forward(spec, values, X)
        return _summed_grad(spec, values, X, w * _output_grads(spec, out, y), a1)


def _summed_grad(spec, values, X, g, a1) -> np.ndarray:
    flat = _backward(spec, values, X, g, a1)
    if not np.isfinite(flat).all():
        raise NumericError("gradient overflowed to non-finite values")
    return flat


class _HessianRows:
    """A fit's row block ``X`` and what its MLP Hessians reuse, built once per fit.

    ``XT`` (contiguous), ``xt = [X, 1]``, the ``(n, (d+1)^2)`` table of
    ``xt`` column products, the flat positions in H of the residual term,
    and the buffers each build overwrites: the ``(p, n)`` Jacobian ``JT``
    and three ``(n, h)`` factors.
    """

    def __init__(self, spec: ModelSpec, X: np.ndarray):
        self.X = X
        if spec.kind != "mlp":
            return
        n, h, d, p = len(X), spec.hidden, spec.n_features, spec.layout().total_len
        self.XT = np.ascontiguousarray(X.T)
        self.xt = np.concatenate([X, np.ones((n, 1))], axis=1)
        self.outer = (self.xt[:, :, None] * self.xt[:, None, :]).reshape(n, (d + 1) ** 2)
        # Row j holds unit j's (w1_j, b1_j) coordinates; distinct units' blocks are disjoint.
        unit = np.concatenate([np.arange(h * d).reshape(h, d), h * d + np.arange(h)[:, None]], axis=1)
        w2_index = h * d + h + np.arange(h)[:, None]
        # Each unit's (w1_j, b1_j) block, then its column and row against w2_j.
        self.residual = np.concatenate([
            (unit[:, :, None] * p + unit[:, None, :]).reshape(-1),
            (unit * p + w2_index).reshape(-1),
            (w2_index * p + unit).reshape(-1),
        ])
        self.JT = np.empty((p, n))
        self.work = np.empty((3, n, h))


def _hessian(spec: ModelSpec, values, rows: _HessianRows, y, w, fwd) -> np.ndarray:
    """Dense ``(d, d)`` Hessian of the weighted summed loss ``sum_i w_i l_i``.

    ``fwd`` is the forward pass ``(out, a1, s)`` :func:`_value_grad`
    returned at the same ``values``, so a build runs none of its own and
    evaluates no sigmoid.  The Gauss-Newton part
    ``J^T J`` has rows ``sqrt(w_i l_i'') J_i``, where ``J_i`` is row i's
    output gradient; NumPy forms it as one symmetric rank-k update at half
    the cost of a general product (weights are >= 0).  The linear models
    have no other part.  The MLP writes ``J`` transposed, in contiguous
    row slabs of ``rows.JT``, and its output adds the residual term ``sum_i r_i grad^2 f_i``, with
    ``r_i = w_i l_i'``, which is block-diagonal per hidden unit ``j``:
    ``w2_j sum_i r_i tanh''(z_ij) xt_i xt_i^T`` on ``(w1_j, b1_j)``, with
    ``xt = [x, 1]``, and ``sum_i r_i tanh'(z_ij) xt_i`` against ``w2_j``.
    Each product keeps the association order of :func:`_backward`'s
    per-example rows, e.g. ``(sqrt(curv) w2) D``, so H is bitwise theirs.
    """
    out, a1, s = fwd
    curv = w * np.ones_like(out) if s is None else w * s * (1.0 - s)
    if a1 is None:
        Xs = rows.X * np.sqrt(curv)[:, None]
        return Xs.T @ Xs
    h, d = spec.hidden, spec.n_features
    w2 = spec._mlp_views(values)[2]
    g = np.sqrt(curv)
    D, c, rD = rows.work
    np.subtract(1.0, np.multiply(a1, a1, out=D), out=D)
    JT = rows.JT
    dz1 = np.multiply(w2[:, None], g, out=JT[h * d : h * d + h])
    dz1 *= D.T
    np.multiply(dz1[:, None, :], rows.XT, out=JT[: h * d].reshape(h, d, -1))
    np.multiply(a1.T, g, out=JT[h * d + h : -1])
    JT[-1] = g
    H = JT @ JT.T
    r = w * (s - y)
    # c = (r w2) (-2 a1 D) and rD = r D stay (n, h) operands of the products below.
    np.multiply(a1, -2.0, out=c)
    c *= D
    c *= np.multiply(r[:, None], w2, out=rD)
    np.multiply(r[:, None], D, out=rD)
    cross = (rD.T @ rows.xt).reshape(-1)
    H.reshape(-1)[rows.residual] += np.concatenate([(c.T @ rows.outer).reshape(-1), cross, cross])
    return H


def per_example_grads(spec: ModelSpec, theta: ParamVector, data: TaskDataset) -> np.ndarray:
    """``(n, d)`` per-example gradients in dataset order; the rows sum to :func:`grad`."""
    _check_inputs(spec, theta, data)
    out, a1 = _forward(spec, theta.values, data.inputs)
    G = _backward(spec, theta.values, data.inputs, _output_grads(spec, out, data.targets), a1, per_example=True)
    if not np.isfinite(G).all():
        raise NumericError("per-example gradients overflowed to non-finite values")
    return G


def fd_grad(spec: ModelSpec, theta: ParamVector, data: TaskDataset, h: float) -> ParamVector:
    """Central finite-difference gradient of :func:`loss`; independent check on :func:`grad`."""
    if not h > 0.0:
        raise ConfigError("finite-difference step h must be > 0")
    _check_inputs(spec, theta, data)
    base = theta.values
    out = np.empty_like(base)
    for j in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[j] += h
        minus[j] -= h
        lp = loss(spec, ParamVector(theta.layout, plus), data)
        lm = loss(spec, ParamVector(theta.layout, minus), data)
        out[j] = (lp - lm) / (2.0 * h)
    return ParamVector(theta.layout, out)


def accuracy(spec: ModelSpec, theta: ParamVector, data: TaskDataset) -> float:
    """Fraction of examples whose thresholded prediction matches the target.

    The decision rule is sigmoid(output) >= 0.5, i.e. raw output >= 0,
    with the tie at exactly 0.5 predicting class 1 (:func:`_predict`): a
    logistic output is read as the exact sign of ``x . v``, certified by
    :class:`_SignKernel`'s float32 screen, float64 recheck and exact sum,
    and an MLP output is its float64 forward pass.  This is the value
    ``harness.evaluate_params`` reports per task.  Only classification
    models (logistic, mlp) support this.
    """
    if spec.kind == "linear_regression":
        raise ConfigError("accuracy is undefined for linear_regression models")
    _check_inputs(spec, theta, data)
    pred = _predict(spec, theta.values[None], data.inputs)[0]
    return int((pred == (data.targets == 1.0)).sum(dtype=np.uint32)) / data.n


def save_dataset(data: TaskDataset, path) -> None:
    """Write a dataset as JSON with keys task_id, seed, inputs, targets."""
    doc = {
        "task_id": data.task_id,
        "seed": data.seed,
        "inputs": data.inputs.tolist(),
        "targets": data.targets.tolist(),
    }
    try:
        Path(path).write_text(json.dumps(doc) + "\n")
    except OSError as exc:
        raise IoError(f"failed to write dataset {path!s}: {exc}") from exc

