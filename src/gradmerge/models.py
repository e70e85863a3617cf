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
reuses the forward pass ``(out, a1)`` that ``_value_grad`` returns and
the data-only products a fit builds once (:class:`_HessianRows`).  The
MLP's only hidden state is the tanh activation array ``a1``, built in
place; its derivative is ``D = 1 - a1^2``.  The summed gradient keeps
the output gradients ``g`` and ``w2`` out of the ``(n, h)`` products:
``dW1 = w2 ((X g)^T D)^T`` and ``db1 = w2 (g^T D)``.
"""

from __future__ import annotations

import json
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
    "MODEL_KINDS",
    "loss",
    "grad",
    "per_example_grads",
    "fd_grad",
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
    per-example gradients when ``per_example`` is set.
    """
    if a1 is None:
        return X * g[:, None] if per_example else X.T @ g
    w2 = spec._mlp_views(values)[2]
    D = a1 * a1
    np.subtract(1.0, D, out=D)
    if per_example:
        # Written column block by column block into one array: broadcasting
        # over a short feature axis and concatenating along axis 1 both copy
        # in runs of a few elements.
        n, h, d = len(g), spec.hidden, spec.n_features
        G = np.empty((n, h * d + 2 * h + 1))
        dz1 = np.multiply(g[:, None] * w2, D, out=G[:, h * d : h * d + h])
        dW1 = G[:, : h * d].reshape(n, h, d)
        for k in range(d):
            np.multiply(dz1, X[:, k : k + 1], out=dW1[:, :, k])
        np.multiply(a1, g[:, None], out=G[:, h * d + h : -1])
        G[:, -1] = g
        return G
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
    """Weighted summed loss ``sum_i w_i l_i``, its flat gradient, and their forward pass ``(out, a1)``.

    For rows that passed :func:`_check_data` and unit weights (1.0
    multiplies exactly) the first two equal :func:`loss` and
    ``grad(...).values``, raising the same overflow errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, a1 = _forward(spec, values, X)
        value = float(np.sum(w * _losses(spec, out, y)))
    if not np.isfinite(value):
        raise NumericError("loss overflowed to a non-finite value")
    return value, _summed_grad(spec, values, X, y, w, out, a1), (out, a1)


def _grad(spec: ModelSpec, values, X, y, w=1.0) -> np.ndarray:
    """The gradient :func:`_value_grad` returns, without forming the loss value."""
    with np.errstate(over="ignore", invalid="ignore"):
        out, a1 = _forward(spec, values, X)
        return _summed_grad(spec, values, X, y, w, out, a1)


def _summed_grad(spec, values, X, y, w, out, a1) -> np.ndarray:
    flat = _backward(spec, values, X, w * _output_grads(spec, out, y), a1)
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

    ``fwd`` is the forward pass :func:`_value_grad` returned at the same
    ``values``, so a build runs none of its own.  The Gauss-Newton part
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
    out, a1 = fwd
    if spec.loss == "squared_error":
        curv = w * np.ones_like(out)
    else:
        s = _sigmoid(out)
        curv = w * s * (1.0 - s)
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
    r = w * _output_grads(spec, out, y)
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
    with the tie at exactly 0.5 predicting class 1.  Only classification
    models (logistic, mlp) support this.
    """
    if spec.kind == "linear_regression":
        raise ConfigError("accuracy is undefined for linear_regression models")
    _check_inputs(spec, theta, data)
    out = _forward(spec, theta.values, data.inputs)[0]
    pred = (out >= 0.0).astype(np.float64)
    return float(np.mean(pred == data.targets))


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

