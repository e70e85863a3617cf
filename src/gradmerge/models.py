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
* The MLP computes ``w2 . act(W1 x + b1) + b2`` with parameter layout
  order [w1, b1, w2, b2].
* The logistic loss uses the log-sum-exp form throughout; curvature
  estimates square gradients, which amplifies any instability.
* Classification tie at probability exactly 0.5 predicts class 1.

Validation happens where data enters: the public functions check every
call, while the kernels ``_forward``, ``_backward``, ``_value_grad``,
``_grad`` and ``_hessian`` take the flat ``(d,)`` parameter array and
trust their caller, so a fit checks each dataset once (:func:`_check_data`)
and then steps on arrays.  The last three weight each row, so one call
evaluates a fit's whole data term ``sum_t alpha_t L_t`` over its stacked
tasks: its value and gradient, its gradient alone (for Adam), or its
dense Hessian (for Newton).  The MLP's only hidden
state is the activation array ``a1``, built in place; its derivative ``D``
is ``1 - a1^2`` (tanh) or the mask ``a1 > 0`` (ReLU).  The summed gradient
keeps the output gradients ``g`` and ``w2`` out of the ``(n, h)``
products: ``dW1 = w2 ((X g)^T D)^T`` and ``db1 = w2 (g^T D)``.
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
    "LOSS_KINDS",
    "MODEL_KINDS",
    "loss",
    "grad",
    "per_example_grads",
    "fd_grad",
    "accuracy",
    "save_dataset",
]

MODEL_KINDS = ("linear_regression", "logistic", "mlp")
LOSS_KINDS = ("squared_error", "logistic_nll")
ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True, eq=False)
class TaskDataset:
    """Supervised examples with a task identifier and seed provenance."""

    task_id: str
    inputs: np.ndarray
    targets: np.ndarray
    seed: int = 0

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        targets = np.asarray(self.targets, dtype=np.float64).reshape(-1)
        if inputs.size == 0:
            inputs = inputs.reshape(0, inputs.shape[-1])
        if inputs.ndim != 2:
            raise ConfigError("dataset inputs must be a 2-D (n_examples, n_features) array")
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
                raise ConfigError(f"mlp activation must be one of {ACTIVATIONS}")
        else:
            if self.hidden is not None or self.activation is not None:
                raise ConfigError(f"hidden/activation are only valid for mlp, not {self.kind!r}")

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


#: The loss each convex model kind is defined with; an MLP takes either.
_PAIRED_LOSS = {"linear_regression": "squared_error", "logistic": "logistic_nll"}


def _check_loss(spec: ModelSpec, loss_kind: str) -> None:
    """The one rule pairing a loss kind with a model kind."""
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
    paired = _PAIRED_LOSS.get(spec.kind, loss_kind)
    if loss_kind != paired:
        raise ConfigError(f"{spec.kind} models only support {paired} loss")


def _check_data(spec: ModelSpec, loss_kind: str, data: TaskDataset) -> None:
    """Loss pairing, feature count and targets: what a fit checks once per dataset."""
    _check_loss(spec, loss_kind)
    if data.n and data.n_features != spec.n_features:
        raise LayoutError(
            f"dataset has {data.n_features} features but the model expects {spec.n_features}"
        )
    if loss_kind == "logistic_nll" and data.n:
        t = data.targets
        if not ((t == 0.0) | (t == 1.0)).all():
            raise ConfigError("logistic_nll requires {0,1} targets")


def _check_inputs(spec: ModelSpec, loss_kind: str, theta: ParamVector, data: TaskDataset) -> None:
    _check_data(spec, loss_kind, data)
    if theta.layout != spec.layout():
        raise LayoutError("theta layout does not match the model's canonical layout")


def _forward(spec: ModelSpec, values: np.ndarray, X: np.ndarray):
    """Raw outputs plus the hidden activations ``a1`` (None for linear models)."""
    if spec.kind != "mlp":
        return X @ values, None
    w1, b1, w2, b2 = spec._mlp_views(values)
    a1 = X @ w1.T
    a1 += b1
    if spec.activation == "tanh":
        np.tanh(a1, out=a1)
    else:
        np.maximum(a1, 0.0, out=a1)
    return a1 @ w2 + b2, a1


def _losses(loss_kind: str, out: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if loss_kind == "squared_error":
        return 0.5 * (out - targets) ** 2
    return np.logaddexp(0.0, out) - targets * out


def loss(spec: ModelSpec, loss_kind: str, theta: ParamVector, data: TaskDataset) -> float:
    """Loss summed over the dataset; 0.0 on empty data."""
    _check_inputs(spec, loss_kind, theta, data)
    if data.n == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        losses = _losses(loss_kind, _forward(spec, theta.values, data.inputs)[0], data.targets)
    value = float(np.sum(losses))
    if not np.isfinite(value):
        raise NumericError("loss overflowed to a non-finite value")
    return value


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-x))``; saturates to 0 or 1 without warnings."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _output_grads(loss_kind: str, out: np.ndarray, targets: np.ndarray) -> np.ndarray:
    if loss_kind == "squared_error":
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
    if spec.activation == "tanh":
        D = a1 * a1
        np.subtract(1.0, D, out=D)
    else:
        D = (a1 > 0.0).astype(np.float64)
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


def grad(spec: ModelSpec, loss_kind: str, theta: ParamVector, data: TaskDataset) -> ParamVector:
    """Analytic gradient of :func:`loss`; zeros on empty data."""
    _check_inputs(spec, loss_kind, theta, data)
    layout = spec.layout()
    if data.n == 0:
        return ParamVector.zeros(layout)
    out, a1 = _forward(spec, theta.values, data.inputs)
    flat = _backward(spec, theta.values, data.inputs, _output_grads(loss_kind, out, data.targets), a1)
    if not np.isfinite(flat).all():
        raise NumericError("gradient overflowed to non-finite values")
    return ParamVector(layout, flat)


def _value_grad(spec: ModelSpec, loss_kind: str, values, X, y, w=1.0) -> tuple[float, np.ndarray]:
    """Weighted summed loss ``sum_i w_i l_i`` and its flat gradient from one forward pass.

    For rows that passed :func:`_check_data` and unit weights (1.0
    multiplies exactly) this equals :func:`loss` and ``grad(...).values``,
    raising the same overflow errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, a1 = _forward(spec, values, X)
        value = float(np.sum(w * _losses(loss_kind, out, y)))
    if not np.isfinite(value):
        raise NumericError("loss overflowed to a non-finite value")
    return value, _summed_grad(spec, loss_kind, values, X, y, w, out, a1)


def _grad(spec: ModelSpec, loss_kind: str, values, X, y, w=1.0) -> np.ndarray:
    """The gradient :func:`_value_grad` returns, without forming the loss value."""
    with np.errstate(over="ignore", invalid="ignore"):
        out, a1 = _forward(spec, values, X)
        return _summed_grad(spec, loss_kind, values, X, y, w, out, a1)


def _summed_grad(spec, loss_kind, values, X, y, w, out, a1) -> np.ndarray:
    flat = _backward(spec, values, X, w * _output_grads(loss_kind, out, y), a1)
    if not np.isfinite(flat).all():
        raise NumericError("gradient overflowed to non-finite values")
    return flat


def _hessian(spec: ModelSpec, loss_kind: str, values, X, y, w) -> np.ndarray:
    """Dense ``(d, d)`` Hessian of the weighted summed loss ``sum_i w_i l_i``.

    The Gauss-Newton part ``Jc^T Jc`` has rows ``sqrt(w_i l_i'') J_i``,
    where ``J_i`` is row i's output gradient; NumPy forms it as one
    symmetric rank-k update at half the cost of a general product
    (weights are >= 0).  The linear models have no other part.  The MLP
    output adds the residual term ``sum_i r_i grad^2 f_i``, with
    ``r_i = w_i l_i'``, which is block-diagonal per hidden unit ``j``:
    ``w2_j sum_i r_i act''(z_ij) xt_i xt_i^T`` on ``(w1_j, b1_j)``, with
    ``xt = [x, 1]``, and ``sum_i r_i act'(z_ij) xt_i`` against ``w2_j``.
    ReLU's ``act''`` is zero away from its kinks.
    """
    out, a1 = _forward(spec, values, X)
    if loss_kind == "squared_error":
        curv = w * np.ones_like(out)
    else:
        s = _sigmoid(out)
        curv = w * s * (1.0 - s)
    if a1 is None:
        Xs = X * np.sqrt(curv)[:, None]
        return Xs.T @ Xs
    Jc = _backward(spec, values, X, np.sqrt(curv), a1, per_example=True)
    H = Jc.T @ Jc
    h, d = spec.hidden, spec.n_features
    w2 = spec._mlp_views(values)[2]
    r = w * _output_grads(loss_kind, out, y)
    xt = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    # Row j holds unit j's (w1_j, b1_j) coordinates; distinct units' blocks are disjoint.
    unit = np.concatenate([np.arange(h * d).reshape(h, d), h * d + np.arange(h)[:, None]], axis=1)
    w2_index = h * d + h + np.arange(h)[:, None]
    if spec.activation == "tanh":
        D = 1.0 - a1 * a1
        c = (r[:, None] * w2) * (-2.0 * a1 * D)
        outer = (xt[:, :, None] * xt[:, None, :]).reshape(len(X), -1)
        H[unit[:, :, None], unit[:, None, :]] += (c.T @ outer).reshape(h, d + 1, d + 1)
    else:
        D = (a1 > 0.0).astype(np.float64)
    cross = (r[:, None] * D).T @ xt
    H[unit, w2_index] += cross
    H[w2_index, unit] += cross
    return H


def per_example_grads(spec: ModelSpec, loss_kind: str, theta: ParamVector, data: TaskDataset) -> np.ndarray:
    """``(n, d)`` per-example gradients in dataset order; the rows sum to :func:`grad`."""
    _check_inputs(spec, loss_kind, theta, data)
    if data.n == 0:
        return np.zeros((0, spec.layout().total_len))
    out, a1 = _forward(spec, theta.values, data.inputs)
    G = _backward(spec, theta.values, data.inputs, _output_grads(loss_kind, out, data.targets), a1, per_example=True)
    if not np.isfinite(G).all():
        raise NumericError("per-example gradients overflowed to non-finite values")
    return G


def fd_grad(spec: ModelSpec, loss_kind: str, theta: ParamVector, data: TaskDataset, h: float) -> ParamVector:
    """Central finite-difference gradient of :func:`loss`; independent check on :func:`grad`."""
    if not h > 0.0:
        raise ConfigError("finite-difference step h must be > 0")
    _check_inputs(spec, loss_kind, theta, data)
    base = theta.values
    out = np.empty_like(base)
    for j in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[j] += h
        minus[j] -= h
        lp = loss(spec, loss_kind, ParamVector(theta.layout, plus), data)
        lm = loss(spec, loss_kind, ParamVector(theta.layout, minus), data)
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
    if data.n == 0:
        raise EmptyDataError("cannot compute accuracy on an empty dataset")
    _check_inputs(spec, "logistic_nll", theta, data)  # scored labels are {0,1}, as for that loss
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

