"""The single-pass evaluators the training and curvature code rely on,
checked against the public per-call functions they replace."""

import numpy as np
import pytest

from gradmerge.curvature import FisherConfig, fisher_diag
from gradmerge.errors import ConfigError, LayoutError, NumericError
from gradmerge import training
from gradmerge.models import ModelSpec, TaskDataset, _value_grad, grad, loss, per_example_grads
from gradmerge.params import ParamVector
from gradmerge.training import TrainConfig, train_anchor

CASES = [
    (ModelSpec("linear_regression", 3), "squared_error"),
    (ModelSpec("logistic", 3), "logistic_nll"),
    (ModelSpec("mlp", 3, hidden=4, activation="tanh"), "logistic_nll"),
    (ModelSpec("mlp", 3, hidden=4, activation="tanh"), "squared_error"),
    (ModelSpec("mlp", 3, hidden=4, activation="relu"), "logistic_nll"),
    (ModelSpec("mlp", 3, hidden=4, activation="relu"), "squared_error"),
]


def random_pair(spec, loss_kind, seed, n=25):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, spec.n_features))
    if loss_kind == "squared_error":
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, 2, n).astype(float)
    theta = ParamVector(spec.layout(), 0.5 * rng.standard_normal(spec.layout().total_len))
    return theta, TaskDataset("r", X, y, seed=seed)


class TestFusedValueGrad:
    @pytest.mark.parametrize("spec,loss_kind", CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loss_and_grad(self, spec, loss_kind, seed):
        theta, data = random_pair(spec, loss_kind, seed)
        value, g = _value_grad(spec, loss_kind, theta.values, data.inputs, data.targets)
        assert value == pytest.approx(loss(spec, loss_kind, theta, data, "sum"), rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g, grad(spec, loss_kind, theta, data, "sum").values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec,loss_kind", CASES)
    def test_empty_data(self, spec, loss_kind):
        theta, _ = random_pair(spec, loss_kind, 0)
        empty = TaskDataset("e", np.zeros((0, spec.n_features)), [])
        value, g = _value_grad(spec, loss_kind, theta.values, empty.inputs, empty.targets)
        assert value == 0.0 == loss(spec, loss_kind, theta, empty, "sum")
        np.testing.assert_array_equal(g, grad(spec, loss_kind, theta, empty, "sum").values)
        assert g.shape == (spec.layout().total_len,)

    def test_same_errors_as_loss(self, monkeypatch):
        # The kernel trusts its caller, so a fit raises the public
        # functions' input errors before its first evaluation.
        evals = []
        monkeypatch.setattr(training, "_value_grad", lambda *a: evals.append(a))
        lin, log = ModelSpec("linear_regression", 2), ModelSpec("logistic", 1)
        cases = [
            (LayoutError, lin, "squared_error", TaskDataset("t", [[1.0]], [2.0])),
            (ConfigError, log, "logistic_nll", TaskDataset("t", [[1.0]], [0.5])),
            (ConfigError, log, "squared_error", TaskDataset("t", [[1.0]], [1.0])),
        ]
        for error, spec, loss_kind, data in cases:
            theta = ParamVector.zeros(spec.layout())
            with pytest.raises(error):
                loss(spec, loss_kind, theta, data)
            with pytest.raises(error):
                train_anchor(spec, loss_kind, data, 0.1, TrainConfig())
        assert evals == []
        monkeypatch.undo()
        spec = ModelSpec("mlp", 1, hidden=2, activation="relu")
        big = np.full(spec.layout().total_len, 1e200)
        with pytest.raises(NumericError):
            _value_grad(spec, "squared_error", big, np.ones((1, 1)), np.zeros(1))


class TestFisherReduction:
    @pytest.mark.parametrize("spec,loss_kind", CASES)
    @pytest.mark.parametrize("mode", ["sum", "avg"])
    def test_equals_loop_over_per_example_grads(self, spec, loss_kind, mode):
        theta, data = random_pair(spec, loss_kind, 5, n=40)
        cfg = FisherConfig(mode=mode)
        sq = np.zeros(spec.layout().total_len)
        for g in per_example_grads(spec, loss_kind, theta, data):
            sq += g * g
        if mode == "avg":
            sq /= data.n
        np.testing.assert_array_equal(fisher_diag(spec, loss_kind, theta, data, cfg).values, sq + cfg.delta_floor)


def test_model_layout_is_cached_without_changing_equality():
    spec = ModelSpec("mlp", 3, hidden=4, activation="tanh")
    assert spec.layout() is spec.layout()
    other = ModelSpec("mlp", 3, hidden=4, activation="tanh")
    assert spec == other and hash(spec) == hash(other)
    assert spec.layout() == other.layout()
