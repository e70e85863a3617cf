"""The single-pass evaluators the training and curvature code rely on,
checked against the public per-call functions they replace, and the
Hessian kernel Newton steps with, checked against differences of the
gradient."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradmerge.curvature import FISHER_FLOOR, fisher_diag
from gradmerge.errors import ConfigError, LayoutError, NumericError
from gradmerge import training
from gradmerge.models import ModelSpec, TaskDataset, _grad, _hessian, _value_grad, grad, loss, per_example_grads
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
        assert value == pytest.approx(loss(spec, loss_kind, theta, data), rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g, grad(spec, loss_kind, theta, data).values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec,loss_kind", CASES)
    def test_gradient_kernel_equals_value_grad_gradient(self, spec, loss_kind):
        # Adam steps on ``_grad``; its iterates must not depend on which kernel it calls.
        theta, data = random_pair(spec, loss_kind, 4)
        w = np.random.default_rng(4).uniform(0.0, 2.0, data.n)
        expected = _value_grad(spec, loss_kind, theta.values, data.inputs, data.targets, w)[1]
        np.testing.assert_array_equal(_grad(spec, loss_kind, theta.values, data.inputs, data.targets, w), expected)

    @pytest.mark.parametrize("spec,loss_kind", CASES)
    def test_empty_data(self, spec, loss_kind):
        theta, _ = random_pair(spec, loss_kind, 0)
        empty = TaskDataset("e", np.zeros((0, spec.n_features)), [])
        value, g = _value_grad(spec, loss_kind, theta.values, empty.inputs, empty.targets)
        assert value == 0.0 == loss(spec, loss_kind, theta, empty)
        np.testing.assert_array_equal(g, grad(spec, loss_kind, theta, empty).values)
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


def within_rounding(actual, expected, magnitude):
    """``|actual - expected| <= 1e-12 * magnitude`` elementwise.

    ``magnitude`` is the sum of the absolute terms behind ``expected``, so
    the bound holds however the summands cancel or are reordered.
    """
    assert np.all(np.abs(np.asarray(actual) - expected) <= 1e-12 * magnitude), (actual, expected)


class TestWeightedRowBlock:
    @given(
        case=st.integers(0, len(CASES) - 1),
        seed=st.integers(0, 2**16),
        tasks=st.lists(
            # Weights stay in the normal range: a subnormal alpha times a
            # row's loss underflows, and no relative bound holds there.
            st.tuples(st.integers(0, 12), st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(1e-6, 5.0)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_call_equals_the_weighted_sum_of_task_losses(self, case, seed, tasks):
        # A fit's stacked, weighted rows give ``sum_t alpha_t L_t`` and its
        # gradient in one kernel call; zero weights and empty tasks drop out.
        spec, loss_kind = CASES[case]
        datasets = [random_pair(spec, loss_kind, seed + t, n=n)[1] for t, (n, _) in enumerate(tasks)]
        alphas = [alpha for _, alpha in tasks]
        theta = random_pair(spec, loss_kind, seed)[0]
        value, g = _value_grad(spec, loss_kind, theta.values, *training._rows(spec, datasets, alphas))
        expected_value = sum(a * loss(spec, loss_kind, theta, ds) for a, ds in zip(alphas, datasets))
        expected_grad = sum(a * grad(spec, loss_kind, theta, ds).values for a, ds in zip(alphas, datasets))
        magnitude = sum(a * np.abs(per_example_grads(spec, loss_kind, theta, ds)).sum(axis=0) for a, ds in zip(alphas, datasets))
        assert value == pytest.approx(expected_value, rel=1e-12, abs=0.0)
        within_rounding(g, expected_grad, magnitude)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("loss_kind", ["logistic_nll", "squared_error"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_summed_mlp_gradient_equals_per_example_column_sums(self, activation, loss_kind, seed):
        # The summed branch factors g and w2 out of its (n, h) products;
        # the per-example branch forms every dz1 explicitly.
        spec = ModelSpec("mlp", 3, hidden=5, activation=activation)
        theta, data = random_pair(spec, loss_kind, seed, n=40)
        G = per_example_grads(spec, loss_kind, theta, data)
        within_rounding(grad(spec, loss_kind, theta, data).values, G.sum(axis=0), np.abs(G).sum(axis=0))


class TestHessian:
    @given(case=st.integers(0, len(CASES) - 1), seed=st.integers(0, 2**16), n=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_central_differences_of_the_gradient(self, case, seed, n):
        spec, loss_kind = CASES[case]
        theta, data = random_pair(spec, loss_kind, seed, n=n)
        X, y, values = data.inputs, data.targets, theta.values
        w = np.random.default_rng(seed).uniform(0.0, 2.0, n)
        step = 1e-5
        if spec.activation == "relu":
            # A difference across a kink sees act' jump; a step moves every
            # pre-activation by at most step * (|x|_1 + 1).
            w1, b1 = spec._mlp_views(values)[:2]
            margin = step * (np.abs(X).sum(axis=1).max() + 1.0)
            assume(np.abs(X @ w1.T + b1).min() > 10.0 * margin)
        H = _hessian(spec, loss_kind, values, X, y, w)
        fd = np.empty_like(H)
        for j in range(values.size):
            e = np.zeros_like(values)
            e[j] = step
            plus = _value_grad(spec, loss_kind, values + e, X, y, w)[1]
            minus = _value_grad(spec, loss_kind, values - e, X, y, w)[1]
            fd[:, j] = (plus - minus) / (2.0 * step)
        scale = 1.0 + np.abs(fd).max()
        np.testing.assert_allclose(H, fd, rtol=0.0, atol=1e-6 * scale)
        np.testing.assert_allclose(H, H.T, rtol=0.0, atol=1e-13 * scale)


class TestFisherReduction:
    @pytest.mark.parametrize("spec,loss_kind", CASES)
    def test_equals_loop_over_per_example_grads(self, spec, loss_kind):
        theta, data = random_pair(spec, loss_kind, 5, n=40)
        sq = np.zeros(spec.layout().total_len)
        for g in per_example_grads(spec, loss_kind, theta, data):
            sq += g * g
        np.testing.assert_array_equal(fisher_diag(spec, loss_kind, theta, data).values, sq + FISHER_FLOOR)


def test_model_layout_is_cached_without_changing_equality():
    spec = ModelSpec("mlp", 3, hidden=4, activation="tanh")
    assert spec.layout() is spec.layout()
    other = ModelSpec("mlp", 3, hidden=4, activation="tanh")
    assert spec == other and hash(spec) == hash(other)
    assert spec.layout() == other.layout()
