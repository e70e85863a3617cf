import json
import math

import numpy as np
import pytest

from gradmerge.curvature import exact_hessian_diag, fisher_diag
from gradmerge.errors import (
    ConfigError,
    EmptyDataError,
    GradmergeError,
    LayoutError,
    NumericError,
)
from gradmerge.models import (
    ModelSpec,
    TaskDataset,
    accuracy,
    fd_grad,
    grad,
    loss,
    per_example_grads,
    save_dataset,
)
from gradmerge.params import ParamVector

LIN1 = ModelSpec("linear_regression", 1)
LOG1 = ModelSpec("logistic", 1)


def theta_of(spec, values):
    return ParamVector(spec.layout(), values)


def data_1d(xs, ys, task_id="t"):
    return TaskDataset(task_id, np.asarray(xs, dtype=float).reshape(-1, 1), ys)


def random_pair(spec, seed, n=12):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, spec.n_features))
    if spec.loss == "squared_error":
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, 2, n).astype(float)
    theta = ParamVector(spec.layout(), 0.5 * rng.standard_normal(spec.layout().total_len))
    return theta, TaskDataset("r", X, y, seed=seed)


class TestModelSpec:
    def test_mlp_layout_order(self):
        spec = ModelSpec("mlp", 3, hidden=4, activation="tanh")
        assert [name for name, _ in spec.layout().entries] == ["w1", "b1", "w2", "b2"]
        assert spec.layout().total_len == 12 + 4 + 4 + 1

    def test_mlp_views_follow_layout_order(self):
        # The flat vector holds w1 row-major, then b1, w2 and b2, each as a
        # view in place; the forward pass reads them through these views.
        spec = ModelSpec("mlp", 2, hidden=3, activation="tanh")
        values = np.arange(spec.layout().total_len, dtype=float)
        w1, b1, w2, b2 = spec._mlp_views(values)
        np.testing.assert_array_equal(w1, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(b1, [6.0, 7.0, 8.0])
        np.testing.assert_array_equal(w2, [9.0, 10.0, 11.0])
        assert b2 == 12.0
        assert all(np.shares_memory(view, values) for view in (w1, b1, w2))
        shapes = [shape for _, shape in spec.layout().entries]
        assert [w1.shape, b1.shape, w2.shape] == shapes[:3] and shapes[3] == (1,)

    def test_hidden_required_iff_mlp(self):
        with pytest.raises(ConfigError):
            ModelSpec("mlp", 3)
        with pytest.raises(ConfigError):
            ModelSpec("logistic", 3, hidden=4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec("transformer", 3)

    def test_bad_activation_rejected(self):
        for activation in ("gelu", "relu"):  # an MLP is tanh
            with pytest.raises(ConfigError, match="activation"):
                ModelSpec("mlp", 3, hidden=4, activation=activation)

    def test_each_kind_has_one_loss(self):
        assert ModelSpec("linear_regression", 2).loss == "squared_error"
        assert ModelSpec("logistic", 2).loss == "logistic_nll"
        assert ModelSpec("mlp", 2, hidden=3, activation="tanh").loss == "logistic_nll"


class TestLoss:
    def test_linear_zero_theta(self):
        value = loss(LIN1, theta_of(LIN1, [0.0]), data_1d([1.0], [2.0]))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_logistic_zero_theta_is_ln2_per_example(self):
        data = data_1d([1.0, -1.0, 2.0, 0.5], [1, 0, 1, 0])
        value = loss(LOG1, theta_of(LOG1, [0.0]), data)
        assert value == pytest.approx(4 * math.log(2.0), abs=1e-12)

    def test_linear_loss_is_exactly_quadratic(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec("linear_regression", 4)
        X = rng.standard_normal((9, 4))
        y = rng.standard_normal(9)
        data = TaskDataset("q", X, y)
        theta = ParamVector(spec.layout(), rng.standard_normal(4))
        zero = ParamVector.zeros(spec.layout())
        l0 = loss(spec, zero, data)
        g0 = grad(spec, zero, data).values
        quad = l0 + g0 @ theta.values + 0.5 * theta.values @ (X.T @ X) @ theta.values
        assert loss(spec, theta, data) == pytest.approx(quad, abs=1e-9)

    def test_nonbinary_targets_rejected_for_nll(self):
        with pytest.raises(ConfigError):
            loss(LOG1, theta_of(LOG1, [0.0]), data_1d([1.0], [0.5]))

    def test_layout_mismatch_rejected(self):
        wrong = ParamVector(ModelSpec("linear_regression", 2).layout(), [0.0, 0.0])
        with pytest.raises(LayoutError):
            loss(LIN1, wrong, data_1d([1.0], [2.0]))

    def test_overflow_raises_numeric_error(self):
        # The output overflows to inf, and the label-0 loss to inf - 0 * inf.
        spec = ModelSpec("mlp", 1, hidden=2, activation="tanh")
        big = ParamVector(spec.layout(), np.full(spec.layout().total_len, 1e308))
        with pytest.raises(NumericError):
            loss(spec, big, data_1d([1.0], [0.0]))

    def test_mlp_loss_survives_checkpoint_round_trip(self, tmp_path):
        from gradmerge.params import Checkpoint, load_checkpoint, save_checkpoint

        spec = ModelSpec("mlp", 2, hidden=4, activation="tanh")
        theta, data = random_pair(spec, 11)
        before = loss(spec, theta, data)
        save_checkpoint(Checkpoint(theta), tmp_path / "m")
        after = loss(spec, load_checkpoint(tmp_path / "m").params, data)
        assert before == after


class TestGrad:
    def test_linear_zero_theta(self):
        g = grad(LIN1, theta_of(LIN1, [0.0]), data_1d([1.0], [2.0]))
        np.testing.assert_allclose(g.values, [-2.0], atol=1e-15)

    def test_matches_finite_differences_all_kinds(self):
        cases = [
            ModelSpec("linear_regression", 3),
            ModelSpec("logistic", 3),
            ModelSpec("mlp", 3, hidden=4, activation="tanh"),
        ]
        for spec in cases:
            for seed in range(4):
                theta, data = random_pair(spec, seed)
                g = grad(spec, theta, data).values
                fd = fd_grad(spec, theta, data, h=1e-5).values
                rel = np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g)))
                assert rel < 1e-5, f"{spec.kind} seed {seed}: rel={rel:.3g}"

    def test_quadratic_loss_fd_h_1em4(self):
        spec = ModelSpec("linear_regression", 4)
        theta, data = random_pair(spec, 9)
        g = grad(spec, theta, data).values
        fd = fd_grad(spec, theta, data, h=1e-4).values
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))) < 1e-8

    def test_fd_perturbation_is_local_for_separable_linear(self):
        # With orthogonal feature columns the squared loss separates per
        # coordinate, so perturbing one coordinate changes only that
        # coordinate's finite-difference estimate.
        spec = ModelSpec("linear_regression", 3)
        X = np.diag([1.0, 2.0, 0.5])
        data = TaskDataset("sep", X, [1.0, -1.0, 2.0])
        theta = ParamVector(spec.layout(), [0.3, 0.1, -0.2])
        fd1 = fd_grad(spec, theta, data, h=1e-4).values
        bumped = theta.values.copy()
        bumped[1] += 0.25
        fd2 = fd_grad(spec, ParamVector(theta.layout, bumped), data, h=1e-4).values
        changed = np.abs(fd1 - fd2) > 1e-10
        assert changed[1] and not changed[0] and not changed[2]

    def test_fd_zero_step_rejected(self):
        theta, data = random_pair(LIN1, 0)
        with pytest.raises(ConfigError):
            fd_grad(LIN1, theta, data, h=0.0)


class TestPerExampleGrads:
    def test_single_example_equals_grad(self):
        theta, _ = random_pair(LOG1, 1)
        data = data_1d([0.7], [1.0])
        gs = per_example_grads(LOG1, theta, data)
        assert gs.shape == (1, 1)
        np.testing.assert_allclose(
            gs[0], grad(LOG1, theta, data).values, atol=1e-15
        )

    def test_identical_examples_identical_grads(self):
        theta, _ = random_pair(LOG1, 2)
        data = data_1d([0.7, 0.7], [1.0, 1.0])
        gs = per_example_grads(LOG1, theta, data)
        np.testing.assert_array_equal(gs[0], gs[1])

    def test_linear_two_example_fixture(self):
        data = data_1d([1.0, 1.0], [2.0, 4.0])
        gs = per_example_grads(LIN1, theta_of(LIN1, [2.0]), data)
        np.testing.assert_allclose(gs, [[0.0], [-2.0]], atol=1e-15)

    def test_sum_equals_grad_sum(self):
        for spec in [ModelSpec("mlp", 2, hidden=3, activation="tanh"), ModelSpec("logistic", 4), ModelSpec("linear_regression", 4)]:
            theta, data = random_pair(spec, 5)
            total = per_example_grads(spec, theta, data).sum(axis=0)
            direct = grad(spec, theta, data).values
            np.testing.assert_allclose(total, direct, atol=1e-10)


class TestOverflowRule:
    """The package's own finiteness checks are the only signal of an overflow: no NumPy warning escapes."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fn", [loss, grad, per_example_grads, fisher_diag, exact_hessian_diag], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("linear_regression", 2), ModelSpec("logistic", 2), ModelSpec("mlp", 2, hidden=3, activation="tanh")],
        ids=lambda spec: spec.kind,
    )
    def test_huge_values_return_or_raise_the_packages_error(self, spec, fn):
        data = TaskDataset("huge", [[1e200, 1e200], [-1e200, 3.0]], [1.0, 0.0])
        theta = ParamVector(spec.layout(), np.full(spec.layout().total_len, 1e200))
        try:
            fn(spec, theta, data)
        except GradmergeError:
            pass


class TestPredictAccuracy:
    def test_logistic_zero_theta_accuracy_is_class1_rate(self):
        data = data_1d([1.0, -2.0, 0.5, 3.0, -1.0], [1, 0, 1, 1, 0])
        acc = accuracy(LOG1, theta_of(LOG1, [0.0]), data)
        assert acc == pytest.approx(np.mean(data.targets == 1.0))

    def test_separable_fit_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(8)
        spec = ModelSpec("logistic", 2)
        pos = rng.normal([2.0, 2.0], 0.3, (20, 2))
        neg = rng.normal([-2.0, -2.0], 0.3, (20, 2))
        data = TaskDataset("sep", np.vstack([pos, neg]), np.r_[np.ones(20), np.zeros(20)])
        w = ParamVector(spec.layout(), [1.0, 1.0])
        assert accuracy(spec, w, data) == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataError):
            accuracy(LOG1, theta_of(LOG1, [0.0]), TaskDataset("e", np.zeros((0, 1)), []))

    def test_accuracy_undefined_for_regression(self):
        with pytest.raises(ConfigError):
            accuracy(LIN1, theta_of(LIN1, [0.0]), data_1d([1.0], [2.0]))

    def test_tie_predicts_class_one(self):
        data = data_1d([0.0, 0.0], [1.0, 0.0])
        assert accuracy(LOG1, theta_of(LOG1, [3.0]), data) == pytest.approx(0.5)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        data = TaskDataset("taskA", [[1.0, 2.0], [3.0, 4.0]], [0.0, 1.0], seed=13)
        save_dataset(data, tmp_path / "d.json")
        doc = json.loads((tmp_path / "d.json").read_text())
        back = TaskDataset(doc["task_id"], doc["inputs"], doc["targets"], doc["seed"])
        assert back.task_id == "taskA"
        assert back.seed == 13
        np.testing.assert_array_equal(back.inputs, data.inputs)
        np.testing.assert_array_equal(back.targets, data.targets)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            TaskDataset("t", [[1.0], [2.0]], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            TaskDataset("t", [[np.nan]], [1.0])

    def test_empty_data_refused_at_construction(self):
        # No rows, or rows with no features: no model, loss, curvature or
        # fit has an empty-data case, because no such dataset exists.
        for inputs, targets in [([], []), (np.zeros((0, 2)), []), (np.zeros((3, 0)), [0.0, 1.0, 0.0])]:
            with pytest.raises(EmptyDataError):
                TaskDataset("e", inputs, targets)
