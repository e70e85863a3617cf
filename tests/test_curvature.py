import numpy as np
import pytest

from gradmerge.curvature import (
    FISHER_FLOOR,
    exact_hessian_diag,
    fisher_diag,
)
from gradmerge.errors import ConfigError, EmptyDataError, LayoutError, UnsupportedModelError
from gradmerge.harness import ExperimentSpec, estimate_anchor_h0, estimate_task_curvature
from gradmerge.models import ModelSpec, TaskDataset, per_example_grads
from gradmerge.params import ParamVector

LIN1 = ModelSpec("linear_regression", 1)
LOG1 = ModelSpec("logistic", 1)


def theta_of(spec, values):
    return ParamVector(spec.layout(), values)


def data_1d(xs, ys):
    return TaskDataset("t", np.asarray(xs, dtype=float).reshape(-1, 1), ys)


def random_case(seed, n=16, d=3):
    rng = np.random.default_rng(seed)
    spec = ModelSpec("logistic", d)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n).astype(float)
    theta = ParamVector(spec.layout(), 0.5 * rng.standard_normal(d))
    return spec, theta, TaskDataset("r", X, y, seed=seed)


class TestFisherDiag:
    def test_single_example_square_plus_floor(self):
        data = data_1d([1.5], [2.0])
        theta = theta_of(LIN1, [0.0])
        g = per_example_grads(LIN1, theta, data)[0]
        out = fisher_diag(LIN1, theta, data)
        assert FISHER_FLOOR == 1e-10
        np.testing.assert_allclose(out.values, g * g + 1e-10, rtol=1e-15)

    def test_two_example_linear_fixture(self):
        # Per-example gradients at theta=2 on {(1,2),(1,4)} are 0 and -2,
        # so the summed squared gradient is 4.
        out = fisher_diag(LIN1, theta_of(LIN1, [2.0]), data_1d([1.0, 1.0], [2.0, 4.0]))
        np.testing.assert_allclose(out.values, [4.0 + FISHER_FLOOR], rtol=1e-15)

    def test_empty_dataset_rejected(self):
        # The empty dataset is refused where it is built, so the call that
        # would receive it raises the same EmptyDataError.
        with pytest.raises(EmptyDataError):
            fisher_diag(LIN1, theta_of(LIN1, [0.0]), TaskDataset("e", np.zeros((0, 1)), []))

    def test_floor_is_added_not_clipped(self):
        # One example with residual -7e-6: the squared gradients are 4.9e-11,
        # below the floor, and 4.9e-5, far above it.  Clipping would give
        # [1e-10, 4.9e-5]; adding gives [1.49e-10, 4.9e-5 + 1e-10].
        spec = ModelSpec("linear_regression", 2)
        theta = ParamVector.zeros(spec.layout())
        data = TaskDataset("t", [[1.0, 1000.0]], [7e-6])
        g = per_example_grads(spec, theta, data)[0]
        out = fisher_diag(spec, theta, data)
        np.testing.assert_allclose(out.values, g * g + FISHER_FLOOR, rtol=1e-12)
        assert out.values[0] == pytest.approx(1.49e-10, rel=1e-9)

    def test_order_invariance_of_sum(self):
        spec, theta, data = random_case(3, n=12)
        perm = np.random.default_rng(0).permutation(data.n)
        shuffled = TaskDataset(data.task_id, data.inputs[perm], data.targets[perm], data.seed)
        a = fisher_diag(spec, theta, data)
        b = fisher_diag(spec, theta, shuffled)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12 * max(1.0, a.values.max()))


class TestExactHessianDiag:
    def test_linear_sum_of_squares(self):
        out = exact_hessian_diag(LIN1, theta_of(LIN1, [0.0]), data_1d([1.0, 1.0], [9.0, 9.0]))
        np.testing.assert_allclose(out.values, [2.0], atol=1e-15)

    def test_logistic_quarter_at_zero(self):
        out = exact_hessian_diag(LOG1, theta_of(LOG1, [0.0]), data_1d([1.0], [1.0]))
        np.testing.assert_allclose(out.values, [0.25], atol=1e-15)

    def test_linear_theta_independent(self):
        data = data_1d([1.0, -2.0, 0.5], [1.0, 2.0, 3.0])
        a = exact_hessian_diag(LIN1, theta_of(LIN1, [0.0]), data)
        b = exact_hessian_diag(LIN1, theta_of(LIN1, [17.0]), data)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("spec", [LIN1, LOG1], ids=["linear_regression", "logistic"])
    def test_empty_dataset_rejected_like_the_fisher(self, spec):
        with pytest.raises(EmptyDataError):
            exact_hessian_diag(spec, theta_of(spec, [0.0]), TaskDataset("e", np.zeros((0, 1)), []))

    def test_mlp_rejected(self):
        spec = ModelSpec("mlp", 2, hidden=3, activation="tanh")
        theta = ParamVector.zeros(spec.layout())
        with pytest.raises(UnsupportedModelError):
            exact_hessian_diag(spec, theta, TaskDataset("t", [[1.0, 2.0]], [1.0]))

    @pytest.mark.parametrize("spec,loss", [(LIN1, "squared_error"), (LOG1, "logistic_nll")])
    def test_checks_inputs_like_the_loss(self, spec, loss):
        assert spec.loss == loss
        theta = theta_of(spec, [0.5])
        with pytest.raises(LayoutError):
            exact_hessian_diag(spec, theta, TaskDataset("t", [[1.0, 2.0]], [1.0]))
        with pytest.raises(LayoutError):
            exact_hessian_diag(spec, ParamVector.zeros(ModelSpec(spec.kind, 2).layout()), data_1d([1.0], [1.0]))
        if loss == "logistic_nll":
            with pytest.raises(ConfigError, match=r"\{0,1\} targets"):
                exact_hessian_diag(spec, theta, data_1d([1.0], [0.5]))

    def test_single_example_fisher_is_hessian_times_squared_residual(self):
        # With one example, fisher entry j is (x_j r)^2 and the linear
        # Hessian entry is x_j^2, so fisher = hessian * r^2 coordinatewise.
        x = np.array([[1.5, -0.5, 2.0]])
        y = np.array([0.75])
        spec = ModelSpec("linear_regression", 3)
        theta = ParamVector(spec.layout(), [0.1, 0.2, 0.3])
        data = TaskDataset("one", x, y)
        r = float((x @ theta.values - y)[0])
        f = fisher_diag(spec, theta, data)
        h = exact_hessian_diag(spec, theta, data)
        np.testing.assert_allclose(f.values - FISHER_FLOOR, h.values * r * r, rtol=1e-12)

    def test_logistic_matches_fd_of_gradient(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec("logistic", 3)
        X = rng.standard_normal((20, 3))
        y = rng.integers(0, 2, 20).astype(float)
        data = TaskDataset("fd", X, y)
        theta = ParamVector(spec.layout(), 0.3 * rng.standard_normal(3))
        from gradmerge.models import grad

        h = 1e-5
        exact = exact_hessian_diag(spec, theta, data).values
        for j in range(3):
            plus = theta.values.copy()
            minus = theta.values.copy()
            plus[j] += h
            minus[j] -= h
            gp = grad(spec, ParamVector(theta.layout, plus), data).values[j]
            gm = grad(spec, ParamVector(theta.layout, minus), data).values[j]
            assert exact[j] == pytest.approx((gp - gm) / (2 * h), abs=1e-6)


class TestAnchorCurvature:
    """``spec.curvature`` picks the anchor's estimator, dispatched by ``harness.estimate_anchor_h0``."""

    @staticmethod
    def h0(curvature, seed=4):
        spec, theta, data = random_case(seed)
        exp = ExperimentSpec(model=spec, curvature=curvature)
        return estimate_anchor_h0(exp, theta, data), (spec, theta, data)

    def test_identity(self):
        # Only the two estimators are sources; a constant diagonal is not,
        # and the anchor has no source key of its own.
        for source in ("identity", "identity:2.0"):
            with pytest.raises(ConfigError, match="curvature"):
                ExperimentSpec(curvature=source)
            with pytest.raises(ConfigError, match="unknown keys"):
                ExperimentSpec.from_dict({"anchor": {"source": source}})

    def test_identity_zero_scale_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(curvature="identity:0.0")

    def test_fisher_delegates(self):
        a, (spec, theta, data) = self.h0("fisher", 4)
        b = fisher_diag(spec, theta, data)
        np.testing.assert_array_equal(a.values, b.values)

    def test_exact_delegates(self):
        a, (spec, theta, data) = self.h0("exact", 5)
        b = exact_hessian_diag(spec, theta, data)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("curvature", ["fisher", "exact"])
    def test_anchor_and_task_estimators_agree_bitwise(self, curvature):
        # One estimator serves h0 and every task diagonal.
        a, (spec, theta, data) = self.h0(curvature, 6)
        b = estimate_task_curvature(ExperimentSpec(model=spec, curvature=curvature), theta, data)
        assert a.values.tobytes() == b.values.tobytes()

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(curvature="kfac")
