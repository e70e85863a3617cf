"""The single-pass evaluators the training and curvature code rely on,
checked against the public per-call functions they replace, and the
Hessian kernel Newton steps with, checked against differences of the
gradient and bitwise: for the MLP against the per-example Jacobian
build, for the convex kinds against ``Xs^T Xs`` from a fresh sigmoid."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradmerge.curvature import FISHER_FLOOR, fisher_diag
from gradmerge.errors import ConfigError, LayoutError, NumericError
from gradmerge import training
from gradmerge.models import (
    ModelSpec,
    TaskDataset,
    _backward,
    _forward,
    _grad,
    _hessian,
    _HessianRows,
    _output_grads,
    _sigmoid,
    _value_grad,
    grad,
    loss,
    per_example_grads,
)
from gradmerge.params import ParamVector
from gradmerge.training import train_anchor

# Each kind at three features, plus the edge shapes its kernels reshape
# around: a single feature (a one-column X and w1) and a single hidden unit.
CASES = [
    ModelSpec("linear_regression", 3),
    ModelSpec("logistic", 3),
    ModelSpec("mlp", 3, hidden=4, activation="tanh"),
    ModelSpec("linear_regression", 1),
    ModelSpec("logistic", 1),
    ModelSpec("mlp", 1, hidden=1, activation="tanh"),
]
IDS = ["linear_regression", "logistic", "mlp", "linear_regression-d1", "logistic-d1", "mlp-d1-h1"]


def random_pair(spec, seed, n=25):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, spec.n_features))
    if spec.loss == "squared_error":
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, 2, n).astype(float)
    theta = ParamVector(spec.layout(), 0.5 * rng.standard_normal(spec.layout().total_len))
    return theta, TaskDataset("r", X, y, seed=seed)


class TestFusedValueGrad:
    @pytest.mark.parametrize("spec", CASES, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loss_and_grad(self, spec, seed):
        theta, data = random_pair(spec, seed)
        value, g, fwd = _value_grad(spec, theta.values, data.inputs, data.targets)
        out = fwd[0]
        np.testing.assert_array_equal(out, _forward(spec, theta.values, data.inputs)[0])
        assert value == pytest.approx(loss(spec, theta, data), rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g, grad(spec, theta, data).values, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", CASES, ids=IDS)
    def test_gradient_kernel_equals_value_grad_gradient(self, spec):
        # Adam steps on ``_grad``; its iterates must not depend on which kernel it calls.
        theta, data = random_pair(spec, 4)
        w = np.random.default_rng(4).uniform(0.0, 2.0, data.n)
        expected = _value_grad(spec, theta.values, data.inputs, data.targets, w)[1]
        np.testing.assert_array_equal(_grad(spec, theta.values, data.inputs, data.targets, w), expected)

    @pytest.mark.parametrize("spec", CASES, ids=IDS)
    def test_empty_data(self, spec):
        # A fit whose every weight is zero (the joint target at alpha 0)
        # stacks an empty (0, d) row block, which no TaskDataset can hold.
        theta, _ = random_pair(spec, 0)
        value, g, _ = _value_grad(spec, theta.values, np.zeros((0, spec.n_features)), np.zeros(0))
        assert value == 0.0
        np.testing.assert_array_equal(g, np.zeros(spec.layout().total_len))

    def test_same_errors_as_loss(self, monkeypatch):
        # The kernel trusts its caller, so a fit raises the public
        # functions' input errors before its first evaluation.
        evals = []
        monkeypatch.setattr(training, "_value_grad", lambda *a: evals.append(a))
        lin, log = ModelSpec("linear_regression", 2), ModelSpec("logistic", 1)
        cases = [
            (LayoutError, lin, TaskDataset("t", [[1.0]], [2.0])),
            (ConfigError, log, TaskDataset("t", [[1.0]], [0.5])),
        ]
        for error, spec, data in cases:
            theta = ParamVector.zeros(spec.layout())
            with pytest.raises(error):
                loss(spec, theta, data)
            with pytest.raises(error):
                train_anchor(spec, data, 0.1, 0)
        assert evals == []
        monkeypatch.undo()
        spec = ModelSpec("mlp", 1, hidden=2, activation="tanh")
        big = np.full(spec.layout().total_len, 1e308)
        with pytest.raises(NumericError):
            _value_grad(spec, big, np.ones((1, 1)), np.zeros(1))


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
            st.tuples(st.integers(1, 12), st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(1e-6, 5.0)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_call_equals_the_weighted_sum_of_task_losses(self, case, seed, tasks):
        # A fit's stacked, weighted rows give ``sum_t alpha_t L_t`` and its
        # gradient in one kernel call; zero weights drop out.
        spec = CASES[case]
        datasets = [random_pair(spec, seed + t, n=n)[1] for t, (n, _) in enumerate(tasks)]
        alphas = [alpha for _, alpha in tasks]
        theta = random_pair(spec, seed)[0]
        value, g, _ = _value_grad(spec, theta.values, *training._rows(spec, datasets, alphas))
        expected_value = sum(a * loss(spec, theta, ds) for a, ds in zip(alphas, datasets))
        expected_grad = sum(a * grad(spec, theta, ds).values for a, ds in zip(alphas, datasets))
        magnitude = sum(a * np.abs(per_example_grads(spec, theta, ds)).sum(axis=0) for a, ds in zip(alphas, datasets))
        assert value == pytest.approx(expected_value, rel=1e-12, abs=0.0)
        within_rounding(g, expected_grad, magnitude)

    @pytest.mark.parametrize("spec", CASES[:3], ids=IDS[:3])
    def test_one_live_task_reads_the_dataset_without_copying(self, spec):
        # The anchor, a fine-tune or a retrain fits one dataset: its block is
        # that dataset's own read-only arrays.  Several live tasks stack.
        (_, first), (_, second) = random_pair(spec, 0), random_pair(spec, 1, n=7)
        for datasets, alphas in (([first], [1.0]), ([second, first], [0.0, 0.5])):
            X, y, w = training._rows(spec, datasets, alphas)
            assert np.shares_memory(X, first.inputs) and np.shares_memory(y, first.targets)
            np.testing.assert_array_equal(w, np.full(first.n, alphas[-1]))
        X, y, w = training._rows(spec, [first, second], [1.0, 2.0])
        assert not np.shares_memory(X, first.inputs) and not np.shares_memory(y, first.targets)
        np.testing.assert_array_equal(X, np.vstack([first.inputs, second.inputs]))
        np.testing.assert_array_equal(w, np.r_[np.full(first.n, 1.0), np.full(second.n, 2.0)])
        X, y, w = training._rows(spec, [first, second], [0.0, 0.0])
        assert X.shape == (0, spec.n_features) and y.shape == w.shape == (0,)

    @pytest.mark.parametrize("n_features,hidden", [(3, 5), (1, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_summed_mlp_gradient_equals_per_example_column_sums(self, n_features, hidden, seed):
        # The summed branch factors g and w2 out of its (n, h) products;
        # the per-example branch forms every dz1 explicitly.
        spec = ModelSpec("mlp", n_features, hidden=hidden, activation="tanh")
        theta, data = random_pair(spec, seed, n=40)
        G = per_example_grads(spec, theta, data)
        within_rounding(grad(spec, theta, data).values, G.sum(axis=0), np.abs(G).sum(axis=0))


def hessian_at(spec, values, X, y, w, rows=None):
    """One kernel build at ``values``, from the forward pass ``_value_grad`` ran there."""
    rows = _HessianRows(spec, X) if rows is None else rows
    return _hessian(spec, values, rows, y, w, _value_grad(spec, values, X, y, w)[2])


def per_example_hessian(spec, values, X, y, w):
    """The MLP Hessian from ``_backward``'s ``(n, p)`` per-example Jacobian and
    per-call fancy indexing: the build the kernel replaced, kept as its
    bitwise reference."""
    out, a1 = _forward(spec, values, X)
    s = _sigmoid(out)
    Jc = _backward(spec, values, X, np.sqrt(w * s * (1.0 - s)), a1, per_example=True)
    H = Jc.T @ Jc
    h, d = spec.hidden, spec.n_features
    w2 = spec._mlp_views(values)[2]
    r = w * _output_grads(spec, out, y)
    xt = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    unit = np.concatenate([np.arange(h * d).reshape(h, d), h * d + np.arange(h)[:, None]], axis=1)
    w2_index = h * d + h + np.arange(h)[:, None]
    D = 1.0 - a1 * a1
    c = (r[:, None] * w2) * (-2.0 * a1 * D)
    outer = (xt[:, :, None] * xt[:, None, :]).reshape(len(X), -1)
    H[unit[:, :, None], unit[:, None, :]] += (c.T @ outer).reshape(h, d + 1, d + 1)
    cross = (r[:, None] * D).T @ xt
    H[unit, w2_index] += cross
    H[w2_index, unit] += cross
    return H


MLP_CASES = [spec for spec in CASES if spec.kind == "mlp"]
MLP_IDS = [i for spec, i in zip(CASES, IDS) if spec.kind == "mlp"]
CONVEX_CASES = [spec for spec in CASES if spec.kind != "mlp"]
CONVEX_IDS = [i for spec, i in zip(CASES, IDS) if spec.kind != "mlp"]


class TestHessian:
    @given(case=st.integers(0, len(CASES) - 1), seed=st.integers(0, 2**16), n=st.integers(1, 30))
    @example(case=2, seed=0, n=30)
    @example(case=5, seed=1, n=1)
    @example(case=5, seed=2, n=17)
    @settings(max_examples=60, deadline=None)
    def test_matches_central_differences_of_the_gradient(self, case, seed, n):
        # Every third row has zero weight, the first among them, so n=1 is all zero.
        spec = CASES[case]
        theta, data = random_pair(spec, seed, n=n)
        X, y, values = data.inputs, data.targets, theta.values
        w = np.random.default_rng(seed).uniform(0.0, 2.0, n)
        w[::3] = 0.0
        step = 1e-5
        H = hessian_at(spec, values, X, y, w)
        fd = np.empty_like(H)
        for j in range(values.size):
            e = np.zeros_like(values)
            e[j] = step
            plus = _value_grad(spec, values + e, X, y, w)[1]
            minus = _value_grad(spec, values - e, X, y, w)[1]
            fd[:, j] = (plus - minus) / (2.0 * step)
        scale = 1.0 + np.abs(fd).max()
        np.testing.assert_allclose(H, fd, rtol=0.0, atol=1e-6 * scale)
        np.testing.assert_allclose(H, H.T, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("spec", MLP_CASES, ids=MLP_IDS)
    @pytest.mark.parametrize("n", [1, 40, 700])
    def test_mlp_equals_the_per_example_jacobian_build_bitwise(self, spec, n):
        theta, data = random_pair(spec, n, n=n)
        w = np.random.default_rng(n).uniform(0.0, 2.0, n)
        w[::4] = 0.0
        args = (spec, theta.values, data.inputs, data.targets, w)
        np.testing.assert_array_equal(hessian_at(*args), per_example_hessian(*args))

    @pytest.mark.parametrize("spec", CONVEX_CASES, ids=CONVEX_IDS)
    @pytest.mark.parametrize("n", [1, 40, 700])
    def test_convex_equals_the_scaled_row_build_bitwise(self, spec, n):
        # The kernel reads the sigmoid from the forward tuple; the reference
        # computes it afresh from a separate forward pass.
        theta, data = random_pair(spec, n, n=n)
        w = np.random.default_rng(n).uniform(0.0, 2.0, n)
        w[::4] = 0.0
        X, y, values = data.inputs, data.targets, theta.values
        fwd = _value_grad(spec, values, X, y, w)[2]
        out = _forward(spec, values, X)[0]
        if spec.loss == "squared_error":
            assert fwd[2] is None
            curv = w * np.ones_like(out)
        else:
            s = _sigmoid(out)
            np.testing.assert_array_equal(fwd[2], s)
            curv = w * s * (1.0 - s)
        Xs = X * np.sqrt(curv)[:, None]
        np.testing.assert_array_equal(_hessian(spec, values, _HessianRows(spec, X), y, w, fwd), Xs.T @ Xs)

    @pytest.mark.parametrize("spec", MLP_CASES, ids=MLP_IDS)
    def test_reused_products_carry_nothing_between_builds(self, spec):
        # One fit's products serve every Newton step; JT and the work
        # buffers are overwritten in full by each build.
        first, data = random_pair(spec, 11, n=30)
        second = random_pair(spec, 12)[0]
        X, y = data.inputs, data.targets
        w = np.random.default_rng(11).uniform(0.0, 2.0, len(y))
        rows = _HessianRows(spec, X)
        builds = [hessian_at(spec, theta.values, X, y, w, rows) for theta in (first, second, first)]
        np.testing.assert_array_equal(builds[0], builds[2])
        assert not np.array_equal(builds[0], builds[1])
        for theta, H in zip((first, second, first), builds):
            np.testing.assert_array_equal(H, hessian_at(spec, theta.values, X, y, w))


class TestFisherReduction:
    @pytest.mark.parametrize("spec", CASES, ids=IDS)
    def test_equals_loop_over_per_example_grads(self, spec):
        theta, data = random_pair(spec, 5, n=40)
        sq = np.zeros(spec.layout().total_len)
        for g in per_example_grads(spec, theta, data):
            sq += g * g
        np.testing.assert_array_equal(fisher_diag(spec, theta, data).values, sq + FISHER_FLOOR)
        # Squaring the fresh gradient matrix in place gives the products of ``G * G``.
        G = per_example_grads(spec, theta, data)
        np.testing.assert_array_equal(fisher_diag(spec, theta, data).values, (G * G).sum(axis=0) + FISHER_FLOOR)


def test_model_layout_is_cached_without_changing_equality():
    spec = ModelSpec("mlp", 3, hidden=4, activation="tanh")
    assert spec.layout() is spec.layout()
    other = ModelSpec("mlp", 3, hidden=4, activation="tanh")
    assert spec == other and hash(spec) == hash(other)
    assert spec.layout() == other.layout()
