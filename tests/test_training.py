import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmerge import models, training
from gradmerge.errors import ConfigError, DivergenceError, MissingCurvatureError, SingularSystemError
from gradmerge.harness import ExperimentSpec, PerTaskConfig, default_spec, run_addition, run_pipeline, train_target
from gradmerge.models import ModelSpec, TaskDataset
from gradmerge.params import Checkpoint, DiagCurvature, ParamVector, anchor_penalty
from gradmerge.training import (
    ADAM_EPOCHS,
    NEWTON_TOL,
    WARM_START_EPOCHS,
    adam_decoupled_minimize,
    closed_form_solve,
    finetune_task,
    stationarity_residual,
    train_anchor,
    train_joint_target,
)

LIN1 = ModelSpec("linear_regression", 1)


def data_1d(xs, ys, task_id="t"):
    return TaskDataset(task_id, np.asarray(xs, dtype=float).reshape(-1, 1), ys)


def anchored_objective(spec, datasets, alphas, anchor: Checkpoint, delta, theta: ParamVector) -> float:
    """Reference objective, independent of the trainers' fused evaluation:
    the weighted per-task losses from ``models.loss`` plus the anchored penalty."""
    value = sum(alpha * models.loss(spec, theta, data) for alpha, data in zip(alphas, datasets) if data.n)
    diff = theta.values - anchor.params.values
    return float(value + 0.5 * np.sum(anchor_penalty(anchor, delta) * diff * diff))


def anchor_of(layout, values, h0) -> Checkpoint:
    """An anchor checkpoint: parameters ``values`` and curvature ``h0``, each broadcast to the layout."""
    shape = layout.total_len
    return Checkpoint(ParamVector(layout, np.broadcast_to(values, shape)), DiagCurvature(layout, np.broadcast_to(h0, shape)))


def origin(layout) -> Checkpoint:
    """The anchor of base training: zero parameters with zero curvature."""
    return anchor_of(layout, 0.0, 0.0)


def anchor_1d(value, h0):
    return anchor_of(LIN1.layout(), value, h0)


def refuse_steps(monkeypatch, what):
    """Fail the test if a fit builds its row block or takes a step before ``what`` is checked."""
    for step in ("_rows", "_newton", "adam_decoupled_minimize"):
        monkeypatch.setattr(training, step, lambda *args: pytest.fail(f"trained before {what} was checked"))


def random_linear(seed, n=30, d=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    theta_star = rng.standard_normal(d)
    y = X @ theta_star + 0.1 * rng.standard_normal(n)
    return TaskDataset(f"lin{seed}", X, y, seed=seed)


MLP2 = ModelSpec("mlp", 2, hidden=3, activation="tanh")


def classification(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    return TaskDataset("c", X, (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float))


def counting(counts, name, fn):
    """``fn``, adding each of its calls to ``counts[name]``."""

    def wrapped(*args):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args)

    return wrapped


def evaluations_per_fit(monkeypatch, run):
    """Full-objective value/gradient evaluations of each fit that ``run()`` makes.

    A fit evaluates its whole data term with one kernel call, so this
    counts ``_value_grad`` calls.
    """
    counts = []
    real_fit, real_value_grad = training._fit, training._value_grad

    def fit(*args):
        counts.append(0)
        return real_fit(*args)

    def value_grad(*args):
        counts[-1] += 1
        return real_value_grad(*args)

    monkeypatch.setattr(training, "_fit", fit)
    monkeypatch.setattr(training, "_value_grad", value_grad)
    return run(), counts


def lbfgs_logistic_reference(datasets, alphas, anchor, delta):
    """Minimizer of the anchored logistic objective, by SciPy's L-BFGS-B alone.

    L-BFGS-B on the objective stalls once its value changes by less than
    rounding, some 1e-7 short of the minimizer when the ridge is small.  A
    second run on half the squared gradient norm, which has the same unique
    minimizer but a value that shrinks with the residual instead of
    cancelling, takes it down to the gradient's own rounding.
    """
    from scipy.optimize import minimize
    from scipy.special import expit

    X = np.vstack([data.inputs for data in datasets])
    y = np.concatenate([data.targets for data in datasets])
    w = np.concatenate([np.full(data.n, alpha) for data, alpha in zip(datasets, alphas)])
    a, reg = anchor.params.values, anchor.curvature.values + delta

    def objective(theta):
        z = X @ theta
        value = w @ (np.logaddexp(0.0, z) - y * z) + 0.5 * reg @ (theta - a) ** 2
        return value, X.T @ (w * (expit(z) - y)) + reg * (theta - a)

    def half_squared_gradient(theta):
        s = expit(X @ theta)
        g = X.T @ (w * (s - y)) + reg * (theta - a)
        return 0.5 * g @ g, X.T @ (w * s * (1.0 - s) * (X @ g)) + reg * g

    theta = minimize(objective, a, jac=True, method="L-BFGS-B").x
    options = {"maxiter": 10_000, "ftol": 0.0, "gtol": 0.0}
    return minimize(half_squared_gradient, theta, jac=True, method="L-BFGS-B", options=options).x


class TestAdamConstants:
    def test_defaults(self):
        assert (ADAM_EPOCHS, WARM_START_EPOCHS) == (200, 50)
        assert (training.ADAM_LR, training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS) == (0.05, 0.9, 0.999, 1e-8)


class TestTrainAnchor:
    def test_linear_matches_closed_form(self):
        spec = ModelSpec("linear_regression", 4)
        data = random_linear(0)
        ckpt = train_anchor(spec, data, delta=0.5, seed=0)
        exact = closed_form_solve([data], [1.0], origin(spec.layout()), 0.5)
        np.testing.assert_array_equal(ckpt.params.values, exact.values)

    def test_huge_delta_shrinks_theta(self):
        spec = ModelSpec("linear_regression", 4)
        ckpt = train_anchor(spec, random_linear(1), delta=1e6, seed=0)
        assert np.linalg.norm(ckpt.params.values) < 1e-3

    def test_same_seed_identical(self):
        spec = ModelSpec("mlp", 2, hidden=3, activation="tanh")
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        data = TaskDataset("c", X, y)
        a = train_anchor(spec, data, delta=0.1, seed=0)
        b = train_anchor(spec, data, delta=0.1, seed=0)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    @pytest.mark.parametrize("delta", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_bad_delta_refused_before_training(self, monkeypatch, delta):
        # ``params.anchor_penalty`` holds the one delta rule; a non-finite delta
        # that reached training would fail late, as NumericError on an
        # overflowed loss.  Every trainer reads the penalty before its fit
        # builds its row block or takes a step.
        refuse_steps(monkeypatch, "delta")
        spec = ModelSpec("logistic", 1)
        data = data_1d([-1.0, 1.0], [0.0, 1.0])
        anchor = anchor_of(spec.layout(), 0.0, 1.0)
        with pytest.raises(ConfigError, match="delta must be finite and >= 0"):
            train_anchor(spec, data, delta, 0)
        with pytest.raises(ConfigError, match="delta must be finite and >= 0"):
            finetune_task(spec, data, anchor, delta, 0)
        with pytest.raises(ConfigError, match="delta must be finite and >= 0"):
            train_joint_target(spec, [data], [1.0], anchor, delta, 0)
        with pytest.raises(ConfigError, match="delta must be finite and >= 0"):
            anchor_penalty(origin(spec.layout()), delta)

    def test_meta_records_provenance(self):
        ckpt = train_anchor(LIN1, data_1d([1.0], [2.0]), delta=1.0, seed=0)
        assert ckpt.meta["objective"] == "anchor"
        assert ckpt.meta["seed"] == "0"
        assert ckpt.meta["delta"] == repr(1.0)

    def test_residual_bound_holds(self):
        spec = ModelSpec("logistic", 3)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        y = (X @ np.array([1.0, -1.0, 0.5]) > 0).astype(float)
        data = TaskDataset("c", X, y)
        ckpt = train_anchor(spec, data, delta=0.2, seed=0)
        res = stationarity_residual(spec, [data], [1.0], origin(spec.layout()), 0.2, ckpt.params)
        assert res <= 1e-4 * (1.0 + np.linalg.norm(ckpt.params.values))


class TestFinetune:
    def test_1d_removal_fixture(self):
        # Anchor theta=2 with penalty weight 3, one example (x=1, y=4):
        # stationarity (theta-4) + 3(theta-2) = 0 gives theta = 2.5.
        ckpt = finetune_task(LIN1, data_1d([1.0], [4.0]), anchor_1d(2.0, 3.0), 0.0, 0)
        np.testing.assert_allclose(ckpt.params.values, [2.5], atol=1e-6)

    def test_huge_h0_pins_to_anchor(self):
        spec = ModelSpec("linear_regression", 4)
        layout = spec.layout()
        data = random_linear(3)
        anchor = anchor_of(layout, [1.0, -1.0, 0.5, 0.0], 1e6)
        ckpt = finetune_task(spec, data, anchor, 0.0, 0)
        assert np.linalg.norm(ckpt.params.values - anchor.params.values) < 1e-3

    def test_stationarity_condition(self):
        from gradmerge.models import grad

        spec = ModelSpec("logistic", 2)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 2))
        y = (X[:, 0] > 0).astype(float)
        data = TaskDataset("c", X, y)
        layout = spec.layout()
        anchor = anchor_of(layout, [0.2, -0.1], 2.0)
        ckpt = finetune_task(spec, data, anchor, 0.0, 0)
        lhs = anchor_penalty(anchor, 0.0) * (ckpt.params.values - anchor.params.values)
        rhs = -grad(spec, ckpt.params, data).values
        assert np.linalg.norm(lhs - rhs) <= 1e-4 * (1.0 + np.linalg.norm(ckpt.params.values))


    def test_anchor_without_curvature_refused_before_training(self, monkeypatch):
        # The penalty h0 + delta reads h0 from the anchor checkpoint.
        refuse_steps(monkeypatch, "the anchor curvature")
        spec = ModelSpec("logistic", 1)
        bare = Checkpoint(ParamVector.zeros(spec.layout()))
        with pytest.raises(MissingCurvatureError, match="anchor"):
            finetune_task(spec, data_1d([-1.0, 1.0], [0.0, 1.0]), bare, 0.1, 0)


class TestJointTarget:
    def test_single_dataset_matches_finetune(self):
        data = random_linear(4)
        spec = ModelSpec("linear_regression", 4)
        layout = spec.layout()
        anchor = anchor_of(layout, 0.0, 1.0)
        joint = train_joint_target(spec, [data], [1.0], anchor, 0.0, 0)
        single = finetune_task(spec, data, anchor, 0.0, 0)
        np.testing.assert_allclose(joint.params.values, single.params.values, atol=1e-5)

    def test_matches_closed_form(self):
        spec = ModelSpec("linear_regression", 3)
        layout = spec.layout()
        datasets = [random_linear(s, n=20, d=3) for s in (5, 6)]
        anchor = anchor_of(layout, 0.0, 1.0)
        joint = train_joint_target(spec, datasets, [1.0, 1.0], anchor, 0.0, 0)
        exact = closed_form_solve(datasets, [1.0, 1.0], anchor, 0.0)
        np.testing.assert_array_equal(joint.params.values, exact.values)

    def test_zero_alphas_return_anchor(self):
        spec = ModelSpec("linear_regression", 3)
        layout = spec.layout()
        anchor = anchor_of(layout, [0.5, -0.5, 1.0], 1.0)
        joint = train_joint_target(spec, [random_linear(8, d=3)], [0.0], anchor, 0.0, 0)
        np.testing.assert_allclose(joint.params.values, anchor.params.values, atol=1e-5)

    def test_anchor_without_curvature_refused_before_training(self, monkeypatch):
        refuse_steps(monkeypatch, "the anchor curvature")
        spec = ModelSpec("logistic", 1)
        bare = Checkpoint(ParamVector.zeros(spec.layout()))
        with pytest.raises(MissingCurvatureError, match="anchor"):
            train_joint_target(spec, [data_1d([-1.0, 1.0], [0.0, 1.0])], [1.0], bare, 0.1, 0)

    # ``a < 0`` is False for NaN, so a sign test alone lets NaN through.
    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_alpha_rejected(self, alpha):
        spec = ModelSpec("linear_regression", 3)
        with pytest.raises(ConfigError):
            train_joint_target(spec, [random_linear(9, d=3)], [alpha], origin(spec.layout()), 1.0, 0)

    def test_joint_value_beats_trivial_candidates(self):
        spec = ModelSpec("logistic", 2)
        layout = spec.layout()
        rng = np.random.default_rng(11)
        datasets = []
        for t in range(3):
            X = rng.standard_normal((40, 2))
            y = (X @ rng.standard_normal(2) > 0).astype(float)
            datasets.append(TaskDataset(f"t{t}", X, y))
        anchor = anchor_of(layout, 0.0, 0.5)
        alphas = [1.0, 1.0, 1.0]
        joint = train_joint_target(spec, datasets, alphas, anchor, 0.0, 0)
        value = anchored_objective(spec, datasets, alphas, anchor, 0.0, joint.params)
        candidates = [anchor.params] + [finetune_task(spec, d, anchor, 0.0, 0).params for d in datasets]
        for candidate in candidates:
            assert value <= anchored_objective(spec, datasets, alphas, anchor, 0.0, candidate) + 1e-9


class TestClosedFormSolve:
    def test_single_point(self):
        out = closed_form_solve([data_1d([1.0], [2.0])], [1.0], anchor_1d(0.0, 1.0), 0.0)
        np.testing.assert_allclose(out.values, [1.0], atol=1e-12)

    def test_two_datasets(self):
        out = closed_form_solve(
            [data_1d([1.0], [2.0]), data_1d([1.0], [4.0])], [1.0, 1.0], anchor_1d(0.0, 1.0), 0.0
        )
        np.testing.assert_allclose(out.values, [2.0], atol=1e-12)

    def test_singular_system_rejected(self):
        layout = ModelSpec("linear_regression", 2).layout()
        rank_deficient = TaskDataset("r", [[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        with pytest.raises(SingularSystemError):
            closed_form_solve([rank_deficient], [1.0], origin(layout), 0.0)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(13)
        datasets = [random_linear(s, n=25, d=5) for s in (20, 21, 22)]
        layout = ModelSpec("linear_regression", 5).layout()
        anchor = anchor_of(layout, rng.standard_normal(5), rng.uniform(0.5, 2.0, 5))
        alphas = [0.5, 1.0, 2.0]
        theta = closed_form_solve(datasets, alphas, anchor, 0.0).values
        A = np.diag(anchor.curvature.values)
        b = anchor.curvature.values * anchor.params.values
        for alpha, d in zip(alphas, datasets):
            A += alpha * d.inputs.T @ d.inputs
            b += alpha * d.inputs.T @ d.targets
        assert np.linalg.norm(A @ theta - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


class TestNewton:
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 8),
        n_sets=st.integers(1, 3),
        noise=st.floats(0.0, 1.0),
        ridge=st.floats(1e-2, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_logistic_fit_matches_lbfgs_reference(self, seed, d, n_sets, noise, ridge):
        # noise=0 makes the data separable, so only the ridge bounds theta.
        rng = np.random.default_rng(seed)
        spec = ModelSpec("logistic", d)
        direction = 3.0 * rng.standard_normal(d)
        datasets = []
        for t in range(n_sets):
            X = rng.standard_normal((int(rng.integers(1, 60)), d))
            y = (X @ direction + noise * rng.standard_normal(len(X)) > 0).astype(float)
            datasets.append(TaskDataset(f"t{t}", X, y))
        alphas = rng.uniform(0.0, 2.0, n_sets).tolist()
        h0 = rng.uniform(0.0, 1.0, d) if rng.random() < 0.5 else np.zeros(d)
        layout = spec.layout()
        anchor = anchor_of(layout, rng.standard_normal(d), h0)
        theta = train_joint_target(spec, datasets, alphas, anchor, ridge, 0).params.values
        reference = lbfgs_logistic_reference(datasets, alphas, anchor, ridge)
        # Newton's stop rule leaves ||theta - theta*|| at most
        # NEWTON_TOL (1 + ||theta||) / min(h0 + delta), and delta >= 1e-2.
        atol = NEWTON_TOL / 1e-2 * (1.0 + np.linalg.norm(reference))
        np.testing.assert_allclose(theta, reference, rtol=0.0, atol=atol)

    @given(
        magnitudes=st.lists(st.floats(1e-150, 1e150), min_size=1, max_size=80),
        signs=st.lists(st.booleans(), min_size=80, max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_loop_norm_is_bitwise_numpys(self, magnitudes, signs):
        # The loop takes norms as sqrt(v @ v); its stops and steps match
        # np.linalg.norm's only while the two round identically.
        v = np.array([m if positive else -m for m, positive in zip(magnitudes, signs)])
        assert math.sqrt(v @ v) == np.linalg.norm(v)

    def test_nonconvex_step_leaves_a_saddle_it_cannot_rank_by_value(self):
        # f = x^2 - y^2 + y^4/4 has a saddle at 0 and minima at (0, +-sqrt 2).
        # Next to the saddle the predicted decrease is below the value's
        # resolution, and the gradient-norm test alone would stop there.
        # The value/gradient hands its Hessian no forward pass (None).
        def value_grad(p):
            x, y = p
            return x * x - y * y + y**4 / 4, np.array([2 * x, -2 * y + y**3]), None

        def hessian(p, fwd):
            assert fwd is None
            return np.diag([2.0, -2.0 + 3 * p[1] ** 2])

        theta = training._newton(value_grad, hessian, np.array([0.3, 1e-9]), training._saddle_free_step)
        np.testing.assert_allclose(np.abs(theta), [0.0, np.sqrt(2.0)], rtol=0.0, atol=1e-9)

    def test_eigensolver_failure_falls_back_to_the_svd(self, monkeypatch):
        # LAPACK's eigh fails to converge on some MLP Hessians with clustered
        # eigenvalues; the step must still get the same decomposition.
        A = np.random.default_rng(0).standard_normal((6, 6))
        H = A + A.T
        expected = np.linalg.eigvalsh(H)

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        lam, V = training._symmetric_eigh(H)
        np.testing.assert_allclose(lam, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(V @ np.diag(lam) @ V.T, H, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(6), rtol=0.0, atol=1e-12)

    def test_finetune_that_cycled_on_gradient_norm_steps(self, monkeypatch):
        # At this seed, the last fine-tune from the anchor (5.58, 0.10) starts
        # with gradient norm 249.  Accepting any step that lowers the gradient
        # norm, before Armijo has brought the predicted decrease below loss
        # resolution, cycled there for 50 iterations and failed the fit.
        state, evals = evaluations_per_fit(monkeypatch, lambda: run_pipeline(default_spec(), seed=5040316))
        np.testing.assert_allclose(state.anchor.params.values, [5.578, 0.103], atol=1e-3)
        assert max(evals) <= TestFitCost.MAX_CONVEX_EVALS


class TestMlpStationarity:
    SPEC = ExperimentSpec(
        model=ModelSpec("mlp", 2, hidden=4, activation="tanh"),
        n_tasks=2,
        per_task=PerTaskConfig(n_train=60, n_test=60),
    )

    @pytest.mark.parametrize("seed", range(8))
    def test_every_fit_ends_far_inside_the_gate(self, monkeypatch, seed):
        # Newton on the exact Hessian ends near NEWTON_TOL; the stationarity
        # gate alone (RESIDUAL_TOL) would pass a fit five orders looser.
        residuals = []
        real_fit = training._fit

        def fit(spec, datasets, alphas, anchor, delta, epochs, x0):
            theta = real_fit(spec, datasets, alphas, anchor, delta, epochs, x0)
            residual = stationarity_residual(spec, datasets, alphas, anchor, delta, theta)
            residuals.append(residual / (1.0 + np.linalg.norm(theta.values)))
            return theta

        monkeypatch.setattr(training, "_fit", fit)
        train_target(run_pipeline(self.SPEC, seed), 1.0)
        assert len(residuals) == 3
        assert max(residuals) <= 1e-9


class TestWarmStartEpochs:
    """MLP fits from a random init run ADAM_EPOCHS of Adam; from the anchor, WARM_START_EPOCHS."""

    @staticmethod
    def spec(kind="mlp"):
        model = ModelSpec("mlp", 2, hidden=4, activation="tanh") if kind == "mlp" else ModelSpec(kind, 2)
        return ExperimentSpec(model=model, n_tasks=3, per_task=PerTaskConfig(n_train=60, n_test=60))

    def test_each_fit_gets_the_epochs_it_runs(self, monkeypatch):
        # Order of fits: the anchor, then tasks 1 and 2, then the joint target.
        received = []
        real_adam = training.adam_decoupled_minimize

        def adam(grad_fn, x0, epochs, a, reg):
            received.append(epochs)
            return real_adam(grad_fn, x0, epochs, a, reg)

        monkeypatch.setattr(training, "adam_decoupled_minimize", adam)
        for kind, expected in (("mlp", [ADAM_EPOCHS] + [WARM_START_EPOCHS] * 3), ("logistic", [])):
            received.clear()
            state = run_pipeline(self.spec(kind), seed=0)
            target = train_target(state, 1.0)
            assert received == expected, kind
            if kind == "logistic":
                metas = [state.anchor.meta, *(ck.meta for ck in state.tasks), target.meta]
                assert ["epochs" in meta for meta in metas] == [False] * 4

    def test_meta_files_record_the_epochs_that_ran(self, tmp_path):
        run_addition(self.spec(), out_dir=tmp_path, seed=0)

        def epochs(stem):
            return json.loads((tmp_path / f"{stem}.meta.json").read_text())["meta"]["epochs"]

        assert epochs("anchor") == "200"
        assert [epochs(stem) for stem in ("task1", "task2", "target")] == ["50"] * 3


class TestDecoupledStep:
    def test_one_step_moves_toward_anchor_on_zero_data_loss(self):
        x0 = np.array([3.0, -1.0])

        def zero_grad(theta):
            return np.zeros_like(theta)

        # Anchor 0 with penalty diagonal (1, 0).
        out = adam_decoupled_minimize(zero_grad, x0, 1, np.zeros(2), np.array([1.0, 0.0]))
        # Coordinate 0 has positive penalty: strictly toward the anchor.
        assert abs(out[0]) < abs(x0[0])
        # Coordinate 1 has zero penalty and zero gradient: unchanged.
        assert out[1] == x0[1]

    def test_divergence_detected(self):
        def explode(theta):
            return np.full_like(theta, np.nan)

        with pytest.raises(DivergenceError):
            adam_decoupled_minimize(explode, np.zeros(1), 1, np.zeros(1), np.zeros(1))

    def test_training_is_deterministic(self):
        spec = ModelSpec("logistic", 2)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((64, 2))
        y = (X[:, 0] > 0).astype(float)
        data = TaskDataset("c", X, y)
        a = train_anchor(spec, data, delta=0.1, seed=9)
        b = train_anchor(spec, data, delta=0.1, seed=9)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    def test_mlp_training_is_deterministic(self):
        data = classification(3, n=64)
        a = train_anchor(MLP2, data, delta=0.1, seed=9)
        b = train_anchor(MLP2, data, delta=0.1, seed=9)
        np.testing.assert_array_equal(a.params.values, b.params.values)


class TestConvexFitsIgnoreAdam:
    @given(
        kind=st.sampled_from(["logistic", "linear_regression"]),
        epochs=st.integers(1, 400),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_trained_params_do_not_depend_on_adam_settings(self, kind, epochs, seed):
        # The seed reaches a fit through the public trainers; an Adam length
        # other than the constants only through the private ``_fit``.
        spec = ModelSpec(kind, 2)
        data = classification(21, n=60)
        base = train_anchor(spec, data, delta=0.3, seed=0).params
        other = train_anchor(spec, data, delta=0.3, seed=seed).params
        np.testing.assert_allclose(other.values, base.values, rtol=0.0, atol=1e-8)
        refit = training._fit(spec, [data], [1.0], origin(spec.layout()), 0.3, epochs, np.zeros(base.layout.total_len))
        np.testing.assert_allclose(refit.values, base.values, rtol=0.0, atol=1e-8)
        anchor = anchor_of(base.layout, base.values, 2.0)
        task = classification(22, n=40)
        tuned = finetune_task(spec, task, anchor, 0.3, 0).params
        retuned = training._fit(spec, [task], [1.0], anchor, 0.3, epochs, base.values.copy())
        np.testing.assert_allclose(retuned.values, tuned.values, rtol=0.0, atol=1e-8)


class TestFitCost:
    """Cost guards that count calls instead of timing them, so they cannot flake."""

    #: Objective evaluations allowed per convex fit of the default pipeline
    #: (damped Newton takes 5 to 10 at seed 0; 200 Adam epochs alone used to
    #: take 200).
    MAX_CONVEX_EVALS = 20

    # At seed 3, Newton with an Armijo test alone stalls on the anchor fit
    # (728 evaluations): near the optimum the predicted decrease is below
    # the resolution of the summed loss.
    @pytest.mark.parametrize("seed", [0, 3])
    def test_convex_fits_skip_adam_and_take_few_evaluations(self, monkeypatch, seed):
        adam_calls = []
        monkeypatch.setattr(training, "adam_decoupled_minimize", lambda *a, **k: adam_calls.append(a))
        _, evals = evaluations_per_fit(monkeypatch, lambda: run_pipeline(default_spec(), seed=seed))
        assert adam_calls == []
        assert len(evals) == default_spec().n_tasks
        assert 0 < min(evals) and max(evals) <= self.MAX_CONVEX_EVALS

    def test_mlp_adam_step_is_one_forward_pass(self, monkeypatch):
        rows, adam_rows = [], []
        real_forward = models._forward
        monkeypatch.setattr(models, "_forward", lambda s, t, X: rows.append(len(X)) or real_forward(s, t, X))
        real_adam = training.adam_decoupled_minimize

        def adam(*args, **kwargs):
            start = len(rows)
            out = real_adam(*args, **kwargs)
            adam_rows.extend(rows[start:])
            return out

        monkeypatch.setattr(training, "adam_decoupled_minimize", adam)
        train_anchor(MLP2, classification(4, n=40), delta=0.1, seed=0)
        assert adam_rows == [40] * ADAM_EPOCHS

    #: Two MLP tasks and an anchor off the origin, for the per-fit counts below.
    SETS = [classification(30, n=40), classification(31, n=24)]
    #: Both fits use the ridge 0.1.
    ANCHOR = anchor_of(MLP2.layout(), 0.1, 0.5)

    def fit_mlp(self, fit, epochs):
        """One MLP fit of ``epochs`` Adam epochs: the anchor on the first task, or the joint target of both."""
        if fit == "anchor":
            return training._fit(MLP2, self.SETS[:1], [1.0], origin(MLP2.layout()), 0.1, epochs, training._init_theta(MLP2, 0))
        return training._fit(MLP2, self.SETS, [1.0, 0.5], self.ANCHOR, 0.1, epochs, self.ANCHOR.params.values.copy())

    @pytest.mark.parametrize("fit", ["anchor", "joint"])
    def test_mlp_fit_validates_once_not_per_step(self, monkeypatch, fit):
        # Data checks, ParamVector and TaskDataset constructions, and the
        # Hessian's data-only products happen once per fit: before its first
        # step and in the final residual gate.  Only the Adam kernel's calls
        # grow with the number of Adam steps; the Newton phase that follows
        # may need fewer value/gradient and Hessian evaluations after a
        # longer Adam phase, so those need not.
        counts = {}
        check = counting(counts, "data checks", models._check_data)
        monkeypatch.setattr(models, "_check_data", check)
        monkeypatch.setattr(training, "_check_data", check)
        monkeypatch.setattr(training, "_grad", counting(counts, "Adam kernel calls", training._grad))
        monkeypatch.setattr(training, "_value_grad", counting(counts, "Newton kernel calls", training._value_grad))
        monkeypatch.setattr(training, "_hessian", counting(counts, "Newton kernel calls", training._hessian))
        monkeypatch.setattr(training, "_HessianRows", counting(counts, "Hessian products", training._HessianRows))
        for cls in (ParamVector, TaskDataset):
            monkeypatch.setattr(cls, "__post_init__", counting(counts, cls.__name__, cls.__post_init__))

        def run(epochs):
            counts.clear()
            self.fit_mlp(fit, epochs)
            return dict(counts)

        short, long = run(10), run(40)
        assert long.pop("Adam kernel calls") == 40 and short.pop("Adam kernel calls") == 10
        assert long.pop("Newton kernel calls") > 0 and short.pop("Newton kernel calls") > 0
        assert long == short
        assert short.get("TaskDataset", 0) == 0
        assert short["data checks"] == 2 * (1 if fit == "anchor" else len(self.SETS))
        assert short["Hessian products"] == 1

    @pytest.mark.parametrize("fit", ["anchor", "joint"])
    def test_mlp_hessian_builds_run_no_forward_pass(self, monkeypatch, fit):
        # Every forward pass of an MLP fit belongs to an Adam epoch, a
        # value/gradient evaluation (whose forward the Hessian at that
        # iterate reuses) or the stationarity gate's per-task ``grad``.
        counts = {}
        monkeypatch.setattr(models, "_forward", counting(counts, "forward", models._forward))
        monkeypatch.setattr(training, "_value_grad", counting(counts, "value_grad", training._value_grad))
        monkeypatch.setattr(training, "_hessian", counting(counts, "hessian", training._hessian))
        self.fit_mlp(fit, epochs=10)
        gate = 1 if fit == "anchor" else len(self.SETS)
        assert counts["hessian"] > 0
        assert counts["forward"] == 10 + counts["value_grad"] + gate
