import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmerge import models, training
from gradmerge.errors import ConfigError, DivergenceError, SingularSystemError
from gradmerge.models import ModelSpec, TaskDataset
from gradmerge.params import DiagCurvature, ParamVector
from gradmerge.training import (
    QuadraticAnchor,
    TrainConfig,
    adam_decoupled_minimize,
    anchored_objective,
    closed_form_solve,
    finetune_task,
    stationarity_residual,
    train_anchor,
    train_joint_target,
)

LIN1 = ModelSpec("linear_regression", 1)
CFG = TrainConfig(lr=0.05, epochs=100, seed=0)


def data_1d(xs, ys, task_id="t"):
    return TaskDataset(task_id, np.asarray(xs, dtype=float).reshape(-1, 1), ys)


def anchor_1d(value, h0, delta=0.0):
    layout = LIN1.layout()
    return QuadraticAnchor(ParamVector(layout, [value]), DiagCurvature(layout, [h0]), delta)


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


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.999
        assert cfg.batch_size == "full"

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)


class TestTrainAnchor:
    def test_linear_matches_closed_form(self):
        spec = ModelSpec("linear_regression", 4)
        data = random_linear(0)
        ckpt = train_anchor(spec, "squared_error", data, delta=0.5, cfg=CFG)
        exact = closed_form_solve([data], [1.0], QuadraticAnchor.ridge_only(spec.layout(), 0.5))
        np.testing.assert_allclose(ckpt.params.values, exact.values, atol=1e-5)

    def test_huge_delta_shrinks_theta(self):
        spec = ModelSpec("linear_regression", 4)
        ckpt = train_anchor(spec, "squared_error", random_linear(1), delta=1e6, cfg=CFG)
        assert np.linalg.norm(ckpt.params.values) < 1e-3

    def test_same_seed_identical(self):
        spec = ModelSpec("mlp", 2, hidden=3, activation="tanh")
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        data = TaskDataset("c", X, y)
        a = train_anchor(spec, "logistic_nll", data, delta=0.1, cfg=CFG)
        b = train_anchor(spec, "logistic_nll", data, delta=0.1, cfg=CFG)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    def test_meta_records_provenance(self):
        ckpt = train_anchor(LIN1, "squared_error", data_1d([1.0], [2.0]), delta=1.0, cfg=CFG)
        assert ckpt.meta["objective"] == "anchor"
        assert ckpt.meta["seed"] == "0"
        assert ckpt.meta["delta"] == repr(1.0)

    def test_residual_bound_holds(self):
        spec = ModelSpec("logistic", 3)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 3))
        y = (X @ np.array([1.0, -1.0, 0.5]) > 0).astype(float)
        data = TaskDataset("c", X, y)
        ckpt = train_anchor(spec, "logistic_nll", data, delta=0.2, cfg=CFG)
        anchor = QuadraticAnchor.ridge_only(spec.layout(), 0.2)
        res = stationarity_residual(spec, "logistic_nll", [data], [1.0], anchor, ckpt.params)
        assert res <= 1e-4 * (1.0 + np.linalg.norm(ckpt.params.values))


class TestFinetune:
    def test_1d_removal_fixture(self):
        # Anchor theta=2 with penalty weight 3, one example (x=1, y=4):
        # stationarity (theta-4) + 3(theta-2) = 0 gives theta = 2.5.
        ckpt = finetune_task(LIN1, "squared_error", data_1d([1.0], [4.0]), anchor_1d(2.0, 3.0), CFG)
        np.testing.assert_allclose(ckpt.params.values, [2.5], atol=1e-6)

    def test_huge_h0_pins_to_anchor(self):
        spec = ModelSpec("linear_regression", 4)
        layout = spec.layout()
        data = random_linear(3)
        anchor = QuadraticAnchor(
            ParamVector(layout, [1.0, -1.0, 0.5, 0.0]),
            DiagCurvature.constant(layout, 1e6),
        )
        ckpt = finetune_task(spec, "squared_error", data, anchor, CFG)
        assert np.linalg.norm(ckpt.params.values - anchor.anchor.values) < 1e-3

    def test_stationarity_condition(self):
        from gradmerge.models import grad

        spec = ModelSpec("logistic", 2)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 2))
        y = (X[:, 0] > 0).astype(float)
        data = TaskDataset("c", X, y)
        layout = spec.layout()
        anchor = QuadraticAnchor(
            ParamVector(layout, [0.2, -0.1]), DiagCurvature.constant(layout, 2.0)
        )
        ckpt = finetune_task(spec, "logistic_nll", data, anchor, CFG, anchor_id="base")
        lhs = anchor.effective_diag * (ckpt.params.values - anchor.anchor.values)
        rhs = -grad(spec, "logistic_nll", ckpt.params, data, "sum").values
        assert np.linalg.norm(lhs - rhs) <= 1e-4 * (1.0 + np.linalg.norm(ckpt.params.values))
        assert ckpt.anchor_id == "base"


class TestJointTarget:
    def test_single_dataset_matches_finetune(self):
        data = random_linear(4)
        spec = ModelSpec("linear_regression", 4)
        layout = spec.layout()
        anchor = QuadraticAnchor(ParamVector.zeros(layout), DiagCurvature.constant(layout, 1.0))
        joint = train_joint_target(spec, "squared_error", [data], [1.0], anchor, CFG)
        single = finetune_task(spec, "squared_error", data, anchor, CFG)
        np.testing.assert_allclose(joint.params.values, single.params.values, atol=1e-5)

    def test_matches_closed_form(self):
        spec = ModelSpec("linear_regression", 3)
        layout = spec.layout()
        datasets = [random_linear(s, n=20, d=3) for s in (5, 6)]
        anchor = QuadraticAnchor(ParamVector.zeros(layout), DiagCurvature.constant(layout, 1.0))
        joint = train_joint_target(spec, "squared_error", datasets, [1.0, 1.0], anchor, CFG)
        exact = closed_form_solve(datasets, [1.0, 1.0], anchor)
        np.testing.assert_allclose(joint.params.values, exact.values, atol=1e-5)

    def test_zero_alphas_return_anchor(self):
        spec = ModelSpec("linear_regression", 3)
        layout = spec.layout()
        anchor = QuadraticAnchor(
            ParamVector(layout, [0.5, -0.5, 1.0]), DiagCurvature.constant(layout, 1.0)
        )
        joint = train_joint_target(
            spec, "squared_error", [random_linear(8, d=3)], [0.0], anchor, CFG
        )
        np.testing.assert_allclose(joint.params.values, anchor.anchor.values, atol=1e-5)

    def test_negative_alpha_rejected(self):
        spec = ModelSpec("linear_regression", 3)
        anchor = QuadraticAnchor.ridge_only(spec.layout(), 1.0)
        with pytest.raises(ConfigError):
            train_joint_target(spec, "squared_error", [random_linear(9, d=3)], [-1.0], anchor, CFG)

    def test_joint_value_beats_trivial_candidates(self):
        spec = ModelSpec("logistic", 2)
        layout = spec.layout()
        rng = np.random.default_rng(11)
        datasets = []
        for t in range(3):
            X = rng.standard_normal((40, 2))
            y = (X @ rng.standard_normal(2) > 0).astype(float)
            datasets.append(TaskDataset(f"t{t}", X, y))
        anchor = QuadraticAnchor(ParamVector.zeros(layout), DiagCurvature.constant(layout, 0.5))
        alphas = [1.0, 1.0, 1.0]
        joint = train_joint_target(spec, "logistic_nll", datasets, alphas, anchor, CFG)
        value = anchored_objective(spec, "logistic_nll", datasets, alphas, anchor, joint.params)
        candidates = [anchor.anchor] + [
            finetune_task(spec, "logistic_nll", d, anchor, CFG).params for d in datasets
        ]
        for candidate in candidates:
            assert value <= anchored_objective(
                spec, "logistic_nll", datasets, alphas, anchor, candidate
            ) + 1e-9


class TestClosedFormSolve:
    def test_single_point(self):
        out = closed_form_solve([data_1d([1.0], [2.0])], [1.0], anchor_1d(0.0, 1.0))
        np.testing.assert_allclose(out.values, [1.0], atol=1e-12)

    def test_two_datasets(self):
        out = closed_form_solve(
            [data_1d([1.0], [2.0]), data_1d([1.0], [4.0])], [1.0, 1.0], anchor_1d(0.0, 1.0)
        )
        np.testing.assert_allclose(out.values, [2.0], atol=1e-12)

    def test_empty_data_returns_anchor(self):
        empty = TaskDataset("e", np.zeros((0, 1)), [])
        out = closed_form_solve([empty], [1.0], anchor_1d(3.0, 2.0))
        np.testing.assert_allclose(out.values, [3.0], atol=1e-12)

    def test_singular_system_rejected(self):
        layout = ModelSpec("linear_regression", 2).layout()
        anchor = QuadraticAnchor.ridge_only(layout, 0.0)
        rank_deficient = TaskDataset("r", [[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        with pytest.raises(SingularSystemError):
            closed_form_solve([rank_deficient], [1.0], anchor)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(13)
        datasets = [random_linear(s, n=25, d=5) for s in (20, 21, 22)]
        layout = ModelSpec("linear_regression", 5).layout()
        anchor = QuadraticAnchor(
            ParamVector(layout, rng.standard_normal(5)),
            DiagCurvature(layout, rng.uniform(0.5, 2.0, 5)),
        )
        alphas = [0.5, 1.0, 2.0]
        theta = closed_form_solve(datasets, alphas, anchor).values
        A = np.diag(anchor.effective_diag.copy())
        b = anchor.effective_diag * anchor.anchor.values
        for alpha, d in zip(alphas, datasets):
            A += alpha * d.inputs.T @ d.inputs
            b += alpha * d.inputs.T @ d.targets
        assert np.linalg.norm(A @ theta - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


class TestDecoupledStep:
    def test_one_step_moves_toward_anchor_on_zero_data_loss(self):
        layout = ModelSpec("linear_regression", 2).layout()
        anchor = QuadraticAnchor(
            ParamVector.zeros(layout), DiagCurvature(layout, [1.0, 0.0])
        )
        x0 = np.array([3.0, -1.0])

        def zero_grad(theta, idx):
            return 0.0, np.zeros_like(theta)

        cfg = TrainConfig(lr=0.1, epochs=1, seed=0)
        out = adam_decoupled_minimize(zero_grad, x0, cfg, anchor)
        # Coordinate 0 has positive penalty: strictly toward the anchor.
        assert abs(out[0]) < abs(x0[0])
        # Coordinate 1 has zero penalty and zero gradient: unchanged.
        assert out[1] == x0[1]

    def test_divergence_detected(self):
        spec = ModelSpec("linear_regression", 1)
        anchor = QuadraticAnchor.ridge_only(spec.layout(), 0.0)

        def explode(theta, idx):
            return float("nan"), np.full_like(theta, np.nan)

        with pytest.raises(DivergenceError):
            adam_decoupled_minimize(explode, np.zeros(1), TrainConfig(epochs=1), anchor)

    def test_minibatch_training_is_deterministic(self):
        spec = ModelSpec("logistic", 2)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((64, 2))
        y = (X[:, 0] > 0).astype(float)
        data = TaskDataset("c", X, y)
        cfg = TrainConfig(lr=0.05, epochs=40, batch_size=16, seed=9)
        a = train_anchor(spec, "logistic_nll", data, delta=0.1, cfg=cfg)
        b = train_anchor(spec, "logistic_nll", data, delta=0.1, cfg=cfg)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    def test_grad_clipping_runs(self):
        spec = ModelSpec("linear_regression", 2)
        data = random_linear(17, n=20, d=2)
        cfg = TrainConfig(lr=0.05, epochs=60, grad_clip_norm=1.0, seed=0)
        ckpt = train_anchor(spec, "squared_error", data, delta=0.5, cfg=cfg)
        anchor = QuadraticAnchor.ridge_only(spec.layout(), 0.5)
        res = stationarity_residual(spec, "squared_error", [data], [1.0], anchor, ckpt.params)
        assert res <= 1e-4 * (1.0 + np.linalg.norm(ckpt.params.values))

    def test_mlp_minibatch_training_is_deterministic(self):
        data = classification(3, n=64)
        cfg = TrainConfig(lr=0.05, epochs=40, batch_size=16, seed=9)
        a = train_anchor(MLP2, "logistic_nll", data, delta=0.1, cfg=cfg)
        b = train_anchor(MLP2, "logistic_nll", data, delta=0.1, cfg=cfg)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    def test_mlp_grad_clipping_runs(self):
        data = classification(17, n=20)
        cfg = TrainConfig(lr=0.05, epochs=60, grad_clip_norm=1.0, seed=0)
        ckpt = train_anchor(MLP2, "logistic_nll", data, delta=0.5, cfg=cfg)
        anchor = QuadraticAnchor.ridge_only(MLP2.layout(), 0.5)
        res = stationarity_residual(MLP2, "logistic_nll", [data], [1.0], anchor, ckpt.params)
        assert res <= 1e-4 * (1.0 + np.linalg.norm(ckpt.params.values))


class TestConvexFitsIgnoreAdam:
    @given(
        kind=st.sampled_from(["logistic", "linear_regression"]),
        epochs=st.integers(1, 400),
        lr=st.floats(1e-4, 1.0),
        batch_size=st.one_of(st.just("full"), st.integers(1, 80)),
    )
    @settings(max_examples=30, deadline=None)
    def test_trained_params_do_not_depend_on_adam_settings(self, kind, epochs, lr, batch_size):
        spec = ModelSpec(kind, 2)
        loss_kind = "logistic_nll" if kind == "logistic" else "squared_error"
        data = classification(21, n=60)
        cfg = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, seed=0)
        base = train_anchor(spec, loss_kind, data, delta=0.3, cfg=CFG).params
        other = train_anchor(spec, loss_kind, data, delta=0.3, cfg=cfg).params
        np.testing.assert_allclose(other.values, base.values, rtol=0.0, atol=1e-8)
        anchor = QuadraticAnchor(base, DiagCurvature.constant(spec.layout(), 2.0), 0.3)
        task = classification(22, n=40)
        tuned = finetune_task(spec, loss_kind, task, anchor, CFG).params
        retuned = finetune_task(spec, loss_kind, task, anchor, cfg).params
        np.testing.assert_allclose(retuned.values, tuned.values, rtol=0.0, atol=1e-8)


class TestFitCost:
    """Cost guards that count calls instead of timing them, so they cannot flake."""

    #: Objective evaluations allowed for the default-task logistic anchor
    #: (it takes 14 at seed 0; 200 Adam epochs alone used to take 200).
    MAX_CONVEX_EVALS = 50

    def test_convex_anchor_is_one_lbfgs_solve(self, monkeypatch):
        from gradmerge.harness import default_spec, gen_tasks

        spec = default_spec()
        data = gen_tasks(spec, 0)[0]
        adam_calls, evals = [], []
        monkeypatch.setattr(training, "adam_decoupled_minimize", lambda *a, **k: adam_calls.append(a))
        real = training._value_grad
        monkeypatch.setattr(training, "_value_grad", lambda *a: evals.append(a) or real(*a))
        train_anchor(spec.model, spec.loss, data, spec.anchor.delta, spec.train)
        assert adam_calls == []
        assert 0 < len(evals) <= self.MAX_CONVEX_EVALS

    @pytest.mark.parametrize("batch_size,rows_per_epoch", [("full", [40]), (16, [16, 16, 8])])
    def test_mlp_adam_step_is_one_forward_pass(self, monkeypatch, batch_size, rows_per_epoch):
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
        cfg = TrainConfig(lr=0.05, epochs=5, batch_size=batch_size, seed=0)
        train_anchor(MLP2, "logistic_nll", classification(4, n=40), delta=0.1, cfg=cfg)
        assert adam_rows == rows_per_epoch * 5

    @pytest.mark.parametrize("fit", ["anchor", "joint"])
    def test_mlp_fit_validates_once_not_per_step(self, monkeypatch, fit):
        # Data checks, ParamVector and TaskDataset constructions happen once
        # per fit: before its first step and in the final residual gate.
        # Only the kernel calls grow with the number of Adam steps.
        sets = [classification(30, n=40), classification(31, n=24)]
        anchor = QuadraticAnchor(
            ParamVector(MLP2.layout(), np.full(MLP2.layout().total_len, 0.1)),
            DiagCurvature.constant(MLP2.layout(), 0.5),
            0.1,
        )
        counts = {}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)

            return wrapped

        check = counting("data checks", models._check_data)
        monkeypatch.setattr(models, "_check_data", check)
        monkeypatch.setattr(training, "_check_data", check)
        monkeypatch.setattr(training, "_value_grad", counting("kernel calls", training._value_grad))
        for cls in (ParamVector, TaskDataset):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))

        def run(epochs):
            counts.clear()
            cfg = TrainConfig(lr=0.05, epochs=epochs, batch_size=8, seed=0)
            if fit == "anchor":
                train_anchor(MLP2, "logistic_nll", sets[0], delta=0.1, cfg=cfg)
            else:
                train_joint_target(MLP2, "logistic_nll", sets, [1.0, 0.5], anchor, cfg)
            return dict(counts)

        short, long = run(10), run(40)
        assert long.pop("kernel calls") > short.pop("kernel calls")
        assert long == short
        assert short.get("TaskDataset", 0) == 0
        assert short["data checks"] == 2 * (1 if fit == "anchor" else len(sets))
