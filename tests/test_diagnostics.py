"""Tests for gradient-difference diagnostics and the mismatch/error table."""

import numpy as np
import pytest
from scipy import stats

from gradmerge.curvature import exact_hessian_diag, fisher_diag
from gradmerge.diagnostics import (
    MISMATCH_TABLE_HEADER,
    DiagnosticFixture,
    MismatchReport,
    gradient_mismatch,
    identity_residual_bound,
    mismatch_report,
    mismatch_table_csv,
    mismatch_vs_error_table,
    verify_identity,
)
from gradmerge.diagnostics import test_loss_delta as loss_delta
from gradmerge.errors import ConfigError, LayoutError, SingularCurvatureError
from gradmerge.merging import merge
from gradmerge.models import ModelSpec, TaskDataset, grad, loss
from gradmerge.params import Checkpoint, DiagCurvature, ParamLayout, ParamVector
from gradmerge.training import (
    QuadraticAnchor,
    TrainConfig,
    closed_form_solve,
    finetune_task,
    stationarity_residual,
    train_joint_target,
)

LINEAR = ModelSpec(kind="linear_regression", n_features=1)


def layout_of(d):
    return ParamLayout([("w", (d,))])


def vec(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return ParamVector(layout_of(values.size), values)


def data_1d(task_id, pairs, seed=0):
    xs = np.array([[x] for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    return TaskDataset(task_id=task_id, inputs=xs, targets=ys, seed=seed)


def orthogonal_design(rng, n, d):
    q, _ = np.linalg.qr(rng.normal(size=(n, d)))
    return q[:, :d] * rng.uniform(0.5, 2.0, size=d)


def linear_fixture(seed, T=2, d=3, n=12, name=None):
    """Linear-regression fixture with diagonal per-task Hessians.

    Columns are orthogonalized so the stored diagonal curvature is the
    exact per-task Hessian, making the preconditioned merge reproduce the
    jointly solved target to rounding.
    """
    rng = np.random.default_rng(seed)
    layout = layout_of(d)
    spec = ModelSpec(kind="linear_regression", n_features=d)
    anchor = QuadraticAnchor(
        anchor=ParamVector(layout, rng.normal(size=d)),
        h0=DiagCurvature(layout, rng.uniform(0.5, 2.0, size=d)),
        delta=0.0,
    )
    tasks = []
    for t in range(T):
        X = orthogonal_design(rng, n, d)
        theta_star = rng.normal(size=d)
        y = X @ theta_star + 0.1 * rng.normal(size=n)
        train = TaskDataset(task_id=f"task{t}", inputs=X, targets=y, seed=seed)
        X_test = rng.normal(size=(n, d))
        y_test = X_test @ theta_star + 0.1 * rng.normal(size=n)
        test = TaskDataset(task_id=f"task{t}-test", inputs=X_test, targets=y_test, seed=seed)
        theta_t = closed_form_solve([train], [1.0], anchor)
        ht = DiagCurvature(layout, np.einsum("ij,ij->j", X, X))
        tasks.append((1.0, Checkpoint.of(theta_t, curvature=ht), train, test))
    target = closed_form_solve([tr for _, _, tr, _ in tasks], [1.0] * T, anchor)
    return DiagnosticFixture(
        name=name or f"linear-{seed}",
        spec=spec,
        loss_kind="squared_error",
        anchor=anchor,
        target=target,
        tasks=tuple(tasks),
    )


def blob_data(rng, mean, n, task_id, seed=0):
    """Origin-symmetric two-class Gaussian blobs (class 1 at +mean)."""
    half = n // 2
    X1 = rng.normal(size=(half, mean.size)) * 0.6 + mean
    X0 = rng.normal(size=(n - half, mean.size)) * 0.6 - mean
    X = np.vstack([X1, X0])
    y = np.concatenate([np.ones(half), np.zeros(n - half)])
    return TaskDataset(task_id=task_id, inputs=X, targets=y, seed=seed)


def trained_fixture(seed, kind="logistic"):
    """Logistic or small-MLP fixture with trained task and target models."""
    rng = np.random.default_rng(seed)
    d, T, n, delta = 2, 2, 40, 0.5
    if kind == "logistic":
        spec = ModelSpec(kind="logistic", n_features=d)
    else:
        spec = ModelSpec(kind="mlp", n_features=d, hidden=3, activation="tanh")
    loss_kind = "logistic_nll"
    layout = spec.layout()
    anchor = QuadraticAnchor.ridge_only(layout, delta)
    cfg = TrainConfig(epochs=80, seed=seed)
    tasks, datasets = [], []
    for t in range(T):
        angle = rng.uniform(0, np.pi)
        mean = 1.4 * np.array([np.cos(angle), np.sin(angle)])
        train = blob_data(rng, mean, n, f"blob{t}", seed=seed)
        test = blob_data(rng, mean, n, f"blob{t}-test", seed=seed)
        ckpt = finetune_task(spec, loss_kind, train, anchor, cfg)
        if kind == "logistic":
            curv = exact_hessian_diag(spec, loss_kind, ckpt.params, train)
        else:
            curv = fisher_diag(spec, loss_kind, ckpt.params, train)
        tasks.append((1.0, Checkpoint.of(ckpt.params, curvature=curv), train, test))
        datasets.append(train)
    target = train_joint_target(spec, loss_kind, datasets, [1.0] * T, anchor, cfg)
    return DiagnosticFixture(
        name=f"{kind}-{seed}",
        spec=spec,
        loss_kind=loss_kind,
        anchor=anchor,
        target=target.params,
        tasks=tuple(tasks),
    )


class TestGradientMismatch:
    def test_same_point_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        spec = ModelSpec(kind="logistic", n_features=3)
        data = TaskDataset(
            task_id="t",
            inputs=rng.normal(size=(10, 3)),
            targets=(rng.uniform(size=10) > 0.5).astype(float),
            seed=0,
        )
        theta = ParamVector(layout_of(3), rng.normal(size=3))
        out = gradient_mismatch(spec, "logistic_nll", theta, theta, data)
        np.testing.assert_array_equal(out.values, np.zeros(3))

    def test_one_dimensional_fixture_values(self):
        d1 = data_1d("d1", [(1.0, 2.0)])
        d2 = data_1d("d2", [(1.0, 4.0)])
        target, theta1, theta2 = vec([2.0]), vec([1.0]), vec([2.0])
        np.testing.assert_allclose(
            gradient_mismatch(LINEAR, "squared_error", target, theta1, d1).values, [1.0]
        )
        np.testing.assert_allclose(
            gradient_mismatch(LINEAR, "squared_error", target, theta2, d2).values, [0.0]
        )

    def test_quadratic_mismatch_is_hessian_times_difference(self):
        rng = np.random.default_rng(1)
        d, n = 4, 15
        spec = ModelSpec(kind="linear_regression", n_features=d)
        X = orthogonal_design(rng, n, d)
        data = TaskDataset(task_id="t", inputs=X, targets=rng.normal(size=n), seed=0)
        a = ParamVector(layout_of(d), rng.normal(size=d))
        b = ParamVector(layout_of(d), rng.normal(size=d))
        mm = gradient_mismatch(spec, "squared_error", a, b, data)
        h = exact_hessian_diag(spec, "squared_error", a, data)
        np.testing.assert_allclose(mm.values, h.values * (a.values - b.values), atol=1e-9)

    def test_layout_mismatch_rejected(self):
        d1 = data_1d("d1", [(1.0, 2.0)])
        with pytest.raises(LayoutError):
            gradient_mismatch(LINEAR, "squared_error", vec([1.0]), vec([1.0, 2.0]), d1)


class TestVerifyIdentity:
    def test_one_dimensional_fixture_is_exact(self):
        anchor = QuadraticAnchor.ridge_only(layout_of(1), delta=1.0)
        tasks = [
            (1.0, vec([1.0]), data_1d("d1", [(1.0, 2.0)])),
            (1.0, vec([2.0]), data_1d("d2", [(1.0, 4.0)])),
        ]
        residual = verify_identity(anchor, vec([2.0]), tasks, LINEAR, "squared_error")
        assert residual <= 1e-12

    def test_closed_form_solutions_satisfy_identity(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            d = int(rng.integers(1, 7))
            T = int(rng.integers(1, 4))
            layout = layout_of(d)
            spec = ModelSpec(kind="linear_regression", n_features=d)
            anchor = QuadraticAnchor(
                anchor=ParamVector(layout, rng.normal(size=d)),
                h0=DiagCurvature(layout, rng.uniform(0.5, 2.0, size=d)),
                delta=0.1,
            )
            tasks, datasets, alphas = [], [], []
            for t in range(T):
                # General (non-orthogonal) designs: the identity itself only
                # needs stationarity, not diagonal Hessians.
                n = d + 8
                X = rng.normal(size=(n, d))
                y = rng.normal(size=n)
                data = TaskDataset(task_id=f"t{t}", inputs=X, targets=y, seed=trial)
                theta_t = closed_form_solve([data], [1.0], anchor)
                alpha = float(rng.uniform(0.3, 1.0))
                tasks.append((alpha, theta_t, data))
                datasets.append(data)
                alphas.append(alpha)
            target = closed_form_solve(datasets, alphas, anchor)
            residual = verify_identity(anchor, target, tasks, spec, "squared_error")
            assert residual < 1e-8

    def test_empty_task_list_rejected(self):
        anchor = QuadraticAnchor.ridge_only(layout_of(1), delta=1.0)
        with pytest.raises(ConfigError):
            verify_identity(anchor, vec([0.0]), [], LINEAR, "squared_error")

    def test_zero_penalty_rejected(self):
        anchor = QuadraticAnchor.ridge_only(layout_of(1), delta=0.0)
        tasks = [(1.0, vec([1.0]), data_1d("d1", [(1.0, 2.0)]))]
        with pytest.raises(SingularCurvatureError):
            verify_identity(anchor, vec([0.0]), tasks, LINEAR, "squared_error")

    def test_residual_matches_stationarity_defects_exactly(self):
        # For arbitrary (non-stationary) parameter points the identity
        # residual equals the preconditioned difference of the joint and
        # task stationarity defects; check on a logistic model.
        rng = np.random.default_rng(3)
        d, T, n = 3, 2, 12
        layout = layout_of(d)
        spec = ModelSpec(kind="logistic", n_features=d)
        anchor = QuadraticAnchor(
            anchor=ParamVector(layout, rng.normal(size=d)),
            h0=DiagCurvature(layout, rng.uniform(0.5, 2.0, size=d)),
            delta=0.25,
        )
        tasks, datasets, alphas = [], [], []
        for t in range(T):
            data = TaskDataset(
                task_id=f"t{t}",
                inputs=rng.normal(size=(n, d)),
                targets=(rng.uniform(size=n) > 0.5).astype(float),
                seed=0,
            )
            tasks.append((0.5 + 0.5 * t, ParamVector(layout, rng.normal(size=d)), data))
            datasets.append(data)
            alphas.append(tasks[-1][0])
        target = ParamVector(layout, rng.normal(size=d))
        h0eff = anchor.effective_diag
        a = anchor.anchor.values
        joint_defect = h0eff * (target.values - a)
        for alpha, _, data in tasks:
            joint_defect = joint_defect + alpha * grad(spec, "logistic_nll", target, data).values
        expect = joint_defect.copy()
        for alpha, theta_t, data in tasks:
            task_defect = h0eff * (theta_t.values - a) + grad(
                spec, "logistic_nll", theta_t, data
            ).values
            expect = expect - alpha * task_defect
        predicted = float(np.max(np.abs(expect / h0eff)))
        residual = verify_identity(anchor, target, tasks, spec, "logistic_nll")
        np.testing.assert_allclose(residual, predicted, rtol=1e-10, atol=1e-12)

    def test_trained_models_stay_within_reported_bound(self):
        fixture = trained_fixture(11, kind="logistic")
        spec, loss_kind = fixture.spec, fixture.loss_kind
        tasks = [(a, c.params, tr) for a, c, tr, _ in fixture.tasks]
        residual = verify_identity(fixture.anchor, fixture.target, tasks, spec, loss_kind)
        joint_res = stationarity_residual(
            spec,
            loss_kind,
            [tr for _, _, tr in tasks],
            [a for a, _, _ in tasks],
            fixture.anchor,
            fixture.target,
        )
        task_res = [
            stationarity_residual(spec, loss_kind, [tr], [1.0], fixture.anchor, theta)
            for _, theta, tr in tasks
        ]
        bound = identity_residual_bound(
            fixture.anchor, joint_res, task_res, [a for a, _, _ in tasks]
        )
        assert residual <= bound


class TestIdentityResidualBound:
    def test_simple_value(self):
        anchor = QuadraticAnchor(
            anchor=vec([0.0, 0.0]),
            h0=DiagCurvature(layout_of(2), [2.0, 4.0]),
            delta=0.0,
        )
        bound = identity_residual_bound(anchor, 0.1, [0.2, 0.3], [1.0, 2.0])
        np.testing.assert_allclose(bound, (0.1 + 0.2 + 0.6) / 2.0)

    def test_length_mismatch_rejected(self):
        anchor = QuadraticAnchor.ridge_only(layout_of(1), delta=1.0)
        with pytest.raises(ConfigError):
            identity_residual_bound(anchor, 0.0, [0.1], [1.0, 1.0])


class TestTestLossDelta:
    def test_identical_points_give_zero(self):
        data = data_1d("d", [(1.0, 2.0), (2.0, 1.0)])
        theta = vec([0.7])
        assert loss_delta(LINEAR, "squared_error", theta, theta, data) == (0.0, 0.0)

    def test_quadratic_taylor_remainder_bound(self):
        rng = np.random.default_rng(4)
        d, n = 3, 14
        spec = ModelSpec(kind="linear_regression", n_features=d)
        X = orthogonal_design(rng, n, d)
        data = TaskDataset(task_id="t", inputs=X, targets=rng.normal(size=n), seed=0)
        h = exact_hessian_diag(spec, "squared_error", ParamVector.zeros(layout_of(d)), data)
        for _ in range(10):
            target = ParamVector(layout_of(d), rng.normal(size=d))
            merged = ParamVector(layout_of(d), target.values + 0.1 * rng.normal(size=d))
            exact, first_order = loss_delta(spec, "squared_error", target, merged, data)
            delta = target.values - merged.values
            remainder = abs(exact - first_order)
            assert remainder <= 0.5 * float(delta @ delta) * float(np.max(h.values)) + 1e-12

    def test_distant_logistic_points_stay_finite(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec(kind="logistic", n_features=2)
        data = TaskDataset(
            task_id="t",
            inputs=rng.normal(size=(8, 2)),
            targets=(rng.uniform(size=8) > 0.5).astype(float),
            seed=0,
        )
        target = ParamVector(layout_of(2), [30.0, -20.0])
        merged = ParamVector(layout_of(2), [-25.0, 15.0])
        exact, first_order = loss_delta(spec, "logistic_nll", target, merged, data)
        assert np.isfinite(exact) and np.isfinite(first_order)


class TestMismatchReportValidation:
    def test_negative_norm_rejected(self):
        with pytest.raises(ConfigError):
            MismatchReport(
                per_task=(("a", -1.0),),
                total_weighted_norm=0.0,
                error_norm=0.0,
                identity_residual=0.0,
            )


class TestMismatchTable:
    def test_empty_fixture_list_gives_empty_table(self):
        rows = mismatch_vs_error_table(["ta", "ours"], [])
        assert rows == []
        assert mismatch_table_csv(rows) == MISMATCH_TABLE_HEADER + "\n"

    def test_identical_methods_give_identical_rows(self):
        fixture = linear_fixture(6)
        rows = mismatch_vs_error_table(["ta", "ta"], [fixture])
        half = len(rows) // 2
        for first, second in zip(rows[:half], rows[half:]):
            assert (first.task_id, first.mismatch_l2, first.error_l2) == (
                second.task_id,
                second.mismatch_l2,
                second.error_l2,
            )

    def test_preconditioned_merge_beats_plain_increments_on_linear(self):
        fixtures = [linear_fixture(seed) for seed in (7, 8, 9)]
        rows = mismatch_vs_error_table(["ta", "ours"], fixtures)
        ta = {(r.fixture, r.task_id): r for r in rows if r.method == "ta"}
        ours = {(r.fixture, r.task_id): r for r in rows if r.method == "ours"}
        assert ta.keys() == ours.keys()
        for key, ours_row in ours.items():
            assert ours_row.mismatch_l2 <= 1e-7
            assert ours_row.error_l2 <= 1e-8
            assert ours_row.mismatch_l2 <= ta[key].mismatch_l2
            assert ours_row.identity_residual < 1e-8

    def test_csv_rendering_shape(self):
        fixture = linear_fixture(10, T=3)
        rows = mismatch_vs_error_table(["am", "ta"], [fixture])
        text = mismatch_table_csv(rows)
        lines = text.splitlines()
        assert lines[0] == MISMATCH_TABLE_HEADER
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 8
            for value in parts[3:]:
                float(value)

    def test_identity_is_verified_once_per_fixture(self, monkeypatch):
        # The identity residual depends on the fixture alone, not on the merge.
        from gradmerge import diagnostics

        calls = []
        real = diagnostics.verify_identity
        monkeypatch.setattr(diagnostics, "verify_identity", lambda *args: calls.append(1) or real(*args))
        fixture = linear_fixture(13)
        rows = mismatch_vs_error_table(["ta", "ours"], [fixture])
        assert len(calls) == 1
        for row in rows:
            report = mismatch_report(fixture, merge(row.method, fixture.merge_inputs()))
            assert row.identity_residual == report.identity_residual

    def test_report_matches_direct_merge(self):
        fixture = linear_fixture(12)
        merged = merge("ours", fixture.merge_inputs())
        report = mismatch_report(fixture, merged)
        assert report.error_norm <= 1e-8
        assert report.total_weighted_norm <= 1e-7
        assert len(report.per_task) == len(fixture.tasks)


class TestMismatchErrorCorrelation:
    def test_mismatch_rank_correlates_with_test_loss_gap(self):
        fixtures = [trained_fixture(seed, kind="logistic") for seed in range(16)]
        fixtures += [trained_fixture(100 + seed, kind="mlp") for seed in range(4)]
        methods = ["am", "ta", "fa", "ours"]
        mismatches, gaps = [], []
        for fixture in fixtures:
            for method in methods:
                merged = merge(method, fixture.merge_inputs())
                report = mismatch_report(fixture, merged)
                pooled = 0.0
                for _, _, _, test in fixture.tasks:
                    exact, _ = loss_delta(
                        fixture.spec, fixture.loss_kind, fixture.target, merged, test
                    )
                    pooled += exact
                mismatches.append(report.total_weighted_norm)
                gaps.append(abs(pooled))
        rho = stats.spearmanr(mismatches, gaps).statistic
        assert rho > 0.0
