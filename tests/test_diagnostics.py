"""Tests for gradient-difference diagnostics and the mismatch/error table."""

import dataclasses

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
from gradmerge.errors import ConfigError, LayoutError, NumericError, SingularCurvatureError
from gradmerge.merging import merge
from gradmerge.models import ModelSpec, TaskDataset, grad
from gradmerge.params import Checkpoint, DiagCurvature, ParamLayout, ParamVector
from gradmerge.training import (
    QuadraticAnchor,
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
    layout = spec.layout()
    anchor = QuadraticAnchor.ridge_only(layout, delta)
    tasks, datasets = [], []
    for t in range(T):
        angle = rng.uniform(0, np.pi)
        mean = 1.4 * np.array([np.cos(angle), np.sin(angle)])
        train = blob_data(rng, mean, n, f"blob{t}", seed=seed)
        test = blob_data(rng, mean, n, f"blob{t}-test", seed=seed)
        ckpt = finetune_task(spec, train, anchor, seed)
        if kind == "logistic":
            curv = exact_hessian_diag(spec, ckpt.params, train)
        else:
            curv = fisher_diag(spec, ckpt.params, train)
        tasks.append((1.0, Checkpoint.of(ckpt.params, curvature=curv), train, test))
        datasets.append(train)
    target = train_joint_target(spec, datasets, [1.0] * T, anchor, seed)
    return DiagnosticFixture(
        name=f"{kind}-{seed}",
        spec=spec,
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
        out = gradient_mismatch(spec, theta, theta, data)
        np.testing.assert_array_equal(out.values, np.zeros(3))

    def test_one_dimensional_fixture_values(self):
        d1 = data_1d("d1", [(1.0, 2.0)])
        d2 = data_1d("d2", [(1.0, 4.0)])
        target, theta1, theta2 = vec([2.0]), vec([1.0]), vec([2.0])
        np.testing.assert_allclose(
            gradient_mismatch(LINEAR, target, theta1, d1).values, [1.0]
        )
        np.testing.assert_allclose(
            gradient_mismatch(LINEAR, target, theta2, d2).values, [0.0]
        )

    def test_quadratic_mismatch_is_hessian_times_difference(self):
        rng = np.random.default_rng(1)
        d, n = 4, 15
        spec = ModelSpec(kind="linear_regression", n_features=d)
        X = orthogonal_design(rng, n, d)
        data = TaskDataset(task_id="t", inputs=X, targets=rng.normal(size=n), seed=0)
        a = ParamVector(layout_of(d), rng.normal(size=d))
        b = ParamVector(layout_of(d), rng.normal(size=d))
        mm = gradient_mismatch(spec, a, b, data)
        h = exact_hessian_diag(spec, a, data)
        np.testing.assert_allclose(mm.values, h.values * (a.values - b.values), atol=1e-9)

    def test_layout_mismatch_rejected(self):
        d1 = data_1d("d1", [(1.0, 2.0)])
        with pytest.raises(LayoutError):
            gradient_mismatch(LINEAR, vec([1.0]), vec([1.0, 2.0]), d1)


class TestVerifyIdentity:
    def test_one_dimensional_fixture_is_exact(self):
        anchor = QuadraticAnchor.ridge_only(layout_of(1), delta=1.0)
        tasks = [
            (1.0, vec([1.0]), data_1d("d1", [(1.0, 2.0)])),
            (1.0, vec([2.0]), data_1d("d2", [(1.0, 4.0)])),
        ]
        residual = verify_identity(anchor, vec([2.0]), tasks, LINEAR)
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
            residual = verify_identity(anchor, target, tasks, spec)
            assert residual < 1e-8

    def test_empty_task_list_rejected(self):
        anchor = QuadraticAnchor.ridge_only(layout_of(1), delta=1.0)
        with pytest.raises(ConfigError):
            verify_identity(anchor, vec([0.0]), [], LINEAR)

    def test_zero_penalty_rejected(self):
        anchor = QuadraticAnchor.ridge_only(layout_of(1), delta=0.0)
        tasks = [(1.0, vec([1.0]), data_1d("d1", [(1.0, 2.0)]))]
        with pytest.raises(SingularCurvatureError):
            verify_identity(anchor, vec([0.0]), tasks, LINEAR)

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
            joint_defect = joint_defect + alpha * grad(spec, target, data).values
        expect = joint_defect.copy()
        for alpha, theta_t, data in tasks:
            task_defect = h0eff * (theta_t.values - a) + grad(
                spec, theta_t, data
            ).values
            expect = expect - alpha * task_defect
        predicted = float(np.max(np.abs(expect / h0eff)))
        residual = verify_identity(anchor, target, tasks, spec)
        np.testing.assert_allclose(residual, predicted, rtol=1e-10, atol=1e-12)

    def test_trained_models_stay_within_reported_bound(self):
        fixture = trained_fixture(11, kind="logistic")
        spec = fixture.spec
        tasks = [(a, c.params, tr) for a, c, tr, _ in fixture.tasks]
        residual = verify_identity(fixture.anchor, fixture.target, tasks, spec)
        joint_res = stationarity_residual(
            spec,
            [tr for _, _, tr in tasks],
            [a for a, _, _ in tasks],
            fixture.anchor,
            fixture.target,
        )
        task_res = [
            stationarity_residual(spec, [tr], [1.0], fixture.anchor, theta)
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
    """The table's held-out loss-gap columns: ``test_loss_delta_exact`` and ``test_loss_delta_fo``."""

    def test_identical_points_give_zero(self):
        fixture = linear_fixture(14)
        rows = mismatch_vs_error_table(fixture, {"target": fixture.target})
        assert len(rows) == len(fixture.tasks)
        for row in rows:
            assert (row.test_loss_delta_exact, row.test_loss_delta_fo) == (0.0, 0.0)

    def test_quadratic_taylor_remainder_bound(self):
        rng = np.random.default_rng(4)
        fixture = linear_fixture(15, d=3, n=14)
        target, spec, d = fixture.target, fixture.spec, fixture.target.values.size
        candidates = {
            f"c{i}": ParamVector(target.layout, target.values + 0.1 * rng.normal(size=d)) for i in range(10)
        }
        rows = mismatch_vs_error_table(fixture, candidates)
        tests = [test for _, _, _, test in fixture.tasks] * len(candidates)
        for row, test in zip(rows, tests, strict=True):
            # The summed squared loss is quadratic: its gradient is affine,
            # so unit steps read the Hessian off exactly.
            g0 = grad(spec, ParamVector.zeros(target.layout), test).values
            H = np.column_stack([grad(spec, ParamVector(target.layout, e), test).values - g0 for e in np.eye(d)])
            delta = target.values - candidates[row.method].values
            remainder = abs(row.test_loss_delta_exact - row.test_loss_delta_fo)
            assert remainder <= 0.5 * float(delta @ delta) * float(np.max(np.linalg.eigvalsh(H))) + 1e-12

    def test_distant_logistic_points_stay_finite(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec(kind="logistic", n_features=2)
        layout = spec.layout()

        def split(task_id):
            inputs = rng.normal(size=(8, 2))
            targets = (rng.uniform(size=8) > 0.5).astype(float)
            return TaskDataset(task_id=task_id, inputs=inputs, targets=targets, seed=0)

        fixture = DiagnosticFixture(
            name="distant",
            spec=spec,
            anchor=QuadraticAnchor.ridge_only(layout, delta=1.0),
            target=ParamVector(layout, [30.0, -20.0]),
            tasks=((1.0, Checkpoint.of(ParamVector.zeros(layout)), split("t"), split("t-test")),),
        )
        (row,) = mismatch_vs_error_table(fixture, {"far": ParamVector(layout, [-25.0, 15.0])})
        assert np.isfinite(row.test_loss_delta_exact) and np.isfinite(row.test_loss_delta_fo)


class TestMismatchReportValidation:
    def test_overflowing_gradient_difference_raises_numeric_error(self):
        # Both gradients are finite (the linear gradient at x=1, y=0 is
        # theta itself); only their difference overflows.
        data = data_1d("d", [(1.0, 0.0)])
        fixture = DiagnosticFixture(
            name="overflow",
            spec=LINEAR,
            anchor=QuadraticAnchor.ridge_only(layout_of(1), delta=1e10),
            target=vec([1e308]),
            tasks=((1.0, Checkpoint.of(vec([0.0])), data, data),),
        )
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            mismatch_report(fixture, vec([-1e308]))

    def test_negative_norm_rejected(self):
        with pytest.raises(ConfigError):
            MismatchReport(
                per_task=(("a", -1.0),),
                total_weighted_norm=0.0,
                error_norm=0.0,
                identity_residual=0.0,
            )


def merges(fixture, methods):
    return {method: merge(method, fixture.merge_inputs()) for method in methods}


class TestMismatchTable:
    def test_identical_methods_give_identical_rows(self):
        fixture = linear_fixture(6)
        merged = merge("ta", fixture.merge_inputs())
        rows = mismatch_vs_error_table(fixture, {"ta": merged, "ta-again": merged})
        half = len(rows) // 2
        assert [r.method for r in rows] == ["ta"] * half + ["ta-again"] * half
        for first, second in zip(rows[:half], rows[half:]):
            assert dataclasses.replace(first, method="ta-again") == second

    def test_preconditioned_merge_beats_plain_increments_on_linear(self):
        for seed in (7, 8, 9):
            fixture = linear_fixture(seed)
            rows = mismatch_vs_error_table(fixture, merges(fixture, ["ta", "ours"]))
            ta = {r.task_id: r for r in rows if r.method == "ta"}
            ours = {r.task_id: r for r in rows if r.method == "ours"}
            assert ta.keys() == ours.keys()
            for key, ours_row in ours.items():
                assert ours_row.mismatch_l2 <= 1e-7
                assert ours_row.error_l2 <= 1e-8
                assert ours_row.mismatch_l2 <= ta[key].mismatch_l2
                assert ours_row.identity_residual < 1e-8

    def test_csv_rendering_shape(self):
        fixture = linear_fixture(10, T=3)
        rows = mismatch_vs_error_table(fixture, merges(fixture, ["am", "ta"]))
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
        # The identity residual depends on the fixture alone, not on the
        # candidate: one table call verifies it once, however many it scores.
        from gradmerge import diagnostics

        calls = []
        real = diagnostics.verify_identity
        monkeypatch.setattr(diagnostics, "verify_identity", lambda *args: calls.append(1) or real(*args))
        fixture = linear_fixture(13)
        candidates = merges(fixture, ["ta", "ours"])
        rows = mismatch_vs_error_table(fixture, candidates)
        assert len(calls) == 1
        for row in rows:
            report = mismatch_report(fixture, candidates[row.method])
            assert row.identity_residual == report.identity_residual

    def test_rows_follow_candidate_order_and_match_the_report(self):
        fixture = linear_fixture(16, T=3)
        candidates = merges(fixture, ["ours", "am", "ta"])
        rows = mismatch_vs_error_table(fixture, candidates)
        task_ids = [train.task_id for _, _, train, _ in fixture.tasks]
        assert [(r.method, r.task_id) for r in rows] == [(m, t) for m in candidates for t in task_ids]
        for method, merged in candidates.items():
            report = mismatch_report(fixture, merged)
            scored = [(r.task_id, r.mismatch_l2) for r in rows if r.method == method]
            assert tuple(scored) == report.per_task
            assert {r.error_l2 for r in rows if r.method == method} == {report.error_norm}

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
            candidates = merges(fixture, methods)
            rows = mismatch_vs_error_table(fixture, candidates)
            for method, merged in candidates.items():
                pooled = 0.0
                for row in rows:
                    if row.method == method:
                        pooled += row.test_loss_delta_exact
                mismatches.append(mismatch_report(fixture, merged).total_weighted_norm)
                gaps.append(abs(pooled))
        rho = stats.spearmanr(mismatches, gaps).statistic
        assert rho > 0.0
