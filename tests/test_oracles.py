"""Tests for the ground-truth oracles and the randomized agreement suite."""

import dataclasses

import numpy as np
import pytest

from gradmerge.errors import (
    ConfigError,
    MissingCurvatureError,
    SingularCurvatureError,
    SingularSystemError,
)
from gradmerge.merging import MergeInputs, merge_uncertainty, remove_task
from gradmerge import oracles
from gradmerge.models import TaskDataset
from gradmerge.oracles import (
    ORACLE_TABLE_HEADER,
    OracleResult,
    alt_removal_oracle,
    influence_oracle,
    joint_closed_form_oracle,
    linear_merge_fixture,
    linear_removal_fixture,
    map_fixture,
    map_surrogate_check,
    oracle_summary,
    oracle_table_csv,
    random_linear_dataset,
    run_oracle_suite,
)
from gradmerge.params import Checkpoint, DiagCurvature, ParamLayout, ParamVector
from gradmerge.training import closed_form_solve


def layout_of(d):
    return ParamLayout([("w", (d,))])


def vec(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return ParamVector(layout_of(values.size), values)


def joint_inputs(params, h0, alphas, delta):
    """Merge inputs for the joint oracle: the anchor, its curvature, the ridge and the task weights.

    The oracle never reads the task checkpoints, so each task is the anchor itself.
    """
    anchor = Checkpoint(params, DiagCurvature(params.layout, h0))
    return MergeInputs(anchor, tuple((alpha, anchor) for alpha in alphas), delta)


def ridge_inputs(d, alphas, delta):
    """Joint-oracle inputs of plain ridge toward the origin: anchor 0 with zero curvature."""
    return joint_inputs(vec(np.zeros(d)), np.zeros(d), alphas, delta)


def data_1d(task_id, pairs, seed=0):
    xs = np.array([[x] for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    return TaskDataset(task_id=task_id, inputs=xs, targets=ys, seed=seed)


class TestOracleResult:
    def test_compare_passes_within_tolerance(self):
        r = OracleResult.compare("x", vec([1.0, 2.0]), vec([1.0, 2.0 + 1e-12]), 1e-9)
        assert r.passed and r.abs_err <= 1e-9

    def test_compare_fails_outside_tolerance(self):
        r = OracleResult.compare("x", vec([1.0]), vec([2.0]), 1e-9)
        assert not r.passed and r.abs_err == 1.0

    def test_relative_tolerance_rescues_large_scales(self):
        r = OracleResult.compare("x", 1e12, 1e12 + 1.0, 1e-9)
        assert r.passed and r.abs_err > r.tolerance and r.rel_err <= r.tolerance

    def test_zero_reference_uses_absolute_error_only(self):
        r = OracleResult.compare("x", 0.0, 1e-12, 1e-9)
        assert r.passed and np.isinf(r.rel_err)


class TestJointClosedFormOracle:
    def test_one_dimensional_fixture(self):
        datasets = [data_1d("d1", [(1.0, 2.0)]), data_1d("d2", [(1.0, 4.0)])]
        out = joint_closed_form_oracle(ridge_inputs(1, [1.0, 1.0], delta=1.0), datasets)
        np.testing.assert_allclose(out.values, [2.0], atol=1e-12)

    def test_zero_weight_drops_a_dataset(self):
        d1 = data_1d("d1", [(1.0, 2.0)])
        d2 = data_1d("d2", [(1.0, 100.0)])
        both = joint_closed_form_oracle(ridge_inputs(1, [1.0, 0.0], delta=1.0), [d1, d2])
        single = joint_closed_form_oracle(ridge_inputs(1, [1.0], delta=1.0), [d1])
        np.testing.assert_allclose(both.values, single.values, atol=1e-12)

    def test_no_data_returns_anchor(self):
        # Zero-weight tasks put no rows in the stacked system; only the
        # anchor penalty is left, and its minimiser is the anchor.
        data = TaskDataset(task_id="t", inputs=np.ones((2, 3)), targets=np.array([5.0, -5.0]), seed=0)
        inputs = joint_inputs(vec([1.0, -2.0, 0.5]), [1.0, 2.0, 3.0], [0.0, 0.0], delta=0.0)
        out = joint_closed_form_oracle(inputs, [data, data])
        np.testing.assert_allclose(out.values, [1.0, -2.0, 0.5], atol=1e-12)

    def test_rank_deficient_system_rejected(self):
        data = TaskDataset(
            task_id="t", inputs=np.array([[1.0, 0.0]]), targets=np.array([1.0]), seed=0
        )
        with pytest.raises(SingularSystemError):
            joint_closed_form_oracle(ridge_inputs(2, [1.0], delta=0.0), [data])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            joint_closed_form_oracle(ridge_inputs(1, [-1.0], delta=1.0), [data_1d("d", [(1.0, 1.0)])])

    def test_anchor_without_curvature_rejected(self):
        # The penalty h0 + delta reads h0 from the anchor checkpoint, as the merge does.
        inputs = dataclasses.replace(ridge_inputs(1, [1.0], delta=1.0), anchor=Checkpoint(vec([0.0])))
        with pytest.raises(MissingCurvatureError, match="anchor"):
            joint_closed_form_oracle(inputs, [data_1d("d", [(1.0, 1.0)])])

    def test_agrees_with_direct_normal_equation_solver(self):
        # Two independent exact paths (SVD on stacked rows vs a dense
        # normal-equation solve) must agree on general dense problems.
        rng = np.random.default_rng(0)
        for trial in range(10):
            d = int(rng.integers(1, 8))
            anchor = Checkpoint(vec(rng.normal(size=d)), DiagCurvature(layout_of(d), rng.uniform(0.5, 2.0, size=d)))
            datasets, alphas = [], []
            for t in range(int(rng.integers(1, 4))):
                n = d + 6
                X = rng.normal(size=(n, d))
                y = rng.normal(size=n)
                datasets.append(TaskDataset(task_id=f"t{t}", inputs=X, targets=y, seed=trial))
                alphas.append(float(rng.uniform(0.2, 1.0)))
            a = joint_closed_form_oracle(MergeInputs(anchor, tuple((alpha, anchor) for alpha in alphas), 0.1), datasets)
            b = closed_form_solve(datasets, alphas, anchor, 0.1)
            np.testing.assert_allclose(a.values, b.values, atol=1e-9)


class TestInfluenceOracle:
    def test_remove_nothing_returns_full_fit(self):
        data = data_1d("full", [(1.0, 2.0), (1.0, 4.0)])
        out = influence_oracle(data, [], delta=1.0)
        np.testing.assert_allclose(out.values, [2.0], atol=1e-12)

    def test_one_dimensional_fixture(self):
        data = data_1d("full", [(1.0, 2.0), (1.0, 4.0)])
        out = influence_oracle(data, [1], delta=1.0)
        np.testing.assert_allclose(out.values, [1.0], atol=1e-12)

    def test_remove_everything_leaves_pure_ridge(self):
        data = data_1d("full", [(1.0, 2.0), (1.0, 4.0)])
        out = influence_oracle(data, [0, 1], delta=0.5)
        np.testing.assert_allclose(out.values, [0.0], atol=1e-12)

    def test_out_of_range_index_rejected(self):
        data = data_1d("full", [(1.0, 2.0)])
        with pytest.raises(ConfigError):
            influence_oracle(data, [3], delta=1.0)

    def test_duplicate_indices_rejected(self):
        data = data_1d("full", [(1.0, 2.0), (1.0, 4.0)])
        with pytest.raises(ConfigError):
            influence_oracle(data, [1, 1], delta=1.0)

    def test_negative_delta_rejected(self):
        data = data_1d("full", [(1.0, 2.0)])
        with pytest.raises(ConfigError):
            influence_oracle(data, [], delta=-1.0)

    def test_singular_retained_system_rejected(self):
        data = data_1d("full", [(1.0, 2.0), (1.0, 4.0)])
        with pytest.raises(SingularSystemError):
            influence_oracle(data, [0, 1], delta=0.0)

    def test_singular_full_data_system_rejected(self):
        # Fewer rows than features and no ridge: X^T X is singular before any row goes.
        X = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]])
        data = TaskDataset(task_id="full", inputs=X, targets=np.array([1.0, 2.0]), seed=0)
        with pytest.raises(SingularSystemError, match="^normal matrix"):
            influence_oracle(data, [], delta=0.0)

    def test_internal_agreement_on_random_problems(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            d = int(rng.integers(1, 11))
            n = d + int(rng.integers(2, 90))
            delta = float(rng.choice([0.1, 1.0, 10.0]))
            data = random_linear_dataset(rng, d, n, task_id="full", seed=trial)
            k = int(rng.integers(1, n // 2 + 1))
            removed = [int(i) for i in rng.choice(n, size=k, replace=False)]
            out = influence_oracle(data, removed, delta)
            assert np.all(np.isfinite(out.values))


class TestMapSurrogateCheck:
    def test_merge_output_is_stationary(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            inputs = map_fixture(rng)
            candidate = merge_uncertainty(inputs)
            norm = map_surrogate_check(inputs, candidate)
            assert norm < 1e-9 * (1.0 + float(np.linalg.norm(candidate.values)))

    def test_merge_output_is_stationary_with_a_ridge(self):
        # The check adds ``inputs.delta`` to the anchor curvature itself, as the merge does.
        rng = np.random.default_rng(5)
        for delta in (0.1, 1.0, 10.0):
            inputs = dataclasses.replace(map_fixture(rng), delta=delta)
            candidate = merge_uncertainty(inputs)
            norm = map_surrogate_check(inputs, candidate)
            assert norm < 1e-9 * (1.0 + float(np.linalg.norm(candidate.values)))
            assert map_surrogate_check(dataclasses.replace(inputs, delta=0.0), candidate) > 1e-6

    def test_anchor_with_increments_is_not_stationary(self):
        layout = layout_of(2)
        anchor = vec([0.0, 0.0])
        one = DiagCurvature(layout, [1.0, 1.0])
        inputs = MergeInputs(Checkpoint(anchor, one), ((1.0, Checkpoint(vec([1.0, 2.0]), one)),))
        assert map_surrogate_check(inputs, anchor) > 0.1

    def test_anchor_without_curvature_rejected(self):
        inputs = map_fixture(np.random.default_rng(6))
        bare = dataclasses.replace(inputs, anchor=Checkpoint(inputs.anchor.params))
        with pytest.raises(MissingCurvatureError):
            map_surrogate_check(bare, inputs.anchor.params)

    def test_task_without_curvature_rejected(self):
        inputs = map_fixture(np.random.default_rng(6))
        (alpha, first), *rest = inputs.tasks
        bare = dataclasses.replace(inputs, tasks=((alpha, Checkpoint(first.params)), *rest))
        with pytest.raises(MissingCurvatureError):
            map_surrogate_check(bare, inputs.anchor.params)

    def test_zero_increments_are_stationary_at_anchor(self):
        layout = layout_of(2)
        anchor = vec([0.3, -0.7])
        h0 = DiagCurvature(layout, [2.0, 1.0])
        inputs = MergeInputs(Checkpoint(anchor, h0), ((0.8, Checkpoint(anchor, DiagCurvature.zeros(layout))),), 0.5)
        assert map_surrogate_check(inputs, anchor) == 0.0


class TestAltRemovalOracle:
    def test_zero_gradient_returns_anchor(self):
        anchor = vec([2.0, -1.0])
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = TaskDataset(task_id="t", inputs=X, targets=X @ anchor.values, seed=0)
        out = alt_removal_oracle(anchor, data, 1.0, DiagCurvature(layout_of(2), [1.0, 1.0]))
        np.testing.assert_allclose(out.values, anchor.values)

    def test_one_dimensional_fixture(self):
        out = alt_removal_oracle(
            vec([2.0]),
            data_1d("removed", [(1.0, 4.0)]),
            1.0,
            DiagCurvature(layout_of(1), [1.0]),
        )
        np.testing.assert_allclose(out.values, [1.0], atol=1e-12)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(SingularCurvatureError):
            alt_removal_oracle(
                vec([2.0]),
                data_1d("removed", [(1.0, 4.0)]),
                0.0,
                DiagCurvature(layout_of(1), [0.0]),
            )

    def test_matches_retrain_and_removal_update(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            fix = linear_removal_fixture(rng)
            grad_form = alt_removal_oracle(
                fix.inputs.anchor.params, fix.removed_data, fix.inputs.delta, fix.hbar_minus
            )
            retrain = influence_oracle(fix.full_data, list(fix.removed), fix.inputs.delta)
            removed_model = remove_task(fix.inputs, fix.hbar_minus)
            np.testing.assert_allclose(grad_form.values, retrain.values, atol=1e-9)
            np.testing.assert_allclose(grad_form.values, removed_model.values, atol=1e-9)


class TestMergeFixtureExactness:
    def test_preconditioned_merge_tracks_joint_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            fix = linear_merge_fixture(rng)
            merged = merge_uncertainty(fix.inputs)
            joint = joint_closed_form_oracle(fix.inputs, list(fix.datasets))
            np.testing.assert_allclose(merged.values, joint.values, atol=1e-9)


class TestOracleSuite:
    def test_small_suite_all_pass(self):
        results = run_oracle_suite(seed=7, n_fixtures=10)
        assert len(results) == 50
        assert all(r.passed for r in results)

    def test_map_family_checks_a_ridge(self, monkeypatch):
        # The surrogate adds delta to the anchor curvature; a suite that
        # only ever passes delta 0 leaves that sum unchecked.
        deltas = []

        def recording(inputs, candidate):
            deltas.append(inputs.delta)
            return map_surrogate_check(inputs, candidate)

        monkeypatch.setattr(oracles, "map_surrogate_check", recording)
        results = run_oracle_suite(seed=7, n_fixtures=10)
        assert len(deltas) == 10 and any(delta > 0.0 for delta in deltas)
        assert all(r.passed for r in results)

    def test_suite_is_deterministic(self):
        a = oracle_table_csv(run_oracle_suite(seed=3, n_fixtures=5))
        b = oracle_table_csv(run_oracle_suite(seed=3, n_fixtures=5))
        assert a == b

    def test_csv_and_summary_shape(self):
        results = run_oracle_suite(seed=1, n_fixtures=4)
        text = oracle_table_csv(results)
        lines = text.splitlines()
        assert lines[0] == ORACLE_TABLE_HEADER
        assert len(lines) == 1 + len(results)
        summary = oracle_summary(results)
        assert summary.startswith(f"oracle suite: {len(results)} checks")
        assert "0 failed" in summary
