"""Tests for the merging catalog and the data-removal update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmerge.errors import (
    ConfigError,
    EmptyMergeError,
    LayoutError,
    MissingCurvatureError,
    NumericError,
    SingularCurvatureError,
)
from gradmerge.merging import (
    ADDITION_METHODS,
    CURVATURE_METHODS,
    TIES_KEEP,
    MergeInputs,
    merge,
    merge_grid,
    merge_task_arithmetic,
    merge_uncertainty,
    merged_checkpoint,
    remove_task,
)
from gradmerge.models import TaskDataset
from gradmerge.oracles import linear_merge_fixture
from gradmerge.params import Checkpoint, DiagCurvature, ParamLayout, ParamVector
from gradmerge.training import closed_form_solve


def layout_of(d):
    return ParamLayout([("w", (d,))])


def vec(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return ParamVector(layout_of(values.size), values)


def curv(values):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return DiagCurvature(layout_of(values.size), values)


def ckpt(values, curvature=None):
    params = vec(values)
    curv_obj = None if curvature is None else curv(curvature)
    return Checkpoint(params, curvature=curv_obj)


def random_inputs(rng, d=4, n_tasks=3, with_curvature=True, delta=0.0):
    anchor = ckpt(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d) if with_curvature else None)
    tasks = []
    for _ in range(n_tasks):
        c = rng.uniform(0.2, 3.0, size=d) if with_curvature else None
        tasks.append((float(rng.uniform(0.2, 1.0)), ckpt(rng.normal(size=d), c)))
    return MergeInputs(anchor=anchor, tasks=tuple(tasks), delta=delta)


class TestMergeInputs:
    def test_layout_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            MergeInputs(anchor=ckpt([0.0]), tasks=((1.0, ckpt([0.0, 0.0])),))

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError):
            MergeInputs(anchor=ckpt([0.0]), tasks=((1.0, ckpt([1.0])),), delta=-1.0)

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ConfigError):
            MergeInputs(anchor=ckpt([0.0]), tasks=((float("nan"), ckpt([1.0])),))

    def test_negative_alpha_allowed_at_type_level(self):
        inputs = MergeInputs(anchor=ckpt([0.0]), tasks=((-0.5, ckpt([1.0])),))
        assert inputs.alphas == (-0.5,)


class TestAverages:
    """``am`` (plain mean of the tasks) and ``wam`` (weighted sum with the anchor)."""

    def test_arithmetic_mean_of_two_tasks(self):
        inputs = MergeInputs(anchor=ckpt([5.0]), tasks=((1.0, ckpt([0.0])), (1.0, ckpt([2.0]))))
        np.testing.assert_allclose(merge("am", inputs).values, [1.0])

    def test_mean_of_identical_copies_is_identity(self):
        theta = [0.3, -1.2, 4.0]
        tasks = tuple((1.0, ckpt(theta)) for _ in range(4))
        inputs = MergeInputs(anchor=ckpt([0.0, 0.0, 0.0]), tasks=tasks)
        np.testing.assert_allclose(merge("am", inputs).values, theta)

    def test_weighted_all_mass_on_anchor(self):
        inputs = MergeInputs(
            anchor=ckpt([7.0, -2.0]),
            tasks=((0.0, ckpt([1.0, 1.0])), (0.0, ckpt([2.0, 2.0]))),
        )
        np.testing.assert_allclose(merge("wam", inputs).values, [7.0, -2.0])

    def test_weighted_uses_weights_as_given(self):
        inputs = MergeInputs(anchor=ckpt([4.0]), tasks=((0.5, ckpt([2.0])), (0.25, ckpt([8.0]))))
        np.testing.assert_allclose(merge("wam", inputs).values, [0.25 * 4 + 0.5 * 2 + 0.25 * 8])

    def test_weighted_anchor_weight_is_zero_past_the_simplex(self):
        inputs = MergeInputs(anchor=ckpt([4.0]), tasks=((0.75, ckpt([2.0])), (0.75, ckpt([8.0]))))
        np.testing.assert_allclose(merge("wam", inputs).values, [0.75 * 2 + 0.75 * 8])

    def test_empty_task_list_rejected(self):
        with pytest.raises(EmptyMergeError):
            merge("am", MergeInputs(anchor=ckpt([0.0]), tasks=()))

    @pytest.mark.parametrize("method", ["am", "wam"])
    def test_negative_alpha_rejected(self, method):
        inputs = MergeInputs(anchor=ckpt([0.0]), tasks=((-1.0, ckpt([1.0])),))
        with pytest.raises(ConfigError):
            merge(method, inputs)


class TestFisherAveraging:
    """``fa``: the per-coordinate Fisher-weighted mean of the anchor and the tasks."""

    def test_equal_fishers_reduce_to_arithmetic_mean_with_anchor(self):
        rng = np.random.default_rng(0)
        anchor = rng.normal(size=3)
        thetas = [rng.normal(size=3) for _ in range(3)]
        tasks = tuple((1.0, ckpt(t, np.full(3, 2.5))) for t in thetas)
        inputs = MergeInputs(anchor=ckpt(anchor, np.full(3, 2.5)), tasks=tasks)
        np.testing.assert_allclose(
            merge("fa", inputs).values, np.mean([anchor] + thetas, axis=0), atol=1e-12
        )

    def test_single_task_over_zero_anchor_fisher_returns_that_task(self):
        inputs = MergeInputs(anchor=ckpt([0.0], [0.0]), tasks=((1.0, ckpt([3.0], [7.0])),))
        np.testing.assert_allclose(merge("fa", inputs).values, [3.0])

    def test_scalar_fixture(self):
        tasks = ((1.0, ckpt([1.0], [3.0])), (1.0, ckpt([3.0], [1.0])))
        inputs = MergeInputs(anchor=ckpt([0.0], [0.0]), tasks=tasks)
        np.testing.assert_allclose(merge("fa", inputs).values, [1.5])

    def test_missing_curvature_rejected(self):
        inputs = MergeInputs(anchor=ckpt([0.0], [1.0]), tasks=((1.0, ckpt([1.0])),))
        with pytest.raises(MissingCurvatureError):
            merge("fa", inputs)

    def test_anchor_pulls_toward_anchor(self):
        inputs = MergeInputs(anchor=ckpt([0.0], [1.0]), tasks=((1.0, ckpt([2.0], [1.0])),))
        np.testing.assert_allclose(merge("fa", inputs).values, [1.0])

    def test_requires_anchor_curvature(self):
        inputs = MergeInputs(anchor=ckpt([0.0]), tasks=((1.0, ckpt([2.0], [1.0])),))
        with pytest.raises(MissingCurvatureError):
            merge("fa", inputs)

    def test_zero_pooled_fisher_rejected(self):
        inputs = MergeInputs(anchor=ckpt([0.0], [0.0]), tasks=((1.0, ckpt([2.0], [0.0])),))
        with pytest.raises(SingularCurvatureError):
            merge("fa", inputs)

    def test_negative_alpha_rejected(self):
        inputs = MergeInputs(anchor=ckpt([0.0], [1.0]), tasks=((-1.0, ckpt([1.0], [1.0])),))
        with pytest.raises(ConfigError):
            merge("fa", inputs)


class TestMergeTaskArithmetic:
    def test_no_increments_returns_anchor(self):
        anchor = [1.5, -0.5]
        tasks = tuple((0.7, ckpt(anchor, [1.0, 2.0])) for _ in range(3))
        inputs = MergeInputs(anchor=ckpt(anchor, [2.0, 3.0]), tasks=tasks)
        for method in ("ta", "fa", "ties", "ours"):
            np.testing.assert_array_equal(merge(method, inputs).values, anchor)

    def test_opposite_weights_cancel(self):
        inputs = MergeInputs(
            anchor=ckpt([1.0, -2.0]), tasks=((1.0, ckpt([4.0, 3.0])), (-1.0, ckpt([4.0, 3.0])))
        )
        np.testing.assert_array_equal(merge_task_arithmetic(inputs).values, [1.0, -2.0])

    def test_single_task_unit_weight(self):
        inputs = MergeInputs(anchor=ckpt([2.0]), tasks=((1.0, ckpt([5.0])),))
        np.testing.assert_allclose(merge_task_arithmetic(inputs).values, [5.0])

    def test_one_dimensional_fixture_overshoots_target(self):
        inputs = MergeInputs(
            anchor=ckpt([0.0]), tasks=((1.0, ckpt([1.0])), (1.0, ckpt([2.0])))
        )
        np.testing.assert_allclose(merge_task_arithmetic(inputs).values, [3.0])

    def test_negative_weight_subtracts_task(self):
        inputs = MergeInputs(anchor=ckpt([1.0]), tasks=((-0.5, ckpt([3.0])),))
        np.testing.assert_allclose(merge_task_arithmetic(inputs).values, [0.0])


class TestMergeUncertainty:
    def test_one_dimensional_fixture_matches_joint_solution(self):
        anchor = ckpt([0.0], [1.0])
        tasks = ((1.0, ckpt([1.0], [1.0])), (1.0, ckpt([2.0], [1.0])))
        out = merge_uncertainty(MergeInputs(anchor=anchor, tasks=tasks))
        np.testing.assert_allclose(out.values, [2.0], atol=1e-12)

    def test_reduces_to_task_arithmetic_under_flat_curvature(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.integers(1, 8)
            anchor = ckpt(rng.normal(size=d), np.ones(d))
            tasks = tuple(
                (float(rng.uniform(0.1, 1.5)), ckpt(rng.normal(size=d), np.zeros(d)))
                for _ in range(rng.integers(1, 5))
            )
            inputs = MergeInputs(anchor=anchor, tasks=tasks)
            ours = merge_uncertainty(inputs).values
            ta = merge_task_arithmetic(inputs).values
            np.testing.assert_allclose(ours, ta, atol=1e-12)

    def test_reduces_to_arithmetic_mean_with_uniform_weights(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.integers(1, 8)
            T = int(rng.integers(2, 6))
            anchor = ckpt(rng.normal(size=d), np.ones(d))
            tasks = tuple((1.0 / T, ckpt(rng.normal(size=d), np.zeros(d))) for _ in range(T))
            inputs = MergeInputs(anchor=anchor, tasks=tasks)
            ours = merge_uncertainty(inputs).values
            am = merge("am", inputs).values
            np.testing.assert_allclose(ours, am, atol=1e-12)

    def test_matches_fisher_averaging_up_to_floor(self):
        rng = np.random.default_rng(3)
        floor = 1e-10
        for _ in range(20):
            d = rng.integers(1, 8)
            anchor = ckpt(rng.normal(size=d), np.full(d, floor))
            tasks = tuple(
                (float(rng.uniform(0.2, 1.0)), ckpt(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)))
                for _ in range(rng.integers(1, 5))
            )
            inputs = MergeInputs(anchor=anchor, tasks=tasks)
            ours = merge_uncertainty(inputs).values
            fa = merge("fa", inputs).values
            np.testing.assert_allclose(ours, fa, atol=1e-8)

    def test_nonpositive_pooled_curvature_rejected(self):
        inputs = MergeInputs(anchor=ckpt([0.0], [1.0]), tasks=((-1.0, ckpt([1.0], [2.0])),))
        with pytest.raises(SingularCurvatureError):
            merge_uncertainty(inputs)

    def test_negative_weight_accepted_when_curvature_stays_positive(self):
        inputs = MergeInputs(anchor=ckpt([2.0], [4.0]), tasks=((-0.5, ckpt([4.0], [2.0])),))
        out = merge_uncertainty(inputs)
        # hbar = 4 - 1 = 3; increment = -0.5 * (4 + 2) / 3 * 2 = -2.
        np.testing.assert_allclose(out.values, [0.0])

    def test_map_surrogate_gradient_vanishes_at_output(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(1, 9))
            inputs = random_inputs(rng, d=d, n_tasks=int(rng.integers(1, 5)))
            theta = merge_uncertainty(inputs).values
            h0 = inputs.anchor.curvature.values
            a = inputs.anchor.params.values
            total = sum(inputs.alphas)
            grad = (1.0 - total) * h0 * (theta - a)
            for alpha, task in inputs.tasks:
                grad += alpha * (h0 + task.curvature.values) * (theta - task.params.values)
            assert np.linalg.norm(grad) <= 1e-9 * (1.0 + np.linalg.norm(theta))


class TestMergeInvariances:
    @given(
        seed=st.integers(0, 10_000),
        perm_seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_task_order_does_not_matter(self, seed, perm_seed):
        rng = np.random.default_rng(seed)
        inputs = random_inputs(rng, d=5, n_tasks=4)
        perm = np.random.default_rng(perm_seed).permutation(4)
        shuffled = MergeInputs(
            anchor=inputs.anchor,
            tasks=tuple(inputs.tasks[i] for i in perm),
            delta=inputs.delta,
        )
        for method in ADDITION_METHODS:
            a = merge(method, inputs).values
            b = merge(method, shuffled).values
            np.testing.assert_allclose(a, b, atol=1e-12)

    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_curvature_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        inputs = random_inputs(rng, d=5, n_tasks=3)
        scaled = MergeInputs(
            anchor=ckpt(
                inputs.anchor.params.values, scale * inputs.anchor.curvature.values
            ),
            tasks=tuple(
                (alpha, ckpt(t.params.values, scale * t.curvature.values))
                for alpha, t in inputs.tasks
            ),
        )
        for method in CURVATURE_METHODS:
            np.testing.assert_allclose(merge(method, scaled).values, merge(method, inputs).values, atol=1e-12)
        # Removal: scaling h0, h_t and the retained curvature together.
        hbar_minus = inputs.tasks[1][1].curvature
        removed = remove_task(MergeInputs(inputs.anchor, inputs.tasks[:1]), hbar_minus)
        scaled_removed = remove_task(MergeInputs(scaled.anchor, scaled.tasks[:1]), curv(scale * hbar_minus.values))
        np.testing.assert_allclose(scaled_removed.values, removed.values, atol=1e-12)

    @given(
        seed=st.integers(0, 10_000),
        split=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_splitting_a_task_in_half_changes_nothing(self, seed, split):
        rng = np.random.default_rng(seed)
        inputs = random_inputs(rng, d=5, n_tasks=3)
        alpha, task = inputs.tasks[split]
        halves = (alpha / 2, task), (alpha / 2, task)
        tasks = inputs.tasks[:split] + halves + inputs.tasks[split + 1 :]
        halved = MergeInputs(anchor=inputs.anchor, tasks=tasks, delta=inputs.delta)
        for method in ("ta", "wam", "fa", "ours", "ties"):
            a = merge(method, inputs).values
            b = merge(method, halved).values
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)


class TestEffectiveWeights:
    """``ours`` moves coordinate j of the anchor along each task's increment
    by the paper's weight ``alpha_t (h0 + delta + h_t) / hbar``."""

    @given(
        seed=st.integers(0, 10_000),
        n_tasks=st.integers(1, 5),
        delta=st.floats(0.0, 1.0),
        scales=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_sum_to_one_plus_the_excess_mass_on_the_anchor(self, seed, n_tasks, delta, scales):
        # Every task sits at one increment e from the anchor, so each merged
        # row's (merged - anchor) / e is its weights' sum, which per
        # coordinate is 1 + (sum_t alpha_t - 1) (h0 + delta) / hbar.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        a = rng.uniform(-1.0, 1.0, d)
        theta = a + rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 2.0, d)
        h0 = rng.uniform(0.1, 2.0, d)
        curvs = rng.uniform(0.0, 3.0, (n_tasks, d))
        alphas = rng.uniform(0.0, 2.0, n_tasks)
        tasks = tuple((float(alpha), ckpt(theta, h)) for alpha, h in zip(alphas, curvs))
        merged = merge_grid("ours", MergeInputs(ckpt(a, h0), tasks, delta), scales)
        for scale, row in zip(scales, merged):
            weights = scale * alphas
            hbar = h0 + delta + weights @ curvs
            expected = 1.0 + (weights.sum() - 1.0) * (h0 + delta) / hbar
            np.testing.assert_allclose((row - a) / (theta - a), expected, rtol=1e-12, atol=1e-12)


class TestTies:
    """``ties`` at d = 5, where ``ceil(TIES_KEEP * 5) = 1`` coordinate per task survives."""

    def test_keeps_only_the_largest_increment(self):
        inputs = MergeInputs(
            anchor=ckpt(np.zeros(5)), tasks=((1.0, ckpt([3.0, -1.0, 0.5, 0.2, -2.0])),)
        )
        assert int(np.ceil(TIES_KEEP * 5)) == 1
        np.testing.assert_allclose(merge("ties", inputs).values, [3.0, 0.0, 0.0, 0.0, 0.0])

    def test_trims_around_the_anchor(self):
        anchor = [1.0, 1.0, 1.0, 1.0, 1.0]
        inputs = MergeInputs(anchor=ckpt(anchor), tasks=((0.5, ckpt([1.5, 1.0, -3.0, 2.0, 1.0])),))
        np.testing.assert_allclose(merge("ties", inputs).values, [1.0, 1.0, -1.0, 1.0, 1.0])

    def test_magnitude_ties_prefer_lower_index(self):
        inputs = MergeInputs(
            anchor=ckpt(np.zeros(5)), tasks=((1.0, ckpt([0.0, -1.0, 1.0, 1.0, 0.0])),)
        )
        np.testing.assert_allclose(merge("ties", inputs).values, [0.0, -1.0, 0.0, 0.0, 0.0])

    def test_sign_election_drops_minority_contribution(self):
        # Both tasks keep coordinate 0, with +3 and -1: the elected sign is
        # positive, so only the +3 contribution survives (plain task
        # arithmetic on the kept coordinates would give +2).
        inputs = MergeInputs(
            anchor=ckpt(np.zeros(5)),
            tasks=((1.0, ckpt([3.0, 0.5, 0.0, 0.0, 0.0])), (1.0, ckpt([-1.0, 0.0, 0.0, 0.5, 0.0]))),
        )
        np.testing.assert_allclose(merge("ties", inputs).values, [3.0, 0.0, 0.0, 0.0, 0.0])

    def test_election_is_weighted_by_alpha(self):
        # The same increments at weights 0.2 and 1.0 elect the negative sign.
        inputs = MergeInputs(
            anchor=ckpt(np.zeros(5)),
            tasks=((0.2, ckpt([3.0, 0.0, 0.0, 0.0, 0.0])), (1.0, ckpt([-1.0, 0.0, 0.0, 0.0, 0.0]))),
        )
        np.testing.assert_allclose(merge("ties", inputs).values, [-1.0, 0.0, 0.0, 0.0, 0.0])

    def test_negative_alpha_rejected(self):
        inputs = MergeInputs(anchor=ckpt(np.zeros(5)), tasks=((-1.0, ckpt(np.ones(5))),))
        with pytest.raises(ConfigError):
            merge("ties", inputs)


class TestRemoveTask:
    def test_identical_task_leaves_anchor(self):
        anchor = ckpt([2.0, -1.0], [2.0, 2.0])
        out = remove_task(
            MergeInputs(anchor, ((1.0, ckpt([2.0, -1.0], [1.0, 1.0])),), delta=1.0),
            hbar_minus=curv([1.0, 1.0]),
        )
        np.testing.assert_allclose(out.values, [2.0, -1.0])

    def test_one_dimensional_fixture_matches_retrain(self):
        # Anchor 2.0 solves the ridge-penalized fit of {(1,2),(1,4)} with
        # delta=1, where the data curvature is 2; removing the example (1,4)
        # retrains to exactly 1.0.
        out = remove_task(
            MergeInputs(ckpt([2.0], [2.0]), ((1.0, ckpt([2.5], [1.0])),), delta=1.0),
            hbar_minus=curv([1.0]),
        )
        np.testing.assert_allclose(out.values, [1.0], atol=1e-12)

    def test_nonpositive_retained_curvature_rejected(self):
        with pytest.raises(SingularCurvatureError):
            remove_task(
                MergeInputs(ckpt([2.0], [3.0]), ((1.0, ckpt([2.5], [1.0])),), delta=0.0),
                hbar_minus=curv([0.0]),
            )

    def test_missing_task_curvature_rejected(self):
        with pytest.raises(MissingCurvatureError):
            remove_task(
                MergeInputs(ckpt([2.0], [2.0]), ((1.0, ckpt([2.5])),), delta=1.0),
                hbar_minus=curv([1.0]),
            )

    def test_missing_anchor_curvature_rejected(self):
        # The anchor checkpoint's curvature is h0; no fallback stands in for it.
        with pytest.raises(MissingCurvatureError, match="anchor"):
            remove_task(MergeInputs(ckpt([2.0]), ((1.0, ckpt([2.5], [1.0])),), delta=1.0), hbar_minus=curv([1.0]))

    @given(seed=st.integers(0, 10_000), delta=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_adds_delta_to_the_anchor_curvature(self, seed, delta):
        # a - alpha (h0 + delta + h_t) / (hbar_minus + delta) (theta_t - a),
        # with h0 the anchor checkpoint's own curvature.
        rng = np.random.default_rng(seed)
        inputs = random_inputs(rng, d=5, n_tasks=1)
        anchor, (alpha, task) = inputs.anchor, inputs.tasks[0]
        hbar_minus = rng.uniform(0.1, 3.0, size=5)
        a, theta_t = anchor.params.values, task.params.values
        h0, h_t = anchor.curvature.values, task.curvature.values
        expected = a - alpha * (h0 + delta + h_t) / (hbar_minus + delta) * (theta_t - a)
        out = remove_task(MergeInputs(anchor, ((alpha, task),), delta), curv(hbar_minus)).values
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_layout_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            remove_task(
                MergeInputs(ckpt([2.0], [2.0]), ((1.0, ckpt([2.5, 0.0], [1.0, 1.0])),), delta=1.0),
                hbar_minus=curv([1.0]),
            )

    def test_retained_curvature_off_the_anchor_layout_rejected(self):
        # A one-entry hbar_minus would otherwise broadcast over a two-entry anchor.
        with pytest.raises(LayoutError):
            remove_task(MergeInputs(ckpt([2.0, 0.0], [2.0, 2.0]), ((1.0, ckpt([2.5, 1.0], [1.0, 1.0])),)), curv([1.0]))

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError):
            remove_task(
                MergeInputs(ckpt([2.0], [2.0]), ((1.0, ckpt([2.5], [1.0])),), delta=-1.0),
                hbar_minus=curv([1.0]),
            )

    @given(seed=st.integers(0, 10_000), penalty_seed=st.integers(0, 10_000), n_removed=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_merge_then_remove_round_trip(self, seed, penalty_seed, n_removed):
        # Merge T diagonal quadratic tasks, fine-tune each of the last one or
        # two from the merge in closed form under any penalty P, remove them
        # at once: the merge of the tasks kept (at least one) comes back,
        # because the algebra cancels P exactly.
        fix = linear_merge_fixture(np.random.default_rng(seed))
        inputs, layout = fix.inputs, fix.inputs.layout
        penalty = curv(np.random.default_rng(penalty_seed).uniform(0.1, 10.0, layout.total_len))
        merged = Checkpoint(merge_uncertainty(inputs), penalty)
        cut = len(inputs.tasks) - min(n_removed, len(inputs.tasks) - 1)
        kept = inputs.tasks[:cut]
        finetuned = tuple(
            (alpha, Checkpoint(closed_form_solve([data], [1.0], merged, 0.0), ck.curvature))
            for (alpha, ck), data in zip(inputs.tasks[cut:], fix.datasets[cut:])
        )
        hbar_minus = inputs.anchor.curvature.values + sum(a * ck.curvature.values for a, ck in kept)
        removed = remove_task(MergeInputs(merged, finetuned), curv(hbar_minus)).values
        expected = merge_uncertainty(MergeInputs(inputs.anchor, kept, inputs.delta)).values
        assert np.max(np.abs(removed - expected)) <= 1e-9 * np.max(np.abs(expected))


def orthogonal_design(rng, n, d):
    """Design matrix with orthogonal columns, so X^T X is exactly diagonal."""
    q, _ = np.linalg.qr(rng.normal(size=(n, d)))
    scales = rng.uniform(0.5, 2.0, size=d)
    return q[:, :d] * scales


class TestLinearExactness:
    def test_uncertainty_merge_equals_joint_closed_form(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            d = int(rng.integers(1, 9))
            T = int(rng.integers(2, 5))
            n = d + int(rng.integers(2, 20))
            layout = layout_of(d)
            anchor = Checkpoint(ParamVector(layout, rng.normal(size=d)), DiagCurvature(layout, rng.uniform(0.5, 2.0, size=d)))
            alphas, tasks, datasets = [], [], []
            for t in range(T):
                X = orthogonal_design(rng, n, d)
                theta_star = rng.normal(size=d)
                y = X @ theta_star + 0.1 * rng.normal(size=n)
                data = TaskDataset(task_id=f"t{t}", inputs=X, targets=y, seed=trial)
                theta_t = closed_form_solve([data], [1.0], anchor, 0.0)
                ht = DiagCurvature(layout, np.einsum("ij,ij->j", X, X))
                alphas.append(float(rng.uniform(0.3, 1.0)))
                tasks.append((alphas[-1], Checkpoint(theta_t, curvature=ht)))
                datasets.append(data)
            merged = merge_uncertainty(MergeInputs(anchor, tuple(tasks))).values
            joint = closed_form_solve(datasets, alphas, anchor, 0.0).values
            np.testing.assert_allclose(merged, joint, atol=1e-9)

    def test_removal_equals_leave_dataset_out_closed_form(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            d = int(rng.integers(1, 7))
            layout = layout_of(d)
            delta = float(rng.choice([0.1, 1.0, 10.0]))
            n_keep = d + int(rng.integers(2, 12))
            n_drop = d + int(rng.integers(2, 12))
            # Kept and removed blocks are orthogonalized separately so both
            # X^T X blocks (and their sum) are exactly diagonal.
            X_keep = orthogonal_design(rng, n_keep, d)
            X_drop = orthogonal_design(rng, n_drop, d)
            theta_star = rng.normal(size=d)
            y_keep = X_keep @ theta_star + 0.1 * rng.normal(size=n_keep)
            y_drop = X_drop @ theta_star + 0.1 * rng.normal(size=n_drop)
            keep = TaskDataset(task_id="keep", inputs=X_keep, targets=y_keep, seed=trial)
            drop = TaskDataset(task_id="drop", inputs=X_drop, targets=y_drop, seed=trial)
            origin = Checkpoint(ParamVector.zeros(layout), DiagCurvature.zeros(layout))
            anchor_theta = closed_form_solve([keep, drop], [1.0, 1.0], origin, delta)
            h_keep = np.einsum("ij,ij->j", X_keep, X_keep)
            h_drop = np.einsum("ij,ij->j", X_drop, X_drop)
            # Fine-tune the removed task from the anchor under the full-data
            # curvature penalty minus its own: the anchor curvature h_keep plus delta.
            anchor = Checkpoint(anchor_theta, DiagCurvature(layout, h_keep))
            theta_t = closed_form_solve([drop], [1.0], anchor, delta)
            out = remove_task(
                MergeInputs(anchor, ((1.0, Checkpoint(theta_t, curvature=DiagCurvature(layout, h_drop))),), delta),
                hbar_minus=DiagCurvature(layout, h_keep),
            )
            retrained = closed_form_solve([keep], [1.0], origin, delta)
            np.testing.assert_allclose(out.values, retrained.values, atol=1e-9)


class TestDegenerateInputs:
    """One rule across the catalog: no tasks, or missing curvature, raise;
    all-zero task weights give the anchor."""

    @pytest.mark.parametrize("method", ADDITION_METHODS)
    def test_all_zero_weights_give_the_anchor(self, method):
        # Adding nothing leaves the anchor, also for ``am``, which otherwise ignores the weights.
        inputs = random_inputs(np.random.default_rng(13), d=5, n_tasks=3)
        anchor = inputs.anchor.params.values
        zeroed = MergeInputs(inputs.anchor, tuple((0.0, ck) for _, ck in inputs.tasks), inputs.delta)
        np.testing.assert_array_equal(merge(method, zeroed).values, anchor)
        grid = merge_grid(method, inputs, (0.0, 1.0, -0.0))
        np.testing.assert_array_equal(grid[[0, 2]], [anchor, anchor])
        np.testing.assert_array_equal(grid[1], merge(method, inputs).values)

    @pytest.mark.parametrize("method", CURVATURE_METHODS)
    def test_zero_weights_still_need_curvature(self, method):
        inputs = MergeInputs(anchor=ckpt([1.0, 2.0]), tasks=((0.0, ckpt([3.0, 0.0], [1.0, 2.0])),))
        with pytest.raises(MissingCurvatureError):
            merge(method, inputs)

    @pytest.mark.parametrize("method", ADDITION_METHODS)
    def test_zero_tasks_rejected(self, method):
        # Refused where the inputs are built, so no merge, removal, oracle or
        # diagnostic has an empty case of its own.
        with pytest.raises(EmptyMergeError):
            merge(method, MergeInputs(ckpt([1.0, 2.0], [1.0, 1.0]), ()))

    @pytest.mark.parametrize("method", ADDITION_METHODS)
    def test_anchor_without_curvature(self, method):
        inputs = MergeInputs(anchor=ckpt([1.0, 2.0]), tasks=((0.5, ckpt([3.0, 0.0], [1.0, 2.0])),))
        if method in CURVATURE_METHODS:
            with pytest.raises(MissingCurvatureError):
                merge(method, inputs)
        else:
            assert np.all(np.isfinite(merge(method, inputs).values))

    def test_overflow_rejected(self):
        huge = MergeInputs(
            anchor=ckpt([-1e308, 0.0], [1.0, 1.0]),
            tasks=((10.0, ckpt([1e308, 1e308], [0.0, 1.0])),),
        )
        for method in ("wam", "ta", "ours"):
            with pytest.raises(NumericError):
                merge(method, huge)
        with pytest.raises(NumericError):
            remove_task(huge, curv([1.0, 1.0]))

    def test_fisher_mean_of_extreme_entries_stays_finite(self):
        huge = MergeInputs(
            anchor=ckpt([-1e308, 0.0], [1.0, 1.0]),
            tasks=((10.0, ckpt([1e308, 1e308], [0.0, 1.0])),),
        )
        np.testing.assert_allclose(merge("fa", huge).values, [-1e308, 10 / 11 * 1e308], rtol=1e-12)


class TestDispatcher:
    def test_registry_covers_every_addition_method(self):
        rng = np.random.default_rng(8)
        inputs = random_inputs(rng, d=4, n_tasks=3)
        for method in ADDITION_METHODS:
            out = merge(method, inputs)
            assert out.layout == inputs.layout
            assert np.all(np.isfinite(out.values))

    def test_matches_per_task_loop_reference(self):
        # Each catalog formula written out task by task, without the kernel.
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(1, 13))
            inputs = random_inputs(rng, d=d, n_tasks=int(rng.integers(1, 6)), delta=0.1)
            a, f0 = inputs.anchor.params.values, inputs.anchor.curvature.values
            T, total = len(inputs.tasks), sum(inputs.alphas)
            ref = {"am": 0.0, "wam": max(0.0, 1.0 - total) * a, "ta": a.copy()}
            fa_num, fa_den, hbar = f0 * a, f0.copy(), f0 + 0.1
            for alpha, task in inputs.tasks:
                theta, h = task.params.values, task.curvature.values
                ref["am"] = ref["am"] + theta / T
                ref["wam"] = ref["wam"] + alpha * theta
                ref["ta"] = ref["ta"] + alpha * (theta - a)
                fa_num, fa_den, hbar = fa_num + alpha * h * theta, fa_den + alpha * h, hbar + alpha * h
            ref["fa"] = fa_num / fa_den
            ref["ours"] = a.copy()
            contributions = []
            k = int(np.ceil(0.2 * d))
            for alpha, task in inputs.tasks:
                inc = task.params.values - a
                ref["ours"] = ref["ours"] + alpha * (f0 + 0.1 + task.curvature.values) / hbar * inc
                keep = np.zeros(d)
                keep[np.argsort(-np.abs(inc), kind="stable")[:k]] = 1.0
                contributions.append(alpha * keep * inc)
            elected = np.sign(np.sum(contributions, axis=0))
            ref["ties"] = a + sum(np.where(np.sign(c) == elected, c, 0.0) for c in contributions)
            for method in ADDITION_METHODS:
                out = merge(method, inputs).values
                np.testing.assert_allclose(out, ref[method], rtol=1e-12, atol=1e-12, err_msg=method)

    def test_grid_rows_equal_single_merges(self):
        rng = np.random.default_rng(12)
        scales = (0.0, 0.25, 0.25, 1.0, 1.8)
        for _ in range(20):
            inputs = random_inputs(rng, d=int(rng.integers(1, 9)), n_tasks=int(rng.integers(1, 6)), delta=0.1)
            for method in ADDITION_METHODS:
                grid = merge_grid(method, inputs, scales)
                assert grid.shape == (len(scales), inputs.layout.total_len)
                for scale, row in zip(scales, grid):
                    scaled = MergeInputs(
                        inputs.anchor, tuple((scale * a, ck) for a, ck in inputs.tasks), inputs.delta
                    )
                    np.testing.assert_array_equal(row, merge(method, scaled).values, err_msg=method)

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(9)
        inputs = random_inputs(rng, d=2, n_tasks=1)
        with pytest.raises(ConfigError):
            merge("regmean", inputs)

    def test_wam_default_anchor_weight_completes_the_simplex(self):
        inputs = MergeInputs(
            anchor=ckpt([8.0]), tasks=((0.25, ckpt([0.0])), (0.25, ckpt([4.0])))
        )
        np.testing.assert_allclose(merge("wam", inputs).values, [0.5 * 8 + 0.25 * 4])

    def test_merged_checkpoint_records_method_and_weights(self):
        rng = np.random.default_rng(10)
        inputs = random_inputs(rng, d=3, n_tasks=2)
        params = merge("ours", inputs)
        out = merged_checkpoint("ours", params, inputs.alphas)
        assert out.meta == {"method": "ours", "alphas": ",".join(repr(a) for a in inputs.alphas)}
        np.testing.assert_array_equal(out.params.values, params.values)
