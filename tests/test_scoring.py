"""Scores: a row's score depends only on the row and its test set.

A logistic prediction is the exact sign of ``x . v``, with class 1 at
exactly 0, settled by a float32 screen, a float64 recheck or an exact sum
(``models._SignKernel``); these tests hold it to a ``Fraction`` reference.
A linear row's loss comes from its own product ``X @ v``.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradmerge.harness import (
    ExperimentSpec,
    _evaluate_rows,
    evaluate_params,
    run_addition,
    run_pipeline,
    sweep_alpha,
)
from gradmerge.merging import merge_grid
from gradmerge.models import ModelSpec, TaskDataset, _SignKernel, accuracy
from gradmerge.params import ParamVector


def exact_signs(V, X):
    """``x . v >= 0`` from sums of ``Fraction`` products."""
    return np.array(
        [[sum(Fraction(a) * Fraction(b) for a, b in zip(v.tolist(), x.tolist())) >= 0 for x in X] for v in V],
        dtype=bool,
    ).reshape(len(V), len(X))


def draw_case(seed, d, u, n, ev, ex, kind):
    """``(u, d)`` rows and ``(n, d)`` examples scaled by ``2^ev`` and ``2^ex``.

    ``float`` draws normals, and ``near`` then moves each example to within
    a relative 1e-12 to 1e-4 of one row's boundary, where float32 rounding
    decides the screen.  ``zero`` draws small integers and makes each
    example orthogonal to one row (exact ties); ``ulp`` then moves about a
    third of the example entries by one ulp either way.
    """
    rng = np.random.default_rng(seed)
    if kind in ("float", "near"):
        V, X = rng.standard_normal((u, d)), rng.standard_normal((n, d))
        if kind == "near":
            v = V[rng.integers(0, u, n)]
            X -= (np.einsum("ij,ij->i", X, v) / np.einsum("ij,ij->i", v, v))[:, None] * v
            X += (10.0 ** rng.uniform(-12, -4, n) * rng.choice([-1.0, 1.0], n))[:, None] * v
    else:
        V, X = rng.integers(-3, 4, (u, d)).astype(float), rng.integers(-3, 4, (n, d)).astype(float)
        if d > 1:  # x_0 = -(x_rest . v_rest) against a row with v_0 = 1
            V[:, 0] = 1.0
            rows = rng.integers(0, u, n)
            X[:, 0] = -np.einsum("ij,ij->i", X[:, 1:], V[rows, 1:])
        if kind == "ulp":
            moved = rng.random(X.shape) < 0.3
            X[moved] = np.nextafter(X[moved], np.where(rng.random(moved.sum()) < 0.5, np.inf, -np.inf))
    return np.ldexp(V, ev), np.ldexp(X, ex)


#: Scale exponents from about 1e-300 to 1e150 (past the screen's 2^100 guard), and a band near 1.
EXPONENTS = st.integers(-997, 498) | st.integers(-20, 20)

CASE = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 70),
    u=st.integers(1, 5),
    n=st.integers(1, 20),
    ev=EXPONENTS,
    ex=EXPONENTS,
    kind=st.sampled_from(["float", "near", "zero", "ulp"]),
)


class TestCertifiedSign:
    @given(**CASE)
    @settings(max_examples=150, deadline=None)
    def test_signs_equal_the_exact_reference(self, seed, d, u, n, ev, ex, kind):
        V, X = draw_case(seed, d, u, n, ev, ex, kind)
        np.testing.assert_array_equal(_SignKernel(X).signs(V), exact_signs(V, X))

    @given(**CASE)
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_the_reference_alone_in_a_block_and_duplicated(self, seed, d, u, n, ev, ex, kind):
        V, X = draw_case(seed, d, u, n, ev, ex, kind)
        targets = np.random.default_rng(seed + 1).integers(0, 2, n)
        spec = ExperimentSpec(model=ModelSpec("logistic", d))
        sets = [TaskDataset("t", X, targets)]
        expected = (exact_signs(V, X) == (targets == 1)).sum(axis=1) / n
        blocks = [V, np.repeat(V, 2, axis=0)[::-1], *(V[r : r + 1] for r in range(u))]
        block, twice, *alone = [per_task[0] for per_task, _, _ in _evaluate_rows(spec, blocks, sets)]
        assert block.tolist() == expected.tolist()
        assert twice.tolist() == np.repeat(expected, 2)[::-1].tolist()
        assert [col[0] for col in alone] == expected.tolist()


class TestStages:
    """One case per stage; the kernel counts the entries that reach the last two."""

    @staticmethod
    def run(V, X):
        kernel = _SignKernel(np.array(X, dtype=float))
        signs = kernel.signs(np.array(V, dtype=float))
        return signs.tolist(), kernel.rechecked, kernel.exact

    def test_screen_settles_clear_signs(self):
        signs, rechecked, exact = self.run([[1.0, 2.0], [-0.5, 0.25]], [[1.0, 1.0], [-1.0, -1.0], [3.0, -1.0]])
        assert signs == [[True, False, True], [False, True, False]]
        assert (rechecked, exact) == (0, 0)

    def test_recheck_settles_what_float32_rounds_away(self):
        # 1 - 2^-30 is 1 in float32, so the screen reads 0; the float64 dots are +-2^-30.
        signs, rechecked, exact = self.run([[1.0, 1.0]], [[1.0, -1.0 + 2.0**-30], [-1.0, 1.0 - 2.0**-30]])
        assert signs == [[True, False]]
        assert (rechecked, exact) == (2, 0)

    def test_exact_sum_settles_cancellation_and_ties(self):
        # 2^60 +- 1 - 2^60 cancels below float64's bound; an exact 0 predicts class 1.
        big = 2.0**60
        signs, rechecked, exact = self.run([[1.0, 1.0, 1.0]], [[big, 1.0, -big], [big, -1.0, -big], [1.0, -1.0, 0.0]])
        assert signs == [[True, False, True]]
        assert (rechecked, exact) == (3, 3)

    def test_guard_skips_the_screen_where_float32_could_overflow(self):
        # 2^130 is inf in float32, and inf + (-2^60) would read as positive.  The product
        # of the largest entries, 2^130 * 2^-40, is below 2^100: the row's norm trips the guard.
        signs, rechecked, exact = self.run([[2.0**130, -(2.0**100)]], [[2.0**-140, 2.0**-40]])
        assert signs == [[False]]
        assert (rechecked, exact) == (1, 0)


class TestOnePrediction:
    @given(
        kind=st.sampled_from(["logistic", "mlp"]),
        seed=st.integers(0, 2**16),
        integer=st.booleans(),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_accuracy_is_evaluate_params_per_task_value(self, kind, seed, integer, scale):
        # Small integers put examples exactly on a logistic boundary, where class 1 wins.
        rng = np.random.default_rng(seed)
        model = ModelSpec("logistic", 4) if kind == "logistic" else ModelSpec("mlp", 2, hidden=3, activation="tanh")
        p = model.layout().total_len
        values = rng.integers(-2, 3, p).astype(float) if integer else rng.standard_normal(p) * scale
        theta = ParamVector(model.layout(), values)
        sets = []
        for k, n in enumerate((7, 30)):
            inputs = rng.integers(-2, 3, (n, model.n_features)) if integer else rng.standard_normal((n, model.n_features))
            sets.append(TaskDataset(f"t{k}", inputs, rng.integers(0, 2, n)))
        outcome = evaluate_params(ExperimentSpec(model=model), "x", 1.0, theta, sets)
        assert [v.hex() for _, v in outcome.per_task] == [accuracy(model, theta, ds).hex() for ds in sets]


#: The linear config on which block products once printed other digits than single rows.
LINEAR = {"model": {"kind": "linear_regression", "n_features": 3}, "loss": "squared_error", "curvature": "exact"}


class TestLinearRowsAlone:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_and_sweep_print_the_same_weight_one_rows(self, seed):
        spec = ExperimentSpec.from_dict(LINEAR)
        state = run_pipeline(spec, seed)
        report = run_addition(spec, state=state)
        sweep = sweep_alpha(spec, state=state)
        for method in spec.methods:
            heads = (f"{method},1.0,avg,", f"{method},1.0,true_avg,")
            assert [r for r in sweep.rows if r.startswith(heads)] == [r for r in report.rows if r.startswith(heads)]

    def test_row_loss_is_bitwise_equal_alone_in_a_grid_and_duplicated(self):
        spec = ExperimentSpec.from_dict(LINEAR)
        state = run_pipeline(spec, 0)
        grid = merge_grid("ours", state.merge_inputs(1.0), np.linspace(0.0, 1.5, 31))
        blocks = [grid, np.repeat(grid, 2, axis=0), *(grid[r : r + 1] for r in range(len(grid)))]
        (cols, avg, true_avg), (cols2, avg2, true_avg2), *alone = _evaluate_rows(spec, blocks, state.test_sets[1:])
        for r, (one_cols, one_avg, one_true) in enumerate(alone):
            got = [c[0] for c in one_cols] + [one_avg[0], one_true[0]]
            for block in ([c[r] for c in cols] + [avg[r], true_avg[r]], [c[2 * r + 1] for c in cols2] + [avg2[2 * r + 1], true_avg2[2 * r + 1]]):
                assert [v.hex() for v in block] == [v.hex() for v in got], r
