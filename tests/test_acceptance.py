"""Acceptance suite: one test (or test pair) per numbered criterion.

Each criterion gets a ``@pytest.mark.criterion(n, ...)`` marker; the
conftest hook prints an ``ACCEPTANCE n: PASS/FAIL`` line per criterion
after the run.  Tolerances and runtime budgets are asserted directly so
a regression in either exactness or speed fails the gate.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from gradmerge.diagnostics import identity_residual_bound, mismatch_report, verify_identity
from gradmerge.harness import (
    ExperimentSpec,
    PerTaskConfig,
    default_removal_spec,
    default_spec,
    evaluate_params,
    fixture_from_state,
    run_addition,
    run_pipeline,
    run_removal,
    sweep_alpha,
    train_target,
)
from gradmerge.merging import MergeInputs, merge, merge_uncertainty, remove_task
from gradmerge.models import ModelSpec, TaskDataset, fd_grad, grad
from gradmerge.oracles import (
    _influence_pair,
    joint_closed_form_oracle,
    linear_merge_fixture,
    linear_removal_fixture,
    map_fixture,
    map_surrogate_check,
)
from gradmerge.params import Checkpoint, DiagCurvature, ParamLayout, ParamVector, load_checkpoint, save_checkpoint
from gradmerge.training import stationarity_residual


def ckpt(values, curvature=None):
    layout = ParamLayout([("w", (len(values),))])
    curv = None if curvature is None else DiagCurvature(layout, curvature)
    return Checkpoint(ParamVector(layout, values), curvature=curv)


@pytest.mark.criterion(1, "preconditioned merge equals the stacked joint solve on 50 fixtures (<1e-9, <5s)")
def test_merge_matches_joint_solution_on_random_fixtures():
    rng = np.random.default_rng(20260825)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        fix = linear_merge_fixture(rng, seed=i)
        merged = merge_uncertainty(fix.inputs)
        joint = joint_closed_form_oracle(fix.inputs, list(fix.datasets))
        worst = max(worst, float(np.max(np.abs(merged.values - joint.values))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst merge-vs-joint error {worst:.3e}"
    assert elapsed < 5.0, f"50 fixtures took {elapsed:.2f}s"


@pytest.mark.criterion(2, "one-shot removal equals both the closed-form update and the retrain on 50 fixtures (<1e-9, <5s)")
def test_removal_matches_one_shot_update_and_retrain():
    rng = np.random.default_rng(20260826)
    start = time.perf_counter()
    worst_update, worst_retrain = 0.0, 0.0
    for i in range(50):
        fix = linear_removal_fixture(rng, seed=i)
        removed = remove_task(fix.inputs, fix.hbar_minus)
        one_shot, retrain = _influence_pair(fix.full_data, list(fix.removed), fix.inputs.delta)
        worst_update = max(worst_update, float(np.max(np.abs(removed.values - one_shot))))
        worst_retrain = max(worst_retrain, float(np.max(np.abs(removed.values - retrain))))
    elapsed = time.perf_counter() - start
    assert worst_update < 1e-9, f"worst error vs one-shot update {worst_update:.3e}"
    assert worst_retrain < 1e-9, f"worst error vs retrain {worst_retrain:.3e}"
    assert elapsed < 5.0, f"50 fixtures took {elapsed:.2f}s"


@pytest.mark.criterion(3, "error-rewriting identity: <1e-8 residual closed-form, within the stationarity bound trained (<10s)")
def test_identity_residual_closed_form_and_trained():
    start = time.perf_counter()

    rng = np.random.default_rng(20260827)
    worst = 0.0
    for i in range(20):
        fix = linear_merge_fixture(rng, seed=i)
        target = joint_closed_form_oracle(fix.inputs, list(fix.datasets))
        model = ModelSpec("linear_regression", fix.inputs.layout.total_len)
        worst = max(worst, verify_identity(fix.inputs, target, list(fix.datasets), model))
    assert worst < 1e-8, f"worst closed-form identity residual {worst:.3e}"

    spec = default_spec()
    state = run_pipeline(spec, seed=0)
    target = train_target(state, alpha=1.0)
    added = list(state.train_sets[1:])
    inputs = MergeInputs(state.anchor, tuple((1.0, ck) for ck in state.tasks), spec.anchor.delta)
    residual = verify_identity(inputs, target.params, added, spec.model)
    joint_defect = stationarity_residual(spec.model, added, list(inputs.alphas), state.anchor, inputs.delta, target.params)
    task_defects = [
        stationarity_residual(spec.model, [data], [1.0], state.anchor, inputs.delta, ck.params)
        for ck, data in zip(state.tasks, added)
    ]
    bound = identity_residual_bound(inputs, joint_defect, task_defects)
    assert residual <= bound, f"trained identity residual {residual:.3e} exceeds bound {bound:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"identity checks took {elapsed:.2f}s"


@pytest.mark.criterion(4, "uncertainty merge reduces to plain averaging and to increment addition (1e-12)")
def test_reductions_to_simple_merges():
    rng = np.random.default_rng(20260828)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        T = int(rng.integers(2, 6))
        a = rng.standard_normal(d)
        thetas = [rng.standard_normal(d) for _ in range(T)]

        # flat unit anchor curvature, zero task curvature, uniform 1/T weights
        inputs = MergeInputs(
            anchor=ckpt(a, np.ones(d)),
            tasks=tuple((1.0 / T, ckpt(th, np.zeros(d))) for th in thetas),
        )
        expected_mean = np.mean(thetas, axis=0)
        np.testing.assert_allclose(merge_uncertainty(inputs).values, expected_mean, atol=1e-12)

        # same curvatures, one shared free weight
        alpha = float(rng.uniform(0.1, 1.5))
        inputs = MergeInputs(
            anchor=ckpt(a, np.ones(d)),
            tasks=tuple((alpha, ckpt(th, np.zeros(d))) for th in thetas),
        )
        expected_increments = a + alpha * np.sum([th - a for th in thetas], axis=0)
        np.testing.assert_allclose(merge_uncertainty(inputs).values, expected_increments, atol=1e-12)


@pytest.mark.criterion(5, "pooled-surrogate gradient vanishes at the merge output on 50 fixtures (<1e-9 scaled)")
def test_merge_output_is_surrogate_stationary():
    rng = np.random.default_rng(20260829)
    for _ in range(50):
        inputs = map_fixture(rng)
        candidate = merge_uncertainty(inputs)
        norm = map_surrogate_check(inputs, candidate)
        bound = 1e-9 * (1.0 + float(np.linalg.norm(candidate.values)))
        assert norm < bound, f"surrogate gradient norm {norm:.3e} >= {bound:.3e}"


@pytest.mark.criterion(6, "analytic gradients match central differences across all model kinds (rel err <1e-5)")
def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(20260830)
    cases = [
        (lambda d: ModelSpec("linear_regression", d), 20),
        (lambda d: ModelSpec("logistic", d), 20),
        (lambda d: ModelSpec("mlp", d, hidden=3, activation="tanh"), 20),
    ]
    worst = 0.0
    for make_spec, n_pairs in cases:
        for _ in range(n_pairs):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(5, 41))
            spec = make_spec(d)
            layout = spec.layout()
            theta = ParamVector(layout, rng.standard_normal(layout.total_len))
            X = rng.standard_normal((n, d))
            binary = spec.loss == "logistic_nll"
            y = rng.integers(0, 2, size=n).astype(float) if binary else rng.standard_normal(n)
            data = TaskDataset(task_id="fd", inputs=X, targets=y)
            analytic = grad(spec, theta, data).values
            numeric = fd_grad(spec, theta, data, h=1e-5).values
            rel = float(np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic)))
            worst = max(worst, rel)
    assert worst < 1e-5, f"worst gradient relative error {worst:.3e}"


def _ordering_seed(seed: int) -> tuple[bool, dict[str, float]]:
    """Whether the ordering holds on one seed, plus the margins it is judged by."""
    spec = dataclasses.replace(default_spec(), methods=("ta", "ours"))
    state = run_pipeline(spec, seed=seed)

    acc = {}
    inputs = MergeInputs(state.anchor, tuple((1.0, ck) for ck in state.tasks), state.spec.anchor.delta)
    for method in spec.methods:
        params = merge(method, inputs)
        acc[method] = evaluate_params(spec, method, 1.0, params, state.test_sets[1:]).avg

    target = train_target(state, alpha=1.0)
    fixture = fixture_from_state(state, target.params, alpha=1.0)
    mismatch = {
        method: mismatch_report(fixture, merge(method, inputs)).total_weighted_norm
        for method in spec.methods
    }

    series = {m: dict(points) for m, points in sweep_alpha(spec, state=state).series.items()}
    drop_ours = max(series["ours"].values()) - series["ours"][1.0]
    drop_ta = max(series["ta"].values()) - series["ta"][1.0]
    passes = (
        acc["ours"] >= acc["ta"]
        and mismatch["ours"] < mismatch["ta"]
        and drop_ours <= 0.005
        and drop_ta > drop_ours
    )
    margins = {
        "acc": acc["ours"] - acc["ta"],
        "mismatch": mismatch["ta"] - mismatch["ours"],
        "drop_ours": drop_ours,
        "drop_ta": drop_ta,
    }
    return passes, margins


@pytest.mark.criterion(7, "curvature-aware merge beats increment addition at full weight and stays near its sweep peak (>=8/10 seeds, <2min)")
def test_accuracy_and_mismatch_ordering_across_seeds(record_property):
    start = time.perf_counter()
    seeds = range(10)
    passing = 0
    for seed in seeds:
        passes, margins = _ordering_seed(seed)
        passing += passes
        record_property(
            f"seed{seed}", ("pass " if passes else "FAIL ") + " ".join(f"{k}={v:+.4g}" for k, v in margins.items())
        )
    elapsed = time.perf_counter() - start
    record_property("seeds_passing", f"{passing}/10")
    assert passing >= 8, f"ordering holds on only {passing}/10 seeds"
    assert elapsed < 120.0, f"10-seed ordering check took {elapsed:.1f}s"


@pytest.mark.criterion(8, "reruns are byte-identical and checkpoints round-trip bit-exactly")
def test_determinism_and_serialization(tmp_path):
    spec = ExperimentSpec(
        n_tasks=3,
        per_task=PerTaskConfig(n_train=120, n_test=120, seed=0),
        methods=("am", "ta", "ours"),
        alphas=(1.0,),
    )
    for label, runner in [("add", lambda d: run_addition(spec, d, seed=0)),
                          ("rem", lambda d: run_removal(default_removal_spec(), d, seed=0))]:
        first, second = tmp_path / f"{label}1", tmp_path / f"{label}2"
        runner(first)
        runner(second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        mismatched = [n for n in names if not filecmp.cmp(first / n, second / n, shallow=False)]
        assert mismatched == [], f"{label} rerun differs in {mismatched}"

    rng = np.random.default_rng(20260831)
    original = Checkpoint(
        ParamVector(ParamLayout([("w", (7,))]), rng.standard_normal(7)),
        curvature=DiagCurvature(ParamLayout([("w", (7,))]), rng.uniform(0.1, 3.0, size=7)),
        meta={"objective": "round-trip"},
    )
    save_checkpoint(original, tmp_path / "ck1")
    loaded = load_checkpoint(tmp_path / "ck1")
    assert loaded.params.values.tobytes() == original.params.values.tobytes()
    assert loaded.curvature.values.tobytes() == original.curvature.values.tobytes()
    assert loaded.meta == original.meta
    save_checkpoint(loaded, tmp_path / "ck2")
    for suffix in (".meta.json", ".f64le"):
        assert (tmp_path / f"ck2{suffix}").read_bytes() == (tmp_path / f"ck1{suffix}").read_bytes()
