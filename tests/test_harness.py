"""Tests for the experiment harness: generation, protocols, and reports."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from gradmerge import harness
from gradmerge.errors import ConfigError, EmptyDataError, IoError, LayoutError, MissingCurvatureError
from gradmerge.harness import (
    ADDITION_METHODS,
    REMOVAL_METHODS,
    SUMMARY_HEADER,
    AnchorConfig,
    ExperimentSpec,
    PerTaskConfig,
    default_removal_spec,
    default_spec,
    evaluate_params,
    fixture_from_state,
    gen_tasks,
    load_spec,
    parse_alphas,
    resolve_seed,
    run_addition,
    run_pipeline,
    run_removal,
    sweep_alpha,
    train_target,
)
from gradmerge.merging import MergeInputs, merge
from gradmerge.models import MODEL_KINDS, ModelSpec, TaskDataset, accuracy, loss
from gradmerge.params import load_checkpoint
from gradmerge.training import closed_form_solve


def merged(state, method, alpha):
    """One catalog merge over a trained pipeline state, as ``run_addition`` makes it."""
    return merge(method, MergeInputs(state.anchor, tuple((alpha, ck) for ck in state.tasks), state.spec.anchor.delta))


def small_spec(**kw):
    """A fast 3-task logistic spec for structural tests."""
    base = dict(
        name="small",
        n_tasks=3,
        per_task=PerTaskConfig(n_train=120, n_test=120, seed=0),
        methods=("am", "ta", "ours"),
        alphas=(1.0,),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def linear_spec(**kw):
    """A small exact-curvature linear-regression spec."""
    base = dict(
        name="linear",
        model=ModelSpec("linear_regression", 3),
        loss="squared_error",
        n_tasks=3,
        per_task=PerTaskConfig(n_train=60, n_test=40, noise=0.3, seed=0),
        anchor=AnchorConfig(delta=0.5),
        curvature="exact",
        methods=("ta", "ours"),
        alphas=(1.0,),
    )
    base.update(kw)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def default_state():
    return run_pipeline(default_spec(), seed=0)


@pytest.fixture(scope="module")
def sweep(default_state):
    return sweep_alpha(default_state.spec, state=default_state)


class TestParseAlphas:
    def test_range_string_is_inclusive_and_clean(self):
        # The default grid is the clean 0.0, 0.1, ..., 1.0 (0.3, not
        # 0.1 * 3 == 0.30000000000000004); a range string is refused.
        grid = ExperimentSpec().alphas
        assert grid == tuple(round(0.1 * i, 12) for i in range(11))
        assert 0.3 in grid and 1.0 in grid
        with pytest.raises(ConfigError, match="list of finite numbers"):
            parse_alphas("0.0:1.0:0.1")

    def test_single_number_and_sequence(self):
        with pytest.raises(ConfigError, match="list of finite numbers"):
            parse_alphas(0.5)
        assert parse_alphas([1, 0.25]) == (1.0, 0.25)
        assert parse_alphas(np.array([0.5, 1.0])) == (0.5, 1.0)

    def test_duplicates_survive(self):
        assert parse_alphas([0.5, 0.5]) == (0.5, 0.5)

    @pytest.mark.parametrize(
        "bad",
        # float() would read the last two as (1.0, 0.5) and (0.5, 1.0).
        ["0:1", "0:1:0", "1:0:0.1", "a:b:c", [], [float("nan")], object(), [True, 0.5], ["0.5", 1]],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_alphas(bad)


class TestParseH0Source:
    """The anchor penalty ``h0`` comes from the one estimator ``curvature``
    names, "fisher" or "exact"; ``anchor`` has no source key of its own."""

    @pytest.mark.parametrize("bad", ["identity:0", "identity:x", "hessian", 3])
    def test_rejects_bad_sources(self, bad):
        with pytest.raises(ConfigError, match="curvature"):
            ExperimentSpec(curvature=bad)
        with pytest.raises(ConfigError, match="curvature"):
            ExperimentSpec.from_dict({"curvature": bad})
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentSpec.from_dict({"anchor": {"source": bad}})


class TestExperimentSpec:
    def test_from_empty_dict_matches_defaults(self):
        spec = ExperimentSpec.from_dict({})
        assert spec == default_spec()

    def test_from_dict_parses_sections_and_alpha_string(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "custom",
                "model": {"kind": "linear_regression", "n_features": 4},
                "loss": "squared_error",
                "n_tasks": 2,
                "per_task": {"n_train": 30, "n_test": 10, "noise": 0.1},
                "anchor": {"delta": 0.5},
                "curvature": "exact",
                "methods": ["ta"],
                "alphas": [0.5, 0.75, 1.0],
            }
        )
        assert spec.model.n_features == 4
        assert spec.alphas == (0.5, 0.75, 1.0)
        assert (spec.anchor.delta, spec.curvature) == (0.5, "exact")

    def test_rejects_unknown_keys_anywhere(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"alpha": [1.0]})
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"per_task": {"n": 10}})

    def test_rejects_bad_method_lists(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(methods=())
        with pytest.raises(ConfigError):
            ExperimentSpec(methods=("ta", "ta"))
        with pytest.raises(ConfigError):
            ExperimentSpec(methods=("soup",))

    def test_rejects_model_loss_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(model=ModelSpec("linear_regression", 2))
        with pytest.raises(ConfigError):
            ExperimentSpec(loss="squared_error")
        with pytest.raises(ConfigError, match="logistic_nll"):
            ExperimentSpec(model=ModelSpec("mlp", 2, hidden=3, activation="tanh"), loss="squared_error")

    @pytest.mark.parametrize("model", [{"kind": "logistic", "n_features": 2}, {"kind": "mlp", "n_features": 2, "hidden": 3, "activation": "tanh"}])
    def test_rejects_zero_ridge_for_classifiers(self, model):
        # Separable tasks leave the unridged objective without a minimizer.
        per_task = PerTaskConfig(separation=6.0, noise=0.3)
        with pytest.raises(ConfigError, match="anchor.delta"):
            ExperimentSpec(model=ModelSpec(**model), anchor=AnchorConfig(delta=0.0), per_task=per_task)
        payload = {"model": model, "anchor": {"delta": 0.0}, "per_task": {"separation": 6.0, "noise": 0.3}}
        with pytest.raises(ConfigError, match="anchor.delta"):
            ExperimentSpec.from_dict(payload)

    def test_zero_ridge_allowed_for_linear_regression(self):
        model = ModelSpec("linear_regression", 2)
        spec = ExperimentSpec(model=model, loss="squared_error", anchor=AnchorConfig(delta=0.0))
        assert spec.anchor.delta == 0.0

    def test_negative_alphas_refused_for_methods_that_read_masses(self):
        # The first such method names the refusal, as the sweep's merge would.
        with pytest.raises(ConfigError, match="^am does not accept negative task weights$"):
            ExperimentSpec.from_dict({"alphas": [-1.0, 0.5]})
        with pytest.raises(ConfigError, match="^ties does not accept"):
            ExperimentSpec(methods=("ta", "ties", "fa"), alphas=(-1.0, -0.5, 0.0))
        assert ExperimentSpec(methods=("ta", "ours"), alphas=(-1.0, 0.5)).alphas == (-1.0, 0.5)

    def test_rejects_exact_curvature_for_mlp(self):
        with pytest.raises(ConfigError, match="exact curvature"):
            ExperimentSpec(model=ModelSpec("mlp", 2, hidden=3, activation="tanh"), curvature="exact")

    def test_rejects_exact_anchor_source_for_mlp(self):
        # Refused when the spec is built, not after the anchor has trained:
        # ``curvature`` is the anchor's source too, and ``anchor.source`` is
        # no longer a key.
        model = {"kind": "mlp", "n_features": 2, "hidden": 3, "activation": "tanh"}
        with pytest.raises(ConfigError, match="exact curvature"):
            ExperimentSpec.from_dict({"model": model, "curvature": "exact"})
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentSpec.from_dict({"model": model, "anchor": {"source": "exact"}})

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: ExperimentSpec(n_tasks=2.7), "n_tasks"),
            (lambda: ModelSpec("mlp", 2, hidden=True, activation="tanh"), "hidden"),
            (lambda: PerTaskConfig(n_train=2.5), "n_train"),
            (lambda: AnchorConfig(delta=True), "delta"),
        ],
        ids=["experiment", "model", "per_task", "anchor"],
    )
    def test_python_built_sections_hold_fields_to_their_types(self, build, field):
        # Configs built in Python get the JSON boundary's type rule: a
        # fractional n_tasks used to fail late, as a TypeError from range.
        with pytest.raises(ConfigError, match=repr(field)):
            build()

    def test_numpy_integers_pass_integer_fields(self):
        spec = ExperimentSpec(n_tasks=np.int64(2), per_task=PerTaskConfig(n_train=np.int32(20), n_test=20))
        assert len(gen_tasks(spec, 0)) == 4

    def test_int_and_float_spellings_build_one_serialized_spec(self):
        # Each number is stored in its field's annotated type, so writing 1
        # for a float field gives the spec that writing 1.0 gives.
        def serialized(per_task):
            return json.dumps(dataclasses.asdict(ExperimentSpec.from_dict({"per_task": per_task})), sort_keys=True)

        assert serialized({"noise": 1, "separation": 2}) == serialized({"noise": 1.0, "separation": 2.0})

    def test_numpy_scalars_are_stored_as_plain_numbers(self):
        spec = ExperimentSpec(n_tasks=np.int64(2), per_task=PerTaskConfig(n_train=np.int32(20), noise=np.float64(0.6)))
        model = ModelSpec("mlp", np.int64(2), hidden=np.int64(3), activation="tanh")
        assert type(spec.per_task.noise) is float and spec.per_task.noise == 0.6
        assert [type(v) for v in (spec.n_tasks, spec.per_task.n_train, model.n_features, model.hidden)] == [int] * 4

    def test_load_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "fromfile", "n_tasks": 2}))
        assert load_spec(path).name == "fromfile"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_spec(path)


class TestResolveSeed:
    def test_priority_override_env_config(self, monkeypatch):
        spec = small_spec(per_task=PerTaskConfig(seed=5))
        assert resolve_seed(spec) == 5
        monkeypatch.setenv("GRADMERGE_SEED", "11")
        assert resolve_seed(spec) == 11
        assert resolve_seed(spec, 3) == 3
        assert resolve_seed(spec, np.int64(3)) == 3

    @pytest.mark.parametrize("override", [2.7, True, "3", 3.0], ids=["fraction", "bool", "string", "integral_float"])
    def test_override_must_be_an_integer(self, monkeypatch, override):
        # int() would truncate or convert each of these: 2.7 would train at seed 2.
        monkeypatch.delenv("GRADMERGE_SEED", raising=False)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            resolve_seed(small_spec(), override)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            run_pipeline(small_spec(), seed=override)

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("GRADMERGE_SEED", "eleven")
        with pytest.raises(ConfigError):
            resolve_seed(small_spec())


def reference_gen_tasks(spec, seed):
    """The generator as first written, one fresh array per step: the stream ``gen_tasks`` must keep."""
    rng = np.random.default_rng(seed)
    cfg, d = spec.per_task, spec.model.n_features
    trains, tests = [], []
    for t in range(spec.n_tasks):
        if spec.model.kind == "linear_regression":
            theta_star = rng.standard_normal(d)
            for n, sets in ((cfg.n_train, trains), (cfg.n_test, tests)):
                q, _ = np.linalg.qr(rng.standard_normal((n, d)))
                cols = rng.uniform(0.5, 2.0, size=d) * math.sqrt(n)
                inputs = q * cols
                sets.append((inputs, inputs @ theta_star + cfg.noise * rng.standard_normal(n)))
            continue
        angle = math.radians(cfg.spread_degrees) * t / (spec.n_tasks - 1)
        u = np.zeros(d)
        if d == 1:
            u[0] = 1.0
        else:
            u[:2] = math.cos(angle), math.sin(angle)
        mean = 0.5 * cfg.separation * u
        for n, sets in ((cfg.n_train, trains), (cfg.n_test, tests)):
            pos = mean + cfg.noise * rng.standard_normal((n - n // 2, d))
            neg = -mean + cfg.noise * rng.standard_normal((n // 2, d))
            inputs = np.vstack([pos, neg])
            targets = np.concatenate([np.ones(n - n // 2), np.zeros(n // 2)])
            order = rng.permutation(n)
            sets.append((inputs[order], targets[order]))
    return trains + tests


#: perfbench's mlp-report config.
MLP_REPORT_CONFIG = {
    "name": "mlp-report",
    "model": {"kind": "mlp", "n_features": 2, "hidden": 16, "activation": "tanh"},
    "loss": "logistic_nll",
    "n_tasks": 5,
    "per_task": {"n_train": 500, "n_test": 500},
    "curvature": "fisher",
}

STREAM_CASES = {
    "default-0": (default_spec(), 0),
    "default-1": (default_spec(), 1),
    "default-2": (default_spec(), 2),
    "removal": (default_removal_spec(), 0),
    "mlp-report": (ExperimentSpec.from_dict(MLP_REPORT_CONFIG), 3),
    "linear": (linear_spec(), 0),
    "odd-rows": (small_spec(per_task=PerTaskConfig(n_train=7, n_test=5)), 4),
    "one-row": (small_spec(per_task=PerTaskConfig(n_train=1, n_test=1)), 5),
    "d64": (small_spec(model=ModelSpec("logistic", 64), per_task=PerTaskConfig(n_train=101, n_test=101)), 6),
}


class TestGenTasks:
    @pytest.mark.parametrize("spec,seed", STREAM_CASES.values(), ids=STREAM_CASES.keys())
    def test_arrays_match_the_reference_generator_bitwise(self, spec, seed):
        # Blobs draw into one reused buffer with ``standard_normal(out=...)``
        # and shift it in place; the draws and the arithmetic must stay those
        # of fresh per-class arrays.
        sets = gen_tasks(spec, seed)
        expected = reference_gen_tasks(spec, seed)
        assert len(sets) == len(expected) == 2 * spec.n_tasks
        for ds, (inputs, targets) in zip(sets, expected):
            assert ds.seed == seed
            assert np.array_equal(ds.inputs, inputs) and np.array_equal(ds.targets, targets)

    def test_a_call_holds_one_draw_buffer_beyond_what_it_returns(self):
        spec = small_spec(n_tasks=4, model=ModelSpec("logistic", 32), per_task=PerTaskConfig(n_train=2000, n_test=500))
        gen_tasks(spec, 0)  # first-call allocations (generator set-up) are not the data path's
        tracemalloc.start()
        try:
            sets = gen_tasks(spec, 0)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(ds.inputs.nbytes for ds in sets)
        # The buffer is one largest input; separate class arrays and a stacked copy cost about twice that.
        assert peak - current <= 1.25 * largest, (peak - current) / largest

    def test_same_spec_twice_identical(self):
        spec = small_spec()
        a, b = gen_tasks(spec), gen_tasks(spec)
        assert len(a) == len(b) == 2 * spec.n_tasks
        for x, y in zip(a, b):
            assert x.task_id == y.task_id
            np.testing.assert_array_equal(x.inputs, y.inputs)
            np.testing.assert_array_equal(x.targets, y.targets)

    def test_blob_labels_and_symmetry(self):
        sets = gen_tasks(small_spec())
        train = sets[0]
        assert set(np.unique(train.targets)) <= {0.0, 1.0}
        pos = train.inputs[train.targets == 1.0].mean(axis=0)
        neg = train.inputs[train.targets == 0.0].mean(axis=0)
        # origin-symmetric blobs: class means point in opposite directions
        assert float(pos @ neg) < 0

    def test_large_separation_is_nearly_separable(self):
        spec = small_spec(
            per_task=PerTaskConfig(n_train=200, n_test=200, separation=8.0, noise=0.4)
        )
        state = run_pipeline(spec, seed=0)
        assert accuracy(spec.model, state.anchor.params, state.test_sets[0]) >= 0.995

    def test_linear_designs_have_diagonal_gram(self):
        sets = gen_tasks(linear_spec())
        for ds in sets:
            gram = ds.inputs.T @ ds.inputs
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) < 1e-8

    def test_linear_train_and_test_share_planted_weights(self):
        spec = linear_spec(per_task=PerTaskConfig(n_train=200, n_test=200, noise=0.01, seed=0))
        sets = gen_tasks(spec)
        train, test = sets[0], sets[spec.n_tasks]
        fit_train, _, _, _ = np.linalg.lstsq(train.inputs, train.targets, rcond=None)
        fit_test, _, _, _ = np.linalg.lstsq(test.inputs, test.targets, rcond=None)
        assert np.max(np.abs(fit_train - fit_test)) < 0.02

    @pytest.mark.parametrize("kw", [dict(n_test=0), dict(noise=-1.0), dict(n_train=-5), dict(n_train=0)])
    def test_invalid_per_task_params_raise(self, kw):
        with pytest.raises(ConfigError):
            PerTaskConfig(**kw)

    def test_invalid_task_count_raises(self):
        for n_tasks in (0, 1):
            with pytest.raises(ConfigError, match="n_tasks must be >= 2"):
                small_spec(n_tasks=n_tasks)

    def test_linear_needs_enough_rows(self):
        # Each planted task orthogonalizes an (n, n_features) design, so the
        # spec refuses a shorter train or test set before any data exists.
        for per_task in (PerTaskConfig(n_train=2, n_test=40), PerTaskConfig(n_train=40, n_test=2)):
            with pytest.raises(ConfigError, match="n_features"):
                linear_spec(per_task=per_task)
        short = {"model": {"kind": "linear_regression", "n_features": 8}, "loss": "squared_error", "per_task": {"n_test": 4}}
        with pytest.raises(ConfigError, match="n_features"):
            ExperimentSpec.from_dict(short)


class TestRunPipeline:
    def test_state_shape_and_curvature(self, default_state):
        spec = default_state.spec
        assert len(default_state.tasks) == spec.n_tasks - 1
        assert default_state.anchor.curvature is not None
        for ck in default_state.tasks:
            assert ck.curvature is not None
        # Every task was fine-tuned under the anchor's curvature plus the spec's ridge.
        assert [ck.meta["delta"] for ck in default_state.tasks] == [repr(spec.anchor.delta)] * len(default_state.tasks)

    def test_fits_record_the_adam_constant_and_seeds_from_the_run(self):
        # The run's seed is the one seed source: the anchor trains at it,
        # task t at seed + t and the joint target at seed + n_tasks.  A
        # logistic fit runs no Adam and records no epochs.
        state = run_pipeline(small_spec(), seed=2)
        fits = [state.anchor, *state.tasks, train_target(state, 1.0)]
        assert [(ck.meta.get("epochs"), ck.meta["seed"]) for ck in fits] == [(None, "2"), (None, "3"), (None, "4"), (None, "5")]


class TestEveryAcceptedModel:
    def test_each_accepted_kind_loss_and_activation_trains_and_scores(self):
        # Every combination the spec accepts must train, and a classifier's
        # anchor must beat chance by a clear margin on its own blobs.
        accepted = []
        for kind in MODEL_KINDS:
            for loss_name in ("squared_error", "logistic_nll"):
                for activation in (None, "tanh", "relu"):
                    try:
                        model = ModelSpec(kind, 2, hidden=4 if kind == "mlp" else None, activation=activation)
                        spec = ExperimentSpec(model=model, loss=loss_name, methods=("ta", "ours"))
                    except ConfigError:
                        continue
                    accepted.append((kind, loss_name, activation))
                    spec = dataclasses.replace(spec, n_tasks=3)
                    anchor = run_addition(spec, seed=0).outcomes["anchor"]
                    if anchor.metric == "accuracy":
                        assert anchor.avg > 0.6, (kind, loss_name, activation, anchor.avg)
                    else:
                        assert np.isfinite(anchor.avg)
        assert accepted == [
            ("linear_regression", "squared_error", None),
            ("logistic", "logistic_nll", None),
            ("mlp", "logistic_nll", "tanh"),
        ]


class TestRunAddition:
    def test_outcome_labels_and_rows(self, default_state):
        spec = default_state.spec
        res = run_addition(spec, state=default_state, alpha=1.0)
        assert set(res.outcomes) == set(spec.methods) | {"all-data", "anchor"}
        assert all(len(row.split(",")) == 5 for row in res.rows)
        # every added task shows up once per outcome, plus the two aggregates
        assert len(res.rows) == (len(spec.methods) + 2) * (spec.n_tasks - 1 + 2)

    def test_ours_beats_ta_on_default_fixture(self, default_state):
        res = run_addition(default_state.spec, state=default_state, alpha=1.0)
        assert res.outcomes["ours"].avg >= res.outcomes["ta"].avg

    def test_linear_ours_matches_all_data_closed_form(self):
        spec = linear_spec()
        state = run_pipeline(spec, seed=0)
        res = run_addition(spec, state=state, alpha=1.0)
        ref = closed_form_solve(
            list(state.train_sets[1:]), [1.0] * (spec.n_tasks - 1), state.anchor, spec.anchor.delta
        )
        gap = np.max(np.abs(res.outcomes["ours"].params.values - ref.values))
        assert gap < 1e-6
        assert abs(res.outcomes["ours"].avg - res.outcomes["all-data"].avg) < 1e-6

    def test_rejects_removal_methods(self):
        with pytest.raises(ConfigError):
            run_addition(small_spec(methods=REMOVAL_METHODS), seed=0)

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_refuses_a_bad_weight_before_writing(self, tmp_path, alpha):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            run_addition(small_spec(), out_dir=tmp_path / "o", seed=0, alpha=alpha)
        assert not (tmp_path / "o").exists()

    def test_writes_summary_and_checkpoints(self, tmp_path):
        spec = small_spec()
        res = run_addition(spec, out_dir=tmp_path, seed=0, alpha=1.0)
        text = (tmp_path / "summary.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert lines[1:] == list(res.rows)
        for stem in ("anchor", "task1", "task2", "target", "merged-ours"):
            assert (tmp_path / f"{stem}.meta.json").exists()

    def test_merged_checkpoints_reload_to_same_metrics(self, tmp_path):
        spec = small_spec()
        res = run_addition(spec, out_dir=tmp_path, seed=0, alpha=1.0)
        eval_sets = res.state.test_sets[1:]
        for method in spec.methods:
            reloaded = load_checkpoint(tmp_path / f"merged-{method}")
            again = evaluate_params(spec, method, 1.0, reloaded.params, eval_sets)
            assert abs(again.avg - res.outcomes[method].avg) <= 1e-12
            assert abs(again.true_avg - res.outcomes[method].true_avg) <= 1e-12

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = small_spec()
        run_addition(spec, out_dir=tmp_path / "a", seed=7, alpha=1.0)
        run_addition(spec, out_dir=tmp_path / "b", seed=7, alpha=1.0)
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRunRemoval:
    def test_default_fixture_orders_methods(self):
        res = run_removal(default_removal_spec(), seed=0)
        assert res.dists["remove-ours"] < res.dists["remove-ta"]
        assert res.dists["retrain"] == 0.0
        assert res.removed_task_id == "task2"

    def test_linear_removal_is_nearly_exact(self):
        spec = linear_spec(methods=REMOVAL_METHODS)
        for seed in range(3):
            res = run_removal(spec, seed=seed)
            assert res.dists["remove-ours"] < 1e-6
            assert res.dists["remove-ta"] > 1e-3

    def test_logistic_seeded_property_suite(self):
        spec = default_removal_spec()
        wins = sum(
            run_removal(spec, seed=s).dists["remove-ours"]
            <= run_removal(spec, seed=s).dists["remove-ta"]
            for s in range(20)
        )
        assert wins >= 16

    def test_rejects_addition_methods_and_single_block(self):
        with pytest.raises(ConfigError):
            run_removal(small_spec(), seed=0)
        with pytest.raises(ConfigError):
            run_removal(default_removal_spec().__class__(
                name="one", n_tasks=1, methods=REMOVAL_METHODS, alphas=(1.0,)
            ), seed=0)

    def test_retained_blocks_are_a_view_of_the_pooled_data(self, monkeypatch):
        # The anchor trains on the pooled blocks; the retrain and its
        # curvature read the retained ones, which are the pooled rows before
        # the removed block, without a second copy.
        seen = {}
        stage, curvature = harness.train_stage, harness.estimate_task_curvature

        def capture_stage(spec, seed, anchor_data, blocks):
            seen["pooled"] = anchor_data
            return stage(spec, seed, anchor_data, blocks)

        def capture_curvature(spec, theta, data):
            seen[data.task_id] = data
            return curvature(spec, theta, data)

        monkeypatch.setattr(harness, "train_stage", capture_stage)
        monkeypatch.setattr(harness, "estimate_task_curvature", capture_curvature)
        spec = default_removal_spec()
        run_removal(spec, seed=0)
        pooled, kept = seen["pooled"], seen["kept"]
        assert np.shares_memory(kept.inputs, pooled.inputs) and np.shares_memory(kept.targets, pooled.targets)
        trains = gen_tasks(spec, 0)[: spec.n_tasks - 1]
        np.testing.assert_array_equal(kept.inputs, np.vstack([ds.inputs for ds in trains]))
        np.testing.assert_array_equal(kept.targets, np.concatenate([ds.targets for ds in trains]))

    def test_writes_summary_with_distance_rows(self, tmp_path):
        res = run_removal(default_removal_spec(), out_dir=tmp_path, seed=0)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        dist_rows = [l for l in lines if ",dist_retrain," in l]
        assert len(dist_rows) == 4  # remove-ta, remove-ours, retrain, anchor
        assert lines[1:] == list(res.rows)


class TestSweepAlpha:
    def test_zero_alpha_returns_anchor_metrics_exactly(self, default_state, sweep):
        anchor_out = evaluate_params(
            default_state.spec, "anchor", 0.0, default_state.anchor.params,
            default_state.test_sets[1:],
        )
        for method, points in sweep.series.items():
            by_alpha = dict(points)
            assert by_alpha[0.0] == anchor_out.avg

    def test_ours_is_more_robust_than_ta(self, sweep):
        ours, ta = dict(sweep.series["ours"]), dict(sweep.series["ta"])
        gap_ours = max(ours.values()) - ours[1.0]
        gap_ta = max(ta.values()) - ta[1.0]
        assert gap_ours <= gap_ta

    def test_rows_cover_every_method_and_alpha(self, default_state, sweep):
        spec = default_state.spec
        assert len(sweep.rows) == 2 * len(spec.methods) * len(spec.alphas)
        assert all(len(row.split(",")) == 5 for row in sweep.rows)

    def test_duplicate_alphas_duplicate_rows(self, default_state):
        spec = dataclasses.replace(default_state.spec, methods=("ta",), alphas=(0.5, 0.5))
        res = sweep_alpha(spec, state=default_state)
        assert res.rows[0] == res.rows[2]
        assert res.series["ta"][0] == res.series["ta"][1]

    def test_writes_dat_files(self, tmp_path, default_state):
        spec = dataclasses.replace(
            default_state.spec, methods=("ta", "ours"), alphas=(0.0, 0.5, 1.0)
        )
        res = sweep_alpha(spec, out_dir=tmp_path, state=default_state)
        for method in spec.methods:
            lines = (tmp_path / f"sweep_{method}.dat").read_text().splitlines()
            assert len(lines) == 3
            parsed = [tuple(float(v) for v in line.split()) for line in lines]
            assert parsed == list(res.series[method])

    def test_rejects_removal_methods(self):
        with pytest.raises(ConfigError):
            sweep_alpha(default_removal_spec(), seed=0)

    def test_failure_in_any_method_writes_no_output(self, tmp_path, default_state):
        # fa finds no curvature on the task checkpoints; ta, listed first,
        # merges fine, but no method's rows are written before every grid is merged.
        bare = dataclasses.replace(
            default_state, tasks=tuple(dataclasses.replace(ck, curvature=None) for ck in default_state.tasks)
        )
        spec = dataclasses.replace(default_state.spec, methods=("ta", "fa"), alphas=(0.0, 0.5))
        with pytest.raises(MissingCurvatureError):
            sweep_alpha(spec, out_dir=tmp_path, state=bare)
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_summary_raises_io_error(self, tmp_path, default_state):
        (tmp_path / "summary.csv").mkdir()
        with pytest.raises(IoError):
            sweep_alpha(default_state.spec, out_dir=tmp_path, state=default_state)


#: A grid with the anchor endpoint, a duplicate, and weights above 1.
EQUIVALENCE_GRID = (0.0, 0.3, 0.3, 1.0, 1.7)


@pytest.fixture(scope="module", params=["logistic", "mlp", "linear_regression"])
def kind_state(request):
    kinds = {
        "logistic": small_spec(),
        "mlp": small_spec(model=ModelSpec("mlp", 2, hidden=4, activation="tanh")),
        "linear_regression": linear_spec(),
    }
    spec = dataclasses.replace(kinds[request.param], methods=ADDITION_METHODS, alphas=EQUIVALENCE_GRID)
    return run_pipeline(spec, seed=0)


class TestSweepGrid:
    """The batched sweep against a per-alpha loop of merge and evaluate."""

    def test_rows_match_per_alpha_loop(self, kind_state):
        spec = kind_state.spec
        res = sweep_alpha(spec, state=kind_state)
        rows = iter(res.rows)
        for method in spec.methods:
            for a in spec.alphas:
                params = merged(kind_state, method, a)
                ref = evaluate_params(spec, method, a, params, kind_state.test_sets[1:])
                for label, value in (("avg", ref.avg), ("true_avg", ref.true_avg)):
                    head, got = next(rows).rsplit(",", 1)
                    assert head == f"{method},{a!r},{label},{ref.metric}"
                    if ref.metric == "accuracy":
                        assert float(got) == value
                    else:
                        np.testing.assert_allclose(float(got), value, rtol=1e-12)
        assert next(rows, None) is None

    def test_evaluate_params_matches_model_scores(self, kind_state):
        # Unequal set sizes separate avg from true_avg, and the aggregate
        # is a different selection than the per-task column.
        spec = kind_state.spec
        theta = merged(kind_state, "ours", 0.7)
        sets = [TaskDataset(ds.task_id, ds.inputs[:n], ds.targets[:n]) for ds, n in zip(kind_state.test_sets, (40, 25, 33))]
        agg = sets[1:]

        def score(ds):
            if spec.model.kind == "linear_regression":
                return loss(spec.model, theta, ds) / ds.n
            return accuracy(spec.model, theta, ds)

        pooled = TaskDataset(
            "pooled", np.vstack([ds.inputs for ds in agg]), np.concatenate([ds.targets for ds in agg])
        )
        out = evaluate_params(spec, "ours", 0.7, theta, sets, agg)
        assert [task for task, _ in out.per_task] == [ds.task_id for ds in sets]
        got = [value for _, value in out.per_task] + [out.avg, out.true_avg]
        ref = [score(ds) for ds in sets] + [float(np.mean([score(ds) for ds in agg])), score(pooled)]
        assert out.avg != out.true_avg
        np.testing.assert_allclose(got, ref, rtol=1e-12 if out.metric == "loss" else 0.0)

    def test_evaluate_params_rejects_empty_and_mismatched_sets(self, default_state):
        spec, theta = default_state.spec, default_state.anchor.params
        with pytest.raises(EmptyDataError):
            evaluate_params(spec, "anchor", 0.0, theta, [TaskDataset("empty", np.zeros((0, 2)), [])])
        with pytest.raises(LayoutError):
            evaluate_params(spec, "anchor", 0.0, theta, [TaskDataset("wide", np.zeros((3, 5)), np.zeros(3))])

    def test_scoring_requires_binary_targets(self, default_state):
        # The same {0,1} rule as models.accuracy, in both scoring paths.
        spec, theta = default_state.spec, default_state.anchor.params
        odd = TaskDataset("odd", np.ones((4, 2)), [0.5, 0.5, 2.0, 1.0])
        with pytest.raises(ConfigError, match=r"\{0,1\} targets"):
            accuracy(spec.model, theta, odd)
        with pytest.raises(ConfigError, match=r"\{0,1\} targets"):
            evaluate_params(spec, "anchor", 0.0, theta, [odd])
        state = dataclasses.replace(default_state, test_sets=(default_state.test_sets[0], odd))
        with pytest.raises(ConfigError, match=r"\{0,1\} targets"):
            sweep_alpha(spec, state=state)

    @pytest.mark.parametrize("method", ("am", "wam", "fa", "ties"))
    def test_negative_weight_rejected_like_per_alpha_loop(self, default_state, method):
        # The spec refuses the grid with the per-alpha merge's message, before a sweep can start.
        with pytest.raises(ConfigError) as loop_error:
            merged(default_state, method, -0.5)
        with pytest.raises(ConfigError) as spec_error:
            dataclasses.replace(default_state.spec, methods=(method,), alphas=(0.0, -0.5))
        assert str(spec_error.value) == str(loop_error.value)

    def test_negative_weight_accepted_by_ta(self, default_state):
        spec = dataclasses.replace(default_state.spec, methods=("ta",), alphas=(0.0, -0.5))
        params = merged(default_state, "ta", -0.5)
        ref = evaluate_params(spec, "ta", -0.5, params, default_state.test_sets[1:])
        assert sweep_alpha(spec, state=default_state).series["ta"][1] == (-0.5, ref.avg)


@pytest.fixture(scope="module")
def bridged(default_state):
    """The diagnostics fixture ``report`` builds at weight 1."""
    return fixture_from_state(default_state, train_target(default_state, 1.0).params, 1.0)


class TestDiagnosticBridge:
    def test_refuses_a_bad_weight_before_training(self, monkeypatch):
        # report's table is built at run_addition's weight, which is checked first.
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the weight was checked")

        monkeypatch.setattr("gradmerge.harness.train_anchor", no_training)
        with pytest.raises(ConfigError, match="finite and >= 0"):
            run_addition(small_spec(), seed=0, alpha=-1.0)

    def test_fixture_reproduces_pipeline_merges(self, default_state, bridged):
        inputs = bridged.inputs
        for method in ("ta", "ours"):
            via_fixture = merge(method, inputs)
            via_state = merged(default_state, method, 1.0)
            np.testing.assert_allclose(via_fixture.values, via_state.values, atol=1e-12)

    def test_ties_is_the_registry_rule(self, default_state, bridged):
        spec = default_state.spec
        inputs = MergeInputs(default_state.anchor, tuple((1.0, ck) for ck in default_state.tasks), spec.anchor.delta)
        expected = merge("ties", inputs).values.tobytes()
        assert merged(default_state, "ties", 1.0).values.tobytes() == expected
        assert merge("ties", bridged.inputs).values.tobytes() == expected

    def test_fixture_mismatch_orders_ta_and_ours(self, default_state, bridged):
        from gradmerge.diagnostics import mismatch_report

        mm = {m: mismatch_report(bridged, merged(default_state, m, 1.0)).total_weighted_norm for m in ("ta", "ours")}
        assert mm["ours"] < mm["ta"]
