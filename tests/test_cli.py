"""Tests for the command-line interface: subcommands, exit codes, files."""

import filecmp
import json
import warnings

import numpy as np
import pytest

from gradmerge import cli as cli_module
from gradmerge import errors, harness
from gradmerge.cli import cli
from gradmerge.curvature import exact_hessian_diag, fisher_diag
from gradmerge.diagnostics import MISMATCH_TABLE_HEADER, mismatch_table_csv, mismatch_vs_error_table
from gradmerge.errors import NumericError
from gradmerge.harness import (
    SUMMARY_HEADER,
    default_spec,
    fixture_from_state,
    load_spec,
    run_addition,
    run_pipeline,
    train_target,
)
from gradmerge.merging import merge
from gradmerge.oracles import ORACLE_TABLE_HEADER
from gradmerge.params import load_checkpoint


@pytest.fixture()
def small_config(tmp_path):
    """A fast two-task config file, plus its output directory."""
    cfg = {
        "name": "cli-small",
        "n_tasks": 2,
        "per_task": {"n_train": 80, "n_test": 80, "seed": 0},
        "methods": ["ta", "ours"],
        "alphas": [0.0, 1.0],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


def run_cli(*argv):
    return cli([str(a) for a in argv])


#: A linear config whose 4-row test sets are shorter than its 8 features.
SHORT_LINEAR = {"model": {"kind": "linear_regression", "n_features": 8}, "loss": "squared_error", "per_task": {"n_test": 4}}


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli() == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "error:" in err

    def test_unknown_flag_prints_usage_and_exits_one(self, capsys):
        assert run_cli("sweep", "--bogus") == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--bogus" in err

    def test_unknown_subcommand_exits_one(self):
        assert run_cli("frobnicate") == 1

    def test_removed_diagnose_verb_exits_one_and_writes_nothing(self, small_config, capsys):
        # ``report`` writes the same report.csv, next to summary.csv and the checkpoints.
        config, out = small_config
        assert run_cli("diagnose", "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "invalid choice: 'diagnose'" in err
        assert not out.exists()

    def test_global_flags_work_before_and_after_verb(self, small_config, capsys):
        config, out = small_config
        assert run_cli("--config", config, "--out", out / "a", "gen") == 0
        assert run_cli("gen", "--config", config, "--out", out / "b") == 0
        names_a = sorted(p.name for p in (out / "a").iterdir())
        names_b = sorted(p.name for p in (out / "b").iterdir())
        assert names_a == names_b == ["task0.json", "task0_test.json", "task1.json", "task1_test.json"]

    def test_bad_config_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run_cli("gen", "--config", bad, "--out", tmp_path / "o") == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path):
        assert run_cli("gen", "--config", tmp_path / "nope.json", "--out", tmp_path) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"n_tasks": "x"},
            {"per_task": {"n_train": "x"}},
            {"per_task": {"n_test": "abc"}},
            {"epochs": "x"},  # no longer a key: refused as unknown
            {"per_task": {"seed": "x"}},
        ],
        ids=["n_tasks", "n_train", "n_test", "epochs", "seed"],
    )
    def test_non_numeric_integer_field_exits_one(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("train", "--config", bad, "--out", tmp_path / "o") == 1
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"n_tasks": 2.7}, "n_tasks"),
            ({"per_task": {"n_train": True}}, "n_train"),
            ({"epochs": 1.5}, "epochs"),  # no longer a key: refused as unknown
            ({"per_task": {"seed": 2.5}}, "seed"),
            ({"model": {"kind": "mlp", "n_features": 2, "hidden": True, "activation": "tanh"}}, "hidden"),
            ({"model": {"kind": "logistic", "n_features": 2.5}}, "n_features"),
            ({"anchor": {"delta": True}}, "delta"),
        ],
        ids=["n_tasks", "n_train", "epochs", "seed", "hidden", "n_features", "delta"],
    )
    def test_fractional_or_boolean_number_exits_one(self, tmp_path, capsys, payload, field):
        # Integer fields take only an int and float fields never a bool;
        # nothing is truncated or read as 1.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli("train", "--config", bad, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and repr(field) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "removed",
        [
            {"train": {"batch_size": 16}},
            {"train": {"grad_clip_norm": 1.0}},
            {"fisher": {"mode": "avg"}},
            {"fisher": {"max_examples": 100}},
            "--h0",
            {"fisher": {"delta_floor": 1e-8}},
            {"train": {"lr": 0.1}},
            {"train": {"seed": 5}},
            {"train": {"epochs": 100}},
            {"per_task": {"identical": True}},
            {"alphas": "0.0:1.0:0.1"},
            {"alphas": 0.5},
            {"alphas": [True]},
            {"anchor": {"source": "identity:2.0"}},
            {"epochs": 100},
            {"anchor": {"source": "fisher"}},
        ],
        ids=[
            "batch_size", "grad_clip_norm", "fisher_mode", "max_examples", "h0_flag",
            "delta_floor", "lr", "train_seed", "train_epochs", "identical",
            "alpha_range_string", "alpha_number", "alpha_bool", "identity_source",
            "epochs", "anchor_source",
        ],
    )
    def test_removed_option_exits_one(self, tmp_path, capsys, removed):
        # The curvature estimator, the anchor's and the tasks', is set only
        # by ``curvature`` (to "fisher" or "exact"), the weights only as a
        # list of numbers, the run's seed only by --seed, GRADMERGE_SEED or
        # ``per_task.seed``, and the Adam phase's length by no option at all.
        argv = ["report", "--out", tmp_path / "o"]
        if removed == "--h0":
            argv += ["--h0", "identity:2.0"]
        else:
            config = tmp_path / "removed.json"
            config.write_text(json.dumps(removed))
            argv += ["--config", config]
        assert run_cli(*argv) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "change",
        [{"loss": "squared_error"}, {"model": {"activation": "relu"}}, {"anchor": {"source": "exact"}}, {"curvature": "exact"}],
        ids=["squared_error_loss", "relu", "exact_anchor_source", "exact_curvature"],
    )
    def test_mlp_config_it_cannot_run_exits_one_before_training(self, tmp_path, capsys, change):
        # A classifier MLP is tanh with the logistic loss and has no exact
        # Hessian diagonal (``anchor.source`` is no longer a key at all);
        # each refusal comes before any output is written.
        model = {"kind": "mlp", "n_features": 2, "hidden": 4, "activation": "tanh"} | change.get("model", {})
        config = tmp_path / "mlp.json"
        config.write_text(json.dumps({**change, "model": model}))
        assert run_cli("report", "--config", config, "--out", tmp_path / "o") == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["report", "sweep", "train"])
    @pytest.mark.parametrize(
        "payload",
        [{"n_tasks": 1}, {"n_tasks": 3, "per_task": {"n_train": 0}, "curvature": "exact"}],
        ids=["one_task", "no_train_data"],
    )
    def test_shape_no_protocol_can_run_exits_one_before_output(self, tmp_path, capsys, command, payload):
        # Task 0 trains the anchor, and every other task is merged into it
        # with its own data; the spec refuses both shapes before --out exists.
        config = tmp_path / "shape.json"
        config.write_text(json.dumps(payload))
        assert run_cli(command, "--config", config, "--out", tmp_path / "o") == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("report", SHORT_LINEAR),
            ("report", {"methods": ["remove-ta"]}),
            ("remove", {"methods": ["ours"]}),
            ("sweep", {"methods": ["remove-ta"]}),
            ("sweep", {"alphas": [-1.0, 0.5]}),
        ],
        ids=[
            "short_linear-report", "removal_method-report", "addition_method-remove",
            "removal_method-sweep", "negative_alphas-sweep",
        ],
    )
    def test_config_a_protocol_cannot_run_exits_one_before_training(self, tmp_path, capsys, monkeypatch, command, payload):
        # The spec refuses a linear task shorter than its feature count and
        # negative weights for am (the first method that reads them as
        # masses), and each protocol refuses the wrong method kind, before --out exists.
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr(harness, "train_anchor", no_training)
        config = tmp_path / "refused.json"
        config.write_text(json.dumps(payload))
        assert run_cli(command, "--config", config, "--out", tmp_path / "o") == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["report"])
    def test_bad_weight_exits_one_before_training(self, small_config, capsys, monkeypatch, command, alpha):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the weight was checked")

        monkeypatch.setattr(harness, "train_anchor", no_training)
        config, out = small_config
        assert run_cli(command, "--alpha", alpha, "--config", config, "--out", out) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_range_past_the_point_cap_exits_one(self, tmp_path, capsys):
        # A range string is refused as a string, whatever it would expand to.
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"alphas": "0:1e308:1e-308"}))
        assert run_cli("sweep", "--config", config, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "alphas must be a nonempty list of finite numbers" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("route", ["flag", "env", "config"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, monkeypatch, route):
        argv = ["report", "--out", tmp_path / "o"]
        if route == "flag":
            argv += ["--seed", "-1"]
        elif route == "env":
            monkeypatch.setenv("GRADMERGE_SEED", "-5")
            argv[0] = "sweep"
        else:
            config = tmp_path / "neg.json"
            config.write_text(json.dumps({"per_task": {"seed": -3}}))
            argv += ["--config", config]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "must be >= 0" in err


class TestGen:
    def test_rerun_is_byte_identical(self, small_config):
        config, out = small_config
        assert run_cli("gen", "--config", config, "--out", out, "--seed", "3") == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli("gen", "--config", config, "--out", out, "--seed", "3") == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_env_seed_matches_explicit_flag(self, small_config, monkeypatch):
        config, out = small_config
        assert run_cli("gen", "--config", config, "--out", out / "flag", "--seed", "9") == 0
        monkeypatch.setenv("GRADMERGE_SEED", "9")
        assert run_cli("gen", "--config", config, "--out", out / "env") == 0
        for p in (out / "flag").iterdir():
            assert p.read_bytes() == (out / "env" / p.name).read_bytes()


class TestStagedWorkflow:
    def test_train_fisher_merge_round_trip(self, small_config, capsys):
        config, out = small_config
        assert run_cli("train", "--config", config, "--out", out, "--seed", "0") == 0
        assert load_checkpoint(out / "anchor").curvature is None

        # merging a curvature-based method before the fisher step must fail
        code = run_cli("merge", "--method", "ours", "--config", config, "--out", out, "--seed", "0")
        err = capsys.readouterr().err
        assert code == 1
        assert "MissingCurvatureError" in err
        assert not list(out.glob("merged-ours.*"))

        assert run_cli("fisher", "--config", config, "--out", out, "--seed", "0") == 0
        assert load_checkpoint(out / "anchor").curvature is not None
        assert run_cli("merge", "--method", "ours", "--config", config, "--out", out, "--seed", "0") == 0
        merged = load_checkpoint(out / "merged-ours")
        assert merged.meta["method"] == "ours"
        assert "avg accuracy" in capsys.readouterr().out

    def test_missing_curvature_names_the_task_file(self, tmp_path, capsys):
        # Tasks count from 1, like the task1.. checkpoints and the summary.csv task ids.
        config, out = tmp_path / "spec.json", tmp_path / "out"
        config.write_text(json.dumps({"n_tasks": 3, "per_task": {"n_train": 60, "n_test": 60}}))
        assert run_cli("train", "--config", config, "--out", out) == 0
        assert load_checkpoint(out / "task1").curvature is None
        capsys.readouterr()
        assert run_cli("merge", "--method", "ours", "--config", config, "--out", out) == 1
        assert "task 1 has none" in capsys.readouterr().err

    def test_plain_average_merges_without_curvature(self, small_config):
        config, out = small_config
        assert run_cli("train", "--config", config, "--out", out) == 0
        assert run_cli("merge", "--method", "ta", "--config", config, "--out", out) == 0
        assert (out / "merged-ta.meta.json").exists()

    def test_fisher_before_train_exits_one(self, small_config):
        config, out = small_config
        assert run_cli("fisher", "--config", config, "--out", out) == 1

    def test_fisher_reads_the_anchor_source_from_the_config(self, small_config):
        # The anchor's source is the config's one ``curvature`` estimator.
        config, out = small_config
        payload = json.loads(config.read_text())
        config.write_text(json.dumps({**payload, "curvature": "exact"}))
        assert run_cli("train", "--config", config, "--out", out, "--seed", "0") == 0
        assert run_cli("fisher", "--config", config, "--out", out, "--seed", "0") == 0
        anchor = load_checkpoint(out / "anchor")
        spec = harness.load_spec(config)
        anchor_data = harness.gen_tasks(spec, 0)[0][0]
        expected = exact_hessian_diag(spec.model, anchor.params, anchor_data)
        np.testing.assert_array_equal(anchor.curvature.values, expected.values)
        assert not np.array_equal(expected.values, fisher_diag(spec.model, anchor.params, anchor_data).values)

    def test_train_estimates_no_task_curvature(self, small_config, monkeypatch):
        config, out = small_config
        calls = []
        original = harness.estimate_task_curvature

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "estimate_task_curvature", counting)
        monkeypatch.setattr(cli_module, "estimate_task_curvature", counting)
        assert run_cli("train", "--config", config, "--out", out) == 0
        assert calls == []
        assert run_cli("fisher", "--config", config, "--out", out) == 0
        assert len(calls) == 1  # n_tasks - 1

    def test_train_then_fisher_equals_run_pipeline(self, tmp_path):
        assert run_cli("train", "--out", tmp_path, "--seed", "3") == 0
        assert run_cli("fisher", "--out", tmp_path, "--seed", "3") == 0
        state = run_pipeline(default_spec(), 3)
        expected = [("anchor", state.anchor)] + [(f"task{t}", ck) for t, ck in enumerate(state.tasks, start=1)]
        for stem, ck in expected:
            disk = load_checkpoint(tmp_path / stem)
            assert disk.params.values.tobytes() == ck.params.values.tobytes(), stem
            assert disk.curvature.values.tobytes() == ck.curvature.values.tobytes(), stem
            assert disk.meta == ck.meta, stem

    def test_merge_that_fails_scoring_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # ta merges at this weight, but its held-out loss overflows; the
        # merged checkpoint is written only once it is scored.
        config, out = tmp_path / "linear.json", tmp_path / "out"
        config.write_text(json.dumps(
            {"model": {"kind": "linear_regression", "n_features": 3}, "loss": "squared_error", "curvature": "exact"}
        ))
        assert run_cli("train", "--config", config, "--out", out) == 0
        assert run_cli("fisher", "--config", config, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("merge", "--method", "ta", "--alpha", "1e200", "--config", config, "--out", out) == 2
        assert "NumericError" in capsys.readouterr().err
        assert not list(out.glob("merged-ta.*"))

    def test_negative_weight_numeric_failure_exits_two(self, small_config, capsys):
        config, out = small_config
        assert run_cli("train", "--config", config, "--out", out) == 0
        assert run_cli("fisher", "--config", config, "--out", out) == 0
        code = run_cli("merge", "--method", "ours", "--alpha", "-100", "--config", config, "--out", out)
        assert code == 2
        assert "SingularCurvatureError" in capsys.readouterr().err


class TestSharedParser:
    """``cli`` reuses one parser per process; no call may leak into the next."""

    def test_merge_alpha_falls_back_to_its_default(self, small_config):
        config, out = small_config
        assert run_cli("train", "--config", config, "--out", out) == 0
        assert run_cli("fisher", "--config", config, "--out", out) == 0
        assert run_cli("merge", "--method", "ours", "--alpha", "0.5", "--config", config, "--out", out) == 0
        assert load_checkpoint(out / "merged-ours").meta["alphas"] == "0.5"
        assert run_cli("merge", "--method", "ours", "--config", config, "--out", out) == 0
        assert load_checkpoint(out / "merged-ours").meta["alphas"] == "1.0"

    def test_seed_falls_back_to_the_config(self, small_config, monkeypatch):
        config, out = small_config
        monkeypatch.delenv("GRADMERGE_SEED", raising=False)
        assert run_cli("gen", "--config", config, "--out", out / "flag", "--seed", "5") == 0
        assert run_cli("gen", "--config", config, "--out", out / "config") == 0
        assert run_cli("gen", "--config", config, "--out", out / "zero", "--seed", "0") == 0
        names = sorted(p.name for p in (out / "zero").iterdir())
        assert names
        for name in names:
            assert (out / "config" / name).read_bytes() == (out / "zero" / name).read_bytes()
        assert any((out / "config" / n).read_bytes() != (out / "flag" / n).read_bytes() for n in names)

    def test_usage_error_after_a_successful_call_exits_one(self, small_config, capsys):
        config, out = small_config
        assert run_cli("gen", "--config", config, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("merge", "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "--method" in err


class TestProtocols:
    def test_report_writes_summary_and_diagnostics(self, small_config, capsys):
        config, out = small_config
        assert run_cli("report", "--config", config, "--out", out, "--seed", "0") == 0
        summary = (out / "summary.csv").read_text().splitlines()
        report = (out / "report.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert report[0] == MISMATCH_TABLE_HEADER
        assert any(line.startswith("all-data,") for line in summary)
        stdout = capsys.readouterr().out
        assert "ours:" in stdout and "all-data:" in stdout

    def test_report_at_zero_weight_scores_and_diagnoses_one_am_merge(self, tmp_path):
        # summary.csv, report.csv and the merged-am checkpoint all describe
        # the same merge, which at zero weight is the anchor.
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"n_tasks": 3, "per_task": {"n_train": 80, "n_test": 80}, "methods": ["am", "ta"]}))
        out = tmp_path / "out"
        assert run_cli("report", "--config", config, "--out", out, "--seed", "0", "--alpha", "0") == 0
        merged_am = load_checkpoint(out / "merged-am").params.values
        np.testing.assert_array_equal(merged_am, load_checkpoint(out / "anchor").params.values)
        distance = float(np.linalg.norm(merged_am - load_checkpoint(out / "target").params.values))
        report = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert {float(row[4]) for row in report if row[0] == "am"} == {distance}
        summary = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        scores = {label: [(row[2], row[4]) for row in summary if row[0] == label] for label in ("am", "anchor")}
        assert scores["am"] == scores["anchor"]

    def test_sweep_writes_dat_files(self, small_config, capsys):
        config, out = small_config
        assert run_cli("sweep", "--config", config, "--out", out, "--seed", "0") == 0
        assert (out / "sweep_ta.dat").exists()
        assert (out / "sweep_ours.dat").exists()
        assert "best accuracy" in capsys.readouterr().out

    def test_sweep_merge_failure_exits_two_before_writing_output(self, tmp_path, capsys):
        # ta accepts the weight -1, but ours's pooled curvature is not
        # positive there, which only the trained checkpoints can show.
        config = tmp_path / "negative.json"
        config.write_text(json.dumps({"alphas": [-1.0, 0.5], "methods": ["ta", "ours"]}))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", config, "--out", out) == 2
        assert "SingularCurvatureError" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()
        assert not list(out.glob("sweep_*.dat"))

    def test_report_merge_failure_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # wam overflows at this weight, after the pipeline is trained.
        out = tmp_path / "out"
        assert run_cli("report", "--alpha", "1e308", "--out", out) == 2
        assert "NumericError" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_report_whose_table_raises_exits_two_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # report.csv is written in the protocol's one write phase, so a table
        # that fails after every row is scored still leaves --out empty.
        def raising(fixture, candidates):
            raise NumericError("table overflowed")

        monkeypatch.setattr(harness, "mismatch_vs_error_table", raising)
        out = tmp_path / "out"
        assert run_cli("report", "--out", out, "--seed", "0") == 2
        assert "NumericError: table overflowed" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_library_addition_run_writes_the_report_files(self, tmp_path):
        library, command = tmp_path / "library", tmp_path / "cli"
        result = run_addition(default_spec(), library, seed=0)
        assert run_cli("report", "--seed", "0", "--out", command) == 0
        names = sorted(p.name for p in library.iterdir())
        assert names == sorted(p.name for p in command.iterdir())
        assert [n for n in names if not filecmp.cmp(library / n, command / n, shallow=False)] == []
        assert (library / "report.csv").read_text() == mismatch_table_csv(result.table)

    def test_remove_prints_distances(self, tmp_path, capsys):
        out = tmp_path / "rem"
        assert run_cli("remove", "--out", out, "--seed", "0") == 0
        stdout = capsys.readouterr().out
        assert "remove-ours: distance to retrain" in stdout
        assert (out / "summary.csv").exists()


    def test_report_scores_its_own_merges_and_evaluates_the_target_once_per_task(self, tmp_path, monkeypatch):
        # The default spec merges 6 methods into 4 added tasks.  The table
        # reuses run_addition's merges and evaluates the target once: per
        # vector (the target, then each merge) and task it takes one
        # training gradient and one held-out loss and gradient pass.
        # verify_identity reuses the target's gradients and takes one
        # checked gradient per task checkpoint.
        from gradmerge import diagnostics, merging

        counts = {"merge_grid": 0, "_grad": 0, "_value_grad": 0, "grad": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(harness, "merge_grid", counting("merge_grid", harness.merge_grid))
        monkeypatch.setattr(merging, "merge_grid", counting("merge_grid", merging.merge_grid))
        for name in ("_grad", "_value_grad", "grad"):
            monkeypatch.setattr(diagnostics, name, counting(name, getattr(diagnostics, name)))
        assert run_cli("report", "--out", tmp_path / "out", "--seed", "0") == 0
        assert counts == {"merge_grid": 6, "_grad": (1 + 6) * 4, "_value_grad": (1 + 6) * 4, "grad": 4}

    @pytest.mark.parametrize("command, built", [("report", 4), ("remove", 3)])
    def test_protocols_prepare_each_test_set_once(self, tmp_path, monkeypatch, command, built):
        # Every row of a default report (6 merges, the target, the anchor)
        # is scored in one pass over its 4 added tasks' test sets, and every
        # row of a default remove (2 removals, the retrain, the anchor) in
        # one pass over its 3 blocks' test sets.
        from gradmerge import models

        kernels = []

        class CountingKernel(models._SignKernel):
            def __init__(self, X):
                kernels.append(X)
                super().__init__(X)

        monkeypatch.setattr(models, "_SignKernel", CountingKernel)
        monkeypatch.setattr(harness, "_SignKernel", CountingKernel)
        assert run_cli(command, "--out", tmp_path / "out", "--seed", "0") == 0
        assert len(kernels) == built

    @pytest.mark.parametrize("alpha", ["0", "0.3", "1"])
    @pytest.mark.parametrize(
        "config",
        [{}, {"model": {"kind": "mlp", "n_features": 2, "hidden": 16, "activation": "tanh"}, "n_tasks": 3}],
        ids=["default", "mlp"],
    )
    def test_report_writes_the_library_table(self, tmp_path, config, alpha):
        # The library path on a fresh pipeline: the fixture holds a joint
        # target trained at the weight, and each method merges the fixture's
        # own anchor, penalty and task checkpoints.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        assert run_cli("report", "--config", path, "--out", tmp_path / "out", "--seed", "1", "--alpha", alpha) == 0
        state, weight = run_pipeline(load_spec(path), 1), float(alpha)
        fixture = fixture_from_state(state, train_target(state, weight).params, weight)
        rows = mismatch_vs_error_table(fixture, {m: merge(m, fixture.inputs) for m in state.spec.methods})
        assert (tmp_path / "out" / "report.csv").read_text() == mismatch_table_csv(rows)


#: A logistic config whose fits overflow at its huge class separation.
WIDE_SEPARATED = {"model": {"kind": "logistic", "n_features": 6}, "n_tasks": 3,
                  "per_task": {"separation": 1e300, "n_train": 40, "n_test": 40}}

#: Configs whose fits overflow (huge class separation or noise), each under one verb.
OVERFLOWING = {
    "wide-report": ("report", WIDE_SEPARATED),
    "wide-remove": ("remove", {**WIDE_SEPARATED, "methods": ["remove-ta", "remove-ours"]}),
    "linear-report": ("report", {"model": {"kind": "linear_regression", "n_features": 3}, "loss": "squared_error",
                                 "per_task": {"noise": 1e300, "n_train": 20, "n_test": 20}}),
    "blob-sweep": ("sweep", {"per_task": {"separation": 1e200}}),
}


class TestNumericFailures:
    @pytest.mark.parametrize("case", list(OVERFLOWING))
    def test_overflowing_fit_exits_two_with_one_error_line_and_no_warning(self, tmp_path, capsys, case):
        # The fits' finiteness checks and stationarity gate are the one
        # signal; a NumPy RuntimeWarning on the way would raise here.
        command, config = OVERFLOWING[case]
        path, out = tmp_path / "spec.json", tmp_path / "out"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(command, "--config", path, "--out", out, "--seed", "0") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        name = lines[0].split(":")[1].strip()
        assert issubclass(getattr(errors, name), errors.GradmergeError)
        assert list(out.iterdir()) == []


class TestOutputErrors:
    @pytest.mark.parametrize("command", ["gen", "train", "report", "sweep", "remove", "oracle-check"])
    def test_out_naming_a_regular_file_exits_one(self, small_config, command, capsys):
        config, out = small_config
        out.write_text("not a directory\n")
        extra = {"remove": [], "oracle-check": ["--fixtures", "1"]}.get(command, ["--config", config])
        assert run_cli(command, "--out", out, "--seed", "0", *extra) == 1
        assert "IoError" in capsys.readouterr().err


class TestOracleCheck:
    def test_seed_seven_all_pass(self, capsys):
        assert run_cli("oracle-check", "--seed", "7") == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(ORACLE_TABLE_HEADER)
        assert ",FAIL," not in stdout
        assert "250 checks, 250 passed, 0 failed" in stdout

    def test_writes_table_when_out_given(self, tmp_path):
        assert run_cli("oracle-check", "--seed", "1", "--fixtures", "3", "--out", tmp_path) == 0
        lines = (tmp_path / "oracle_table.csv").read_text().splitlines()
        assert lines[0] == ORACLE_TABLE_HEADER
        assert len(lines) == 1 + 5 * 3

    def test_missing_config_exits_one_before_output(self, tmp_path, capsys):
        argv = ["oracle-check", "--config", tmp_path / "missing.json", "--fixtures", "1", "--out", tmp_path / "o"]
        assert run_cli(*argv) == 1
        assert "IoError" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_falls_back_to_the_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GRADMERGE_SEED", raising=False)
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"per_task": {"seed": 5}}))
        assert run_cli("oracle-check", "--config", config, "--fixtures", "3") == 0
        from_config = capsys.readouterr().out
        assert run_cli("oracle-check", "--seed", "5", "--fixtures", "3") == 0
        assert capsys.readouterr().out == from_config
        assert run_cli("oracle-check", "--fixtures", "3") == 0
        assert capsys.readouterr().out != from_config

    @pytest.mark.parametrize("fixtures", ["0", "-3"])
    def test_no_fixtures_exits_one(self, fixtures, capsys):
        assert run_cli("oracle-check", "--fixtures", fixtures) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "n_fixtures" in err

    def test_failing_suite_exits_two(self, monkeypatch, capsys):
        from gradmerge import cli as cli_module
        from gradmerge.oracles import OracleResult

        fake = [OracleResult("forced-fail", 1.0, 1.0, 1e-9)]
        monkeypatch.setattr(cli_module, "run_oracle_suite", lambda **kw: fake)
        assert run_cli("oracle-check") == 2
        assert "FAIL" in capsys.readouterr().out
