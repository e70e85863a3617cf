"""Command-line front end over the experiment harness.

Subcommands mirror the pipeline stages: ``gen`` writes datasets,
``train`` writes anchor and task checkpoints, ``fisher`` attaches
curvature diagonals to them, ``merge`` applies one catalog method, and
``remove``, ``sweep``, ``oracle-check``, and ``report`` run the
higher-level protocols.  Everything an experiment needs lives in
one JSON config (see :class:`gradmerge.harness.ExperimentSpec`); the
flags ``--seed``, ``--out``, and ``--config`` are accepted by every
subcommand, and the curvature estimator, one for the anchor and the
tasks alike, is set only by the config's ``curvature``.  :func:`cli`
builds the spec (the removal default for ``remove``), checks a
protocol's method kind, and resolves the seed and ``--out`` once, before
any handler runs: a refused config writes nothing.

Exit codes: 0 on success, 1 on validation or usage errors, 2 on numeric
failures (including a failing oracle suite).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .diagnostics import mismatch_table_csv, mismatch_vs_error_table
from .errors import ConfigError, GradmergeError, MissingCurvatureError
# ``estimate_task_curvature`` is unused here but stays importable:
# ``perfbench/spans.py`` wraps it on this module.
from .harness import (  # noqa: F401
    REMOVAL_METHODS,
    _require_methods,
    default_removal_spec,
    default_spec,
    estimate_anchor_h0,
    estimate_task_curvature,
    evaluate_params,
    fixture_from_state,
    gen_tasks,
    load_spec,
    output_dir,
    resolve_seed,
    run_addition,
    run_pipeline,
    run_removal,
    save_run,
    sweep_alpha,
    train_stage,
    with_task_curvature,
    write_text,
)
from .merging import ADDITION_METHODS, CURVATURE_METHODS, MergeInputs, merge, merged_checkpoint
from .models import save_dataset
from .oracles import oracle_summary, oracle_table_csv, run_oracle_suite
from .params import Checkpoint, load_checkpoint, save_checkpoint
from .training import task_weight

__all__ = ["cli", "main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the config seed")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory (default: ./out)")
    common.add_argument("--config", default=argparse.SUPPRESS, help="JSON experiment config file")
    return common


def build_parser() -> argparse.ArgumentParser:
    """The full subcommand parser; shared flags work before or after the verb."""
    common = _common_flags()
    parser = _Parser(prog="gradmerge", description=__doc__.splitlines()[0], parents=[common])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, handler, help_text: str, methods=None) -> argparse.ArgumentParser:
        # ``methods``: the method kind a protocol verb needs in the spec.
        p = sub.add_parser(name, parents=[common], help=help_text, description=help_text)
        p.set_defaults(handler=handler, methods=methods)
        return p

    add("gen", _cmd_gen, "synthesize and write per-task train/test datasets")
    add("train", _cmd_train, "train the anchor and per-task fine-tunes")
    add("fisher", _cmd_fisher, "attach curvature diagonals to trained checkpoints")
    p = add("merge", _cmd_merge, "merge saved checkpoints with one catalog method")
    p.add_argument("--method", required=True, choices=ADDITION_METHODS)
    p.add_argument("--alpha", type=float, default=1.0, help="uniform task weight")
    add("remove", _cmd_remove, "subtract a task block and compare to retraining", REMOVAL_METHODS)
    add("sweep", _cmd_sweep, "trace aggregate metrics across the weight grid", ADDITION_METHODS)
    p = add("oracle-check", _cmd_oracle_check, "run the independent numeric oracle suite")
    p.add_argument("--fixtures", type=int, default=50, help="fixtures per oracle family")
    p = add("report", _cmd_report, "full addition run plus diagnostics in one shot", ADDITION_METHODS)
    p.add_argument("--alpha", type=task_weight, default=1.0, help="uniform task weight, finite and >= 0")
    return parser


# ``cli`` parses with one parser per process; parsing leaves it unchanged.
_shared_parser = cache(build_parser)


def _cmd_gen(args, spec, seed, out) -> int:
    out = output_dir(out)
    sets = gen_tasks(spec, seed)
    for t, ds in enumerate(sets[: spec.n_tasks]):
        save_dataset(ds, out / f"task{t}.json")
    for t, ds in enumerate(sets[spec.n_tasks :]):
        save_dataset(ds, out / f"task{t}_test.json")
    print(f"wrote {2 * spec.n_tasks} datasets to {out}")
    return 0


def _cmd_train(args, spec, seed, out) -> int:
    out = output_dir(out)
    trains = gen_tasks(spec, seed)[: spec.n_tasks]
    anchor, tasks = train_stage(spec, seed, trains[0], enumerate(trains[1:], start=1))
    # The anchor is written without the curvature ``h0`` the fine-tunes
    # were trained under: ``fisher`` estimates it again, with the config's
    # ``curvature`` estimator.
    save_run(out, Checkpoint(anchor.params, meta=anchor.meta), tasks)
    print(f"wrote anchor and {len(tasks)} task checkpoints to {out}")
    return 0


def _cmd_fisher(args, spec, seed, out) -> int:
    trains = gen_tasks(spec, seed)[: spec.n_tasks]
    anchor = load_checkpoint(out / "anchor")
    h0 = estimate_anchor_h0(spec, anchor.params, trains[0])
    tasks = [load_checkpoint(out / f"task{t}") for t in range(1, spec.n_tasks)]
    tasks = with_task_curvature(spec, tasks, trains[1:])
    save_run(out, Checkpoint(anchor.params, h0, anchor.meta), tasks)
    print(f"attached curvature to anchor and {len(tasks)} task checkpoints in {out}")
    return 0


def _cmd_merge(args, spec, seed, out) -> int:
    stems = ["anchor"] + [f"task{t}" for t in range(1, spec.n_tasks)]
    anchor, *tasks = loaded = [load_checkpoint(out / stem) for stem in stems]
    if args.method in CURVATURE_METHODS:
        for stem, ck in zip(stems, loaded):
            if ck.curvature is None:
                raise MissingCurvatureError(
                    f"checkpoint {str(out / stem)!r} has no curvature diagonal; "
                    "run the fisher step first"
                )
    params = merge(args.method, MergeInputs(anchor, tuple((args.alpha, ck) for ck in tasks), spec.anchor.delta))
    merged = merged_checkpoint(args.method, params, [args.alpha] * len(tasks))
    save_checkpoint(merged, out / f"merged-{args.method}")
    eval_sets = gen_tasks(spec, seed)[spec.n_tasks + 1 :]
    outcome = evaluate_params(spec, args.method, args.alpha, params, eval_sets)
    print(
        f"merged-{args.method} alpha={args.alpha!r}: "
        f"avg {outcome.metric} {outcome.avg!r}, true avg {outcome.true_avg!r}"
    )
    return 0


def _cmd_remove(args, spec, seed, out) -> int:
    result = run_removal(spec, out, seed)
    for method in spec.methods:
        print(f"{method}: distance to retrain {result.dists[method]!r}")
    print(f"anchor: distance to retrain {result.dists['anchor']!r}")
    return 0


def _cmd_sweep(args, spec, seed, out) -> int:
    result = sweep_alpha(spec, out, seed)
    for method, points in result.series.items():
        best_alpha, best = max(points, key=lambda p: p[1] if result.metric == "accuracy" else -p[1])
        print(f"{method}: best {result.metric} {best!r} at alpha={best_alpha!r}")
    return 0


def _cmd_oracle_check(args, spec, seed, out) -> int:
    out = output_dir(out) if getattr(args, "out", None) is not None else None
    results = run_oracle_suite(seed=seed, n_fixtures=args.fixtures)
    table = oracle_table_csv(results)
    print(table, end="")
    print(oracle_summary(results))
    if out is not None:
        write_text(out / "oracle_table.csv", table)
    return 0 if all(r.passed for r in results) else 2


def _cmd_report(args, spec, seed, out) -> int:
    out = output_dir(out)
    state = run_pipeline(spec, seed)
    result = run_addition(spec, out, seed, alpha=args.alpha, state=state)
    fixture = fixture_from_state(state, result.target.params, args.alpha)
    rows = mismatch_vs_error_table(fixture, {m: result.outcomes[m].params for m in spec.methods})
    write_text(out / "report.csv", mismatch_table_csv(rows))
    for label in list(spec.methods) + ["all-data", "anchor"]:
        outcome = result.outcomes[label]
        print(f"{label}: avg {outcome.metric} {outcome.avg!r}, true avg {outcome.true_avg!r}")
    print(f"wrote summary.csv, report.csv, and checkpoints to {out}")
    return 0


def cli(argv=None) -> int:
    """Parse and dispatch; returns the process exit code instead of exiting."""
    try:
        args = _shared_parser().parse_args(argv)
        config = getattr(args, "config", None)
        if config is not None:
            spec = load_spec(config)
        else:
            spec = default_removal_spec() if args.command == "remove" else default_spec()
        if args.methods is not None:
            _require_methods(spec, args.methods, args.command)
        seed = resolve_seed(spec, getattr(args, "seed", None))
        return args.handler(args, spec, seed, Path(getattr(args, "out", None) or "out"))
    except SystemExit as exc:  # --help and friends
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except GradmergeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(cli())
