"""In-memory span tracer that wraps the package's public functions.

Each wrap replaces a name in the *calling* module (the package imports by
name, so patching the defining module would miss every caller).  A span
records ``[label, start, end, parent, op]``; spans of one benchmark
operation share ``op``.  Counters are kept at the same boundaries.  A
layer's self time is its spans' duration minus the part covered by child
spans.  A wrap target that no longer exists raises, so a renamed
boundary fails the traced run instead of reading as 0 s.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
from time import perf_counter


def _arg(fn, name):
    """Fast accessor for parameter ``name`` of ``fn`` from a call's args."""
    params = inspect.signature(fn).parameters
    index = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if index < len(args):
            return args[index]
        return kwargs.get(name, default)

    return get


def _counter(name):
    def factory(fn):
        def count(counts, args, kwargs, result):
            counts[name] += 1

        return count

    return factory


def _count_rows(fn):
    data = _arg(fn, "data")

    def count(counts, args, kwargs, result):
        counts["evaluation.rows_scored"] += data(args, kwargs).n

    return count


def _count_curvature(fn):
    data = _arg(fn, "data")

    def count(counts, args, kwargs, result):
        counts["curvature.calls"] += 1
        counts["curvature.examples"] += data(args, kwargs).n

    return count


def _count_evaluation(fn):
    eval_sets, aggregate_sets = _arg(fn, "eval_sets"), _arg(fn, "aggregate_sets")

    def count(counts, args, kwargs, result):
        sets = {id(ds): ds for ds in eval_sets(args, kwargs)}
        sets.update((id(ds), ds) for ds in (aggregate_sets(args, kwargs) or ()))
        counts["evaluation.calls"] += 1
        counts["evaluation.distinct_rows"] += sum(ds.n for ds in sets.values())

    return count


def _count_oracles(fn):
    def count(counts, args, kwargs, result):
        counts["oracles.checks"] += len(result)

    return count


#: (module, attribute, span label or None for a counter-only wrap,
#: counter factory taking the wrapped function).
#: Every per-layer metric in BENCHMARK.json comes from these boundaries.
WRAPS = (
    ("gradmerge.cli", "cli", "cli", None),
    ("gradmerge.cli", "run_pipeline", "harness", None),
    ("gradmerge.cli", "run_addition", "harness", None),
    ("gradmerge.cli", "run_removal", "harness", None),
    ("gradmerge.cli", "sweep_alpha", "harness", None),
    ("gradmerge.cli", "gen_tasks", "harness.gen", None),
    ("gradmerge.cli", "estimate_anchor_h0", "curvature", _count_curvature),
    ("gradmerge.cli", "estimate_task_curvature", "curvature", _count_curvature),
    ("gradmerge.cli", "evaluate_params", "evaluation", _count_evaluation),
    ("gradmerge.cli", "mismatch_vs_error_table", "diagnostics", None),
    ("gradmerge.cli", "run_oracle_suite", "oracles", _count_oracles),
    ("gradmerge.cli", "save_checkpoint", "io", None),
    ("gradmerge.cli", "load_checkpoint", "io", _counter("io.files_read")),
    ("gradmerge.cli", "save_dataset", "io", None),
    ("gradmerge.harness", "run_pipeline", "harness", None),
    ("gradmerge.harness", "run_addition", "harness", None),
    ("gradmerge.harness", "run_removal", "harness", None),
    ("gradmerge.harness", "sweep_alpha", "harness", None),
    ("gradmerge.harness", "gen_tasks", "harness.gen", None),
    ("gradmerge.harness", "train_anchor", "training", _counter("training.fits")),
    ("gradmerge.harness", "finetune_task", "training", _counter("training.fits")),
    ("gradmerge.harness", "train_joint_target", "training", _counter("training.fits")),
    ("gradmerge.harness", "estimate_anchor_h0", "curvature", _count_curvature),
    ("gradmerge.harness", "estimate_task_curvature", "curvature", _count_curvature),
    ("gradmerge.harness", "merge", "merging", _counter("merging.calls")),
    ("gradmerge.harness", "merge_task_arithmetic", "merging", _counter("merging.calls")),
    ("gradmerge.harness", "remove_task", "merging", _counter("merging.calls")),
    ("gradmerge.harness", "evaluate_params", "evaluation", _count_evaluation),
    ("gradmerge.harness", "accuracy", None, _count_rows),
    ("gradmerge.harness", "loss", None, _count_rows),
    ("gradmerge.harness", "save_checkpoint", "io", None),
    ("gradmerge.training", "adam_decoupled_minimize", "training.adam", None),
    ("gradmerge.training", "loss", None, _counter("training.loss_evals")),
    ("gradmerge.training", "grad", None, _counter("training.grad_evals")),
    ("gradmerge.oracles", "merge_uncertainty", "merging", _counter("merging.calls")),
    ("gradmerge.oracles", "remove_task", "merging", _counter("merging.calls")),
)


class Tracer:
    """Spans and counters for one process; patches are applied on demand."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = "setup"
        self._parent = -1
        self._patches = []
        for module_name, attr, label, count in WRAPS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise RuntimeError(f"wrap target {module_name}.{attr} no longer exists")
            original = getattr(module, attr)
            counter = count(original) if count is not None else None
            self._patches.append((module, attr, original, self._wrap(original, label, counter)))

    def _wrap(self, fn, label, count):
        tracer = self

        if label is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(tracer.counts, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, 0.0, 0.0, tracer._parent, tracer.op]
            tracer._parent = len(tracer.spans)
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._parent = rec[3]
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self, label: str, op_id: str):
        """Patch the package and hold a root span for the duration."""
        self.op = op_id
        self.install()
        rec = [label, 0.0, 0.0, -1, op_id]
        self._parent = len(self.spans)
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._parent = -1
            self.uninstall()

    def dump(self, path) -> None:
        keys = ("label", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump(
                {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": dict(self.counts)},
                fh,
            )


def layer_times(spans) -> tuple[dict, dict]:
    """Per-label self time and outermost inclusive time, in seconds."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_s: dict[str, float] = collections.defaultdict(float)
    incl_s: dict[str, float] = collections.defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        self_s[s[0]] += dur - child[i]
        parent = s[3]
        while parent >= 0 and spans[parent][0] != s[0]:
            parent = spans[parent][3]
        if parent < 0:
            incl_s[s[0]] += dur
    return self_s, incl_s


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Derive the BENCHMARK.json per-layer metrics from spans and counters."""
    self_s, incl_s = layer_times(tracer.spans)
    c = tracer.counts
    merging_calls = c["merging.calls"]
    distinct = c["evaluation.distinct_rows"]
    return {
        "cli.self_s": self_s["cli"],
        "harness.self_s": self_s["harness"],
        "harness.gen_s": incl_s["harness.gen"],
        "training.s": incl_s["training"],
        "training.fits": c["training.fits"],
        "training.adam_s": incl_s["training.adam"],
        "training.polish_s": incl_s["training"] - incl_s["training.adam"],
        "training.loss_evals": c["training.loss_evals"],
        "training.grad_evals": c["training.grad_evals"],
        "curvature.s": incl_s["curvature"],
        "curvature.calls": c["curvature.calls"],
        "curvature.examples": c["curvature.examples"],
        "merging.s": incl_s["merging"],
        "merging.calls": merging_calls,
        "merging.us_per_call": 1e6 * incl_s["merging"] / merging_calls if merging_calls else 0.0,
        "evaluation.s": incl_s["evaluation"],
        "evaluation.calls": c["evaluation.calls"],
        "evaluation.rows_scored": c["evaluation.rows_scored"],
        "evaluation.rescore_ratio": c["evaluation.rows_scored"] / distinct if distinct else 0.0,
        "diagnostics.s": incl_s["diagnostics"],
        "oracles.self_s": self_s["oracles"],
        "oracles.checks": c["oracles.checks"],
        "io.s": incl_s["io"],
        "io.files_written": c["io.files_written"],
        "io.bytes_written": c["io.bytes_written"],
        "io.files_read": c["io.files_read"],
    }
