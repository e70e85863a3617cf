"""Desk-scale experiment harness: data generation, training, merging, reports.

This module wires the library end to end.  A single JSON-serializable
:class:`ExperimentSpec` describes one run: it synthesizes per-task
datasets, trains an anchor and per-task fine-tunes, estimates diagonal
curvatures, applies the merge catalog, and emits deterministic CSV
summaries plus two-column sweep files that any plotting tool can read.
Identical spec and seed always reproduce byte-identical outputs.

Three protocols are provided: :func:`run_addition` merges every
configured method and scores it against a jointly trained baseline,
with the gradient-mismatch table of each merge against it,
:func:`run_removal` subtracts one task's contribution from an anchor
trained on pooled data and compares against retraining without it, and
:func:`sweep_alpha` traces aggregate metrics across a grid of task
weights without retraining anything; it merges the whole grid in one
batch per method.  All three have one shape: compute every row, score
them all as one array in one :func:`_evaluate_rows` call (which prepares
each test set once and scores each distinct row once, even across a
sweep's methods), then write every file of the run in one
:func:`_write_run` call (``report.csv`` included).  So a protocol that
raises has written nothing into its output directory.

A score depends only on the scored parameters and the test set, so every
protocol prints the same bits for the same merge.  A classifier predicts
class 1 where its output is >= 0.  A logistic output is read as the
exact sign of ``x . v`` in up to three stages: a float32 product settles
each entry whose size clears a rounding bound, a float64 dot settles
most of the rest, and a sum of ``Fraction`` products the remainder
(:func:`models._predict`).  An MLP takes its own float64 forward pass per
row, and a linear model its own product ``X @ v`` per row.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curvature import exact_hessian_diag, fisher_diag
from .diagnostics import DiagnosticFixture, MismatchRow, mismatch_table_csv, mismatch_vs_error_table
from .errors import ConfigError, IoError, LayoutError, NumericError, check_fields
# ``accuracy`` and ``loss`` are unused here but stay importable:
# ``perfbench/spans.py`` wraps them on this module.
from .merging import (  # noqa: F401
    ADDITION_METHODS,
    MergeInputs,
    _check_weights,
    merge,
    merge_grid,
    merge_task_arithmetic,
    merged_checkpoint,
    remove_task,
)
from .models import (  # noqa: F401
    LOSSES,
    ModelSpec,
    TaskDataset,
    _check_data,
    _forward,
    _losses,
    _predict,
    accuracy,
    loss,
)
from .params import Checkpoint, DiagCurvature, ParamVector, save_checkpoint
from .training import (
    finetune_task,
    task_weight,
    train_anchor,
    train_joint_target,
)

__all__ = [
    "REMOVAL_METHODS",
    "SUMMARY_HEADER",
    "PerTaskConfig",
    "AnchorConfig",
    "ExperimentSpec",
    "load_spec",
    "default_spec",
    "default_removal_spec",
    "resolve_seed",
    "gen_tasks",
    "output_dir",
    "write_text",
    "save_run",
    "PipelineState",
    "train_stage",
    "with_task_curvature",
    "run_pipeline",
    "MethodOutcome",
    "evaluate_params",
    "estimate_anchor_h0",
    "estimate_task_curvature",
    "AdditionResult",
    "run_addition",
    "RemovalResult",
    "run_removal",
    "SweepResult",
    "sweep_alpha",
    "fixture_from_state",
]

#: Environment variable that overrides the config seed when set.
ENV_SEED_VAR = "GRADMERGE_SEED"

#: Methods only valid for the removal protocol.
REMOVAL_METHODS = ("remove-ta", "remove-ours")

#: Every method name an ExperimentSpec may list.
HARNESS_METHODS = ADDITION_METHODS + REMOVAL_METHODS

#: Column order of summary.csv rows.
SUMMARY_HEADER = "method,alpha,task,metric,value"

#: The curvature diagonals that ``curvature`` may name.
CURVATURE_SOURCES = ("fisher", "exact")


_NONNEGATIVE = {"min": 0, "finite": True}


@dataclass(frozen=True)
class PerTaskConfig:
    """Synthetic dataset-generator knobs shared by every task.

    Classification tasks put class 1 at ``+mean`` and class 0 at
    ``-mean`` where the mean has norm ``separation / 2`` and rotates by
    equal steps up to ``spread_degrees`` across tasks.  ``seed`` is the
    run's seed when neither an integer seed override (``--seed``, or a
    protocol's ``seed`` argument) nor ``GRADMERGE_SEED`` gives one.
    """

    n_train: int = field(default=500, metadata={"min": 1})
    n_test: int = field(default=500, metadata={"min": 1})
    noise: float = field(default=0.6, metadata=_NONNEGATIVE)
    separation: float = field(default=2.2, metadata=_NONNEGATIVE)
    spread_degrees: float = field(default=80.0, metadata=_NONNEGATIVE)
    seed: int = field(default=0, metadata={"min": 0})
    __post_init__ = check_fields


@dataclass(frozen=True)
class AnchorConfig:
    """The anchor penalty's ridge strength ``delta``, finite and >= 0."""

    delta: float = field(default=0.1, metadata=_NONNEGATIVE)
    __post_init__ = check_fields


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, JSON-serializable description of one experiment run.

    Each field's own type and bound is declared on it and held by
    :func:`errors.check_fields`; ``__post_init__`` holds the rules that
    join fields.  ``methods`` may mix the addition catalog with the two
    removal methods, but each protocol accepts only its own kind.
    ``loss`` defaults to, and may only name, the model kind's own loss
    (``model.loss``); it stays a key so that existing configs load.
    ``curvature`` picks the one diagonal estimator for the anchor penalty
    ``h0`` and for every task; MLPs have no exact Hessian diagonal, so
    they take "fisher".  A linear_regression task needs ``n_train`` and
    ``n_test`` of at least ``model.n_features``.  ``alphas`` (by default
    0.0, 0.1, ..., 1.0) may hold negative weights only if no method reads
    them as mixture masses (``am``, ``wam``, ``fa``, ``ties``).
    """

    name: str = field(default="default", metadata={"min": 1})
    model: ModelSpec = field(default_factory=lambda: ModelSpec("logistic", 2))
    loss: str | None = field(default=None, metadata={"choices": LOSSES})
    n_tasks: int = field(default=5, metadata={"min": 2})  # task 0 trains the anchor; the rest are merged into it or removed from it
    per_task: PerTaskConfig = field(default_factory=PerTaskConfig)
    anchor: AnchorConfig = field(default_factory=AnchorConfig)
    curvature: str = field(default="fisher", metadata={"choices": CURVATURE_SOURCES})
    methods: tuple[str, ...] = field(default=ADDITION_METHODS, metadata={"choices": HARNESS_METHODS, "unique": True})
    alphas: tuple[float, ...] = field(default=tuple(i / 10 for i in range(11)), metadata={"finite": True})

    def __post_init__(self):
        check_fields(self)
        if self.loss is None:
            object.__setattr__(self, "loss", self.model.loss)
        elif self.loss != self.model.loss:
            raise ConfigError(f"{self.model.kind} models use the {self.model.loss} loss, not {self.loss!r}")
        rows, d = (self.per_task.n_train, self.per_task.n_test), self.model.n_features
        if self.model.kind == "linear_regression" and min(rows) < d:  # a planted task orthogonalizes an (n, d) design
            raise ConfigError(f"linear_regression needs n_train and n_test >= n_features ({d}), got {rows}")
        if self.model.kind == "mlp" and self.curvature == "exact":
            raise ConfigError("exact curvature is unavailable for mlp models; use 'fisher'")
        if self.anchor.delta == 0 and self.model.kind != "linear_regression":
            # On separable tasks a classifier's unridged loss has no minimizer.
            raise ConfigError(f"anchor.delta must be > 0 for {self.model.kind} models")
        for method in self.methods:  # the sweep's merges would refuse them only after training
            _check_weights(method, self.alphas)

    @classmethod
    def from_dict(cls, payload) -> "ExperimentSpec":
        """Build a spec from a parsed JSON object, rejecting unknown keys."""
        return _from_json(cls, payload, "experiment config")


#: Config sections, by the annotation of the :class:`ExperimentSpec` field holding each.
_SECTIONS = {c.__name__: c for c in (ModelSpec, PerTaskConfig, AnchorConfig)}


def _from_json(cls, payload, what: str):
    """The config boundary: build ``cls`` and its sections from parsed JSON.
    Unknown keys are rejected; each ``__post_init__`` checks its fields."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise ConfigError(f"unknown keys in {what}: {unknown}")
    kwargs = {
        name: _from_json(_SECTIONS[types[name]], value, f"config section {name!r}") if types[name] in _SECTIONS else value
        for name, value in payload.items()
    }
    try:  # a missing required key fails as TypeError
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def load_spec(path) -> ExperimentSpec:
    """Read an :class:`ExperimentSpec` from a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"failed to read config {path!s}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!s} is not valid JSON: {exc}") from exc
    return ExperimentSpec.from_dict(payload)


def default_spec() -> ExperimentSpec:
    """The desk-scale default: five 2-D logistic blob tasks."""
    return ExperimentSpec()


def default_removal_spec() -> ExperimentSpec:
    """Default removal run: three pooled blob blocks, drop the last one."""
    return ExperimentSpec(
        name="removal",
        n_tasks=3,
        per_task=PerTaskConfig(n_train=150, n_test=200, separation=2.0, spread_degrees=90.0),
        anchor=AnchorConfig(delta=0.1),
        curvature="exact",
        methods=REMOVAL_METHODS,
        alphas=(1.0,),
    )


def resolve_seed(spec: ExperimentSpec, override=None) -> int:
    """Explicit override beats the ``GRADMERGE_SEED`` env var beats the config; negative seeds are refused."""
    env = os.environ.get(ENV_SEED_VAR)
    if override is not None:
        if not isinstance(override, numbers.Integral) or isinstance(override, bool):
            raise ConfigError(f"seed must be an integer, got {override!r}")
        seed, source = int(override), "seed"
    elif env is not None:
        try:
            seed, source = int(env), ENV_SEED_VAR
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED_VAR} must be an integer, got {env!r}") from exc
    else:
        seed, source = spec.per_task.seed, "per_task.seed"
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return seed


def _direction(n_features: int, angle: float) -> np.ndarray:
    u = np.zeros(n_features)
    if n_features == 1:
        u[0] = 1.0
    else:
        u[0] = math.cos(angle)
        u[1] = math.sin(angle)
    return u


def _blob_task(rng, cfg: PerTaskConfig, buf: np.ndarray, mean: np.ndarray, n: int, task_id: str, seed: int) -> TaskDataset:
    n_pos = n - n // 2
    z = buf[:n]
    rng.standard_normal(out=z)  # the same stream as drawing the n_pos and n // 2 rows apart
    z *= cfg.noise
    z[:n_pos] += mean
    z[n_pos:] -= mean
    targets = np.concatenate([np.ones(n_pos), np.zeros(n // 2)])
    order = rng.permutation(n)
    return TaskDataset(task_id, z[order], targets[order], seed)


def _planted_linear_task(rng, cfg: PerTaskConfig, theta_star: np.ndarray, n: int, task_id: str, seed: int) -> TaskDataset:
    d = theta_star.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    q *= rng.uniform(0.5, 2.0, size=d) * math.sqrt(n)
    targets = q @ theta_star + cfg.noise * rng.standard_normal(n)
    return TaskDataset(task_id, q, targets, seed)


def gen_tasks(spec: ExperimentSpec, seed=None) -> tuple[tuple[TaskDataset, ...], tuple[TaskDataset, ...]]:
    """Synthesize a run's split: ``(trains, tests)``, one of each per task.

    Classification tasks are origin-symmetric Gaussian blobs whose class
    mean rotates by equal steps, from 0 for task 0 to ``spread_degrees``
    for the last task; regression tasks plant a random weight vector per
    task over orthogonalized designs (the spec keeps each at least
    ``n_features`` rows tall), which keeps the squared-loss curvature
    diagonal exact.  The same spec and seed always reproduce the same sets.

    Blob sets draw into the first rows of one ``(max(n_train, n_test),
    n_features)`` buffer per call and keep only its shuffled gather.
    """
    seed = resolve_seed(spec, seed)
    rng = np.random.default_rng(seed)
    cfg = spec.per_task
    d = spec.model.n_features
    classify = spec.model.kind != "linear_regression"
    spread = math.radians(cfg.spread_degrees)
    buf = np.empty((max(cfg.n_train, cfg.n_test), d))
    trains: list[TaskDataset] = []
    tests: list[TaskDataset] = []
    for t in range(spec.n_tasks):
        task_id = f"task{t}"
        if classify:
            angle = spread * t / (spec.n_tasks - 1)
            mean = 0.5 * cfg.separation * _direction(d, angle)
            trains.append(_blob_task(rng, cfg, buf, mean, cfg.n_train, task_id, seed))
            tests.append(_blob_task(rng, cfg, buf, mean, cfg.n_test, task_id, seed))
        else:
            theta_star = rng.standard_normal(d)
            trains.append(_planted_linear_task(rng, cfg, theta_star, cfg.n_train, task_id, seed))
            tests.append(_planted_linear_task(rng, cfg, theta_star, cfg.n_test, task_id, seed))
    return tuple(trains), tuple(tests)


def estimate_task_curvature(spec: ExperimentSpec, theta: ParamVector, data: TaskDataset) -> DiagCurvature:
    """The curvature diagonal per ``spec.curvature``, for the anchor and every task."""
    if spec.curvature == "exact":
        return exact_hessian_diag(spec.model, theta, data)
    return fisher_diag(spec.model, theta, data)


# The anchor penalty ``h0`` comes from the same estimator.  A second name, not
# a wrapper, so that ``perfbench/spans.py`` can wrap each call site once.
estimate_anchor_h0 = estimate_task_curvature


@dataclass(frozen=True, eq=False)
class PipelineState:
    """Trained anchor (carrying ``h0``), fine-tuned tasks and their split; :meth:`merge_inputs` builds the run's merge."""

    spec: ExperimentSpec
    seed: int
    train_sets: tuple[TaskDataset, ...]
    test_sets: tuple[TaskDataset, ...]
    anchor: Checkpoint
    tasks: tuple[Checkpoint, ...]

    def merge_inputs(self, alpha: float) -> MergeInputs:
        """The anchor and every fine-tuned task at weight ``alpha``."""
        return MergeInputs(self.anchor, tuple((alpha, ck) for ck in self.tasks), self.spec.anchor.delta)


def train_stage(
    spec: ExperimentSpec, seed: int, anchor_data: TaskDataset, blocks
) -> tuple[Checkpoint, tuple[Checkpoint, ...]]:
    """The anchored training stage that every protocol shares.

    Trains the anchor on ``anchor_data`` with seed ``seed``, estimates its
    curvature ``h0`` per ``spec.curvature``, and fine-tunes each ``(t,
    data)`` of ``blocks`` under the penalty ``h0 + spec.anchor.delta``
    with seed ``seed + t``.  Returns the anchor checkpoint, which carries
    ``h0``, and the fine-tuned checkpoints, which carry no curvature:
    :func:`with_task_curvature` is the separate step that adds it.
    """
    base = train_anchor(spec.model, anchor_data, spec.anchor.delta, seed)
    anchor = Checkpoint(base.params, estimate_anchor_h0(spec, base.params, anchor_data), base.meta)
    tuned = tuple(finetune_task(spec.model, data, anchor, spec.anchor.delta, seed + t) for t, data in blocks)
    return anchor, tuned


def with_task_curvature(spec: ExperimentSpec, tasks, datasets) -> tuple[Checkpoint, ...]:
    """The task-curvature step: each checkpoint plus its diagonal on its own training data."""
    return tuple(
        Checkpoint(ck.params, estimate_task_curvature(spec, ck.params, data), ck.meta)
        for ck, data in zip(tasks, datasets, strict=True)
    )


def run_pipeline(spec: ExperimentSpec, seed=None) -> PipelineState:
    """Train the anchor on task 0 and fine-tune every remaining task from it.

    The anchor checkpoint carries the estimated penalty diagonal and task
    checkpoints carry their own curvature estimates, so the returned
    state is ready for any merge in the catalog.
    """
    seed = resolve_seed(spec, seed)
    trains, tests = gen_tasks(spec, seed)
    anchor, tuned = train_stage(spec, seed, trains[0], enumerate(trains[1:], start=1))
    return PipelineState(spec, seed, trains, tests, anchor, with_task_curvature(spec, tuned, trains[1:]))


def _require_runnable(spec: ExperimentSpec, allowed, protocol: str, state: PipelineState | None = None, seed=None) -> None:
    """Refuse a method of another kind, or a ``state`` trained under another spec
    than ``spec`` (``methods`` and ``alphas`` aside: the protocol reads those)
    or under another seed than ``seed`` or, if that is None, ``GRADMERGE_SEED``
    when set (``per_task.seed`` is part of the spec)."""
    bad = [m for m in spec.methods if m not in allowed]
    if bad:
        raise ConfigError(f"{protocol} only handles the methods {allowed}, got {bad}")
    if state is not None:
        names = [f.name for f in dataclasses.fields(spec) if f.name not in ("methods", "alphas")]
        differ = [name for name in names if getattr(spec, name) != getattr(state.spec, name)]
        if differ:
            raise ConfigError(f"{protocol} was given a state trained under another spec: its {differ} differ")
        given = resolve_seed(spec, seed) if seed is not None or ENV_SEED_VAR in os.environ else state.seed
        if given != state.seed:
            raise ConfigError(f"{protocol} was given seed {given} with a state trained at seed {state.seed}")


@dataclass(frozen=True, eq=False)
class MethodOutcome:
    """Per-task and aggregate test metrics for one set of parameters.

    ``avg`` is the mean of the per-aggregate-task values and ``true_avg``
    pools every test prediction before scoring, so unequal test sizes
    weight differently between the two.
    """

    method: str
    alpha: float
    params: ParamVector
    metric: str
    per_task: tuple[tuple[str, float], ...]
    avg: float
    true_avg: float


def _evaluate_rows(spec: ExperimentSpec, values: np.ndarray, eval_sets, aggregate_sets=None):
    """Score every row of ``values`` ``(R, d)`` on ``eval_sets``.

    Returns the per-set scores of the eval sets as a list of ``(R,)``
    columns plus the ``(R,)`` ``avg`` and ``true_avg`` over
    ``aggregate_sets`` (default: ``eval_sets``).  Each distinct set is
    checked once; a classifier's targets must be ``{0,1}``, the rule
    :func:`models.accuracy` applies.  Each distinct row, keyed by its exact
    bytes, is scored once and its scores are copied to its repeats.
    Scoring is set-major: a classifier's distinct rows take one
    :func:`models._predict` call per distinct set, and a linear row its own
    product ``X @ v``.  A row's scores depend only on the row and the set,
    so a caller may stack any rows into one call.  Pooled accuracy is the
    total count of correct predictions over the total n; a pooled loss
    averages the concatenated per-example losses.
    """
    model = spec.model
    classify = model.kind != "linear_regression"
    eval_sets = tuple(eval_sets)
    agg = tuple(eval_sets if aggregate_sets is None else aggregate_sets)
    if not agg:
        raise ConfigError("evaluation needs at least one aggregate dataset")
    distinct = {id(ds): ds for ds in (*eval_sets, *agg)}
    for ds in distinct.values():
        _check_data(model, ds)
    slots: dict[bytes, int] = {}
    inverse = np.array([slots.setdefault(row.tobytes(), len(slots)) for row in values], dtype=np.intp)
    unique = np.empty((len(slots), values.shape[1]))
    unique[inverse] = values
    scored = {}  # id(dataset) -> (U,) correct-prediction counts, or (U, n) losses
    for key, ds in distinct.items():
        if classify:  # a uint32 sum is exact below 2**32 rows, and twice as fast as count_nonzero
            scored[key] = (_predict(model, unique, ds.inputs) == (ds.targets == 1.0)).sum(axis=1, dtype=np.uint32)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.stack([_forward(model, v, ds.inputs)[0] for v in unique])
                scored[key] = _losses(model, out, ds.targets)

    def score(ds: TaskDataset) -> np.ndarray:
        return scored[id(ds)] / ds.n if classify else scored[id(ds)].mean(axis=1)

    per_task = [score(ds) for ds in eval_sets]
    avg = np.stack([score(ds) for ds in agg], axis=1).mean(axis=1)
    if classify:
        true_avg = sum(scored[id(ds)] for ds in agg) / sum(ds.n for ds in agg)
    else:
        true_avg = np.concatenate([scored[id(ds)] for ds in agg], axis=1).mean(axis=1)
        if not all(np.isfinite(v).all() for v in (*per_task, avg, true_avg)):
            raise NumericError("loss overflowed to a non-finite value")
    return [col[inverse] for col in per_task], avg[inverse], true_avg[inverse]


def _outcomes(spec: ExperimentSpec, rows, eval_sets, aggregate_sets=None) -> list[MethodOutcome]:
    """Score ``rows``, each ``(label, alpha, theta)``, in one :func:`_evaluate_rows` call.

    ``aggregate_sets`` (default: ``eval_sets``) controls which sets enter
    the two aggregates; the per-task column always covers ``eval_sets``.
    Each test set is checked and prepared once for all the rows, and each
    row scores to the same bits as alone or in a sweep.
    """
    layout = spec.model.layout()
    if any(theta.layout != layout for _, _, theta in rows):
        raise LayoutError("theta layout does not match the model's canonical layout")
    metric = "accuracy" if spec.model.kind != "linear_regression" else "loss"
    eval_sets = tuple(eval_sets)
    per_task, avg, true_avg = _evaluate_rows(spec, np.stack([t.values for _, _, t in rows]), eval_sets, aggregate_sets)
    columns, avg, true_avg = [col.tolist() for col in per_task], avg.tolist(), true_avg.tolist()
    return [
        MethodOutcome(
            label, float(alpha), theta, metric,
            tuple((ds.task_id, col[i]) for ds, col in zip(eval_sets, columns)), avg[i], true_avg[i],
        )
        for i, (label, alpha, theta) in enumerate(rows)
    ]


def evaluate_params(
    spec: ExperimentSpec,
    method: str,
    alpha: float,
    theta: ParamVector,
    eval_sets,
    aggregate_sets=None,
) -> MethodOutcome:
    """Score parameters on each test set plus the pooled concatenation.

    The one-row call of :func:`_outcomes`, which scores every protocol's
    rows, so ``theta`` scores by the same rule and to the same bits as in
    ``report``, ``remove`` or a sweep.  A logistic per-task accuracy counts exact signs
    of ``x . theta`` (float32 screen, float64 recheck, exact sum) and
    equals :func:`models.accuracy`; a linear loss reads the row's own
    product ``X @ theta``.
    """
    (outcome,) = _outcomes(spec, [(method, alpha, theta)], eval_sets, aggregate_sets)
    return outcome


def train_target(state: PipelineState, alpha: float) -> Checkpoint:
    """Joint-target baseline trained on every added task at one weight."""
    added = list(state.train_sets[1:])
    seed = state.seed + state.spec.n_tasks
    alphas = [float(alpha)] * len(added)
    return train_joint_target(state.spec.model, added, alphas, state.anchor, state.spec.anchor.delta, seed)


def _metric_rows(outcome: MethodOutcome) -> list[str]:
    head = f"{outcome.method},{outcome.alpha!r}"
    scores = (*outcome.per_task, ("avg", outcome.avg), ("true_avg", outcome.true_avg))
    return [f"{head},{task_id},{outcome.metric},{value!r}" for task_id, value in scores]


def output_dir(path) -> Path:
    """Create a run's output directory and its parents; failures raise IoError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"failed to create output directory {out!s}: {exc}") from exc
    return out


def write_text(path, text: str) -> None:
    """Write one output file; failures raise IoError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"failed to write {path!s}: {exc}") from exc


def _run_checkpoints(anchor: Checkpoint, tasks) -> list[tuple[str, Checkpoint]]:
    """A run's ``(stem, checkpoint)`` pairs: ``anchor`` and ``task1`` .. ``task{T-1}``."""
    return [("anchor", anchor), *((f"task{t}", ck) for t, ck in enumerate(tasks, start=1))]


def save_run(out: Path, anchor: Checkpoint, tasks) -> None:
    """Write a run's checkpoints under ``out`` as ``anchor`` and ``task1`` .. ``task{T-1}``."""
    for stem, ck in _run_checkpoints(anchor, tasks):
        save_checkpoint(ck, out / stem)


def _write_run(out: Path, checkpoints, rows, texts=()) -> None:
    """A protocol's write phase, once every row is scored: each ``(stem,
    checkpoint)``, then ``summary.csv`` holding ``rows``, then each ``(name, text)``."""
    for stem, ck in checkpoints:
        save_checkpoint(ck, out / stem)
    write_text(out / "summary.csv", "".join(f"{row}\n" for row in (SUMMARY_HEADER, *rows)))
    for name, text in texts:
        write_text(out / name, text)


@dataclass(frozen=True, eq=False)
class AdditionResult:
    """Everything :func:`run_addition` computed, plus the CSV rows it wrote (``table``: ``report.csv``'s)."""

    state: PipelineState
    outcomes: dict[str, MethodOutcome]
    target: Checkpoint
    rows: tuple[str, ...]
    table: tuple[MismatchRow, ...]


def run_addition(
    spec: ExperimentSpec,
    out_dir=None,
    seed=None,
    alpha: float = 1.0,
    state: PipelineState | None = None,
) -> AdditionResult:
    """Anchor-plus-tasks protocol: merge every configured method and score it.

    Fine-tuned tasks 1..T-1 are merged into the task-0 anchor at weight
    ``alpha``, and the joint target is trained on the added tasks at the
    same weight.  Every merge, an "all-data" row for the target and an
    "anchor" row for the unmerged starting point are then scored on the
    added tasks' test sets in one pass, and the gradient-mismatch table
    scores each merge against the target.  Only then, when ``out_dir`` is
    given, are the anchor, task, merged and target checkpoints,
    ``summary.csv`` and ``report.csv`` written, so a run that fails leaves
    ``out_dir`` empty.
    A ``state`` given must be a run of ``spec`` (and ``seed``, if given), whatever its ``methods``.
    """
    _require_runnable(spec, ADDITION_METHODS, "run_addition", state, seed)
    alpha = task_weight(alpha)
    out = output_dir(out_dir) if out_dir is not None else None
    if state is None:
        state = run_pipeline(spec, seed)
    inputs = state.merge_inputs(alpha)
    merges = {method: merge(method, inputs) for method in spec.methods}
    target = train_target(state, alpha)
    rows = [(m, alpha, params) for m, params in merges.items()]
    rows += [("all-data", alpha, target.params), ("anchor", 0.0, state.anchor.params)]
    outcomes = {o.method: o for o in _outcomes(spec, rows, state.test_sets[1:])}
    summary = [row for outcome in outcomes.values() for row in _metric_rows(outcome)]
    table = tuple(mismatch_vs_error_table(fixture_from_state(state, target.params, alpha), merges))
    if out is not None:
        weights = [alpha] * len(state.tasks)
        merged = [(f"merged-{m}", merged_checkpoint(m, params, weights)) for m, params in merges.items()]
        checkpoints = [*_run_checkpoints(state.anchor, state.tasks), *merged, ("target", target)]
        _write_run(out, checkpoints, summary, [("report.csv", mismatch_table_csv(table))])
    return AdditionResult(state, outcomes, target, tuple(summary), table)


@dataclass(frozen=True, eq=False)
class RemovalResult:
    """Removal-protocol outputs: distances to retrain plus test metrics."""

    removed_task_id: str
    outcomes: dict[str, MethodOutcome]
    dists: dict[str, float]
    rows: tuple[str, ...]


def run_removal(spec: ExperimentSpec, out_dir=None, seed=None) -> RemovalResult:
    """Forget the last task block of an anchor trained on pooled data.

    The anchor trains on every block pooled (the spec guarantees at least
    two, each with data); the removed block's task model is fine-tuned
    from it under the estimated penalty, then subtracted either as a plain
    increment ("remove-ta") or with the curvature preconditioner
    ("remove-ours").  Both are compared against retraining on the retained
    blocks alone, via parameter distance and test metrics: every removal
    and the "retrain" and "anchor" rows are scored in one pass, and only
    then, when ``out_dir`` is given, are the checkpoints and
    ``summary.csv`` written, so a run that fails leaves ``out_dir`` empty.
    """
    _require_runnable(spec, REMOVAL_METHODS, "run_removal")
    seed = resolve_seed(spec, seed)
    trains, tests = gen_tasks(spec, seed)
    removed = spec.n_tasks - 1
    out = output_dir(out_dir) if out_dir is not None else None
    pooled = TaskDataset("large", np.vstack([s.inputs for s in trains]), np.concatenate([s.targets for s in trains]), seed)
    anchor, tuned = train_stage(spec, seed, pooled, [(removed, trains[removed])])
    (task_ck,) = with_task_curvature(spec, tuned, [trains[removed]])
    n_kept = pooled.n - trains[removed].n  # the retained blocks are the pooled rows before the removed one
    kept = TaskDataset("kept", pooled.inputs[:n_kept], pooled.targets[:n_kept], pooled.seed)
    hbar_minus = estimate_task_curvature(spec, anchor.params, kept)
    rows = []
    for method in spec.methods:
        if method == "remove-ta":
            theta = merge_task_arithmetic(MergeInputs(anchor, ((-1.0, task_ck),), spec.anchor.delta))
        else:
            theta = remove_task(MergeInputs(anchor, ((1.0, task_ck),), spec.anchor.delta), hbar_minus)
        rows.append((method, 1.0, theta))
    retrain = train_anchor(spec.model, kept, spec.anchor.delta, seed)
    rows += [("retrain", 0.0, retrain.params), ("anchor", 0.0, anchor.params)]
    outcomes = {o.method: o for o in _outcomes(spec, rows, tests, tests[:removed])}
    dists = {label: float(np.linalg.norm(theta.values - retrain.params.values)) for label, _, theta in rows}
    summary = [
        row
        for label, outcome in outcomes.items()
        for row in (*_metric_rows(outcome), f"{label},{outcome.alpha!r},all,dist_retrain,{dists[label]!r}")
    ]
    if out is not None:
        saved = [
            (label if label == "retrain" else f"merged-{label}", Checkpoint(theta, meta={"method": label}))
            for label, _, theta in rows[:-1]  # the anchor row is the "anchor" checkpoint itself
        ]
        _write_run(out, [("anchor", anchor), ("removed-task", task_ck), *saved], summary)
    return RemovalResult(f"task{removed}", outcomes, dists, tuple(summary))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Aggregate metric traces across the weight grid, per method."""

    metric: str
    series: dict[str, tuple[tuple[float, float], ...]]
    rows: tuple[str, ...]


def sweep_alpha(
    spec: ExperimentSpec, out_dir=None, seed=None, state: PipelineState | None = None
) -> SweepResult:
    """Evaluate every method in ``spec.methods`` across ``spec.alphas``.

    Training happens once and the test sets are checked once; each method
    then merges the whole grid in one broadcast, and every method's grid is
    stacked into one array scored in one :func:`_evaluate_rows` call, which
    prepares each test set once and scores each distinct vector once across
    the sweep (every method's weight-0 row is the anchor).  Only then, when
    ``out_dir`` is given, are ``summary.csv`` (the methods' aggregate rows
    in order) and one two-column ``sweep_<method>.dat`` per method written,
    so a merge that fails (say, on a pooled curvature that a negative weight
    leaves non-positive) leaves ``out_dir`` empty.  Duplicate grid values
    produce duplicate rows, deterministically.  A ``state`` given must be a
    run of ``spec`` (and ``seed``, if given), whatever its ``methods`` and ``alphas``.
    """
    _require_runnable(spec, ADDITION_METHODS, "sweep_alpha", state, seed)
    out = output_dir(out_dir) if out_dir is not None else None
    if state is None:
        state = run_pipeline(spec, seed)
    inputs = state.merge_inputs(1.0)
    metric = "accuracy" if spec.model.kind != "linear_regression" else "loss"
    values = np.concatenate([merge_grid(method, inputs, spec.alphas) for method in spec.methods])
    _, avgs, true_avgs = _evaluate_rows(spec, values, state.test_sets[1:])
    alpha_text = [repr(a) for a in spec.alphas]
    series: dict[str, tuple[tuple[float, float], ...]] = {}
    summary: list[str] = []
    dats = []
    for method, avg, true_avg in zip(spec.methods, avgs.reshape(len(spec.methods), -1), true_avgs.reshape(len(spec.methods), -1)):
        avg = avg.tolist()
        series[method] = tuple(zip(spec.alphas, avg))
        avg_text = [repr(v) for v in avg]
        dats.append((f"sweep_{method}.dat", "".join(f"{a} {v}\n" for a, v in zip(alpha_text, avg_text))))
        summary += [
            row
            for a, v, t in zip(alpha_text, avg_text, true_avg.tolist())
            for row in (f"{method},{a},avg,{metric},{v}", f"{method},{a},true_avg,{metric},{t!r}")
        ]
    if out is not None:
        _write_run(out, (), summary, dats)
    return SweepResult(metric, series, tuple(summary))


def fixture_from_state(state: PipelineState, target: ParamVector, alpha: float) -> DiagnosticFixture:
    """Adapt a trained pipeline into a diagnostics fixture of the merge :func:`run_addition` makes at ``alpha``."""
    splits = tuple(zip(state.train_sets[1:], state.test_sets[1:]))
    return DiagnosticFixture(state.spec.name, state.spec.model, state.merge_inputs(alpha), target, splits)
