"""Desk-scale experiment harness: data generation, training, merging, reports.

This module wires the library end to end.  A single JSON-serializable
:class:`ExperimentSpec` describes one run: it synthesizes per-task
datasets, trains an anchor and per-task fine-tunes, estimates diagonal
curvatures, applies the merge catalog, and emits deterministic CSV
summaries plus two-column sweep files that any plotting tool can read.
Identical spec and seed always reproduce byte-identical outputs.

Three protocols are provided: :func:`run_addition` merges every
configured method and scores it against a jointly trained baseline,
:func:`run_removal` subtracts one task's contribution from an anchor
trained on pooled data and compares against retraining without it, and
:func:`sweep_alpha` traces aggregate metrics across a grid of task
weights without retraining anything; it merges the whole grid in one
batch per method and scores each distinct merged row once.
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
from .diagnostics import DiagnosticFixture
from .errors import ConfigError, IoError, LayoutError, NumericError, check_field_types
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
from .models import ModelSpec, TaskDataset, _check_data, _forward, _losses, accuracy, loss  # noqa: F401
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


def parse_alphas(value) -> tuple[float, ...]:
    """A weight grid as floats: a nonempty sequence of finite real numbers.

    A string, a bare number and a ``bool`` element are refused, not coerced.
    """
    try:
        values = () if isinstance(value, (str, bytes)) else tuple(value)
    except TypeError:
        values = ()
    finite = all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) for v in values)
    if not (values and finite):
        raise ConfigError(f"alphas must be a nonempty list of finite numbers, got {value!r}")
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class PerTaskConfig:
    """Synthetic dataset-generator knobs shared by every task.

    Classification tasks put class 1 at ``+mean`` and class 0 at
    ``-mean`` where the mean has norm ``separation / 2`` and rotates by
    equal steps up to ``spread_degrees`` across tasks.  ``seed`` is the
    run's seed when neither an integer seed override (``--seed``, or a
    protocol's ``seed`` argument) nor ``GRADMERGE_SEED`` gives one.
    """

    n_train: int = 500
    n_test: int = 500
    noise: float = 0.6
    separation: float = 2.2
    spread_degrees: float = 80.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_train < 1:
            raise ConfigError("n_train must be >= 1")
        if self.n_test < 1:
            raise ConfigError("n_test must be >= 1")
        for name in ("noise", "separation", "spread_degrees"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class AnchorConfig:
    """The anchor penalty's ridge strength ``delta``, finite and >= 0."""

    delta: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ConfigError(f"anchor delta must be finite and >= 0, got {self.delta!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, JSON-serializable description of one experiment run.

    ``methods`` may mix the addition catalog with the two removal
    methods, but each protocol accepts only its own kind.  ``loss`` must
    name the model kind's own loss (``model.loss``); it stays a key so
    that existing configs load.  ``curvature`` picks the one diagonal
    estimator ("fisher" or "exact") for the anchor penalty ``h0`` and for
    every task.  MLPs have no exact Hessian diagonal, so they take
    "fisher".  A linear_regression task needs ``n_train`` and ``n_test``
    of at least ``model.n_features``.  ``alphas`` is a nonempty list of
    finite numbers (by default 0.0, 0.1, ..., 1.0); it may hold negative
    weights only if no method reads them as mixture masses (``am``,
    ``wam``, ``fa``, ``ties``).
    """

    name: str = "default"
    model: ModelSpec = field(default_factory=lambda: ModelSpec("logistic", 2))
    loss: str = "logistic_nll"
    n_tasks: int = 5
    per_task: PerTaskConfig = field(default_factory=PerTaskConfig)
    anchor: AnchorConfig = field(default_factory=AnchorConfig)
    curvature: str = "fisher"
    methods: tuple[str, ...] = ADDITION_METHODS
    alphas: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def __post_init__(self):
        check_field_types(self)
        if not self.name:
            raise ConfigError("experiment name must be a nonempty string")
        if self.loss != self.model.loss:
            raise ConfigError(f"{self.model.kind} models use the {self.model.loss} loss, not {self.loss!r}")
        if self.n_tasks < 2:  # task 0 trains the anchor; the rest are merged into it or removed from it
            raise ConfigError(f"n_tasks must be >= 2, got {self.n_tasks}")
        rows, d = (self.per_task.n_train, self.per_task.n_test), self.model.n_features
        if self.model.kind == "linear_regression" and min(rows) < d:  # a planted task orthogonalizes an (n, d) design
            raise ConfigError(f"linear_regression needs n_train and n_test >= n_features ({d}), got {rows}")
        if self.curvature not in CURVATURE_SOURCES:
            raise ConfigError(f"curvature must be one of {CURVATURE_SOURCES}, got {self.curvature!r}")
        if self.model.kind == "mlp" and self.curvature == "exact":
            raise ConfigError("exact curvature is unavailable for mlp models; use 'fisher'")
        if self.anchor.delta == 0 and self.model.kind != "linear_regression":
            # On separable tasks a classifier's unridged loss has no minimizer.
            raise ConfigError(f"anchor.delta must be > 0 for {self.model.kind} models")
        methods = tuple(self.methods)
        if not methods:
            raise ConfigError("methods must be nonempty")
        unknown = [m for m in methods if m not in HARNESS_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; expected a subset of {HARNESS_METHODS}")
        if len(set(methods)) != len(methods):
            raise ConfigError("methods must not contain duplicates")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "alphas", parse_alphas(self.alphas))
        for method in methods:  # the sweep's merges would refuse them only after training
            _check_weights(method, self.alphas)

    @classmethod
    def from_dict(cls, payload) -> "ExperimentSpec":
        """Build a spec from a parsed JSON object, rejecting unknown keys."""
        return _from_json(cls, payload, "experiment config")


#: Config sections, by the annotation of the :class:`ExperimentSpec` field holding each.
_SECTIONS = {c.__name__: c for c in (ModelSpec, PerTaskConfig, AnchorConfig)}


def _from_json(cls, payload, what: str):
    """The config boundary: build ``cls`` and its sections from parsed JSON.
    Unknown keys are rejected; each ``__post_init__`` checks its field types."""
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
    try:  # a wrong-typed value (``"methods": 5``) fails as TypeError or ValueError
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


def _require_runnable(spec: ExperimentSpec, allowed, protocol: str, state: PipelineState | None = None) -> None:
    """Refuse a method of another kind, or a ``state`` trained under another spec
    than ``spec`` (``methods`` and ``alphas`` aside: the protocol reads those)."""
    bad = [m for m in spec.methods if m not in allowed]
    if bad:
        raise ConfigError(f"{protocol} only handles the methods {allowed}, got {bad}")
    if state is not None:
        names = [f.name for f in dataclasses.fields(spec) if f.name not in ("methods", "alphas")]
        differ = [name for name in names if getattr(spec, name) != getattr(state.spec, name)]
        if differ:
            raise ConfigError(f"{protocol} was given a state trained under another spec: its {differ} differ")


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


def _scoring_sets(spec: ExperimentSpec, eval_sets, aggregate_sets=None):
    """Check each distinct test set once, for any number of :func:`_evaluate_rows` calls.

    Returns ``(eval_sets, aggregate_sets, targets)``; ``aggregate_sets``
    defaults to ``eval_sets`` and ``targets`` maps ``id(ds)`` to what the
    set is scored against.  A classifier's targets must be ``{0,1}``, the
    rule :func:`models.accuracy` applies, and become bool labels here.
    """
    classify = spec.model.kind != "linear_regression"
    eval_sets = tuple(eval_sets)
    agg = tuple(eval_sets if aggregate_sets is None else aggregate_sets)
    if not agg:
        raise ConfigError("evaluation needs at least one aggregate dataset")
    targets = {}
    for ds in (*eval_sets, *agg):
        if id(ds) in targets:
            continue
        _check_data(spec.model, ds)
        targets[id(ds)] = (ds.targets == 1.0) if classify else ds.targets
    return eval_sets, agg, targets


def _evaluate_rows(spec: ExperimentSpec, values: np.ndarray, sets):
    """Score every row of ``values`` ``(A, d)`` on ``sets`` from :func:`_scoring_sets`.

    Returns the per-set scores of the eval sets as a list of ``(A,)``
    columns plus the ``(A,)`` ``avg`` and ``true_avg`` over the aggregate
    sets.  Each distinct row, keyed by its exact bytes, is scored once and
    its scores are copied to its repeats.  Linear models take one
    ``(U, d) @ (d, n)`` product per distinct set, the MLP one forward pass
    per distinct row.  Pooled accuracy is the total count of correct
    predictions over the total n; a pooled loss averages the concatenated
    per-example losses.
    """
    eval_sets, agg, targets = sets
    model = spec.model
    classify = model.kind != "linear_regression"
    slots: dict[bytes, int] = {}
    inverse = np.array([slots.setdefault(row.tobytes(), len(slots)) for row in values], dtype=np.intp)
    unique = np.empty((len(slots), values.shape[1]))
    unique[inverse] = values
    scored = {}  # id(dataset) -> (U,) correct-prediction counts, or (U, n) losses
    for ds in (*eval_sets, *agg):
        if id(ds) in scored:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            if model.kind == "mlp":
                out = np.stack([_forward(model, v, ds.inputs)[0] for v in unique])
            else:
                out = unique @ ds.inputs.T
            if classify:  # a uint32 sum is exact below 2**32 rows, and twice as fast as count_nonzero
                scored[id(ds)] = ((out >= 0.0) == targets[id(ds)]).sum(axis=1, dtype=np.uint32)
            else:
                scored[id(ds)] = _losses(model, out, targets[id(ds)])

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


def evaluate_params(
    spec: ExperimentSpec,
    method: str,
    alpha: float,
    theta: ParamVector,
    eval_sets,
    aggregate_sets=None,
) -> MethodOutcome:
    """Score parameters on each test set plus the pooled concatenation.

    ``aggregate_sets`` (default: ``eval_sets``) controls which sets enter
    the two aggregates; the per-task column always covers ``eval_sets``.
    """
    if theta.layout != spec.model.layout():
        raise LayoutError("theta layout does not match the model's canonical layout")
    metric = "accuracy" if spec.model.kind != "linear_regression" else "loss"
    sets = _scoring_sets(spec, eval_sets, aggregate_sets)
    per_task, avg, true_avg = _evaluate_rows(spec, theta.values[None], sets)
    per_task = tuple((ds.task_id, float(col[0])) for ds, col in zip(eval_sets, per_task))
    return MethodOutcome(method, float(alpha), theta, metric, per_task, float(avg[0]), float(true_avg[0]))


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


def save_run(out: Path, anchor: Checkpoint, tasks) -> None:
    """Write a run's checkpoints under ``out`` as ``anchor`` and ``task1`` .. ``task{T-1}``."""
    save_checkpoint(anchor, out / "anchor")
    for t, ck in enumerate(tasks, start=1):
        save_checkpoint(ck, out / f"task{t}")


class _Summary:
    """A run's ``summary.csv`` rows, written as one stream.

    :meth:`add` keeps a batch of rows and, given an output directory,
    appends it to the file and flushes, so partial results survive a
    failure.  The first batch creates the file and writes the header.
    """

    def __init__(self, out: Path | None):
        self.rows: list[str] = []
        self._path = None if out is None else out / "summary.csv"
        self._file = None

    def __enter__(self) -> "_Summary":
        return self

    def __exit__(self, *exc) -> None:
        if self._file is not None:
            self._file.close()

    def add(self, rows) -> None:
        self.rows.extend(rows)
        if self._path is None:
            return
        try:
            if self._file is None:
                self._file = open(self._path, "w")
                self._file.write(SUMMARY_HEADER + "\n")
            self._file.writelines(f"{row}\n" for row in rows)
            self._file.flush()
        except OSError as exc:
            raise IoError(f"failed to write {self._path!s}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class AdditionResult:
    """Everything :func:`run_addition` computed, plus the CSV rows it wrote."""

    state: PipelineState
    outcomes: dict[str, MethodOutcome]
    target: Checkpoint
    rows: tuple[str, ...]


def run_addition(
    spec: ExperimentSpec,
    out_dir=None,
    seed=None,
    alpha: float = 1.0,
    state: PipelineState | None = None,
) -> AdditionResult:
    """Anchor-plus-tasks protocol: merge every configured method and score it.

    Fine-tuned tasks 1..T-1 are merged into the task-0 anchor at weight
    ``alpha`` and evaluated on the added tasks' test sets, alongside an
    "all-data" row for the jointly trained target and an "anchor" row for
    the unmerged starting point.  ``summary.csv`` is one stream that gets
    each method's rows as soon as they are scored, so partial results
    survive a failure, and the anchor, task, target, and merged
    checkpoints are persisted under ``out_dir`` when given.  A ``state``
    given must be a run of ``spec``, whatever its ``methods``.
    """
    _require_runnable(spec, ADDITION_METHODS, "run_addition", state)
    alpha = task_weight(alpha)
    out = output_dir(out_dir) if out_dir is not None else None
    if state is None:
        state = run_pipeline(spec, seed)
    if out is not None:
        save_run(out, state.anchor, state.tasks)
    eval_sets = state.test_sets[1:]
    inputs = state.merge_inputs(alpha)
    outcomes: dict[str, MethodOutcome] = {}
    with _Summary(out) as summary:
        for method in spec.methods:
            params = merge(method, inputs)
            outcomes[method] = evaluate_params(spec, method, alpha, params, eval_sets)
            if out is not None:
                merged = merged_checkpoint(method, params, [alpha] * len(state.tasks))
                save_checkpoint(merged, out / f"merged-{method}")
            summary.add(_metric_rows(outcomes[method]))
        target = train_target(state, alpha)
        outcomes["all-data"] = evaluate_params(spec, "all-data", alpha, target.params, eval_sets)
        outcomes["anchor"] = evaluate_params(spec, "anchor", 0.0, state.anchor.params, eval_sets)
        if out is not None:
            save_checkpoint(target, out / "target")
        summary.add(_metric_rows(outcomes["all-data"]) + _metric_rows(outcomes["anchor"]))
    return AdditionResult(state, outcomes, target, tuple(summary.rows))


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
    blocks alone, via parameter distance and test metrics.
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
    if out is not None:
        save_checkpoint(anchor, out / "anchor")
        save_checkpoint(task_ck, out / "removed-task")
    retrain = train_anchor(spec.model, kept, spec.anchor.delta, seed)
    outcomes: dict[str, MethodOutcome] = {}
    dists: dict[str, float] = {}
    summary = _Summary(out)

    def record(label: str, alpha: float, theta: ParamVector, stem: str | None) -> None:
        outcomes[label] = evaluate_params(spec, label, alpha, theta, tests, tests[:removed])
        dists[label] = float(np.linalg.norm(theta.values - retrain.params.values))
        if out is not None and stem is not None:
            save_checkpoint(Checkpoint(theta, meta={"method": label}), out / stem)
        summary.add(_metric_rows(outcomes[label]) + [f"{label},{alpha!r},all,dist_retrain,{dists[label]!r}"])

    with summary:
        for method in spec.methods:
            if method == "remove-ta":
                theta = merge_task_arithmetic(MergeInputs(anchor, ((-1.0, task_ck),), spec.anchor.delta))
            else:
                theta = remove_task(MergeInputs(anchor, ((1.0, task_ck),), spec.anchor.delta), hbar_minus)
            record(method, 1.0, theta, f"merged-{method}")
        record("retrain", 0.0, retrain.params, "retrain")
        record("anchor", 0.0, anchor.params, None)
    return RemovalResult(f"task{removed}", outcomes, dists, tuple(summary.rows))


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
    then merges the whole grid in one broadcast, and every method's grid
    is merged before the first row is written, so a merge that fails
    (say, on a pooled curvature that a negative weight leaves
    non-positive) leaves no output behind.  Each distinct merged row is
    scored once, with one product per test set.  ``summary.csv`` is one
    stream that gets each method's aggregate rows as soon as they are
    scored, and each method also writes a two-column
    ``sweep_<method>.dat``, ready for any plotting tool.  Duplicate grid
    values produce duplicate rows, deterministically.  A ``state`` given
    must be a run of ``spec``, whatever its ``methods`` and ``alphas``.
    """
    _require_runnable(spec, ADDITION_METHODS, "sweep_alpha", state)
    out = output_dir(out_dir) if out_dir is not None else None
    if state is None:
        state = run_pipeline(spec, seed)
    sets = _scoring_sets(spec, state.test_sets[1:])
    inputs = state.merge_inputs(1.0)
    metric = "accuracy" if spec.model.kind != "linear_regression" else "loss"
    alpha_text = [repr(a) for a in spec.alphas]
    series: dict[str, tuple[tuple[float, float], ...]] = {}
    grids = {method: merge_grid(method, inputs, spec.alphas) for method in spec.methods}
    with _Summary(out) as summary:
        for method, values in grids.items():
            _, avg, true_avg = _evaluate_rows(spec, values, sets)
            avg = avg.tolist()
            series[method] = tuple(zip(spec.alphas, avg))
            avg_text = [repr(v) for v in avg]
            if out is not None:
                dat = "".join(f"{a} {v}\n" for a, v in zip(alpha_text, avg_text))
                write_text(out / f"sweep_{method}.dat", dat)
            summary.add([
                row
                for a, v, t in zip(alpha_text, avg_text, true_avg.tolist())
                for row in (f"{method},{a},avg,{metric},{v}", f"{method},{a},true_avg,{metric},{t!r}")
            ])
    return SweepResult(metric, series, tuple(summary.rows))


def fixture_from_state(state: PipelineState, target: ParamVector, alpha: float) -> DiagnosticFixture:
    """Adapt a trained pipeline into a diagnostics fixture of the merge :func:`run_addition` makes at ``alpha``."""
    splits = tuple(zip(state.train_sets[1:], state.test_sets[1:]))
    return DiagnosticFixture(state.spec.name, state.spec.model, state.merge_inputs(alpha), target, splits)
