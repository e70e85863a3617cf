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
weights without retraining anything.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curvature import FisherConfig, anchor_curvature, exact_hessian_diag, fisher_diag
from .errors import ConfigError, IoError
from .merging import (
    ADDITION_METHODS,
    MaskConfig,
    MergeInputs,
    merge,
    merge_task_arithmetic,
    merged_checkpoint,
    remove_task,
)
from .models import LOSS_KINDS, ModelSpec, TaskDataset, accuracy, loss
from .params import Checkpoint, DiagCurvature, ParamVector, save_checkpoint
from .training import (
    QuadraticAnchor,
    TrainConfig,
    finetune_task,
    train_anchor,
    train_joint_target,
)

__all__ = [
    "ENV_SEED_VAR",
    "REMOVAL_METHODS",
    "HARNESS_METHODS",
    "SUMMARY_HEADER",
    "TIES_MASK",
    "PerTaskConfig",
    "AnchorConfig",
    "ExperimentSpec",
    "parse_alphas",
    "parse_h0_source",
    "load_spec",
    "default_spec",
    "default_removal_spec",
    "resolve_seed",
    "gen_tasks",
    "PipelineState",
    "run_pipeline",
    "MethodOutcome",
    "evaluate_params",
    "estimate_anchor_h0",
    "estimate_task_curvature",
    "merge_checkpoints",
    "merge_with_alpha",
    "train_target",
    "AdditionResult",
    "run_addition",
    "RemovalResult",
    "run_removal",
    "SweepResult",
    "sweep_alpha",
    "fixture_from_state",
    "build_diagnostic_fixture",
]

#: Environment variable that overrides the config seed when set.
ENV_SEED_VAR = "GRADMERGE_SEED"

#: Methods only valid for the removal protocol.
REMOVAL_METHODS = ("remove-ta", "remove-ours")

#: Every method name an ExperimentSpec may list.
HARNESS_METHODS = ADDITION_METHODS + REMOVAL_METHODS

#: Column order of summary.csv rows.
SUMMARY_HEADER = "method,alpha,task,metric,value"

#: Mask settings used for the "ties" method: trim to the top 20% of
#: coordinates and zero out contributions that lose the sign election.
TIES_MASK = MaskConfig(keep_fraction=0.2, elect_sign=True)


def parse_alphas(value) -> tuple[float, ...]:
    """Parse a weight grid: ``"start:stop:step"``, a number, or a sequence.

    Range strings include both endpoints (up to float rounding of the
    step count) and grid values are rounded to twelve decimals so that
    ``"0.0:1.0:0.1"`` yields the clean 0.0, 0.1, ..., 1.0.
    """
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(f"alpha range must look like 'start:stop:step', got {value!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"unparseable alpha range {value!r}") from exc
        if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
            raise ConfigError("alpha range endpoints and step must be finite")
        if step <= 0:
            raise ConfigError("alpha range step must be > 0")
        if stop < start:
            raise ConfigError("alpha range must have stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(round(start + i * step, 12) for i in range(count))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        values = (float(value),)
    else:
        try:
            values = tuple(float(v) for v in value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"alphas must be a range string, a number, or a sequence of numbers, got {value!r}"
            ) from exc
    if not values:
        raise ConfigError("alphas must be nonempty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("alphas must be finite")
    return values


def parse_h0_source(source) -> str:
    """Validate and normalize an anchor-curvature source string.

    Accepted forms are ``"fisher"``, ``"exact"``, and ``"identity:SCALE"``
    (bare ``"identity"`` means scale 1).
    """
    if not isinstance(source, str):
        raise ConfigError(f"anchor curvature source must be a string, got {source!r}")
    if source in ("fisher", "exact"):
        return source
    if source == "identity":
        return "identity:1.0"
    if source.startswith("identity:"):
        tail = source.split(":", 1)[1]
        try:
            scale = float(tail)
        except ValueError as exc:
            raise ConfigError(f"bad identity curvature scale {tail!r}") from exc
        if not (math.isfinite(scale) and scale > 0):
            raise ConfigError("identity curvature scale must be finite and > 0")
        return f"identity:{scale!r}"
    raise ConfigError(
        f"unknown anchor curvature source {source!r}; expected 'fisher', 'exact', or 'identity:SCALE'"
    )


@dataclass(frozen=True)
class PerTaskConfig:
    """Synthetic dataset-generator knobs shared by every task.

    Classification tasks put class 1 at ``+mean`` and class 0 at
    ``-mean`` where the mean has norm ``separation / 2`` and rotates by
    equal steps up to ``spread_degrees`` across tasks.  ``identical``
    clones task 0's draws into every task, which is useful for degenerate
    sanity checks.
    """

    n_train: int = 500
    n_test: int = 500
    noise: float = 0.6
    separation: float = 2.2
    spread_degrees: float = 80.0
    seed: int = 0
    identical: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_train", int(self.n_train))
        object.__setattr__(self, "n_test", int(self.n_test))
        object.__setattr__(self, "seed", int(self.seed))
        if self.n_train < 0:
            raise ConfigError("n_train must be >= 0")
        if self.n_test < 1:
            raise ConfigError("n_test must be >= 1")
        for name in ("noise", "separation", "spread_degrees"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class AnchorConfig:
    """Where the anchor penalty diagonal comes from, plus ridge strength."""

    source: str = "fisher"
    delta: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "source", parse_h0_source(self.source))
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ConfigError(f"anchor delta must be finite and >= 0, got {self.delta!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, JSON-serializable description of one experiment run.

    ``methods`` may mix the addition catalog with the two removal
    methods, but each protocol accepts only its own kind.  ``curvature``
    picks the per-task diagonal estimator ("fisher" or "exact"); the
    anchor's diagonal is governed separately by ``anchor.source``.
    """

    name: str = "default"
    model: ModelSpec = field(default_factory=lambda: ModelSpec("logistic", 2))
    loss: str = "logistic_nll"
    n_tasks: int = 5
    per_task: PerTaskConfig = field(default_factory=PerTaskConfig)
    anchor: AnchorConfig = field(default_factory=AnchorConfig)
    fisher: FisherConfig = field(default_factory=FisherConfig)
    curvature: str = "fisher"
    methods: tuple[str, ...] = ADDITION_METHODS
    alphas: tuple[float, ...] = field(default_factory=lambda: parse_alphas("0.0:1.0:0.1"))
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("experiment name must be a nonempty string")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss!r}; expected one of {LOSS_KINDS}")
        if self.model.kind == "linear_regression" and self.loss != "squared_error":
            raise ConfigError("linear_regression experiments need squared_error loss")
        if self.model.kind == "logistic" and self.loss != "logistic_nll":
            raise ConfigError("logistic experiments need logistic_nll loss")
        object.__setattr__(self, "n_tasks", int(self.n_tasks))
        if self.n_tasks < 1:
            raise ConfigError("n_tasks must be >= 1")
        if self.curvature not in ("fisher", "exact"):
            raise ConfigError(f"curvature must be 'fisher' or 'exact', got {self.curvature!r}")
        if self.curvature == "exact" and self.model.kind == "mlp":
            raise ConfigError("exact curvature is unavailable for mlp models; use 'fisher'")
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

    @classmethod
    def from_dict(cls, payload) -> "ExperimentSpec":
        """Build a spec from a parsed JSON object, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise ConfigError("experiment config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        kwargs = dict(payload)
        sections = (
            ("model", ModelSpec),
            ("per_task", PerTaskConfig),
            ("anchor", AnchorConfig),
            ("fisher", FisherConfig),
            ("train", TrainConfig),
        )
        for key, sub in sections:
            if key in kwargs:
                kwargs[key] = _sub_config(sub, kwargs[key], key)
        return cls(**kwargs)


def _sub_config(cls, payload, what: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {what!r} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigError(f"unknown keys in config section {what!r}: {unknown}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"bad config section {what!r}: {exc}") from exc


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
        anchor=AnchorConfig(source="exact", delta=0.1),
        curvature="exact",
        methods=REMOVAL_METHODS,
        alphas=(1.0,),
    )


def resolve_seed(spec: ExperimentSpec, override=None) -> int:
    """Explicit override beats the ``GRADMERGE_SEED`` env var beats the config."""
    if override is not None:
        return int(override)
    env = os.environ.get(ENV_SEED_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED_VAR} must be an integer, got {env!r}") from exc
    return spec.per_task.seed


def _direction(n_features: int, angle: float) -> np.ndarray:
    u = np.zeros(n_features)
    if n_features == 1:
        u[0] = 1.0
    else:
        u[0] = math.cos(angle)
        u[1] = math.sin(angle)
    return u


def _blob_task(rng, cfg: PerTaskConfig, d: int, mean: np.ndarray, n: int, task_id: str, seed: int) -> TaskDataset:
    n_pos = n - n // 2
    pos = mean + cfg.noise * rng.standard_normal((n_pos, d))
    neg = -mean + cfg.noise * rng.standard_normal((n // 2, d))
    inputs = np.vstack([pos, neg])
    targets = np.concatenate([np.ones(n_pos), np.zeros(n // 2)])
    order = rng.permutation(n)
    return TaskDataset(task_id, inputs[order], targets[order], seed)


def _planted_linear_task(rng, cfg: PerTaskConfig, theta_star: np.ndarray, n: int, task_id: str, seed: int) -> TaskDataset:
    d = theta_star.shape[0]
    if n < d:
        raise ConfigError(f"a planted linear task needs at least {d} examples, got {n}")
    q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    cols = rng.uniform(0.5, 2.0, size=d) * math.sqrt(n)
    inputs = q * cols
    targets = inputs @ theta_star + cfg.noise * rng.standard_normal(n)
    return TaskDataset(task_id, inputs, targets, seed)


def gen_tasks(spec: ExperimentSpec, seed=None) -> list[TaskDataset]:
    """Synthesize ``n_tasks`` train datasets followed by their test sets.

    Classification tasks are origin-symmetric Gaussian blobs whose class
    mean rotates from task to task; regression tasks plant a random
    weight vector per task over orthogonalized designs, which keeps the
    squared-loss curvature diagonal exact.  The same spec and seed always
    reproduce the same list.
    """
    seed = resolve_seed(spec, seed)
    rng = np.random.default_rng(seed)
    cfg = spec.per_task
    d = spec.model.n_features
    classify = spec.model.kind != "linear_regression"
    spread = math.radians(cfg.spread_degrees)
    trains: list[TaskDataset] = []
    tests: list[TaskDataset] = []
    for t in range(spec.n_tasks):
        task_id = f"task{t}"
        if cfg.identical and t > 0:
            trains.append(TaskDataset(task_id, trains[0].inputs, trains[0].targets, seed))
            tests.append(TaskDataset(task_id, tests[0].inputs, tests[0].targets, seed))
            continue
        if classify:
            angle = spread * t / max(spec.n_tasks - 1, 1)
            mean = 0.5 * cfg.separation * _direction(d, angle)
            trains.append(_blob_task(rng, cfg, d, mean, cfg.n_train, task_id, seed))
            tests.append(_blob_task(rng, cfg, d, mean, cfg.n_test, task_id, seed))
        else:
            theta_star = rng.standard_normal(d)
            trains.append(_planted_linear_task(rng, cfg, theta_star, cfg.n_train, task_id, seed))
            tests.append(_planted_linear_task(rng, cfg, theta_star, cfg.n_test, task_id, seed))
    return trains + tests


def _concat_datasets(sets, task_id: str) -> TaskDataset:
    inputs = np.vstack([s.inputs for s in sets])
    targets = np.concatenate([s.targets for s in sets])
    return TaskDataset(task_id, inputs, targets, sets[0].seed)


def estimate_anchor_h0(spec: ExperimentSpec, theta: ParamVector, data: TaskDataset) -> DiagCurvature:
    """Anchor penalty diagonal per ``spec.anchor.source``."""
    source = spec.anchor.source
    if source.startswith("identity"):
        scale = float(source.split(":", 1)[1])
        return anchor_curvature("identity", layout=spec.model.layout(), scale=scale)
    return anchor_curvature(
        source, spec=spec.model, loss_kind=spec.loss, theta=theta, data=data, cfg=spec.fisher
    )


def estimate_task_curvature(spec: ExperimentSpec, theta: ParamVector, data: TaskDataset) -> DiagCurvature:
    """Per-task diagonal per ``spec.curvature``; zeros when the data is empty."""
    if data.n == 0:
        return DiagCurvature.zeros(spec.model.layout())
    if spec.curvature == "exact":
        return exact_hessian_diag(spec.model, spec.loss, theta, data)
    return fisher_diag(spec.model, spec.loss, theta, data, spec.fisher)


@dataclass(frozen=True, eq=False)
class PipelineState:
    """Trained anchor, fine-tuned tasks, and the datasets behind them."""

    spec: ExperimentSpec
    seed: int
    train_sets: tuple[TaskDataset, ...]
    test_sets: tuple[TaskDataset, ...]
    anchor: Checkpoint
    quad: QuadraticAnchor
    tasks: tuple[Checkpoint, ...]


def run_pipeline(spec: ExperimentSpec, seed=None) -> PipelineState:
    """Train the anchor on task 0 and fine-tune every remaining task from it.

    The anchor checkpoint carries the estimated penalty diagonal and task
    checkpoints carry their own curvature estimates, so the returned
    state is ready for any merge in the catalog.
    """
    seed = resolve_seed(spec, seed)
    sets = gen_tasks(spec, seed)
    trains, tests = tuple(sets[: spec.n_tasks]), tuple(sets[spec.n_tasks :])
    cfg = dataclasses.replace(spec.train, seed=seed)
    base = train_anchor(spec.model, spec.loss, trains[0], spec.anchor.delta, cfg)
    h0 = estimate_anchor_h0(spec, base.params, trains[0])
    anchor = Checkpoint.of(base.params, h0, meta=base.meta)
    quad = QuadraticAnchor(anchor.params, h0, spec.anchor.delta)
    tasks = []
    for t in range(1, spec.n_tasks):
        tuned = finetune_task(
            spec.model,
            spec.loss,
            trains[t],
            quad,
            dataclasses.replace(cfg, seed=seed + t),
            anchor_id="anchor",
        )
        curv = estimate_task_curvature(spec, tuned.params, trains[t])
        tasks.append(Checkpoint.of(tuned.params, curv, tuned.anchor_id, tuned.meta))
    return PipelineState(spec, seed, trains, tests, anchor, quad, tuple(tasks))


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
    classify = spec.model.kind != "linear_regression"
    metric = "accuracy" if classify else "loss"

    def score(ds: TaskDataset) -> float:
        if classify:
            return accuracy(spec.model, theta, ds)
        return loss(spec.model, spec.loss, theta, ds, reduce="mean")

    agg = list(eval_sets if aggregate_sets is None else aggregate_sets)
    if not agg:
        raise ConfigError("evaluation needs at least one aggregate dataset")
    per_task = tuple((ds.task_id, score(ds)) for ds in eval_sets)
    avg = float(np.mean([score(ds) for ds in agg]))
    true_avg = score(_concat_datasets(agg, "pooled"))
    return MethodOutcome(method, float(alpha), theta, metric, per_task, avg, true_avg)


def merge_checkpoints(
    anchor: Checkpoint,
    tasks,
    delta: float,
    method: str,
    alpha: float,
    mask: MaskConfig | None = None,
) -> ParamVector:
    """One catalog merge with a uniform weight on every task checkpoint.

    With no task checkpoints, or at ``alpha == 0``, the anchor is returned
    outright: adding nothing leaves the anchor, and short-circuiting makes
    the sweep's left endpoint bitwise exact (the plain average is the one
    method that would otherwise ignore the weights entirely).  ``ties``
    uses ``mask``, by default :data:`TIES_MASK`.
    """
    tasks = tuple(tasks)
    if not tasks or alpha == 0.0:
        return anchor.params
    inputs = MergeInputs(anchor, tuple((float(alpha), ck) for ck in tasks), delta)
    return merge(method, inputs, mask=mask or TIES_MASK)


def merge_with_alpha(
    state: PipelineState, method: str, alpha: float, mask: MaskConfig | None = None
) -> ParamVector:
    """:func:`merge_checkpoints` over a trained pipeline state."""
    return merge_checkpoints(
        state.anchor, state.tasks, state.spec.anchor.delta, method, alpha, mask
    )


def train_target(state: PipelineState, alpha: float) -> Checkpoint:
    """Joint-target baseline trained on every added task at one weight."""
    added = list(state.train_sets[1:])
    if not added:
        return Checkpoint.of(state.anchor.params, anchor_id="anchor")
    cfg = dataclasses.replace(state.spec.train, seed=state.seed + state.spec.n_tasks)
    return train_joint_target(
        state.spec.model,
        state.spec.loss,
        added,
        [float(alpha)] * len(added),
        state.quad,
        cfg,
        anchor_id="anchor",
    )


def _metric_rows(outcome: MethodOutcome) -> list[str]:
    rows = [
        f"{outcome.method},{outcome.alpha!r},{task_id},{outcome.metric},{value!r}"
        for task_id, value in outcome.per_task
    ]
    rows.append(f"{outcome.method},{outcome.alpha!r},avg,{outcome.metric},{outcome.avg!r}")
    rows.append(f"{outcome.method},{outcome.alpha!r},true_avg,{outcome.metric},{outcome.true_avg!r}")
    return rows


def _write_lines(path: Path, header, rows) -> None:
    lines = ([header] if header is not None else []) + list(rows)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"failed to write {path!s}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class AdditionResult:
    """Everything :func:`run_addition` computed, plus the CSV rows it wrote."""

    state: PipelineState
    alpha: float
    outcomes: dict[str, MethodOutcome]
    target: Checkpoint
    rows: tuple[str, ...]


def run_addition(
    spec: ExperimentSpec,
    out_dir=None,
    seed=None,
    alpha: float = 1.0,
    alpha_overrides=None,
    state: PipelineState | None = None,
) -> AdditionResult:
    """Anchor-plus-tasks protocol: merge every configured method and score it.

    Fine-tuned tasks 1..T-1 are merged into the task-0 anchor at weight
    ``alpha`` and evaluated on the added tasks' test sets, alongside an
    "all-data" row for the jointly trained target and an "anchor" row for
    the unmerged starting point.  ``summary.csv`` is rewritten after each
    method so partial results survive a failure, and the anchor, task,
    target, and merged checkpoints are persisted under ``out_dir`` when
    given.  Per-method weight overrides are honored but labeled
    ``<method>-oracle-tuned``: picking the weight on test data is not a
    fair comparison.
    """
    bad = [m for m in spec.methods if m not in ADDITION_METHODS]
    if bad:
        raise ConfigError(f"run_addition only handles addition methods, got {bad}")
    overrides = {m: float(a) for m, a in dict(alpha_overrides or {}).items()}
    unlisted = sorted(set(overrides) - set(spec.methods))
    if unlisted:
        raise ConfigError(f"alpha overrides name methods not in spec.methods: {unlisted}")
    if state is None:
        state = run_pipeline(spec, seed)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(state.anchor, out / "anchor")
        for t, ck in enumerate(state.tasks, start=1):
            save_checkpoint(ck, out / f"task{t}")
    eval_sets = state.test_sets[1:] if len(state.test_sets) > 1 else state.test_sets[:1]
    rows: list[str] = []
    outcomes: dict[str, MethodOutcome] = {}
    for method in spec.methods:
        a = overrides.get(method, float(alpha))
        label = method if method not in overrides else f"{method}-oracle-tuned"
        params = merge_with_alpha(state, method, a)
        outcome = evaluate_params(spec, label, a, params, eval_sets)
        outcomes[label] = outcome
        rows.extend(_metric_rows(outcome))
        if out is not None:
            merged = merged_checkpoint(method, params, [a] * len(state.tasks), state.anchor.anchor_id)
            save_checkpoint(merged, out / f"merged-{method}")
            _write_lines(out / "summary.csv", SUMMARY_HEADER, rows)
    target = train_target(state, float(alpha))
    outcomes["all-data"] = evaluate_params(spec, "all-data", float(alpha), target.params, eval_sets)
    rows.extend(_metric_rows(outcomes["all-data"]))
    outcomes["anchor"] = evaluate_params(spec, "anchor", 0.0, state.anchor.params, eval_sets)
    rows.extend(_metric_rows(outcomes["anchor"]))
    if out is not None:
        save_checkpoint(target, out / "target")
        _write_lines(out / "summary.csv", SUMMARY_HEADER, rows)
    return AdditionResult(state, float(alpha), outcomes, target, tuple(rows))


@dataclass(frozen=True, eq=False)
class RemovalResult:
    """Removal-protocol outputs: distances to retrain plus test metrics."""

    spec: ExperimentSpec
    seed: int
    removed_task_id: str
    anchor: Checkpoint
    retrain: Checkpoint
    outcomes: dict[str, MethodOutcome]
    dists: dict[str, float]
    rows: tuple[str, ...]


def run_removal(spec: ExperimentSpec, out_dir=None, seed=None, datasets=None) -> RemovalResult:
    """Forget the last task block of an anchor trained on pooled data.

    The anchor trains on every block pooled; the removed block's task
    model is fine-tuned from it under the estimated penalty, then
    subtracted either as a plain increment ("remove-ta") or with the
    curvature preconditioner ("remove-ours").  Both are compared against
    retraining on the retained blocks alone, via parameter distance and
    test metrics.  An empty removed block leaves the anchor unchanged.
    ``datasets`` substitutes a pre-built train+test list (as produced by
    :func:`gen_tasks`) for the generated one.
    """
    bad = [m for m in spec.methods if m not in REMOVAL_METHODS]
    if bad:
        raise ConfigError(f"run_removal only handles removal methods, got {bad}")
    if spec.n_tasks < 2:
        raise ConfigError("removal needs at least two task blocks")
    seed = resolve_seed(spec, seed)
    sets = list(datasets) if datasets is not None else gen_tasks(spec, seed)
    if len(sets) != 2 * spec.n_tasks:
        raise ConfigError(
            f"removal needs {2 * spec.n_tasks} datasets (train then test), got {len(sets)}"
        )
    trains, tests = tuple(sets[: spec.n_tasks]), tuple(sets[spec.n_tasks :])
    removed = spec.n_tasks - 1
    pooled = _concat_datasets(trains, "large")
    cfg = dataclasses.replace(spec.train, seed=seed)
    base = train_anchor(spec.model, spec.loss, pooled, spec.anchor.delta, cfg)
    h_full = estimate_anchor_h0(spec, base.params, pooled)
    anchor = Checkpoint.of(base.params, h_full, meta=base.meta)
    quad = QuadraticAnchor(anchor.params, h_full, spec.anchor.delta)
    slice_data = trains[removed]
    if slice_data.n == 0:
        task_ck = Checkpoint.of(anchor.params, DiagCurvature.zeros(spec.model.layout()), "anchor")
    else:
        tuned = finetune_task(
            spec.model,
            spec.loss,
            slice_data,
            quad,
            dataclasses.replace(cfg, seed=seed + removed),
            anchor_id="anchor",
        )
        task_ck = Checkpoint.of(
            tuned.params, estimate_task_curvature(spec, tuned.params, slice_data), "anchor", tuned.meta
        )
    kept = _concat_datasets([trains[t] for t in range(spec.n_tasks) if t != removed], "kept")
    hbar_minus = estimate_task_curvature(spec, anchor.params, kept)
    h0_eff = DiagCurvature(spec.model.layout(), h_full.values + spec.anchor.delta)
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(anchor, out / "anchor")
        save_checkpoint(task_ck, out / "removed-task")
    merged: dict[str, ParamVector] = {}
    for method in spec.methods:
        if method == "remove-ta":
            inputs = MergeInputs(anchor, ((-1.0, task_ck),), spec.anchor.delta)
            merged[method] = merge_task_arithmetic(inputs)
        else:
            merged[method] = remove_task(
                anchor, (1.0, task_ck), hbar_minus, h0_eff, spec.anchor.delta
            )
    retrain = train_anchor(spec.model, spec.loss, kept, spec.anchor.delta, cfg)
    kept_tests = [tests[t] for t in range(spec.n_tasks) if t != removed]
    outcomes: dict[str, MethodOutcome] = {}
    dists: dict[str, float] = {}
    rows: list[str] = []

    def record(label: str, alpha: float, theta: ParamVector, stem: str | None) -> None:
        outcomes[label] = evaluate_params(spec, label, alpha, theta, tests, kept_tests)
        dists[label] = float(np.linalg.norm(theta.values - retrain.params.values))
        rows.extend(_metric_rows(outcomes[label]))
        rows.append(f"{label},{alpha!r},all,dist_retrain,{dists[label]!r}")
        if out is not None:
            if stem is not None:
                save_checkpoint(Checkpoint.of(theta, anchor_id="anchor", meta={"method": label}), out / stem)
            _write_lines(out / "summary.csv", SUMMARY_HEADER, rows)

    for method in spec.methods:
        record(method, 1.0, merged[method], f"merged-{method}")
    record("retrain", 0.0, retrain.params, "retrain")
    record("anchor", 0.0, anchor.params, None)
    return RemovalResult(
        spec, seed, f"task{removed}", anchor, retrain, outcomes, dists, tuple(rows)
    )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Aggregate metric traces across the weight grid, per method."""

    state: PipelineState
    metric: str
    series: dict[str, tuple[tuple[float, float], ...]]
    rows: tuple[str, ...]


def sweep_alpha(
    spec: ExperimentSpec, out_dir=None, seed=None, state: PipelineState | None = None
) -> SweepResult:
    """Evaluate every method in ``spec.methods`` across ``spec.alphas``.

    Training happens once; only merging and scoring repeat per weight.
    Emits aggregate summary rows plus a two-column ``sweep_<method>.dat``
    file per method, ready for any plotting tool.  Duplicate grid values
    produce duplicate rows, deterministically.
    """
    bad = [m for m in spec.methods if m not in ADDITION_METHODS]
    if bad:
        raise ConfigError(f"sweep_alpha only handles addition methods, got {bad}")
    if state is None:
        state = run_pipeline(spec, seed)
    eval_sets = state.test_sets[1:] if len(state.test_sets) > 1 else state.test_sets[:1]
    metric = "accuracy" if spec.model.kind != "linear_regression" else "loss"
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows: list[str] = []
    series: dict[str, tuple[tuple[float, float], ...]] = {}
    for method in spec.methods:
        points = []
        for a in spec.alphas:
            outcome = evaluate_params(
                spec, method, a, merge_with_alpha(state, method, a), eval_sets
            )
            rows.append(f"{method},{a!r},avg,{metric},{outcome.avg!r}")
            rows.append(f"{method},{a!r},true_avg,{metric},{outcome.true_avg!r}")
            points.append((float(a), outcome.avg))
        series[method] = tuple(points)
        if out is not None:
            _write_lines(out / f"sweep_{method}.dat", None, [f"{a!r} {v!r}" for a, v in points])
            _write_lines(out / "summary.csv", SUMMARY_HEADER, rows)
    if out is not None:
        _write_lines(out / "summary.csv", SUMMARY_HEADER, rows)
    return SweepResult(state, metric, series, tuple(rows))


def fixture_from_state(state: PipelineState, target: ParamVector, alpha: float):
    """Adapt a trained pipeline into a diagnostics fixture."""
    from .diagnostics import DiagnosticFixture

    tasks = tuple(
        (float(alpha), ck, state.train_sets[t], state.test_sets[t])
        for t, ck in enumerate(state.tasks, start=1)
    )
    return DiagnosticFixture(
        name=state.spec.name,
        spec=state.spec.model,
        loss_kind=state.spec.loss,
        anchor=state.quad,
        target=target,
        tasks=tasks,
    )


def build_diagnostic_fixture(
    spec: ExperimentSpec, seed=None, alpha: float = 1.0, state: PipelineState | None = None
):
    """Train the full pipeline plus joint target, packaged for diagnostics."""
    if state is None:
        state = run_pipeline(spec, seed)
    return fixture_from_state(state, train_target(state, alpha).params, alpha)
