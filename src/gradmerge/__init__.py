"""Curvature-aware model merging, removal, and diagnostics at desk scale.

The package is organized bottom-up: flat parameter vectors and diagonal
curvatures (:mod:`~gradmerge.params`), tiny differentiable models
(:mod:`~gradmerge.models`), anchored training (:mod:`~gradmerge.training`),
curvature estimators (:mod:`~gradmerge.curvature`), the merge catalog
(:mod:`~gradmerge.merging`), gradient-mismatch diagnostics
(:mod:`~gradmerge.diagnostics`), independent numeric oracles
(:mod:`~gradmerge.oracles`), and an experiment harness plus CLI
(:mod:`~gradmerge.harness`, :mod:`~gradmerge.cli`).
"""

from .curvature import FisherConfig, anchor_curvature, exact_hessian_diag, fisher_diag
from .diagnostics import (
    DiagnosticFixture,
    gradient_mismatch,
    mismatch_report,
    mismatch_vs_error_table,
    verify_identity,
)
from .errors import (
    ConfigError,
    CorruptCheckpointError,
    DivergenceError,
    EmptyDataError,
    EmptyMergeError,
    GradmergeError,
    IoError,
    LayoutError,
    MissingCurvatureError,
    NumericError,
    SingularCurvatureError,
    SingularSystemError,
    UnsupportedError,
    UnsupportedModelError,
)
from .harness import (
    AnchorConfig,
    ExperimentSpec,
    PerTaskConfig,
    build_diagnostic_fixture,
    default_removal_spec,
    default_spec,
    gen_tasks,
    run_addition,
    run_pipeline,
    run_removal,
    sweep_alpha,
)
from .merging import (
    ADDITION_METHODS,
    MaskConfig,
    MergeInputs,
    merge,
    merge_average,
    merge_fisher,
    merge_masked,
    merge_task_arithmetic,
    merge_uncertainty,
    remove_task,
)
from .models import LOSS_KINDS, MODEL_KINDS, ModelSpec, TaskDataset, accuracy, grad, loss
from .oracles import (
    influence_oracle,
    joint_closed_form_oracle,
    linear_merge_fixture,
    linear_removal_fixture,
    map_surrogate_check,
    run_oracle_suite,
)
from .params import (
    Checkpoint,
    DiagCurvature,
    ParamLayout,
    ParamVector,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    QuadraticAnchor,
    TrainConfig,
    closed_form_solve,
    finetune_task,
    train_anchor,
    train_joint_target,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "GradmergeError",
    "ConfigError",
    "LayoutError",
    "IoError",
    "CorruptCheckpointError",
    "EmptyDataError",
    "EmptyMergeError",
    "MissingCurvatureError",
    "UnsupportedModelError",
    "UnsupportedError",
    "NumericError",
    "SingularCurvatureError",
    "SingularSystemError",
    "DivergenceError",
    # params
    "ParamLayout",
    "ParamVector",
    "DiagCurvature",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    # models
    "MODEL_KINDS",
    "LOSS_KINDS",
    "ModelSpec",
    "TaskDataset",
    "loss",
    "grad",
    "accuracy",
    # training
    "TrainConfig",
    "QuadraticAnchor",
    "train_anchor",
    "finetune_task",
    "train_joint_target",
    "closed_form_solve",
    # curvature
    "FisherConfig",
    "fisher_diag",
    "exact_hessian_diag",
    "anchor_curvature",
    # merging
    "ADDITION_METHODS",
    "MergeInputs",
    "MaskConfig",
    "merge",
    "merge_average",
    "merge_fisher",
    "merge_task_arithmetic",
    "merge_uncertainty",
    "merge_masked",
    "remove_task",
    # diagnostics
    "DiagnosticFixture",
    "gradient_mismatch",
    "verify_identity",
    "mismatch_report",
    "mismatch_vs_error_table",
    # oracles
    "joint_closed_form_oracle",
    "influence_oracle",
    "map_surrogate_check",
    "linear_merge_fixture",
    "linear_removal_fixture",
    "run_oracle_suite",
    # harness
    "ExperimentSpec",
    "PerTaskConfig",
    "AnchorConfig",
    "default_spec",
    "default_removal_spec",
    "gen_tasks",
    "run_pipeline",
    "run_addition",
    "run_removal",
    "sweep_alpha",
    "build_diagnostic_fixture",
]
