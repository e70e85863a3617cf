"""Curvature-aware model merging, removal, and diagnostics at desk scale.

The package is organized bottom-up: flat parameter vectors and diagonal
curvatures (:mod:`~gradmerge.params`), tiny differentiable models
(:mod:`~gradmerge.models`), anchored training (:mod:`~gradmerge.training`),
curvature estimators (:mod:`~gradmerge.curvature`), the merge catalog
(:mod:`~gradmerge.merging`), gradient-mismatch diagnostics
(:mod:`~gradmerge.diagnostics`), independent numeric oracles
(:mod:`~gradmerge.oracles`), and an experiment harness plus CLI
(:mod:`~gradmerge.harness`, :mod:`~gradmerge.cli`).

The names below are the public API that the README and the demos use;
everything else is imported from its module.
"""

from .diagnostics import mismatch_report
from .errors import GradmergeError
from .harness import (
    AnchorConfig,
    ExperimentSpec,
    PerTaskConfig,
    default_removal_spec,
    default_spec,
    run_addition,
    run_pipeline,
    run_removal,
    sweep_alpha,
)
from .merging import (
    ADDITION_METHODS,
    MergeInputs,
    merge,
    merge_task_arithmetic,
    merge_uncertainty,
    remove_task,
)
from .models import ModelSpec
from .oracles import joint_closed_form_oracle, linear_merge_fixture

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GradmergeError",
    "ExperimentSpec",
    "PerTaskConfig",
    "AnchorConfig",
    "ModelSpec",
    "default_spec",
    "default_removal_spec",
    "run_pipeline",
    "run_addition",
    "run_removal",
    "sweep_alpha",
    "mismatch_report",
    "ADDITION_METHODS",
    "MergeInputs",
    "merge",
    "merge_task_arithmetic",
    "merge_uncertainty",
    "remove_task",
    "linear_merge_fixture",
    "joint_closed_form_oracle",
]
