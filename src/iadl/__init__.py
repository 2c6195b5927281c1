"""Constrained dictionary learning for task-related time-by-voxel data.

Factors an observation matrix into time courses and sparse spatial maps
under row-wise weighted-l1 sparsity budgets and similarity-ball constraints
tying selected atoms to supplied task time courses; ships with a synthetic
benchmark generator and an evaluation harness.
"""

from .hrf import (
    ConditionSpec,
    TwoGammaParams,
    canonical_hrf,
    estimate_c_delta,
    sample_hrf,
)
from .initializer import InitConfig, initialize
from .solver import SolveResult, SolverConfig, SolveTrace, run_iadl
from .types import (
    CoefficientMatrix,
    ConstraintSpec,
    DataMatrix,
    Dictionary,
    SourceSet,
    TaskTimeCourses,
    phi_from_theta,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientMatrix",
    "ConditionSpec",
    "ConstraintSpec",
    "DataMatrix",
    "Dictionary",
    "InitConfig",
    "SolveResult",
    "SolveTrace",
    "SolverConfig",
    "SourceSet",
    "TaskTimeCourses",
    "TwoGammaParams",
    "canonical_hrf",
    "estimate_c_delta",
    "initialize",
    "phi_from_theta",
    "run_iadl",
    "sample_hrf",
]
