"""Shared dense-matrix data model and constraint specifications.

All matrix types validate their entries at construction (finite, correct
dimensionality) and freeze the underlying array, so instances can be shared
across threads; "mutation" means building a new value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """Observation matrix, time samples along rows and voxels along columns."""

    values: np.ndarray
    tr: float | None = None

    def __post_init__(self):
        arr = _frozen_array(self.values, "data matrix", ndim=2)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("data matrix needs at least one row and one column")
        if self.tr is not None and not 0 < self.tr < np.inf:
            raise ValueError("tr (repetition time) must be positive and finite")
        object.__setattr__(self, "values", arr)

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Dictionary:
    """Bank of time courses (columns); the first ``assisted_count`` columns
    are tied to externally supplied task time courses by the solver."""

    values: np.ndarray
    assisted_count: int = 0

    def __post_init__(self):
        arr = _frozen_array(self.values, "dictionary", ndim=2)
        if arr.shape[1] < 1:
            raise ValueError("dictionary needs at least one atom")
        if not 0 <= self.assisted_count <= arr.shape[1]:
            raise ValueError(
                f"assisted_count {self.assisted_count} outside [0, {arr.shape[1]}]"
            )
        object.__setattr__(self, "values", arr)

    @property
    def n_atoms(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CoefficientMatrix:
    """Spatial maps, one source per row."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_array(self.values, "coefficient matrix", ndim=2)
        )


@dataclass(frozen=True)
class TaskTimeCourses:
    """Externally supplied task time courses, one per column; may be empty
    (zero columns) for fully blind decompositions."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_array(self.values, "task time courses", ndim=2)
        )

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_courses(self) -> int:
        return self.values.shape[1]

    @classmethod
    def empty(cls, n_times: int) -> "TaskTimeCourses":
        return cls(np.zeros((n_times, 0)))


@dataclass(frozen=True)
class ConstraintSpec:
    """Per-row sparsity budgets plus the dictionary ball radii.

    Budgets are kept as reals: they act as ball radii for the weighted-l1
    constraint, not integer counts. Rounding belongs in reporting only.
    """

    phi: np.ndarray
    c_delta: float = 0.0
    c_d: float = 1.0
    epsilon: float = 1e-6

    def __post_init__(self):
        phi = _frozen_array(self.phi, "sparsity budgets", ndim=1)
        if phi.size < 1:
            raise ValueError("need at least one sparsity budget")
        if np.any(phi < 0):
            raise ValueError("sparsity budgets must be non-negative")
        # each test states what must hold, so NaN, which fails every
        # comparison, is refused with infinity
        if not 0 <= self.c_delta < np.inf:
            raise ValueError("c_delta (similarity radius) must be non-negative and finite")
        if not 0 < self.c_d < np.inf:
            raise ValueError("c_d (free-atom norm bound) must be positive and finite")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon (weight stabilizer) must be positive and finite")
        object.__setattr__(self, "phi", phi)

    @property
    def n_sources(self) -> int:
        return self.phi.shape[0]

    def validate_for(self, n_voxels: int) -> None:
        """Check the budgets against a concrete voxel count."""
        if np.any(self.phi > n_voxels):
            bad = int(np.argmax(self.phi > n_voxels))
            raise ValueError(
                f"budget {self.phi[bad]} of row {bad} exceeds voxel count {n_voxels}"
            )


@dataclass(frozen=True)
class SourceSet:
    """Ground-truth bundle of (time course, spatial map) pairs."""

    time_courses: np.ndarray
    spatial_maps: np.ndarray
    kinds: tuple = field(default=())

    def __post_init__(self):
        tc = _frozen_array(self.time_courses, "true time courses", ndim=2)
        sm = _frozen_array(self.spatial_maps, "true spatial maps", ndim=2)
        if tc.shape[1] != sm.shape[0]:
            raise ValueError(
                f"source count mismatch: {tc.shape[1]} courses vs {sm.shape[0]} maps"
            )
        kinds = tuple(self.kinds) if self.kinds else ("unknown",) * tc.shape[1]
        if len(kinds) != tc.shape[1]:
            raise ValueError("one kind label per source required")
        object.__setattr__(self, "time_courses", tc)
        object.__setattr__(self, "spatial_maps", sm)
        object.__setattr__(self, "kinds", kinds)

    @property
    def n_sources(self) -> int:
        return self.time_courses.shape[1]


def phi_from_theta(theta: float, n: int) -> float:
    """Convert a sparsity percentage into an active-voxel budget.

    Returns ``n * (1 - theta / 100)`` as a real; callers round only when a
    count is actually needed.
    """
    if not 0.0 <= theta <= 100.0:
        raise ValueError(f"sparsity percentage {theta} outside [0, 100]")
    if n < 1:
        raise ValueError("vector length must be at least 1")
    return n * (1.0 - theta / 100.0)
