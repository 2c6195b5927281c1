"""Alternating block-majorized minimization with closed-form updates.

One iteration updates the coefficient matrix through a scaled gradient step
followed by row-wise weighted-l1 ball projections, then the dictionary
through the mirrored step with similarity/norm ball projections on its
columns. Both steps minimize a convex quadratic surrogate of the Frobenius
loss, which makes the recorded objective non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projections import (
    compute_weights,
    project_l2_ball,
    project_similarity_ball,
    project_weighted_l1_rows,
)
from .types import CoefficientMatrix, ConstraintSpec, DataMatrix, Dictionary, TaskTimeCourses

# Scaling constants are floored here when a factor matrix is all-zero, so the
# update degenerates to a copy instead of dividing by zero.
_SCALE_FLOOR = 1e-12


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; ``estimate`` holds the last value."""

    def __init__(self, estimate: float, iterations: int):
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(last estimate {estimate:.6g})"
        )
        self.estimate = estimate


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200
    rel_obj_tol: float = 1e-8
    spectral_safety: float = 1.01
    power_iter_tol: float = 1e-10
    power_iter_max: int = 1000

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.rel_obj_tol < 0:
            raise ValueError("rel_obj_tol must be non-negative")
        if self.spectral_safety < 1:
            raise ValueError("spectral_safety must be at least 1")
        if self.power_iter_tol <= 0 or self.power_iter_max < 1:
            raise ValueError("invalid power iteration settings")


@dataclass(frozen=True)
class SolveTrace:
    objective: np.ndarray
    constraint_violation_max: np.ndarray
    iterations_run: int
    stop_reason: str  # "max_iters" or "tolerance"


@dataclass(frozen=True)
class SolveResult:
    dictionary: Dictionary
    coefficients: CoefficientMatrix
    trace: SolveTrace


def spectral_norm(msq, tol: float = 1e-10, max_iters: int = 1000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Callers needing a guaranteed upper bound multiply the estimate by a
    safety factor. Raises PowerIterationError (carrying the last estimate)
    if the Rayleigh quotient has not stabilized after ``max_iters``.
    """
    m = np.asarray(msq, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n == 1:
        return max(float(m[0, 0]), 0.0)
    # Fixed seed keeps estimates (and therefore solves) bit-reproducible.
    v = np.random.default_rng(0x5D1A).standard_normal(n)
    v /= np.linalg.norm(v)
    lam_prev = None
    lam = 0.0
    for _ in range(max_iters):
        y = m @ v
        lam = float(v @ y)
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:
            return 0.0
        v = y / nrm
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return max(lam, 0.0)
        lam_prev = lam
    raise PowerIterationError(lam, max_iters)


def coefficient_surrogate(x, d, s, s_anchor, c_s: float) -> float:
    """Quadratic majorizer of the loss in the coefficient block."""
    x = np.asarray(x, float)
    d = np.asarray(d, float)
    s = np.asarray(s, float)
    s_anchor = np.asarray(s_anchor, float)
    return (
        float(np.linalg.norm(x - d @ s) ** 2)
        - float(np.linalg.norm(d @ s - d @ s_anchor) ** 2)
        + c_s * float(np.linalg.norm(s - s_anchor) ** 2)
    )


def dictionary_surrogate(x, s, d, d_anchor, c_d: float) -> float:
    """Quadratic majorizer of the loss in the dictionary block."""
    x = np.asarray(x, float)
    s = np.asarray(s, float)
    d = np.asarray(d, float)
    d_anchor = np.asarray(d_anchor, float)
    return (
        float(np.linalg.norm(x - d @ s) ** 2)
        - float(np.linalg.norm(d @ s - d_anchor @ s) ** 2)
        + c_d * float(np.linalg.norm(d - d_anchor) ** 2)
    )


def _scale_constant(gram, cfg: SolverConfig) -> float:
    try:
        lam = spectral_norm(gram, tol=cfg.power_iter_tol, max_iters=cfg.power_iter_max)
    except PowerIterationError as err:
        # A stalled iteration implies a tiny top eigengap, where the Rayleigh
        # estimate is already within far less than the safety margin of the
        # true norm; the carried estimate is safe to use.
        lam = err.estimate
    return max(cfg.spectral_safety * lam, _SCALE_FLOOR)


def _coefficient_step(xv, dv, sv, spec: ConstraintSpec, cfg: SolverConfig):
    gram = dv.T @ dv
    c_s = _scale_constant(gram, cfg)
    a = (dv.T @ xv + (c_s * np.eye(dv.shape[1]) - gram) @ sv) / c_s
    # Weights come from the surrogate anchor (the previous iterate), which
    # keeps the anchor feasible for the ball it defines; that is what makes
    # the objective non-increasing. Reweighting from the post-gradient
    # matrix moves the constraint set away from the anchor and breaks
    # monotonicity.
    weights = compute_weights(sv, spec.epsilon)
    s_new = project_weighted_l1_rows(a, weights, spec.phi)
    wl1 = np.einsum("ij,ij->i", weights, np.abs(s_new))
    violation = float(np.max(np.maximum(wl1 - spec.phi, 0.0)))
    return s_new, violation


def _dictionary_step(xv, sv, dv, deltav, spec: ConstraintSpec, cfg: SolverConfig):
    m = deltav.shape[1]
    gram = sv @ sv.T
    c_d = _scale_constant(gram, cfg)
    b = (xv @ sv.T + dv @ (c_d * np.eye(sv.shape[0]) - gram)) / c_d
    d_new = np.empty_like(b)
    violation = 0.0
    for i in range(b.shape[1]):
        if i < m:
            col = project_similarity_ball(b[:, i], deltav[:, i], spec.c_delta)
            excess = float(np.sum((col - deltav[:, i]) ** 2)) - spec.c_delta
        else:
            col = project_l2_ball(b[:, i], spec.c_d)
            excess = float(col @ col) - spec.c_d
        d_new[:, i] = col
        violation = max(violation, excess)
    return d_new, max(violation, 0.0)


def coefficient_update(
    x: DataMatrix,
    dictionary: Dictionary,
    coefficients: CoefficientMatrix,
    spec: ConstraintSpec,
    cfg: SolverConfig = SolverConfig(),
) -> CoefficientMatrix:
    """One majorized coefficient update: gradient step then row projections."""
    _check_shapes(x, dictionary, coefficients, spec)
    s_new, _ = _coefficient_step(
        x.values, dictionary.values, coefficients.values, spec, cfg
    )
    return CoefficientMatrix(s_new)


def dictionary_update(
    x: DataMatrix,
    coefficients: CoefficientMatrix,
    dictionary: Dictionary,
    delta: TaskTimeCourses,
    spec: ConstraintSpec,
    cfg: SolverConfig = SolverConfig(),
) -> Dictionary:
    """One majorized dictionary update: gradient step then column projections."""
    _check_shapes(x, dictionary, coefficients, spec, delta)
    d_new, _ = _dictionary_step(
        x.values, coefficients.values, dictionary.values, delta.values, spec, cfg
    )
    return Dictionary(d_new, assisted_count=delta.n_courses)


def _check_shapes(x, dictionary, coefficients, spec, delta=None):
    t, n = x.values.shape
    k = dictionary.n_atoms
    if dictionary.values.shape[0] != t:
        raise ValueError("dictionary row count must match data time samples")
    if coefficients.values.shape != (k, n):
        raise ValueError(
            f"coefficients must be {k}x{n}, got {coefficients.values.shape}"
        )
    if spec.n_sources != k:
        raise ValueError("one sparsity budget per atom required")
    spec.validate_for(n)
    if delta is not None:
        if delta.n_times != t:
            raise ValueError("task time courses must match data time samples")
        if delta.n_courses != dictionary.assisted_count:
            raise ValueError(
                "task course count must equal the dictionary's assisted count"
            )


def run_iadl(
    x: DataMatrix,
    d0: Dictionary,
    s0: CoefficientMatrix,
    delta: TaskTimeCourses,
    spec: ConstraintSpec,
    cfg: SolverConfig = SolverConfig(),
) -> SolveResult:
    """Alternate coefficient and dictionary updates until the objective
    settles or the iteration budget runs out.

    The recorded objective is the raw Frobenius loss after each full
    iteration; constraint penalties never enter it.
    """
    _check_shapes(x, d0, s0, spec, delta)
    xv = x.values
    dv = d0.values.copy()
    sv = s0.values.copy()
    deltav = delta.values
    m = delta.n_courses

    objective = []
    violations = []
    prev_obj = float(np.linalg.norm(xv - dv @ sv) ** 2)
    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        sv, viol_s = _coefficient_step(xv, dv, sv, spec, cfg)
        dv, viol_d = _dictionary_step(xv, sv, dv, deltav, spec, cfg)
        obj = float(np.linalg.norm(xv - dv @ sv) ** 2)
        objective.append(obj)
        violations.append(max(viol_s, viol_d))
        if abs(prev_obj - obj) / max(prev_obj, 1e-30) < cfg.rel_obj_tol:
            stop_reason = "tolerance"
            prev_obj = obj
            break
        prev_obj = obj

    trace = SolveTrace(
        objective=np.array(objective),
        constraint_violation_max=np.array(violations),
        iterations_run=len(objective),
        stop_reason=stop_reason,
    )
    return SolveResult(
        dictionary=Dictionary(dv, assisted_count=m),
        coefficients=CoefficientMatrix(sv),
        trace=trace,
    )
