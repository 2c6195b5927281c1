"""Alternating block-majorized minimization with closed-form updates.

Both blocks take the one step of ``_block_step``: a scaled gradient step on
a quadratic majorizer of the Frobenius loss, then a projection. The
coefficient block steps S against D and projects each row onto its
weighted-l1 ball; the dictionary block takes the same step on the
transposed problem, D^T against S^T, and projects every atom onto its ball
in one call. So the recorded objective does not increase while each anchor
lies in the balls it defines (see ``_coefficient_step``). It is read off the
products X S^T and S S^T that the dictionary step forms, and evaluated
directly only when it is too small for that expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projections import compute_weights, project_similarity_ball, project_weighted_l1_rows
from .types import CoefficientMatrix, ConstraintSpec, DataMatrix, Dictionary, TaskTimeCourses

# Step constants are the top eigenvalue of the block's Gram matrix times this
# margin, so each surrogate strictly majorizes the loss.
_SCALE_MARGIN = 1.01

# Scaling constants are floored here when a factor matrix is all-zero, so the
# update degenerates to a copy instead of dividing by zero.
_SCALE_FLOOR = 1e-12

# The loss read off the dictionary step's products cancels, leaving an
# absolute error of a few eps times the magnitudes of its terms,
# ||X||^2 + 2<|D|, |X S^T|> + <|D^T D|, |S S^T|> (measured near
# 2e-15 ||X||^2 on the mini and full recipes at 10 to 120 dB). Below this
# share of that scale, where the error would pass 2e-11 relative, the loss is
# evaluated directly instead; comparing with ||X||^2 alone would keep the
# rounding of a model far larger than the data.
_EXPANDED_LOSS_FLOOR = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200
    rel_obj_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.rel_obj_tol < 0:
            raise ValueError("rel_obj_tol must be non-negative")


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


def _scale_constant(gram) -> float:
    return max(_SCALE_MARGIN * float(np.linalg.eigvalsh(gram)[-1]), _SCALE_FLOOR)


def _block_step(cross, gram, anchor, project):
    """One majorized block step: the scaled gradient step
    ``(cross + (cI - gram) @ anchor) / c`` from ``anchor``, with ``c`` the
    step constant of ``gram``, handed to ``project``."""
    c = _scale_constant(gram)
    return project((cross + (c * np.eye(gram.shape[0]) - gram) @ anchor) / c)


def _coefficient_step(xv, dv, sv, epsilon: float, project):
    """The block step of S against D, then ``project(a, weights)`` onto the
    caller's weighted-l1 ball; returns the result and those weights."""
    # Weights come from the surrogate anchor (the previous iterate). The
    # objective is non-increasing while the anchor lies in the ball its
    # weights define, sum |s| / (|s| + epsilon) <= phi; an entry entering
    # the support near epsilon can break that. Reweighting from the
    # post-gradient matrix moves the constraint set away from the anchor
    # and breaks monotonicity.
    weights = compute_weights(sv, epsilon)
    return _block_step(dv.T @ xv, dv.T @ dv, sv, lambda a: project(a, weights)), weights


def _dictionary_step(xv, sv, dv, deltav, spec: ConstraintSpec):
    """The block step of D^T against S^T, every atom projected onto its ball.

    Returns the new dictionary, its worst ball violation, and the products
    X S^T and S S^T it was built from, which give the loss at (D_new, S).
    """
    k, m = sv.shape[0], deltav.shape[1]
    xs = xv @ sv.T
    gram = sv @ sv.T
    centres = np.vstack([deltav.T, np.zeros((k - m, xv.shape[0]))])
    radii = np.repeat([spec.c_delta, spec.c_d], [m, k - m])
    d_t = _block_step(xs.T, gram, dv.T, lambda b: project_similarity_ball(b, centres, radii))
    excess = np.einsum("ij,ij->i", d_t - centres, d_t - centres) - radii
    return np.ascontiguousarray(d_t.T), max(float(np.max(excess)), 0.0), xs, gram


def _loss(xv, x_sq: float, dv, sv, xs, gram) -> float:
    """||X - DS||^2 as ||X||^2 - 2<D, X S^T> + <D^T D, S S^T>, from the
    products ``xs = X S^T`` and ``gram = S S^T``; directly when that
    expansion is too small against its terms to keep its digits."""
    dtd = dv.T @ dv
    loss = x_sq - 2.0 * float(np.vdot(dv, xs)) + float(np.vdot(dtd, gram))
    scale = (
        x_sq
        + 2.0 * float(np.vdot(np.abs(dv), np.abs(xs)))
        + float(np.vdot(np.abs(dtd), np.abs(gram)))
    )
    if loss < _EXPANDED_LOSS_FLOOR * scale:
        return float(np.linalg.norm(xv - dv @ sv) ** 2)
    return loss


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
    iteration; constraint penalties never enter it. It is computed as
    ||X||^2 - 2<D, X S^T> + <D^T D, S S^T> from the dictionary step's
    products, with ||X||^2 taken once per solve, and directly as
    ||X - DS||^2 when it falls below a small share of the magnitudes of
    those terms, where the expansion cancels.
    """
    _check_shapes(x, d0, s0, spec, delta)
    xv = x.values
    dv = d0.values.copy()
    sv = s0.values.copy()
    deltav = delta.values
    m = delta.n_courses

    objective = []
    violations = []
    x_sq = float(np.vdot(xv, xv))
    prev_obj = float(np.linalg.norm(xv - dv @ sv) ** 2)
    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        sv, weights = _coefficient_step(
            xv, dv, sv, spec.epsilon, lambda a, w: project_weighted_l1_rows(a, w, spec.phi)
        )
        wl1 = np.einsum("ij,ij->i", weights, np.abs(sv))
        viol_s = float(np.max(np.maximum(wl1 - spec.phi, 0.0)))
        dv, viol_d, xs, gram = _dictionary_step(xv, sv, dv, deltav, spec)
        obj = _loss(xv, x_sq, dv, sv, xs, gram)
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
