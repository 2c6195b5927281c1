"""Alternating block-majorized minimization with closed-form updates.

Both blocks take the one step of ``_block_step``, a scaled gradient step on
a quadratic majorizer of the Frobenius loss, and their callers project the
point it returns. The coefficient block steps S against D and projects each
row onto its weighted-l1 ball; the dictionary block takes the same step on
the transposed problem, D^T against S^T, and projects every atom onto its
ball in one call. Every iteration is the plain step from (D_k, S_k), so the
recorded objective does not rise while S_k lies in the balls its own weights
define (see ``_iteration``). It is read off the products X S^T and S S^T
that the dictionary step forms, and evaluated directly only when it is too
small for that expansion.

The two big products of an iteration run in contiguous shares fixed by the
problem's shape (``_product_cuts``): D^T X by voxel columns, each column
share also forming its columns of the step point, and X S^T by time rows.
Each share keeps its whole sum and writes its own slice of one output. The
calling thread runs the first share and, when the process has a second
usable core, a thread that lives for the solve the second; on one core both
run in turn, so no bit depends on the core count. Small problems are not
split. The Gram matrices, the loss and both projections stay on the calling
thread; the shares call NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._shares import _cuts, _in_turn, _share_runner
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

# D^T X and X S^T are split in two once T N K reaches this many multiply-adds
# (the full recipe's 60 M, not a six-subject mini group's 17.3 M nor one mini
# subject's 1.9 M), cut at half the split axis rounded down to a multiple of
# _CUT_ALIGN. Below it a share takes about a millisecond, the order of waking
# a thread on a busy two-core host, so a split there made the mini group's
# solve time swing from run to run with the host's load. On OpenBLAS the cuts
# keep the bits of the whole products at the full recipe's shape.
_SPLIT_WORK = 1 << 25
_CUT_ALIGN = 16


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200
    rel_obj_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not 0 <= self.rel_obj_tol < math.inf:
            raise ValueError("rel_obj_tol must be non-negative and finite")


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


def _step_terms(gram):
    """The step constant ``c`` of ``gram``, its top eigenvalue times the
    margin, and the matrix ``cI - gram`` that carries the anchor."""
    c = max(_SCALE_MARGIN * float(np.linalg.eigvalsh(gram)[-1]), _SCALE_FLOOR)
    return c, c * np.eye(gram.shape[0]) - gram


def _block_step(cross, anchor, terms, out=None):
    """One majorized block step: the scaled gradient step
    ``(cross + (cI - gram) @ anchor) / c`` from ``anchor``, with ``terms``
    the pair ``_step_terms(gram)``, written into ``out`` when it is given
    (an array apart from ``cross``). The caller projects the point it
    returns."""
    c, carry = terms
    out = np.matmul(carry, anchor, out=out)
    out += cross
    out /= c
    return out


def _product_cuts(n: int, xv, k: int) -> list[int]:
    """The shares of a length-``n`` axis of the products of a T x N ``xv``
    and ``k`` atoms: two halves cut on a multiple of ``_CUT_ALIGN`` once
    T N K reaches ``_SPLIT_WORK``, else one share."""
    parts = 2 if xv.size * k >= _SPLIT_WORK else 1
    return _cuts(n, parts, _CUT_ALIGN)


def _coefficient_step(xv, dv, sv, run=_in_turn):
    """The block step of S against D, with D^T X and the step point formed
    share by share over the voxel columns of ``_product_cuts``, each into
    its own columns of arrays the calling thread holds; ``run(task,
    bounds)`` runs the shares."""
    terms = _step_terms(dv.T @ dv)
    dt = dv.T
    cross, out = np.empty(sv.shape), np.empty(sv.shape)

    def share(lo, hi):
        np.matmul(dt, xv[:, lo:hi], out=cross[:, lo:hi])
        _block_step(cross[:, lo:hi], sv[:, lo:hi], terms, out=out[:, lo:hi])

    run(share, _product_cuts(xv.shape[1], xv, dv.shape[1]))
    return out


def _atom_balls(deltav, k: int, spec: ConstraintSpec):
    """The ``k`` atoms' balls as the pair (centres, radii), one row each: the
    task courses with radius c_delta, then zero centres with radius c_d."""
    t, m = deltav.shape
    centres = np.vstack([deltav.T, np.zeros((k - m, t))])
    radii = np.repeat([spec.c_delta, spec.c_d], [m, k - m])
    return centres, radii


def _dictionary_step(xv, sv, dv, balls, run=_in_turn):
    """The block step of D^T against S^T, every atom projected onto its ball
    from ``_atom_balls``. X S^T is formed share by share over the time rows
    of ``_product_cuts``, each into its own rows; ``run(task, bounds)`` runs
    the shares. S S^T, a reduction over the voxels, is formed whole.

    Returns the new dictionary, its worst ball violation, and the products
    X S^T and S S^T it was built from, which give the loss at (D_new, S).
    """
    centres, radii = balls
    xs = np.empty((xv.shape[0], sv.shape[0]))
    st = sv.T
    run(lambda lo, hi: np.matmul(xv[lo:hi], st, out=xs[lo:hi]),
        _product_cuts(xv.shape[0], xv, sv.shape[0]))
    gram = sv @ st
    d_t = project_similarity_ball(_block_step(xs.T, dv.T, _step_terms(gram)), centres, radii)
    excess = np.einsum("ij,ij->i", d_t - centres, d_t - centres) - radii
    return np.ascontiguousarray(d_t.T), max(float(np.max(excess)), 0.0), xs, gram


def _iteration(xv, x_sq: float, dv, sv, balls, spec: ConstraintSpec, run=_in_turn):
    """One full iteration from (D, S): the coefficient step from S onto the
    row balls that S's weights define, then the dictionary step onto the
    atoms' ``balls``, their products split by ``run``. Returns the new S and
    D, their loss and the worst ball violation."""
    # Weights come from the previous iterate S. The objective is
    # non-increasing while S lies in the ball its weights define,
    # sum |s| / (|s| + epsilon) <= phi; an entry entering the support near
    # epsilon can break that. Reweighting from the post-gradient matrix
    # moves the constraint set away from S and breaks monotonicity.
    weights = compute_weights(sv, spec.epsilon)
    s_new = project_weighted_l1_rows(_coefficient_step(xv, dv, sv, run), weights, spec.phi)
    wl1 = np.einsum("ij,ij->i", weights, np.abs(s_new))
    viol_s = float(np.max(np.maximum(wl1 - spec.phi, 0.0)))
    d_new, viol_d, xs, gram = _dictionary_step(xv, s_new, dv, balls, run)
    return s_new, d_new, _loss(xv, x_sq, d_new, s_new, xs, gram), max(viol_s, viol_d)


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


def _check_shapes(x, dictionary, coefficients, spec, delta):
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

    Each iteration is the plain majorized step from (D_k, S_k), with no
    state carried from earlier iterations: the coefficient step from S_k
    onto the balls of S_k's weights, so every iterate is feasible, then the
    dictionary step from D_k. The objective does not rise while S_k lies in
    the balls its own weights define.

    The recorded objective is the raw Frobenius loss after each full
    iteration; constraint penalties never enter it. It is computed as
    ||X||^2 - 2<D, X S^T> + <D^T D, S S^T> from the dictionary step's
    products, with ||X||^2 taken once per solve, and directly as
    ||X - DS||^2 when it falls below a small share of the magnitudes of
    those terms, where the expansion cancels. The tolerance test compares
    the last two recorded objectives, so a fit stops on it at iteration 2 at
    the earliest.
    """
    _check_shapes(x, d0, s0, spec, delta)
    xv = x.values
    dv = d0.values
    sv = s0.values
    balls = _atom_balls(delta.values, dv.shape[1], spec)
    m = delta.n_courses

    objective = []
    violations = []
    x_sq = float(np.vdot(xv, xv))
    stop_reason = "max_iters"
    with _share_runner() as run:
        for _ in range(cfg.max_iters):
            sv, dv, obj, viol = _iteration(xv, x_sq, dv, sv, balls, spec, run)
            objective.append(obj)
            violations.append(viol)
            if len(objective) > 1 and (
                abs(objective[-2] - obj) / max(objective[-2], 1e-30) < cfg.rel_obj_tol
            ):
                stop_reason = "tolerance"
                break

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
