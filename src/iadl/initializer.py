"""Starting-point construction in five steps: ICA estimate, assisted-atom
alignment, full-matrix sparsity refinement, sparsity-ordered permutation,
and one row projection followed by a support cut that makes every row
feasible under its own reweighting.

The ICA stage is a symmetric fixed-point iteration (tanh contrast) on
data whitened by the k leading eigenpairs of its covariance, which SciPy's
subset eigensolver computes alone. It stops when an iterate matches the one
before it (converged), or when it matches the one two steps back while the
one before still differs: the iteration has fallen into a 2-cycle, which
more iterations would only repeat. Otherwise it stops at its cap. It
returns all k components, even where k exceeds the sources and a source
comes back split in two, and every later step keeps them. A start computed
once can be reused as it is: ``iadl fit --init-dir`` hands the saved pair
straight to the solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .evaluation import _course_table
from .projections import (
    compute_weights,
    project_weighted_l1_matrix_ball,
    project_weighted_l1_rows,
)
from .solver import _atom_balls, _block_step, _dictionary_step
from .types import CoefficientMatrix, ConstraintSpec, DataMatrix, Dictionary, TaskTimeCourses


# ICA stops once no unmixing row moves by more than the tolerance from the
# previous iterate (converged), or from the iterate two steps back while some
# row still moves from the previous one (a 2-cycle, stopped on the phase the
# cap would end on), and otherwise after this many fixed-point iterations.
_ICA_MAX_ITERS = 400
_ICA_TOL = 1e-7


@dataclass(frozen=True)
class InitConfig:
    refine_iters: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be non-negative")


def _sym_decorrelate(w):
    vals, vecs = np.linalg.eigh(w @ w.T)
    vals = np.maximum(vals, 1e-12 * vals.max())
    return (vecs / np.sqrt(vals)) @ vecs.T @ w


def _drift(w, w_ref):
    """The largest ``1 - |cos|`` between a row of ``w`` and the same row of
    ``w_ref``; both have orthonormal rows, and a sign flip does not count."""
    return float(np.max(1.0 - np.abs(np.diag(w @ w_ref.T))))


def _whiten(xv, k):
    """The ``k`` leading eigenpairs of the voxel-sample covariance of the
    centred rows of ``xv``, in descending order, and the whitened data
    ``z`` they give.

    Only the top ``k`` pairs are solved for. Each eigenvector's sign is
    fixed so that its largest-magnitude entry is positive (the first such
    index on ties), so the result does not depend on the LAPACK driver's
    choice of sign. Eigenvalues are floored at 1e-12 of the largest.

    Beside the centred copy, one T x T array is held: the covariance is
    scaled in place and eigensolved in place. NumPy forms ``xc @ xc.T``
    exactly symmetric, so its transpose, a Fortran-ordered view, hands
    LAPACK the same lower triangle with no copy.
    """
    t, n = xv.shape
    xc = xv - xv.mean(axis=1, keepdims=True)
    cov = xc @ xc.T
    cov /= n
    evals, evecs = scipy.linalg.eigh(cov.T, overwrite_a=True, subset_by_index=[t - k, t - 1])
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    pivots = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(k)]
    evecs = evecs * np.where(pivots < 0.0, -1.0, 1.0)
    evals = np.maximum(evals, 1e-12 * max(evals[0], 1e-300))
    z = (evecs / np.sqrt(evals)).T @ xc
    return evals, evecs, z


def ica_decompose(x: DataMatrix, k: int, cfg: InitConfig = InitConfig()):
    """PCA-whitened symmetric fixed-point ICA over the voxel samples.

    The whitening solves for the ``k`` leading eigenpairs of the T x T
    covariance only, and fixes each eigenvector's sign so that its
    largest-magnitude entry is positive (``_whiten``). Returns the mixing
    estimate as ``k`` time courses and the ``k`` component maps.
    """
    xv = x.values
    t, n = xv.shape
    if not 1 <= k <= t:
        raise ValueError(f"component count must lie in [1, {t}]")
    evals, evecs, z = _whiten(xv, k)

    rng = np.random.default_rng(cfg.rng_seed)
    w = _sym_decorrelate(rng.standard_normal((k, k)))
    w_back = None  # the iterate two steps back
    for i in range(1, _ICA_MAX_ITERS + 1):
        wz = w @ z
        g = np.tanh(wz)
        w_new = (g @ z.T) / n - np.diag(np.mean(1.0 - g**2, axis=1)) @ w
        w_new = _sym_decorrelate(w_new)
        if _drift(w_new, w) < _ICA_TOL:
            w = w_new
            break
        if w_back is not None and _drift(w_new, w_back) < _ICA_TOL:
            # Iterates i and i - 1 alternate from here on; the cap would end
            # on the one whose parity matches its own.
            w = w_new if (_ICA_MAX_ITERS - i) % 2 == 0 else w
            warnings.warn(
                f"ICA did not reach tolerance: from iteration {i} its fixed point "
                f"alternates between two iterates; returning the one the "
                f"{_ICA_MAX_ITERS}-iteration cap would end on",
                stacklevel=2,
            )
            break
        w_back, w = w, w_new
    else:
        warnings.warn(
            f"ICA did not reach tolerance in {_ICA_MAX_ITERS} iterations; "
            "returning the last iterate",
            stacklevel=2,
        )

    s = w @ z
    d = (evecs * np.sqrt(evals)) @ w.T
    return Dictionary(d), CoefficientMatrix(s)


def align_assisted(dbar: Dictionary, sbar: CoefficientMatrix, delta: TaskTimeCourses):
    """Move the atoms most correlated with the task courses to the front,
    overwrite them with the courses, and flip map signs for negative
    matches."""
    m = delta.n_courses
    k = dbar.n_atoms
    if m > k:
        raise ValueError(f"{m} task courses but only {k} atoms")
    dv = dbar.values
    r = _course_table(delta.values, dv)
    open_abs = np.abs(r)
    matched = []
    for i in range(m):
        matched.append(int(np.argmax(open_abs[i])))
        open_abs[:, matched[-1]] = -1.0
    perm = matched + sorted(set(range(k)) - set(matched))
    d_new = dv[:, perm]
    s_new = sbar.values[perm]
    d_new[:, :m] = delta.values
    s_new[:m] *= np.where(r[np.arange(m), matched] >= 0, 1.0, -1.0)[:, None]
    return Dictionary(d_new, assisted_count=m), CoefficientMatrix(s_new)


def refine_full_sparsity(
    x: DataMatrix,
    dbar: Dictionary,
    sbar: CoefficientMatrix,
    delta: TaskTimeCourses,
    spec: ConstraintSpec,
    cfg: InitConfig = InitConfig(),
):
    """A few solver iterations with the row-wise projection replaced by one
    projection of the whole coefficient matrix onto the ball of radius
    sum(phi); sparsifies the dense ICA maps before row budgets apply."""
    phi_total = float(np.sum(spec.phi))
    xv = x.values
    dv = dbar.values
    sv = sbar.values
    balls = _atom_balls(delta.values, dv.shape[1], spec)
    for _ in range(cfg.refine_iters):
        weights = compute_weights(sv, spec.epsilon)
        step = _block_step(dv.T @ xv, dv.T @ dv, sv)
        sv = project_weighted_l1_matrix_ball(step, weights, phi_total)
        dv = _dictionary_step(xv, sv, dv, balls)[0]
    return Dictionary(dv, assisted_count=delta.n_courses), CoefficientMatrix(sv)


def order_by_sparsity(d: Dictionary, s: CoefficientMatrix, m: int):
    """Permute the free atoms so their map sparsity percentages are
    non-increasing; rows up to ``m`` stay in place, ties keep original
    order."""
    sv = s.values
    counts = np.count_nonzero(sv[m:], axis=1)
    order = np.argsort(counts, kind="stable")  # fewer active = sparser first
    perm = np.concatenate([np.arange(m), m + order])
    return (
        Dictionary(d.values[:, perm], assisted_count=d.assisted_count),
        CoefficientMatrix(sv[perm]),
    )


def _own_weight_norms(s, epsilon):
    """Row norms of ``s`` under its own reweighting; the start is feasible
    when each is at most ``phi_i + 1e-10``."""
    return np.einsum("ij,ij->i", compute_weights(s, epsilon), np.abs(s))


def _cut_to_budget(s, phi, epsilon):
    """Zero the smallest entries of each row until its own-weight norm fits
    its budget.

    Each row keeps the longest prefix of its largest magnitudes whose terms
    ``|s| / (|s| + epsilon)`` sum to at most ``phi_i + 1e-10``. Kept entries
    keep their values and so their weights; the rest become zeros, which
    weigh nothing. The prefix sums run in sorted order and the norm in row
    order, so the two can round apart: a row whose norm still exceeds its
    limit is cut again under a budget lowered by that gap, which drops at
    least one more entry, until it fits.
    """
    limit = phi + 1e-10
    over = np.flatnonzero(_own_weight_norms(s, epsilon) > limit)
    out = s.copy()
    rows, row_limit = s[over], limit[over]
    order = np.argsort(-np.abs(rows), axis=1, kind="stable")
    terms = compute_weights(rows, epsilon) * np.abs(rows)
    prefix = np.cumsum(np.take_along_axis(terms, order, axis=1), axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(rows.shape[1]), axis=1)
    budget = row_limit.copy()
    while True:
        keep = np.count_nonzero(prefix <= budget[:, None], axis=1)
        out[over] = np.where(rank < keep[:, None], rows, 0.0)
        norms = _own_weight_norms(out, epsilon)[over]
        bad = norms > row_limit
        if not bad.any():
            return out
        kept = np.take_along_axis(prefix, keep[bad, None] - 1, axis=1)[:, 0]
        budget[bad] = row_limit[bad] - (norms[bad] - kept)


def _feasible_start(s, phi, epsilon):
    """One exact row projection under the weights of ``s``, then the cut.

    The projection does the bulk of the shrinkage; its survivors then weigh
    more under their own weights, and the cut trims each row that still
    exceeds its budget.
    """
    projected = project_weighted_l1_rows(s, compute_weights(s, epsilon), phi)
    return _cut_to_budget(projected, phi, epsilon)


def initialize(
    x: DataMatrix,
    k: int,
    delta: TaskTimeCourses,
    spec: ConstraintSpec,
    cfg: InitConfig = InitConfig(),
):
    """Full pipeline: ICA, alignment, refinement, ordering, feasible start;
    the output is T x k / k x N."""
    dbar, sbar = ica_decompose(x, k, cfg)
    dbar, sbar = align_assisted(dbar, sbar, delta)
    d_ref, s_ref = refine_full_sparsity(x, dbar, sbar, delta, spec, cfg)
    d_out, s_out = order_by_sparsity(d_ref, s_ref, delta.n_courses)
    # The matrix-ball refinement does not enforce per-row budgets; hand the
    # solver a start that satisfies them under its own weights.
    return d_out, CoefficientMatrix(_feasible_start(s_out.values, spec.phi, spec.epsilon))
