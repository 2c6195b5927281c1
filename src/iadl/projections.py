"""Weighted-l1 machinery and the projection operators used by the solver.

All functions are pure; row-wise matrix projections share no mutable state
and are safe to run in parallel.
"""

from __future__ import annotations

import numpy as np

# Vectorized Michelot passes that filter a block before its breakpoint scan;
# three leave about a fifth of the entries of a solver row.
_MICHELOT_PASSES = 3


def compute_weights(x, epsilon: float) -> np.ndarray:
    """Reweighting vector ``w_i = 1 / (|x_i| + epsilon)``.

    The stabilizer ``epsilon`` keeps the weights finite on zero entries;
    element-wise, so ``x`` may have any shape.
    """
    if epsilon <= 0:
        raise ValueError("weight stabilizer must be positive")
    return 1.0 / (np.abs(np.asarray(x, dtype=np.float64)) + epsilon)


def weighted_l1_norm(x, w) -> float:
    """``sum w |x|`` over arrays of equal shape: a vector's weighted-l1 norm,
    or a matrix's ``sum_ij w_ij |x_ij|``."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape != w.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {w.shape}")
    return float(np.sum(w * np.abs(x)))


def _check_weights(w):
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be strictly positive and finite")


def _project_block(v, w, phi):
    """Project rows that violate a positive radius: Michelot passes drop
    entries at or below a lower bound on the threshold, then a sorted
    breakpoint scan over the survivors finds it exactly, at any spread of
    the weights."""
    mags = np.abs(v)
    ratios = mags / w
    wm = w * mags
    w2 = w * w

    # Each pass solves sum_A w (|v| - gamma w) = phi over the active set A.
    # The sum over A is at most g(gamma), so gamma is at most the threshold
    # and entries with ratio at or below it are inactive (Michelot 1986).
    # The bound is shrunk past the rounding of its sums, so no entry the
    # exact threshold keeps is ever dropped.
    slack = 4.0 * v.shape[1] * np.finfo(np.float64).eps
    keep = np.ones(v.shape)
    for _ in range(_MICHELOT_PASSES):
        suma = np.einsum("ij,ij->i", wm, keep)
        sumb = np.einsum("ij,ij->i", w2, keep)
        bound = (suma * (1.0 - slack) - phi) / (sumb * (1.0 + slack))
        keep = ratios > bound[:, None]

    gamma = np.empty(v.shape[0])
    for i, survivors in enumerate(keep):
        idx = np.flatnonzero(survivors)
        order = idx[np.argsort(ratios[i, idx], kind="stable")]
        # Suffix sums over the sorted breakpoints; summing from the small
        # end keeps each suffix accurate relative to its own magnitude.
        # Dropped entries precede every survivor in the full sorted order,
        # so these are the full row's suffix sums, bit for bit.
        suf_a = np.cumsum(wm[i, order][::-1])[::-1]
        suf_b = np.cumsum(w2[i, order][::-1])[::-1]
        a_after = np.append(suf_a[1:], 0.0)
        b_after = np.append(suf_b[1:], 0.0)
        # g evaluated at each breakpoint; first index where it drops to phi
        # or below brackets the active interval (the last breakpoint gives
        # g = 0, so a hit always exists).
        g = a_after - ratios[i, order] * b_after
        k = np.argmax(g <= phi[i])
        gamma[i] = (suf_a[k] - phi[i]) / suf_b[k]

    return _shrink(v, w, gamma)


def _shrink(v, w, gamma):
    """Soft-threshold each row of ``v`` at ``gamma[i] * w``: signs are kept
    and shrunk entries become exact (positive) zeros."""
    part = np.abs(v) - gamma[:, None] * w
    return np.where(part > 0.0, np.sign(v) * part, 0.0)


def _project_rows(v, w, phi):
    """Row-wise projection on validated inputs: float64 arrays, strictly
    positive weights, non-negative radii."""
    out = np.array(v, dtype=np.float64, copy=True)
    todo = np.flatnonzero(np.einsum("ij,ij->i", w, np.abs(v)) > phi)
    out[todo[phi[todo] == 0.0]] = 0.0
    todo = todo[phi[todo] > 0.0]
    if todo.size == 0:
        return out
    out[todo] = _project_block(v[todo], w[todo], phi[todo])

    # Survivors |v| - gamma * w keep only the low bits of |v| when the
    # weights dwarf the radius, so a row can round past phi by far more than
    # an ulp of phi. Raising the threshold by excess / sum(w^2) over the
    # survivors takes the excess off them in proportion to their weights and
    # leaves large entries with small weights in place; a row still past phi
    # (survivors too small to shift) is then scaled back onto its sphere.
    over = todo[np.einsum("ij,ij->i", w[todo], np.abs(out[todo])) > phi[todo]]
    rows, wo, po = out[over], w[over], phi[over]
    excess = np.einsum("ij,ij->i", wo, np.abs(rows)) - po
    rows = _shrink(rows, wo, excess / np.einsum("ij,ij->i", wo * wo, rows != 0.0))
    norms = np.einsum("ij,ij->i", wo, np.abs(rows))
    out[over] = rows * (po / np.maximum(norms, po))[:, None]
    return out


def project_weighted_l1_rows(v, w, phi) -> np.ndarray:
    """Project each row of ``v`` onto the weighted-l1 ball of radius phi[i].

    Rows already satisfying their constraint pass through unchanged; the
    others are soft-thresholded at the smallest level that makes the
    constraint active. Signs are preserved and shrunk entries become exact
    zeros. Three Michelot passes bound the threshold from below and drop the
    entries whose breakpoint ``|v| / w`` lies at or under that bound; a
    sorted scan of the surviving breakpoints then gives the exact threshold.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    phi = np.ascontiguousarray(np.atleast_1d(phi), dtype=np.float64)
    if v.ndim != 2 or v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    if phi.shape != (v.shape[0],):
        raise ValueError(f"need one radius per row, got {phi.shape}")
    if np.any(phi < 0):
        raise ValueError("ball radius must be non-negative")
    _check_weights(w)
    return _project_rows(v, w, phi)


def project_weighted_l1_ball(v, w, phi: float) -> np.ndarray:
    """Euclidean projection of a vector onto ``{x : sum w_i |x_i| <= phi}``."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.ndim != 1 or v.shape != w.shape:
        raise ValueError(f"expected matching vectors, got {v.shape} vs {w.shape}")
    return project_weighted_l1_rows(v[None, :], w[None, :], [phi])[0]


def project_weighted_l1_matrix_ball(s, w, phi_total: float) -> np.ndarray:
    """Project a full matrix onto the weighted-l1 ball of radius phi_total.

    Equivalent to vectorizing, projecting and reshaping back.
    """
    s = np.asarray(s, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if s.shape != w.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {w.shape}")
    flat = project_weighted_l1_ball(s.ravel(), w.ravel(), phi_total)
    return flat.reshape(s.shape)


def project_similarity_ball(b, delta, c_delta) -> np.ndarray:
    """Project each row of ``b`` onto ``{x : ||x - delta_i||^2 <= c_i}``.

    ``b`` and ``delta`` share one shape; a vector is a single row. The radius
    ``c_delta`` is one number for every row or one per row. A zero centre
    makes the ball a norm bound.
    """
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if b.shape != delta.shape or b.ndim not in (1, 2):
        raise ValueError(f"shape mismatch: {b.shape} vs {delta.shape}")
    rows, centres = np.atleast_2d(b), np.atleast_2d(delta)
    radii = np.asarray(c_delta, dtype=np.float64)
    if radii.ndim > 1 or radii.size not in (1, rows.shape[0]):
        raise ValueError(f"need one radius or one per row, got {radii.shape}")
    if np.any(radii < 0):
        raise ValueError("similarity radius must be non-negative")
    diff = rows - centres
    # One BLAS dot per row, so a row rounds as the same vector would alone.
    dist_sq = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    far = dist_sq > radii
    scale = np.sqrt(radii / np.where(far, dist_sq, 1.0))
    return np.where(far[:, None], centres + scale[:, None] * diff, rows).reshape(b.shape)
