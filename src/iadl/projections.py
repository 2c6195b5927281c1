"""The reweighting and the projection operators of the solver and the
initializer: weighted-l1 balls per row or over a whole matrix, and
similarity balls around the task time courses.

All functions are pure, and row-wise matrix projections share no mutable
state. A row's projection can still depend on its block: the row sums
(``np.einsum("ij,ij->i", ...)``) that feed the violation test, the Michelot
bounds and the mend split a row longer than 8 192 elements at buffer
boundaries set by its offset in the block. Up to 8 192 columns a row gets
the bits it gets alone; past that (the full recipe's 10 000 voxels) it may
differ in the last bits, so projecting a block's rows in parallel pieces is
not bit-identical to projecting the block whole.
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
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon (weight stabilizer) must be positive and finite")
    return 1.0 / (np.abs(np.asarray(x, dtype=np.float64)) + epsilon)


def _check_weights(w):
    # a NaN fails the first comparison
    if w.size and not (np.min(w) > 0 and np.max(w) < np.inf):
        raise ValueError("weights must be strictly positive and finite")


def _project_block(v, w, phi):
    """Project rows that violate a positive radius: Michelot passes drop
    entries at or below a lower bound on the threshold, then a sorted
    breakpoint scan over the survivors finds it exactly, at any spread of
    the weights. Only the survivors are sorted and thresholded; the dropped
    entries lie below the threshold and stay at +0.0."""
    # the breakpoints |v| / w are divided in place from the magnitudes
    ratios = np.abs(v)
    wm = w * ratios
    ratios /= w
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

    out = np.zeros(v.shape)
    for i, survivors in enumerate(keep):
        idx = np.flatnonzero(survivors)
        gamma = _threshold(ratios[i], wm[i], w2[i], idx, phi[i])
        out[i, idx] = _shrink(v[i, idx], w[i, idx], gamma)
    return out


def _threshold(ratios, wm, w2, idx, phi):
    """The exact threshold of one row from the breakpoints ``ratios`` at its
    survivors ``idx``, with ``wm = w |v|`` and ``w2 = w^2``. Its sorted
    order, breakpoints and sums are freed on return, before the row is
    thresholded, and the order as soon as the sums are formed."""
    # NumPy's default sort may order tied breakpoints unlike a stable
    # sort, which moves the threshold by rounding; a row with ties is
    # re-sorted stably, so every row sums in the stable scan's order.
    order = idx[np.argsort(ratios[idx])]
    r = ratios[order]
    if np.count_nonzero(r[1:] == r[:-1]):
        order = idx[np.argsort(ratios[idx], kind="stable")]
        r = ratios[order]
    # Suffix sums over the sorted breakpoints; summing from the small
    # end keeps each suffix accurate relative to its own magnitude.
    # Dropped entries precede every survivor in the full sorted order,
    # so these are the full row's suffix sums, bit for bit.
    suf_a = np.cumsum(wm[order][::-1])[::-1]
    suf_b = np.cumsum(w2[order][::-1])[::-1]
    del order
    # g at each breakpoint, the sums over the entries after it less its
    # ratio times theirs; the first index where g drops to phi or below
    # brackets the active interval. The last breakpoint gives g = 0, so
    # it is the hit when no earlier one is.
    g = r[:-1] * suf_b[1:]
    np.subtract(suf_a[1:], g, out=g)
    hit = g <= phi
    k = int(np.argmax(hit)) if hit.any() else hit.size
    # A row over phi only by the rounding of its sums can scan to a negative
    # threshold, which would grow every entry. Nothing was dropped from it
    # (its Michelot bound is negative too): at 0 it comes back as it is.
    return max((suf_a[k] - phi) / suf_b[k], 0.0)


def _shrink(v, w, gamma):
    """Soft-threshold ``v`` at ``gamma * w`` (``gamma`` broadcast against
    ``w``) in one array: ``sign(v) * part`` where ``part = |v| - gamma * w``
    is positive, else +0.0 (``fmax`` takes a NaN part to 0, and ``+ 0.0``
    turns the -0.0 of a shrunk negative entry into +0.0)."""
    part = np.abs(v)
    part -= gamma * w
    np.fmax(part, 0.0, out=part)
    part *= np.sign(v)
    part += 0.0
    return part


def _project_rows(v, w, phi):
    """Row-wise projection of float64 arrays under validated weights, strictly
    positive, and radii, non-negative. When every row violates a positive
    radius, the block is projected as it is, with no copy of its rows.

    ``v`` is checked through its rows' weighted norms, which the violation
    test forms anyway: under finite positive weights a NaN or an infinite
    entry makes its row's norm non-finite, and only then is ``v`` itself
    scanned, since a finite row can also overflow its norm."""
    norms = np.einsum("ij,ij->i", w, np.abs(v))
    if not np.all(np.isfinite(norms)) and not np.all(np.isfinite(v)):
        raise ValueError("v must be finite: it holds a NaN or an infinite entry")
    over = norms > phi
    todo = np.flatnonzero(over & (phi > 0.0))
    if todo.size == v.shape[0]:
        return _project_violating(v, w, phi)
    out = np.array(v, copy=True)
    out[over & (phi == 0.0)] = 0.0
    if todo.size:
        out[todo] = _project_violating(v[todo], w[todo], phi[todo])
    return out


def _project_violating(v, w, phi):
    """``_project_block``, then the rows that round past phi mended."""
    block = _project_block(v, w, phi)
    # Survivors |v| - gamma * w keep only the low bits of |v| when the
    # weights dwarf the radius, so a row can round past phi by far more than
    # an ulp of phi. Raising the threshold by excess / sum(w^2) over the
    # survivors takes the excess off them in proportion to their weights and
    # leaves large entries with small weights in place; a row still past phi
    # (survivors too small to shift) is then scaled back onto its sphere.
    norms = np.einsum("ij,ij->i", w, np.abs(block))
    over = np.flatnonzero(norms > phi)
    if over.size == 0:
        return block
    rows, wo, po = block[over], w[over], phi[over]
    lift = (norms[over] - po) / np.einsum("ij,ij->i", wo * wo, rows != 0.0)
    rows = _shrink(rows, wo, lift[:, None])
    norms = np.einsum("ij,ij->i", wo, np.abs(rows))
    block[over] = rows * (po / np.maximum(norms, po))[:, None]
    return block


def project_weighted_l1_rows(v, w, phi) -> np.ndarray:
    """Project each row of ``v`` onto the weighted-l1 ball of radius phi[i].

    Rows already satisfying their constraint pass through unchanged; the
    others are soft-thresholded at the smallest level that makes the
    constraint active. Signs are preserved and shrunk entries become exact
    zeros. Three Michelot passes bound the threshold from below and drop the
    entries whose breakpoint ``|v| / w`` lies at or under that bound; a
    sorted scan of the surviving breakpoints then gives the exact threshold,
    and only the survivors are thresholded (about a fifth of a solver row).
    A NaN or an infinite entry of ``v`` is refused, and so is a NaN radius;
    an infinite radius keeps its row.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    phi = np.ascontiguousarray(np.atleast_1d(phi), dtype=np.float64)
    if v.ndim != 2 or v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    if phi.shape != (v.shape[0],):
        raise ValueError(f"need one radius per row, got {phi.shape}")
    if not np.all(phi >= 0):
        raise ValueError("ball radius must be non-negative")
    _check_weights(w)
    return _project_rows(v, w, phi)


def project_weighted_l1_matrix_ball(s, w, phi_total: float) -> np.ndarray:
    """Project a whole array onto ``{x : sum w_ij |x_ij| <= phi_total}``.

    ``s`` and ``w`` share one shape; the array is projected as one row, so a
    vector gets its own weighted-l1 ball.
    """
    s = np.asarray(s, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if s.shape != w.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {w.shape}")
    flat = project_weighted_l1_rows(s.reshape(1, -1), w.reshape(1, -1), [phi_total])
    return flat.reshape(s.shape)


def project_similarity_ball(b, delta, c_delta) -> np.ndarray:
    """Project each row of ``b`` onto ``{x : ||x - delta_i||^2 <= c_i}``.

    ``b`` and ``delta`` share one shape; a vector is a single row. The radius
    ``c_delta`` is one number for every row or one per row; a NaN radius is
    refused, and an infinite one keeps its row. A zero centre makes the ball
    a norm bound.
    """
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if b.shape != delta.shape or b.ndim not in (1, 2):
        raise ValueError(f"shape mismatch: {b.shape} vs {delta.shape}")
    rows, centres = np.atleast_2d(b), np.atleast_2d(delta)
    radii = np.asarray(c_delta, dtype=np.float64)
    if radii.ndim > 1 or radii.size not in (1, rows.shape[0]):
        raise ValueError(f"need one radius or one per row, got {radii.shape}")
    if not np.all(radii >= 0):
        raise ValueError("similarity radius must be non-negative")
    diff = rows - centres
    # One BLAS dot per row, so a row rounds as the same vector would alone.
    dist_sq = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    far = dist_sq > radii
    # a row inside its ball keeps a finite scale, also under an infinite radius
    scale = np.sqrt(np.minimum(radii, dist_sq) / np.where(far, dist_sq, 1.0))
    return np.where(far[:, None], centres + scale[:, None] * diff, rows).reshape(b.shape)
