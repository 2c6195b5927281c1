"""Independent reference implementations shared by the test modules.

These deliberately avoid the package's own code paths: the threshold search
is a plain bisection and spectral quantities come from dense eigensolvers.
"""

import numpy as np


def oracle_gamma_bisection(v, w, phi, iters=200):
    mags = np.abs(v)
    lo, hi = 0.0, float(np.max(mags / w))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(w * np.maximum(mags - mid * w, 0.0)) > phi:
            lo = mid
        else:
            hi = mid
    return hi


def oracle_project(v, w, phi):
    """Weighted-l1 ball projection via bisection on the threshold."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.sum(w * np.abs(v)) <= phi:
        return v.copy()
    gamma = oracle_gamma_bisection(v, w, phi)
    part = np.abs(v) - gamma * w
    return np.where(part > 0, np.sign(v) * part, 0.0)


def unfiltered_breakpoint_scan(v, w, phi):
    """Row projection by one sorted scan of all breakpoints ``|v| / w``.

    The scan without the Michelot filter, kept as the bit-exact reference
    for the filtered one: rows must violate their radius, phi > 0, and the
    weights must stay within the breakpoint path's ratio limit.
    """
    v, w, phi = (np.asarray(a, dtype=float) for a in (v, w, phi))
    mags = np.abs(v)
    ratios = mags / w
    order = np.argsort(ratios, axis=1, kind="stable")
    r_sorted = np.take_along_axis(ratios, order, axis=1)
    wm = np.take_along_axis(w * mags, order, axis=1)
    w2 = np.take_along_axis(w * w, order, axis=1)
    suf_a = np.cumsum(wm[:, ::-1], axis=1)[:, ::-1]
    suf_b = np.cumsum(w2[:, ::-1], axis=1)[:, ::-1]
    zeros = np.zeros((v.shape[0], 1))
    a_after = np.concatenate([suf_a[:, 1:], zeros], axis=1)
    b_after = np.concatenate([suf_b[:, 1:], zeros], axis=1)
    k = np.argmax(a_after - r_sorted * b_after <= phi[:, None], axis=1)
    rows = np.arange(v.shape[0])
    gamma = (suf_a[rows, k] - phi) / suf_b[rows, k]
    part = mags - gamma[:, None] * w
    return np.where(part > 0.0, np.sign(v) * part, 0.0)


def oracle_spectral_norm(m):
    """Largest eigenvalue through a full symmetric eigendecomposition."""
    return float(np.max(np.linalg.eigvalsh(np.asarray(m, dtype=float))))


def oracle_ball_columns(b, delta, c_delta, c_d):
    """Project column i of ``b`` onto ``||x - delta_i||^2 <= c_delta`` for the
    first ``delta.shape[1]`` columns and onto ``||x||^2 <= c_d`` for the rest,
    one column at a time."""
    b = np.asarray(b, dtype=float)
    m = delta.shape[1]
    out = np.empty_like(b)
    for i in range(b.shape[1]):
        centre = delta[:, i] if i < m else np.zeros(b.shape[0])
        radius = c_delta if i < m else c_d
        diff = b[:, i] - centre
        dist_sq = float(diff @ diff)
        out[:, i] = b[:, i] if dist_sq <= radius else centre + np.sqrt(radius / dist_sq) * diff
    return out


def per_atom_dictionary_step(x, s, d, delta, c_delta, c_d):
    """The dictionary step written on D itself: the right-multiplied gradient
    step ``(X S^T + D (cI - S S^T)) / c``, then each atom projected alone.

    Returns the new dictionary and the step constant ``c``, which is the
    top eigenvalue of S S^T times 1.01, floored at 1e-12.
    """
    gram = s @ s.T
    c = max(1.01 * oracle_spectral_norm(gram), 1e-12)
    b = (x @ s.T + d @ (c * np.eye(gram.shape[0]) - gram)) / c
    return oracle_ball_columns(b, delta, c_delta, c_d), c


def random_feasible_points(w, phi, count, rng):
    """Random points drawn inside the weighted-l1 ball."""
    u = rng.standard_normal((count, np.asarray(w).size))
    norms = np.sum(w * np.abs(u), axis=1)
    scale = phi * rng.random(count) / np.maximum(norms, 1e-300)
    return u * scale[:, None]
