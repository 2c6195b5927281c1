"""Independent reference implementations shared by the test modules.

These deliberately avoid the package's own code paths: the threshold search
is a plain bisection, spectral quantities come from dense eigensolvers, and
correlations, matching, merging and alignment go one pair at a time.
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
    for the filtered one: rows must violate their radius and phi > 0.
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


def pair_pearson(a, b):
    """Pearson r of two vectors by a centred dot product; 0 for a constant
    side. Not clipped, so it can round past 1 in magnitude."""
    a = a - a.mean()
    b = b - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(a @ b / denom)


def pair_outer_pearson_sq(d1, s1, d2, s2):
    """rho^2 between two outer products from per-factor moments; 0 for a
    constant source."""
    count = d1.size * s1.size
    sum1 = d1.sum() * s1.sum()
    sum2 = d2.sum() * s2.sum()
    sq1 = (d1 @ d1) * (s1 @ s1)
    sq2 = (d2 @ d2) * (s2 @ s2)
    cross = (d1 @ d2) * (s1 @ s2)
    var1 = sq1 - sum1 * sum1 / count
    var2 = sq2 - sum2 * sum2 / count
    if var1 <= 0 or var2 <= 0:
        return 0.0
    cov = cross - sum1 * sum2 / count
    return float(min(cov * cov / (var1 * var2), 1.0))


def pair_course_pearson_sq(d1, d2):
    c1 = d1 - d1.mean()
    c2 = d2 - d2.mean()
    denom = (c1 @ c1) * (c2 @ c2)
    if denom <= 0:
        return 0.0
    num = c1 @ c2
    return float(min(num * num / denom, 1.0))


def pairwise_score_tables(truth_d, truth_s, dv, sv):
    """Full-source and time-course rho^2 tables, one pair at a time."""
    k_true, k_est = truth_d.shape[1], dv.shape[1]
    full = np.zeros((k_true, k_est))
    time = np.zeros((k_true, k_est))
    for i in range(k_true):
        for j in range(k_est):
            full[i, j] = pair_outer_pearson_sq(truth_d[:, i], truth_s[i], dv[:, j], sv[j])
            time[i, j] = pair_course_pearson_sq(truth_d[:, i], dv[:, j])
    return full, time


def pairwise_match(truth_d, truth_s, dv, sv, p, full_source=True):
    """Assisted-then-greedy matching on the per-pair tables: the first
    ``len(p)`` estimates go to the true sources ``p``; the rest take the
    largest open rho^2 entry, lowest row then column on ties. Returns the
    mapping and the full-source and time-course rho^2 along it."""
    full, time = pairwise_score_tables(truth_d, truth_s, dv, sv)
    table = full if full_source else time
    k_true, k_est = table.shape
    mapping = {i: j for j, i in enumerate(p)}
    while len(mapping) < min(k_true, k_est):
        best = None
        for i in range(k_true):
            for j in range(k_est):
                if i in mapping or j in mapping.values():
                    continue
                if best is None or table[i, j] > table[best]:
                    best = (i, j)
        mapping[best[0]] = best[1]
    r_full = np.zeros(k_true)
    r_time = np.zeros(k_true)
    for i, j in mapping.items():
        r_full[i] = full[i, j]
        r_time[i] = time[i, j]
    return mapping, r_full, r_time


def pairwise_merge(d, s, threshold):
    """Merge the course pair of largest |r| beyond the threshold, the first
    (i, j), i < j, on ties, until none is left; per-pair loops."""
    d = np.array(d, dtype=float)
    s = np.array(s, dtype=float)
    while d.shape[1] > 1:
        best = None
        for i in range(d.shape[1]):
            for j in range(i + 1, d.shape[1]):
                rho = pair_pearson(d[:, i], d[:, j])
                if abs(rho) > threshold and (best is None or abs(rho) > abs(best[2])):
                    best = (i, j, rho)
        if best is None:
            break
        i, j, rho = best
        sign = 1.0 if rho >= 0 else -1.0
        d[:, i] = d[:, i] + sign * d[:, j]
        nrm = np.linalg.norm(d[:, i])
        if nrm > 0:
            d[:, i] /= nrm
        s[i] = s[i] + sign * s[j]
        d = np.delete(d, j, axis=1)
        s = np.delete(s, j, axis=0)
    return d, s


def pairwise_align(dv, sv, delta):
    """For each task course in turn, take the open atom of largest |r| (the
    first on ties); the picks go first, the course replaces the atom and a
    negative match flips the map."""
    m = delta.shape[1]
    matched, signs = [], []
    remaining = list(range(dv.shape[1]))
    for i in range(m):
        corrs = [pair_pearson(delta[:, i], dv[:, j]) for j in remaining]
        pick = int(np.argmax(np.abs(corrs)))
        matched.append(remaining.pop(pick))
        signs.append(1.0 if corrs[pick] >= 0 else -1.0)
    perm = matched + remaining
    d_new = dv[:, perm].copy()
    s_new = sv[perm].copy()
    d_new[:, :m] = delta
    for i, sign in enumerate(signs):
        if sign < 0:
            s_new[i] = -s_new[i]
    return d_new, s_new
