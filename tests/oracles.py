"""Independent reference implementations shared by the test modules.

These deliberately avoid the package's own code paths: the threshold search
is a plain bisection, spectral quantities come from dense eigensolvers, the
surrogates are written out from their definitions, and correlations,
matching and alignment go one pair at a time or over dense materialized
sources. The ICA reference alone reuses the package's whitening, because it
checks the fixed-point loop's stops, not its arithmetic; the noise
calibration's reference reuses its stop constants, because it checks the
blocked passes, not the secant search. The response reference takes its
densities from ``scipy.stats``, which the package does not import. The
task-course references reuse the boxcar and the convolution, because they
check how courses are stacked and distances summed, condition by condition.
"""

import numpy as np
from scipy.stats import gamma as gamma_dist

from iadl.hrf import (
    build_regressor,
    canonical_hrf,
    default_alternate_hrf,
    hrf_curve,
    task_time_course,
)
from iadl.initializer import _sym_decorrelate, _whiten
from iadl.synthgen import _MAX_POWER_EVALS, _SIGMA_STEP_RTOL


def weighted_l1_norm(x, w) -> float:
    """``sum w |x|`` over arrays of equal shape: a vector's weighted-l1 norm,
    or a matrix's ``sum_ij w_ij |x_ij|``."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape != w.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {w.shape}")
    return float(np.sum(w * np.abs(x)))


def sparsity_percentage(v) -> float:
    """Percentage of exactly zero entries in ``v``."""
    arr = np.asarray(v, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("empty vector has no sparsity percentage")
    return (1.0 - np.count_nonzero(arr) / arr.size) * 100.0


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


def dense_project_rows(v, w, phi):
    """Row projection thresholded over every entry, the bit-exact reference
    for the survivor-only one: each violating row with a positive radius
    goes through the unfiltered scan, then the rows that round past phi are
    gathered and mended (the threshold raised by excess / sum(w^2) over the
    nonzeros, then the row scaled back onto its sphere). Takes float64
    arrays: 2-D ``v`` and ``w``, one radius a row."""
    out = np.array(v, dtype=np.float64, copy=True)
    todo = np.flatnonzero(np.einsum("ij,ij->i", w, np.abs(v)) > phi)
    out[todo[phi[todo] == 0.0]] = 0.0
    todo = todo[phi[todo] > 0.0]
    if todo.size == 0:
        return out
    out[todo] = unfiltered_breakpoint_scan(v[todo], w[todo], phi[todo])

    over = todo[np.einsum("ij,ij->i", w[todo], np.abs(out[todo])) > phi[todo]]
    rows, wo, po = out[over], w[over], phi[over]
    excess = np.einsum("ij,ij->i", wo, np.abs(rows)) - po
    part = np.abs(rows) - (excess / np.einsum("ij,ij->i", wo * wo, rows != 0.0))[:, None] * wo
    rows = np.where(part > 0.0, np.sign(rows) * part, 0.0)
    norms = np.einsum("ij,ij->i", wo, np.abs(rows))
    out[over] = rows * (po / np.maximum(norms, po))[:, None]
    return out


def oracle_spectral_norm(m):
    """Largest eigenvalue through a full symmetric eigendecomposition."""
    return float(np.max(np.linalg.eigvalsh(np.asarray(m, dtype=float))))


def dense_whitening(x, k):
    """The ``k`` leading eigenpairs of the centred rows' covariance, taken
    from a full dense eigensolve in descending order, each vector signed so
    its largest-magnitude entry (the first on ties) is positive; and the
    data whitened by them."""
    xc = x - x.mean(axis=1, keepdims=True)
    evals, evecs = np.linalg.eigh(xc @ xc.T / x.shape[1])
    evals, evecs = evals[::-1][:k], evecs[:, ::-1][:, :k].copy()
    for j in range(k):
        if evecs[np.argmax(np.abs(evecs[:, j])), j] < 0:
            evecs[:, j] *= -1.0
    return evals, evecs, (evecs / np.sqrt(evals)).T @ xc


def capped_fixed_point_ica(x, k, rng_seed, max_iters=400, tol=1e-7):
    """Symmetric tanh fixed-point ICA that stops only when consecutive
    unmixing matrices match to ``tol`` (largest ``1 - |cos|`` over rows) or
    after ``max_iters`` iterations; returns the mixing courses, the maps and
    the iterations run.

    This is the package's loop without its 2-cycle stop. It takes the
    package's whitening and symmetric decorrelation, so that wherever the
    two loops run the same iterations their results agree bit for bit.
    """
    evals, evecs, z = _whiten(x, k)
    n = x.shape[1]
    w = _sym_decorrelate(np.random.default_rng(rng_seed).standard_normal((k, k)))
    for iteration in range(1, max_iters + 1):
        g = np.tanh(w @ z)
        w_new = _sym_decorrelate((g @ z.T) / n - np.diag(np.mean(1.0 - g**2, axis=1)) @ w)
        moved = float(np.max(1.0 - np.abs(np.diag(w_new @ w.T))))
        w = w_new
        if moved < tol:
            break
    return (evecs * np.sqrt(evals)) @ w.T, w @ z, iteration


def coefficient_surrogate(x, d, s, s_anchor, c_s: float) -> float:
    """Quadratic majorizer of the loss in the coefficient block, written out
    from its definition."""
    return (
        float(np.linalg.norm(x - d @ s) ** 2)
        - float(np.linalg.norm(d @ s - d @ s_anchor) ** 2)
        + c_s * float(np.linalg.norm(s - s_anchor) ** 2)
    )


def dictionary_surrogate(x, s, d, d_anchor, c_d: float) -> float:
    """Quadratic majorizer of the loss in the dictionary block, written out
    from its definition."""
    return (
        float(np.linalg.norm(x - d @ s) ** 2)
        - float(np.linalg.norm(d @ s - d_anchor @ s) ** 2)
        + c_d * float(np.linalg.norm(d - d_anchor) ** 2)
    )


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


def matrix_pearson(a, b) -> float:
    """Sample Pearson correlation of two equal-shape matrices, over all
    entries at once; a constant side is an error."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("matrices must share a shape")
    a = a - a.mean()
    b = b - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0.0:
        raise ValueError("correlation undefined for a constant matrix")
    return float(np.clip(a @ b / denom, -1.0, 1.0))


def full_source(d, s) -> np.ndarray:
    """Rank-1 expression ``d s^T`` of one source across time and voxels."""
    return np.outer(np.asarray(d, dtype=np.float64), np.asarray(s, dtype=np.float64))


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


def dense_rician_noise(clean, target_power, rng):
    """The noise calibration over whole arrays: the lifted signal and X are
    full-size arrays, and every evaluation writes X; returns X and sigma.

    Same draws, secant steps and stops as ``synthgen._add_rician_noise``,
    whose blocked passes must reproduce it bit for bit.
    """
    if target_power == 0.0:
        return clean.copy(), 0.0
    g1 = rng.standard_normal(clean.shape)
    g2 = rng.standard_normal(clean.shape)
    baseline = -float(clean.min()) + 6.0 * np.sqrt(target_power)
    lifted = clean + baseline
    x = np.empty_like(clean)
    work = np.empty_like(clean)

    def amplitude(sigma):
        # x = hypot(lifted + sigma g1, sigma g2) - baseline, then the RMS of
        # x - clean; np.mean sums pairwise, independent of the BLAS
        np.multiply(g1, sigma, out=x)
        np.add(lifted, x, out=x)
        np.multiply(g2, sigma, out=work)
        np.hypot(x, work, out=x)
        np.subtract(x, baseline, out=x)
        np.subtract(x, clean, out=work)
        np.square(work, out=work)
        return float(np.sqrt(np.mean(work)))

    target = float(np.sqrt(target_power))
    np.square(g1, out=work)
    sigma = target / float(np.sqrt(np.mean(work)))
    prev_sigma, prev_amp = 0.0, 0.0
    for _ in range(_MAX_POWER_EVALS):
        amp = amplitude(sigma)
        if abs(sigma - prev_sigma) < _SIGMA_STEP_RTOL * sigma or amp == target:
            return x, sigma
        if amp == prev_amp:
            raise RuntimeError(
                f"noise calibration stalled: sigma {prev_sigma!r} and {sigma!r} "
                f"both realize noise amplitude {amp!r}"
            )
        step = (target - amp) * (sigma - prev_sigma) / (amp - prev_amp)
        prev_sigma, prev_amp = sigma, amp
        sigma += step
    raise RuntimeError(
        f"noise calibration did not converge in {_MAX_POWER_EVALS} evaluations: "
        f"sigma {prev_sigma!r} realizes noise amplitude {prev_amp!r}, target {target!r}"
    )


def scipy_two_gamma_curve(params, dt):
    """``hrf.hrf_curve`` with each density from ``scipy.stats.gamma.pdf``."""
    if dt <= 0:
        raise ValueError("sampling step must be positive")
    t = dt * np.arange(int(np.floor(params.kernel_length / dt)) + 1)
    ts = t - params.onset
    peak = gamma_dist.pdf(
        ts, params.peak_delay / params.peak_dispersion, scale=params.peak_dispersion
    )
    undershoot = gamma_dist.pdf(
        ts,
        params.undershoot_delay / params.undershoot_dispersion,
        scale=params.undershoot_dispersion,
    )
    h = peak - params.undershoot_ratio * undershoot
    top = np.max(np.abs(h))
    if top == 0.0:
        raise ValueError("response is identically zero on the sampled kernel")
    return h / top


def looped_task_courses(conditions, n_times, tr, h):
    """``hrf.task_courses`` as a loop: one boxcar and one convolution per
    condition, stacked as columns; (n_times, 0) for no conditions."""
    cols = []
    for cond in conditions:
        u = build_regressor(cond, n_times, tr)
        cols.append(task_time_course(u, h))
    return np.column_stack(cols) if cols else np.zeros((n_times, 0))


def looped_c_delta(conditions, n_times, tr):
    """``hrf.estimate_c_delta`` as a loop: each condition's canonical and
    alternate courses built and compared alone, the mean of the distances."""
    h_ref = canonical_hrf(tr)
    h_alt = hrf_curve(default_alternate_hrf(), tr)
    distances = []
    for cond in conditions:
        u = build_regressor(cond, n_times, tr)
        d_ref = task_time_course(u, h_ref)
        d_alt = task_time_course(u, h_alt)
        distances.append(float(np.sum((d_ref - d_alt) ** 2)))
    return float(np.mean(distances))
