"""Decomposition scoring: full-source and time-course Pearson tables,
greedy assisted-then-blind matching, and the atlas sparsity arithmetic.

Pearson r is written once, as a table over all pairs built from raw
moments (``_pearson_table``); a ratio of moments needs no divisor
convention. The initializer's alignment reads the course table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import CoefficientMatrix, Dictionary, SourceSet
from .synthgen import BRAIN_KINDS

FULL_SOURCE = "full_source"
TIME_COURSE = "time_course"


def _pearson_table(sum_a, sq_a, sum_b, sq_b, cross, count) -> np.ndarray:
    """Pearson r of every pair (i, j) from the raw moments of two sets of
    ``count``-sample vectors: their sums, sums of squares and cross sums.

    A side whose moments give no positive variance is constant, and its
    pairs get 0. r is clipped to [-1, 1].
    """
    cov = cross - np.outer(sum_a, sum_b) / count
    spread_a = np.sqrt(np.maximum(sq_a - sum_a * sum_a / count, 0.0))
    spread_b = np.sqrt(np.maximum(sq_b - sum_b * sum_b / count, 0.0))
    denom = np.outer(spread_a, spread_b)
    r = np.divide(cov, denom, out=np.zeros_like(cov), where=denom > 0)
    return np.clip(r, -1.0, 1.0)


def _course_table(a, b) -> np.ndarray:
    """Pearson r between every column of ``a`` and every column of ``b``.

    Columns are centred, as uncentred moments can round |r| past 1, and
    constant ones zeroed, as centring can leave them a rounding-size
    constant. ``einsum`` gives equal columns equal entries: ties stay exact.
    """
    a, b = (np.where(np.ptp(v, axis=0) > 0, v - v.mean(axis=0), 0.0) for v in (a, b))
    return _pearson_table(
        np.zeros(a.shape[1]), np.einsum("ti,ti->i", a, a),
        np.zeros(b.shape[1]), np.einsum("ti,ti->i", b, b),
        np.einsum("ti,tj->ij", a, b), a.shape[0],
    )


def _full_source_table(d_a, s_a, d_b, s_b) -> np.ndarray:
    """Pearson r between the full sources ``d s^T`` of two sets, without
    materializing them: each moment of ``d s^T`` is the product of that
    moment of ``d`` and of ``s``. A source whose course and map are both
    constant is zeroed, as its moments can round to a small variance.
    """
    d_a, d_b = (
        np.where((np.ptp(d, axis=0) > 0) | (np.ptp(s, axis=1) > 0), d, 0.0)
        for d, s in ((d_a, s_a), (d_b, s_b))
    )
    return _pearson_table(
        d_a.sum(axis=0) * s_a.sum(axis=1),
        np.einsum("ti,ti->i", d_a, d_a) * np.einsum("in,in->i", s_a, s_a),
        d_b.sum(axis=0) * s_b.sum(axis=1),
        np.einsum("ti,ti->i", d_b, d_b) * np.einsum("in,in->i", s_b, s_b),
        np.einsum("ti,tj->ij", d_a, d_b) * np.einsum("in,jn->ij", s_a, s_b),
        d_a.shape[0] * s_a.shape[1],
    )


@dataclass(frozen=True)
class MatchReport:
    """Greedy matching outcome: per-true-source scores and set summaries."""

    mapping: dict
    r_full: np.ndarray
    r_time: np.ndarray
    summaries: dict


def match_and_score(
    truth: SourceSet,
    est_dictionary: Dictionary,
    est_coefficients: CoefficientMatrix,
    assisted_true_indices,
    mode: str = FULL_SOURCE,
) -> MatchReport:
    """Assign estimated sources to true sources and score the assignment.

    Both rho^2 tables, full source and time course, are built once over
    all (true, estimate) pairs; ``mode`` picks the one that drives the
    matching. Assisted estimates (the first M atoms) are matched directly
    to their known true sources; the rest greedily take the largest
    remaining entry, with ties resolved at the lowest row then column
    index. ``r_full`` and ``r_time`` read both tables along the assignment.
    """
    if mode not in (FULL_SOURCE, TIME_COURSE):
        raise ValueError(f"unknown scoring mode {mode!r}")
    p = [int(i) for i in assisted_true_indices]
    m = est_dictionary.assisted_count
    k_true = truth.n_sources
    k_est = est_dictionary.n_atoms
    if m > k_est:
        raise ValueError("assisted count exceeds estimated source count")
    if len(p) != m:
        raise ValueError("need one true index per assisted source")
    if len(set(p)) != len(p) or any(not 0 <= i < k_true for i in p):
        raise ValueError("assisted true indices must be distinct and in range")

    dv = est_dictionary.values
    sv = est_coefficients.values
    td = truth.time_courses
    r2_full = _full_source_table(td, truth.spatial_maps, dv, sv) ** 2
    r2_time = _course_table(td, dv) ** 2
    c = r2_full if mode == FULL_SOURCE else r2_time

    mapping = dict(zip(p, range(m)))
    open_rows = ~np.isin(np.arange(k_true), p)
    open_cols = np.arange(k_est) >= m
    for _ in range(min(k_true, k_est) - m):
        masked = np.where(open_rows[:, None] & open_cols[None, :], c, -1.0)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        mapping[int(i)] = int(j)
        open_rows[i] = False
        open_cols[j] = False

    rows, cols = list(mapping), list(mapping.values())
    r_full, r_time = np.zeros(k_true), np.zeros(k_true)
    r_full[rows], r_time[rows] = r2_full[rows, cols], r2_time[rows, cols]

    brain = [i for i, kind in enumerate(truth.kinds) if kind in BRAIN_KINDS]
    sets = {"assisted": p, "brain": brain or list(range(k_true)), "all": list(range(k_true))}
    summaries = {}
    for name, idx in sets.items():
        if idx:
            summaries[f"{name}_full"] = float(np.mean(r_full[idx]))
            summaries[f"{name}_time"] = float(np.mean(r_time[idx]))
    return MatchReport(mapping=mapping, r_full=r_full, r_time=r_time, summaries=summaries)


def atlas_fbn_sparsity(region_thetas) -> float:
    """Sparsity percentage of a network spread over non-overlapping
    regions with known per-region sparsities."""
    thetas = [float(t) for t in region_thetas]
    if not thetas:
        raise ValueError("need at least one region")
    for theta in thetas:
        if not 0.0 <= theta <= 100.0:
            raise ValueError(f"region sparsity {theta} outside [0, 100]")
    result = 100.0 * (1 - len(thetas)) + sum(thetas)
    if result < 0.0:
        raise ValueError(
            "regions cover more than the whole volume; the non-overlap "
            "assumption is violated"
        )
    return result
