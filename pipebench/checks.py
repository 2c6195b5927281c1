"""Correctness checks on fit outputs, computed apart from the program.

Nothing here imports iadl: matrices are read with this module's own parser
of the IADL container, residuals, balls and correlations are recomputed with
plain NumPy, and row projections are compared with a bisection oracle.  Each
check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<4sHII")

# Target sparsity percentages of the generator's recipes, per true source.
MINI_TARGET_THETAS = (95.0, 94.0, 93.0, 90.0, 88.0, 1.0, 1.0, 70.0)
FULL_TARGET_THETAS = (
    95.28, 95.33, 95.53, 88.25, 93.30, 97.04, 88.07, 91.82, 85.51, 92.67,
    91.60, 91.53, 94.51, 94.57, 71.95, 1.00, 1.00, 1.99, 86.14, 71.84,
)

# Relative tolerance on recomputed objectives; trace.csv keeps 12 digits.
OBJECTIVE_RTOL = 1e-9
# Largest relative objective increase accepted between iterations.
MONOTONE_RTOL = 1e-9
# Slack on the ball constraints, relative to the radius.
BALL_RTOL = 1e-9
RHO2_ATOL = 1e-9
PROJECTION_RTOL = 1e-9


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != b"IADL" or len(raw) != _HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path}: not an IADL matrix file")
    return np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(rows, cols).copy()


def read_objective_trace(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row["objective"]) for row in csv.DictReader(fh)])


def residual_matches(x, d, s, last_objective, rtol=OBJECTIVE_RTOL) -> list[str]:
    """||X - DS||^2 from the fitted factors equals the last traced objective."""
    r = np.asarray(x, float) - np.asarray(d, float) @ np.asarray(s, float)
    recomputed = float(np.sum(r * r))
    if not abs(recomputed - last_objective) <= rtol * max(abs(recomputed), 1e-300):
        return [f"residual {recomputed:.12g} != last objective {last_objective:.12g}"]
    return []


def objective_monotone(objective, rtol=MONOTONE_RTOL) -> list[str]:
    obj = np.asarray(objective, float)
    if obj.size == 0:
        return ["empty objective trace"]
    rise = (obj[1:] - obj[:-1]) / np.maximum(np.abs(obj[:-1]), 1e-300)
    bad = np.flatnonzero(rise > rtol)
    if bad.size:
        i = int(bad[0])
        return [f"objective rises at iteration {i + 2}: {obj[i]:.12g} -> {obj[i + 1]:.12g}"]
    return []


def atoms_in_balls(d, delta, c_delta, c_d, rtol=BALL_RTOL) -> list[str]:
    """The first delta.shape[1] atoms lie in their similarity balls, the
    rest within the free-atom norm bound."""
    d = np.asarray(d, float)
    delta = np.asarray(delta, float).reshape(d.shape[0], -1)
    m = delta.shape[1]
    out = []
    for i in range(d.shape[1]):
        if i < m:
            dist = float(np.sum((d[:, i] - delta[:, i]) ** 2))
            if dist > c_delta + rtol * max(c_delta, 1.0):
                out.append(f"assisted atom {i} outside its ball: {dist:.6g} > {c_delta:.6g}")
        else:
            norm = float(d[:, i] @ d[:, i])
            if norm > c_d * (1.0 + rtol):
                out.append(f"free atom {i} exceeds its norm bound: {norm:.6g} > {c_d:.6g}")
    return out


def outer_rho2(d1, s1, d2, s2) -> float:
    """Squared Pearson correlation of two materialized outer products."""
    a = np.outer(d1, s1).ravel()
    b = np.outer(d2, s2).ravel()
    a -= a.mean()
    b -= b.mean()
    den = float(a @ a) * float(b @ b)
    return 0.0 if den <= 0 else min(float(a @ b) ** 2 / den, 1.0)


def rho2_matches(true_courses, true_maps, d, s, mapping, reported, atol=RHO2_ATOL) -> list[str]:
    """Each matched pair's rho^2, from the materialized outer products,
    equals the program's reported value."""
    out = []
    for i, j in mapping.items():
        got = outer_rho2(true_courses[:, i], true_maps[i], d[:, j], s[j])
        if not abs(got - reported[i]) <= atol:
            out.append(f"rho2 of true source {i} / atom {j}: {got:.10f} != reported {reported[i]:.10f}")
    return out


def oracle_rows(v, w, phi, iters=200) -> np.ndarray:
    """Weighted-l1 row projections by bisection on each row's threshold."""
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    phi = np.asarray(phi, float)
    mags = np.abs(v)
    out = v.copy()
    todo = np.flatnonzero(np.sum(w * mags, axis=1) > phi)
    if todo.size == 0:
        return out
    m, ww, p = mags[todo], w[todo], phi[todo]
    lo = np.zeros(todo.size)
    hi = np.max(m / ww, axis=1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        over = np.sum(ww * np.maximum(m - mid[:, None] * ww, 0.0), axis=1) > p
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    part = m - hi[:, None] * ww
    out[todo] = np.where(part > 0.0, np.sign(v[todo]) * part, 0.0)
    return out


def projection_matches_oracle(v, w, phi, got, rtol=PROJECTION_RTOL) -> list[str]:
    ref = oracle_rows(v, w, phi)
    scale = np.maximum(np.max(np.abs(v), axis=1), 1e-300)
    err = np.max(np.abs(np.asarray(got, float) - ref), axis=1) / scale
    bad = np.flatnonzero(err > rtol)
    if bad.size:
        return [f"row projection differs from the bisection oracle on rows {bad.tolist()} "
                f"(worst relative error {float(err.max()):.3g})"]
    return []


def maps_hit_sparsity(maps, target_thetas) -> list[str]:
    """Each generated map has exactly round(N (1 - theta/100)) active voxels."""
    maps = np.asarray(maps, float)
    n = maps.shape[1]
    out = []
    if maps.shape[0] != len(target_thetas):
        return [f"{maps.shape[0]} maps for {len(target_thetas)} targets"]
    for i, theta in enumerate(target_thetas):
        want = int(round(n * (1.0 - theta / 100.0)))
        got = int(np.count_nonzero(maps[i]))
        if got != want:
            out.append(f"map {i}: {got} active voxels, target {want} ({theta}%)")
    return out


def assisted_beats_blind(arm_means: dict) -> list[str]:
    """Mean task-source rho^2: the assisted arm beats the blind arm."""
    a, blind = arm_means["assisted"], arm_means["blind"]
    return [] if a > blind else [f"assisted task rho2 {a:.4f} does not beat blind {blind:.4f}"]
