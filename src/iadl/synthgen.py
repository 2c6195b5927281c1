"""Synthetic benchmark construction: overlapping plateau spatial maps,
task/transient time courses under a subject response, realistic artifact
sources and Rician noise.

The scale of the injected noise is calibrated on the realized magnitude
perturbation: sigma is found by secant steps so that mean((X - Y)^2) on the
returned X meets the power implied by the requested SNR to rounding. That
convention is a documented choice; pass ``snr_db=inf`` for a noise-free
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .hrf import (
    ConditionSpec,
    TwoGammaParams,
    build_regressor,
    canonical_params,
    hrf_curve,
    task_time_course,
)
from .types import DataMatrix, SourceSet, phi_from_theta

TASK = "task"
TRANSIENT = "transient"
ARTIFACT_SUBGAUSSIAN = "artifact_subgaussian"
ARTIFACT_GAUSSIAN = "artifact_gaussian"
ARTIFACT_SUPERGAUSSIAN = "artifact_supergaussian"

BRAIN_KINDS = (TASK, TRANSIENT)
ARTIFACT_KINDS = (ARTIFACT_SUBGAUSSIAN, ARTIFACT_GAUSSIAN, ARTIFACT_SUPERGAUSSIAN)

# Chance of a spontaneous event in each sample of a transient time course.
_EVENT_RATE = 0.04

# The noise calibration stops after a secant step smaller than this share of
# sigma; the steps converge superlinearly, so the power realized at the new
# sigma then meets its target to rounding. It takes 2 to 5 evaluations of
# the realized power on the mini and full recipes from -40 to 100 dB;
# failing to settle within the cap is an error, not a dataset at the wrong
# SNR.
_SIGMA_STEP_RTOL = 1e-9
_MAX_POWER_EVALS = 30


@dataclass(frozen=True)
class SyntheticSourceSpec:
    """Recipe for one source: blob geometry for brain-like kinds, a target
    sparsity percentage, and the condition timing for task sources."""

    kind: str
    target_sparsity: float
    blob_centers: tuple = ()
    blob_radius: float = 3.0
    plateau_fraction: float = 0.0
    condition: ConditionSpec | None = None

    def __post_init__(self):
        if self.kind not in BRAIN_KINDS + ARTIFACT_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not 0.0 <= self.target_sparsity <= 100.0:
            raise ValueError("target sparsity must lie in [0, 100]")
        if not 0.0 <= self.plateau_fraction <= 1.0:
            raise ValueError("plateau fraction must lie in [0, 1]")
        if self.kind == TASK and self.condition is None:
            raise ValueError("task sources need a condition")
        if self.kind in BRAIN_KINDS and not self.blob_centers:
            raise ValueError("brain-like sources need blob centers")


@dataclass(frozen=True)
class SyntheticDataset:
    x: DataMatrix
    truth: SourceSet
    assisted_indices: tuple
    hrf: TwoGammaParams
    noise_sigma: float
    grid: tuple


def generate_spatial_map(spec: SyntheticSourceSpec, grid, rng) -> np.ndarray:
    """Sum of Gaussian bumps thresholded to the target sparsity, with the
    strongest ``plateau_fraction`` of active voxels flattened to the peak."""
    h, w = grid
    n = h * w
    for r, c in spec.blob_centers:
        if not (0 <= r < h and 0 <= c < w):
            raise ValueError(f"blob center {(r, c)} outside {h}x{w} grid")
    rows, cols = np.mgrid[0:h, 0:w]
    field = np.zeros((h, w))
    for r, c in spec.blob_centers:
        dist_sq = (rows - r) ** 2 + (cols - c) ** 2
        field += np.exp(-dist_sq / (2.0 * spec.blob_radius**2))
    flat = field.ravel()

    k = int(round(phi_from_theta(spec.target_sparsity, n)))
    if k == 0:
        return np.zeros(n)
    reachable = int(np.count_nonzero(flat > flat.max() * 1e-12))
    if k > reachable:
        raise ValueError(
            f"target sparsity {spec.target_sparsity}% needs {k} active voxels "
            f"but the blobs only reach {reachable}"
        )
    order = np.argsort(-flat, kind="stable")
    out = np.zeros(n)
    active = order[:k]
    out[active] = flat[active]
    if spec.plateau_fraction > 0:
        plateau = order[: int(np.ceil(spec.plateau_fraction * k))]
        out[plateau] = flat.max()
    return out / out.max()


def artifact_values(kind: str, n: int, rng) -> np.ndarray:
    """Raw i.i.d. draws for an artifact map (tails ordered by the kind)."""
    if kind == ARTIFACT_SUBGAUSSIAN:
        return rng.uniform(-1.0, 1.0, n)
    if kind == ARTIFACT_GAUSSIAN:
        return rng.standard_normal(n)
    if kind == ARTIFACT_SUPERGAUSSIAN:
        return rng.laplace(0.0, 1.0, n)
    raise ValueError(f"unknown artifact kind {kind!r}")


def generate_artifact_pair(kind: str, sparsity: float, n_times: int, n_voxels: int, rng):
    """Artifact (time course, spatial map): smoothed-noise course with unit
    peak and an i.i.d. map masked to the requested sparsity."""
    k = int(round(phi_from_theta(sparsity, n_voxels)))
    spatial = np.zeros(n_voxels)
    if k > 0:
        idx = rng.choice(n_voxels, size=k, replace=False)
        spatial[idx] = artifact_values(kind, k, rng)
        top = np.max(np.abs(spatial))
        if top > 0:
            spatial /= top
    course = gaussian_filter1d(rng.standard_normal(n_times), sigma=2.0)
    course /= np.max(np.abs(course))
    return course, spatial


def transient_time_course(n_times: int, tr: float, hrf_params: TwoGammaParams, rng) -> np.ndarray:
    """Spontaneous activity: a sparse event train convolved with the
    subject response, unit peak."""
    events = (rng.random(n_times) < _EVENT_RATE).astype(np.float64)
    if not events.any():
        events[int(rng.integers(n_times))] = 1.0
    return task_time_course(events, hrf_curve(hrf_params, tr))


def _add_rician_noise(clean, target_power, rng):
    """Magnitude noise around a baseline-lifted intensity; returns the
    noisy data and sigma.

    Scanners measure magnitudes around a large mean intensity; applying the
    magnitude transform to the raw signed mixture would rectify negative
    values and put a floor above the 0 dB target. The lift keeps the
    complex displacement genuinely Rician while the returned data stays on
    the source scale.

    Sigma is found by secant steps on the realized noise amplitude
    sqrt(mean((X - clean)^2)), which is close to linear in sigma: the
    perturbation is sigma * g1 to first order, so the search starts at
    sqrt(target_power / mean(g1^2)) and takes its first step through the
    origin. Each evaluation is one pass over two preallocated work arrays,
    and the last one is the returned X, so the realized power is measured on
    exactly the data returned and meets the target to rounding. A zero
    target (an all-zero clean signal) gives sigma = 0 and X = clean.
    """
    g1 = rng.standard_normal(clean.shape)
    g2 = rng.standard_normal(clean.shape)
    if target_power == 0.0:
        return clean.copy(), 0.0
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


def assemble_dataset(
    specs,
    grid,
    n_times: int,
    tr: float,
    hrf_params: TwoGammaParams,
    snr_db: float,
    rng,
) -> SyntheticDataset:
    """Build the ground-truth bundle from the recipes and corrupt the clean
    mixture with magnitude (Rician) noise at the requested SNR."""
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one source recipe")
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError("snr_db must be a real number or +inf")
    h, w = grid
    n_voxels = h * w

    courses = np.zeros((n_times, len(specs)))
    maps = np.zeros((len(specs), n_voxels))
    kinds = []
    for j, spec in enumerate(specs):
        if spec.kind in BRAIN_KINDS:
            maps[j] = generate_spatial_map(spec, grid, rng)
            if spec.kind == TASK:
                u = build_regressor(spec.condition, n_times, tr)
                courses[:, j] = task_time_course(u, hrf_curve(hrf_params, tr))
            else:
                courses[:, j] = transient_time_course(n_times, tr, hrf_params, rng)
        else:
            course, spatial = generate_artifact_pair(
                spec.kind, spec.target_sparsity, n_times, n_voxels, rng
            )
            courses[:, j] = course
            maps[j] = spatial
        kinds.append(spec.kind)

    clean = courses @ maps
    if np.isinf(snr_db):
        x = clean.copy()
        sigma = 0.0
    else:
        signal_power = float(np.mean(clean**2))
        target_power = signal_power * 10.0 ** (-snr_db / 10.0)
        x, sigma = _add_rician_noise(clean, target_power, rng)

    truth = SourceSet(time_courses=courses, spatial_maps=maps, kinds=tuple(kinds))
    assisted = tuple(j for j, spec in enumerate(specs) if spec.kind == TASK)
    return SyntheticDataset(
        x=DataMatrix(x, tr=tr),
        truth=truth,
        assisted_indices=assisted,
        hrf=hrf_params,
        noise_sigma=float(sigma),
        grid=(h, w),
    )


# Desk-scale benchmark: 40x40 grid, 150 samples at tr=2. Two task sources
# with interleaved block timings and strongly overlapping double-blob maps,
# three background sources, three artifacts (two dense).
MINI_GRID = (40, 40)
MINI_N_TIMES = 150
MINI_TR = 2.0
MINI_SNR_DB = 10.0
# Two event-related designs with interleaved trains; short events keep the
# course shapes sensitive to response mismatch, which together with the
# spatial overlap below is what makes this pair hard to separate blindly.
MINI_CONDITIONS = (
    ConditionSpec(onsets=(10.0, 60.0, 110.0, 170.0, 230.0, 280.0),
                  durations=(6.0, 6.0, 6.0, 6.0, 6.0, 6.0)),
    ConditionSpec(onsets=(25.0, 75.0, 125.0, 180.0, 225.0, 275.0),
                  durations=(4.0, 4.0, 4.0, 4.0, 4.0, 4.0)),
)
MINI_SPECS = (
    SyntheticSourceSpec(TASK, 95.0, blob_centers=((13, 13), (13, 27)),
                        blob_radius=3.2, plateau_fraction=0.15,
                        condition=MINI_CONDITIONS[0]),
    SyntheticSourceSpec(TASK, 94.0, blob_centers=((15, 14), (15, 26)),
                        blob_radius=3.2, plateau_fraction=0.15,
                        condition=MINI_CONDITIONS[1]),
    SyntheticSourceSpec(TRANSIENT, 93.0, blob_centers=((30, 8),), blob_radius=3.0),
    SyntheticSourceSpec(TRANSIENT, 90.0, blob_centers=((8, 32),), blob_radius=3.5),
    SyntheticSourceSpec(TRANSIENT, 88.0, blob_centers=((28, 28),), blob_radius=4.0),
    SyntheticSourceSpec(ARTIFACT_SUBGAUSSIAN, 1.0),
    SyntheticSourceSpec(ARTIFACT_GAUSSIAN, 1.0),
    SyntheticSourceSpec(ARTIFACT_SUPERGAUSSIAN, 70.0),
)


def mini_benchmark(rng, snr_db: float = MINI_SNR_DB, hrf_params: TwoGammaParams | None = None):
    """Fixed desk-scale dataset used by the acceptance suite."""
    return assemble_dataset(
        MINI_SPECS,
        MINI_GRID,
        MINI_N_TIMES,
        MINI_TR,
        hrf_params or canonical_params(),
        snr_db,
        rng,
    )


# Full-scale recipe: 100x100 slice, 300 samples at tr=2, 15 brain-like
# sources plus 5 artifacts with the reference per-source sparsities. Blob
# layouts are illustrative; the sparsity percentages are the reproducible
# targets. Sources 1, 11 and 14 are the task sources, with 11 and 14
# strongly overlapping.
FULL_GRID = (100, 100)
FULL_N_TIMES = 300
FULL_TR = 2.0
FULL_CONDITIONS = (
    ConditionSpec(onsets=(20.0, 140.0, 260.0, 380.0, 500.0),
                  durations=(40.0,) * 5),
    ConditionSpec(onsets=(10.0, 70.0, 130.0, 190.0, 250.0, 310.0, 370.0, 430.0, 490.0, 550.0),
                  durations=(8.0,) * 10),
    ConditionSpec(onsets=(40.0, 100.0, 160.0, 220.0, 280.0, 340.0, 400.0, 460.0, 520.0, 580.0),
                  durations=(8.0,) * 10),
)


def _brain_spec(theta, centers, radius, kind=TRANSIENT, condition=None):
    return SyntheticSourceSpec(
        kind,
        theta,
        blob_centers=centers,
        blob_radius=radius,
        plateau_fraction=0.1,
        condition=condition,
    )


FULL_SPECS = (
    _brain_spec(95.28, ((82, 30), (82, 70)), 7.0, TASK, FULL_CONDITIONS[0]),
    _brain_spec(95.33, ((12, 50),), 9.0),
    _brain_spec(95.53, ((30, 50),), 9.0),
    _brain_spec(88.25, ((20, 20), (20, 80), (45, 50)), 12.0),
    _brain_spec(93.30, ((55, 42), (55, 58)), 9.0),
    _brain_spec(97.04, ((60, 30), (60, 70)), 6.5),
    _brain_spec(88.07, ((8, 35), (8, 65)), 13.0),
    _brain_spec(91.82, ((35, 15), (35, 85)), 10.0),
    _brain_spec(85.51, ((25, 65), (40, 75)), 14.0),
    _brain_spec(92.67, ((50, 45), (50, 55)), 10.0),
    _brain_spec(91.60, ((45, 20), (52, 28)), 11.0, TASK, FULL_CONDITIONS[1]),
    _brain_spec(91.53, ((45, 80), (52, 72)), 11.0),
    _brain_spec(94.51, ((68, 62),), 9.0),
    _brain_spec(94.57, ((49, 24), (56, 32)), 9.0, TASK, FULL_CONDITIONS[2]),
    _brain_spec(71.95, ((75, 25), (75, 75), (90, 50)), 20.0),
    SyntheticSourceSpec(ARTIFACT_SUBGAUSSIAN, 1.00),
    SyntheticSourceSpec(ARTIFACT_GAUSSIAN, 1.00),
    SyntheticSourceSpec(ARTIFACT_SUPERGAUSSIAN, 1.99),
    SyntheticSourceSpec(ARTIFACT_SUBGAUSSIAN, 86.14),
    SyntheticSourceSpec(ARTIFACT_SUPERGAUSSIAN, 71.84),
)


def full_benchmark(rng, snr_db: float = 0.0, hrf_params: TwoGammaParams | None = None):
    """Full-scale dataset with the reference sparsity targets."""
    return assemble_dataset(
        FULL_SPECS,
        FULL_GRID,
        FULL_N_TIMES,
        FULL_TR,
        hrf_params or canonical_params(),
        snr_db,
        rng,
    )
