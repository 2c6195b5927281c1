"""Synthetic benchmark construction: overlapping plateau spatial maps,
task/transient time courses under a subject response, realistic artifact
sources and Rician noise.

Each benchmark is one frozen ``Recipe`` in ``RECIPES``, under the name a
config's ``dataset.recipe`` gives it: grid, samples, TR, default SNR and
source specs, whose task sources carry its conditions. Other modules read a
recipe's numbers from its record, and ``Recipe.generate`` builds its data.

The scale of the injected noise is calibrated on the realized magnitude
perturbation: sigma is found by secant steps so that mean((X - Y)^2) on the
returned X meets the power implied by the requested SNR to rounding. That
convention is a documented choice; pass ``snr_db=inf`` for a noise-free
dataset. The calibration holds four T x N arrays, the clean mixture, the
two normal draws and one work array. It forms the noisy data in blocks, each
in the slice it is written to, and its last pass writes X over the first
draw. Each full-size pass is split across the cores the process may run on,
one thread each; the passes are elementwise, so the data do not depend on
the core count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .hrf import (
    ConditionSpec,
    TwoGammaParams,
    canonical_params,
    hrf_curve,
    task_courses,
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

# The calibration's workers share two blocks of this many elements as
# scratch (256 KiB), 2 * _NOISE_BLOCK // W each for W workers, one worker
# per core; each forms X a block of that size at a time, in the slice X is
# written to, so it holds no full-size array besides the draws and one work
# array at any core count.
_NOISE_BLOCK = 1 << 14


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
    noise_sigma: float


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


def transient_time_course(n_times: int, h, rng) -> np.ndarray:
    """Spontaneous activity: a sparse event train convolved with the
    sampled subject response ``h``, unit peak."""
    events = (rng.random(n_times) < _EVENT_RATE).astype(np.float64)
    if not events.any():
        events[int(rng.integers(n_times))] = 1.0
    return task_time_course(events, h)


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    origin. Besides ``clean`` it holds three full-size arrays, the draws g1
    and g2 and one work array. Each evaluation forms X a block at a time in
    the block's own slice of the work array and turns it into
    (X - clean)^2 there; the work array's mean is the realized power. The
    stop test reads only sigmas, so it runs before an evaluation, and the
    last pass forms X at the final sigma over g1 and returns it: the
    realized power is measured on exactly the data returned and meets the
    target to rounding. A zero target (+inf dB, or an all-zero clean
    signal) gives sigma = 0 and X = clean, and draws nothing.

    Each full-size pass (the square of g1, every evaluation and the last
    pass) is split into one contiguous share per usable core: the calling
    thread walks the first, and a thread pool that lives for the call the
    others, each worker with one scratch block of its own. The passes are
    elementwise and the shares disjoint, and the means, the secant and the
    stop tests run on the calling thread, so X and sigma keep their bits at
    any core count.
    """
    if target_power == 0.0:
        return clean.copy(), 0.0
    g1 = rng.standard_normal(clean.shape)
    g2 = rng.standard_normal(clean.shape)
    baseline = -float(clean.min()) + 6.0 * np.sqrt(target_power)
    work = np.empty(clean.shape)
    flat_clean, flat_g1, flat_g2, flat_work = (a.reshape(-1) for a in (clean, g1, g2, work))
    size = clean.size
    # no more workers than blocks, sharing two blocks of scratch
    workers = min(_usable_cores(), -(-size // _NOISE_BLOCK))
    block = min(2 * _NOISE_BLOCK // workers, -(-size // workers))
    bounds = [size * i // workers for i in range(workers + 1)]
    scratch = [np.empty(block) for _ in range(workers)]

    def share(i, task):
        # task(lo, hi, scratch) over the i-th share, a block at a time
        for lo in range(bounds[i], bounds[i + 1], block):
            task(lo, min(lo + block, bounds[i + 1]), scratch[i])

    def noisy_block(sigma, lo, hi, x, buf):
        # x = hypot(clean + baseline + sigma g1, sigma g2) - baseline over
        # [lo, hi); x may be g1's own slice, which is read before it is written
        y = buf[: hi - lo]
        np.multiply(flat_g1[lo:hi], sigma, out=y)
        np.add(flat_clean[lo:hi], baseline, out=x)
        np.add(x, y, out=x)
        np.multiply(flat_g2[lo:hi], sigma, out=y)
        np.hypot(x, y, out=x)
        np.subtract(x, baseline, out=x)

    def power_block(sigma, lo, hi, buf):
        x = flat_work[lo:hi]
        noisy_block(sigma, lo, hi, x, buf)
        np.subtract(x, flat_clean[lo:hi], out=x)
        np.square(x, out=x)

    target = float(np.sqrt(target_power))
    # the pool starts a thread only when a share is submitted to it
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:

        def run(task):
            others = [pool.submit(share, i, task) for i in range(1, workers)]
            share(0, task)
            for future in others:
                future.result()

        def amplitude(sigma):
            # the RMS of X - clean; np.mean sums pairwise over the whole
            # work array, independent of the shares, the blocks and the BLAS
            run(lambda lo, hi, buf: power_block(sigma, lo, hi, buf))
            return float(np.sqrt(np.mean(work)))

        def noisy(sigma):
            run(lambda lo, hi, buf: noisy_block(sigma, lo, hi, flat_g1[lo:hi], buf))
            return g1, sigma

        run(lambda lo, hi, buf: np.square(flat_g1[lo:hi], out=flat_work[lo:hi]))
        sigma = target / float(np.sqrt(np.mean(work)))
        prev_sigma, prev_amp = 0.0, 0.0
        for _ in range(_MAX_POWER_EVALS):
            if abs(sigma - prev_sigma) < _SIGMA_STEP_RTOL * sigma:
                return noisy(sigma)
            amp = amplitude(sigma)
            if amp == target:
                return noisy(sigma)
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
    n_voxels = grid[0] * grid[1]

    h = hrf_curve(hrf_params, tr)
    tasks = [j for j, spec in enumerate(specs) if spec.kind == TASK]
    courses = np.zeros((n_times, len(specs)))
    courses[:, tasks] = task_courses([specs[j].condition for j in tasks], n_times, tr, h)
    maps = np.zeros((len(specs), n_voxels))
    for j, spec in enumerate(specs):
        if spec.kind in BRAIN_KINDS:
            maps[j] = generate_spatial_map(spec, grid, rng)
            if spec.kind == TRANSIENT:
                courses[:, j] = transient_time_course(n_times, h, rng)
        else:
            courses[:, j], maps[j] = generate_artifact_pair(
                spec.kind, spec.target_sparsity, n_times, n_voxels, rng
            )

    clean = courses @ maps
    target_power = float(np.mean(clean**2)) * 10.0 ** (-snr_db / 10.0)
    x, sigma = _add_rician_noise(clean, target_power, rng)

    truth = SourceSet(courses, maps, kinds=tuple(spec.kind for spec in specs))
    return SyntheticDataset(
        x=DataMatrix(x, tr=tr),
        truth=truth,
        assisted_indices=tuple(tasks),
        noise_sigma=float(sigma),
    )


@dataclass(frozen=True)
class Recipe:
    """A fixed benchmark: grid, ``n_times`` samples every ``tr`` s, default
    SNR and source specs; its conditions are its task sources', in order."""

    grid: tuple
    n_times: int
    tr: float
    snr_db: float
    specs: tuple

    @property
    def conditions(self) -> tuple:
        return tuple(spec.condition for spec in self.specs if spec.kind == TASK)

    def generate(self, rng, snr_db: float | None = None,
                 hrf_params: TwoGammaParams | None = None) -> SyntheticDataset:
        """The recipe's dataset under the subject response ``hrf_params``
        (canonical if None), at ``snr_db`` (the recipe's default if None)."""
        snr_db = self.snr_db if snr_db is None else snr_db
        return assemble_dataset(self.specs, self.grid, self.n_times, self.tr,
                                hrf_params or canonical_params(), snr_db, rng)


def _brain_spec(theta, centers, radius, kind=TRANSIENT, condition=None):
    return SyntheticSourceSpec(
        kind,
        theta,
        blob_centers=centers,
        blob_radius=radius,
        plateau_fraction=0.1,
        condition=condition,
    )


# Every benchmark the package simulates, by its ``dataset.recipe`` name.
RECIPES = {
    # Desk-scale. Two task sources with short, interleaved event trains and
    # strongly overlapping double-blob maps: the short events keep the course
    # shapes sensitive to response mismatch, and with the overlap they make
    # the pair hard to separate blindly. Three background sources and three
    # artifacts (two dense).
    "mini": Recipe(
        grid=(40, 40),
        n_times=150,
        tr=2.0,
        snr_db=10.0,
        specs=(
            SyntheticSourceSpec(TASK, 95.0, blob_centers=((13, 13), (13, 27)),
                                blob_radius=3.2, plateau_fraction=0.15,
                                condition=ConditionSpec((10.0, 60.0, 110.0, 170.0, 230.0, 280.0),
                                                        (6.0,) * 6)),
            SyntheticSourceSpec(TASK, 94.0, blob_centers=((15, 14), (15, 26)),
                                blob_radius=3.2, plateau_fraction=0.15,
                                condition=ConditionSpec((25.0, 75.0, 125.0, 180.0, 225.0, 275.0),
                                                        (4.0,) * 6)),
            SyntheticSourceSpec(TRANSIENT, 93.0, blob_centers=((30, 8),), blob_radius=3.0),
            SyntheticSourceSpec(TRANSIENT, 90.0, blob_centers=((8, 32),), blob_radius=3.5),
            SyntheticSourceSpec(TRANSIENT, 88.0, blob_centers=((28, 28),), blob_radius=4.0),
            SyntheticSourceSpec(ARTIFACT_SUBGAUSSIAN, 1.0),
            SyntheticSourceSpec(ARTIFACT_GAUSSIAN, 1.0),
            SyntheticSourceSpec(ARTIFACT_SUPERGAUSSIAN, 70.0),
        ),
    ),
    # Full-scale: 15 brain-like sources and 5 artifacts with the reference
    # per-source sparsities. Blob layouts are illustrative; the sparsity
    # percentages are the reproducible targets. Sources 1, 11 and 14 are the
    # task sources, with 11 and 14 strongly overlapping.
    "full": Recipe(
        grid=(100, 100),
        n_times=300,
        tr=2.0,
        snr_db=0.0,
        specs=(
            _brain_spec(95.28, ((82, 30), (82, 70)), 7.0, TASK,
                        ConditionSpec((20.0, 140.0, 260.0, 380.0, 500.0), (40.0,) * 5)),
            _brain_spec(95.33, ((12, 50),), 9.0),
            _brain_spec(95.53, ((30, 50),), 9.0),
            _brain_spec(88.25, ((20, 20), (20, 80), (45, 50)), 12.0),
            _brain_spec(93.30, ((55, 42), (55, 58)), 9.0),
            _brain_spec(97.04, ((60, 30), (60, 70)), 6.5),
            _brain_spec(88.07, ((8, 35), (8, 65)), 13.0),
            _brain_spec(91.82, ((35, 15), (35, 85)), 10.0),
            _brain_spec(85.51, ((25, 65), (40, 75)), 14.0),
            _brain_spec(92.67, ((50, 45), (50, 55)), 10.0),
            _brain_spec(91.60, ((45, 20), (52, 28)), 11.0, TASK,
                        ConditionSpec((10.0, 70.0, 130.0, 190.0, 250.0,
                                       310.0, 370.0, 430.0, 490.0, 550.0), (8.0,) * 10)),
            _brain_spec(91.53, ((45, 80), (52, 72)), 11.0),
            _brain_spec(94.51, ((68, 62),), 9.0),
            _brain_spec(94.57, ((49, 24), (56, 32)), 9.0, TASK,
                        ConditionSpec((40.0, 100.0, 160.0, 220.0, 280.0,
                                       340.0, 400.0, 460.0, 520.0, 580.0), (8.0,) * 10)),
            _brain_spec(71.95, ((75, 25), (75, 75), (90, 50)), 20.0),
            SyntheticSourceSpec(ARTIFACT_SUBGAUSSIAN, 1.00),
            SyntheticSourceSpec(ARTIFACT_GAUSSIAN, 1.00),
            SyntheticSourceSpec(ARTIFACT_SUPERGAUSSIAN, 1.99),
            SyntheticSourceSpec(ARTIFACT_SUBGAUSSIAN, 86.14),
            SyntheticSourceSpec(ARTIFACT_SUPERGAUSSIAN, 71.84),
        ),
    ),
}
# The recipe of a config that names none.
DEFAULT_RECIPE = "mini"
# Each recipe's dataset, under the names the test suites call.
mini_benchmark = RECIPES["mini"].generate
full_benchmark = RECIPES["full"].generate
