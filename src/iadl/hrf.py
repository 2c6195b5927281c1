"""Two-gamma hemodynamic response model, task regressors and the
similarity-radius estimator.

``task_courses`` is the one place conditions become task courses: the
simulator, the courses handed to the solver and the similarity radius all
build theirs with it.

The canonical parameter set follows the widely used two-gamma convention
(peak at 6 s, undershoot at 16 s, unit dispersions, undershoot ratio 1/6,
32 s kernel); it is a convention default, not measured data, and every
value is configurable.

The gamma density is computed from ``scipy.special`` the way
``scipy.stats.gamma.pdf`` computes it, and gives the same bits. Importing
``scipy.stats`` for it alone would load its whole dependency tree
(``optimize``, ``sparse``, ``spatial``, ``integrate`` and more).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import gammaln, xlogy


@dataclass(frozen=True)
class TwoGammaParams:
    """Parameters of the double-gamma impulse response, in seconds."""

    peak_delay: float = 6.0
    undershoot_delay: float = 16.0
    peak_dispersion: float = 1.0
    undershoot_dispersion: float = 1.0
    undershoot_ratio: float = 1.0 / 6.0
    onset: float = 0.0
    kernel_length: float = 32.0

    def __post_init__(self):
        for name in ("peak_delay", "undershoot_delay", "peak_dispersion",
                     "undershoot_dispersion", "kernel_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.undershoot_ratio < 0:
            raise ValueError("undershoot_ratio must be non-negative")
        # a gamma shape below 1 makes the density infinite at its onset
        for delay, dispersion in (("peak_delay", "peak_dispersion"),
                                  ("undershoot_delay", "undershoot_dispersion")):
            if getattr(self, delay) < getattr(self, dispersion):
                raise ValueError(f"{delay} must not be below {dispersion}")


def default_alternate_hrf() -> TwoGammaParams:
    """Fixed alternative response used to gauge plausible subject variability.

    Deliberately far from the canonical shape (earlier, wider peak and a
    stronger, earlier undershoot) while staying physiologically reasonable;
    the similarity-radius estimator measures task courses against it.
    """
    return TwoGammaParams(
        peak_delay=7.5,
        undershoot_delay=13.0,
        peak_dispersion=1.25,
        undershoot_dispersion=0.8,
        undershoot_ratio=0.25,
    )


def _gamma_pdf(t: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Gamma density at ``t``, bit for bit ``scipy.stats.gamma.pdf(t, shape,
    scale=scale)``: ``exp(xlogy(shape - 1, u) - u - gammaln(shape)) / scale``
    at ``u = t / scale >= 0``, evaluated on those points alone, and 0
    elsewhere."""
    u = t / scale
    inside = u >= 0
    ui = u[inside]
    out = np.zeros_like(u)
    out[inside] = np.exp(xlogy(shape - 1.0, ui) - ui - gammaln(shape)) / scale
    return out


def hrf_curve(params: TwoGammaParams, dt: float) -> np.ndarray:
    """Sample the double-gamma response on t = 0, dt, ..., kernel_length.

    The curve is the difference of two gamma density shapes (peak minus
    scaled undershoot), shifted by ``onset`` and normalized so its largest
    magnitude is 1. Each density is ``_gamma_pdf``, which gives the bits of
    ``scipy.stats.gamma.pdf``.

    Parameters
    ----------
    params : TwoGammaParams
        Shape parameters; delays and dispersions in seconds.
    dt : float
        Sampling step in seconds (typically the repetition time).
    """
    if dt <= 0:
        raise ValueError("sampling step must be positive")
    t = dt * np.arange(int(np.floor(params.kernel_length / dt)) + 1)
    ts = t - params.onset
    peak = _gamma_pdf(
        ts, params.peak_delay / params.peak_dispersion, params.peak_dispersion
    )
    undershoot = _gamma_pdf(
        ts,
        params.undershoot_delay / params.undershoot_dispersion,
        params.undershoot_dispersion,
    )
    h = peak - params.undershoot_ratio * undershoot
    top = np.max(np.abs(h))
    if top == 0.0:
        raise ValueError("response is identically zero on the sampled kernel")
    return h / top


def canonical_hrf(dt: float) -> np.ndarray:
    return hrf_curve(TwoGammaParams(), dt)


def sample_hrf(rng: np.random.Generator, spread: float) -> TwoGammaParams:
    """Draw subject parameters uniformly within ``spread`` of the canonical
    values, resampling until the peak precedes the undershoot and neither
    delay is below its dispersion (``TwoGammaParams`` refuses that draw).

    Up to a spread of 5/7 no delay can fall below its dispersion, so only
    the first rule resamples there."""
    if not 0.0 <= spread < 1.0:
        raise ValueError("spread must lie in [0, 1)")
    base = TwoGammaParams()
    for _ in range(1000):
        drawn = {}
        for field in fields(TwoGammaParams):
            center = getattr(base, field.name)
            drawn[field.name] = rng.uniform((1 - spread) * center, (1 + spread) * center)
        if drawn["peak_delay"] < drawn["undershoot_delay"]:
            try:
                return TwoGammaParams(**drawn)
            except ValueError:  # a delay below its dispersion
                continue
    raise RuntimeError("could not draw a valid parameter set; spread too large")


@dataclass(frozen=True)
class ConditionSpec:
    """Block timing of one experimental condition (onsets/durations in s)."""

    onsets: tuple
    durations: tuple

    def __post_init__(self):
        onsets = tuple(float(o) for o in self.onsets)
        durations = tuple(float(d) for d in self.durations)
        if len(onsets) != len(durations):
            raise ValueError("one duration per onset required")
        if any(o < 0 for o in onsets):
            raise ValueError("onsets must be non-negative")
        if any(d < 0 for d in durations):
            raise ValueError("durations must be non-negative")
        object.__setattr__(self, "onsets", onsets)
        object.__setattr__(self, "durations", durations)


def build_regressor(cond: ConditionSpec, n_times: int, tr: float) -> np.ndarray:
    """Boxcar sampled at acquisition times.

    A sample at time k*tr is active when it falls inside [onset,
    onset+duration) of any block, and is then 1; overlapping blocks do not
    accumulate. Blocks starting at or beyond the scan end are ignored with a
    warning.
    """
    if n_times < 1 or tr <= 0:
        raise ValueError("need at least one sample and a positive tr")
    t = tr * np.arange(n_times)
    u = np.zeros(n_times)
    scan_end = n_times * tr
    for onset, duration in zip(cond.onsets, cond.durations):
        if onset >= scan_end:
            warnings.warn(
                f"condition block at {onset}s starts beyond the scan end "
                f"({scan_end}s); ignored",
                stacklevel=2,
            )
            continue
        mask = (t >= onset - 1e-9) & (t < onset + duration - 1e-9)
        u[mask] = 1.0
    return u


def task_time_course(u, h) -> np.ndarray:
    """Convolve an activation pattern with a response kernel, truncated to
    the pattern length and scaled to unit peak magnitude (an all-zero course
    stays zero)."""
    u = np.asarray(u, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if u.size == 0 or h.size == 0:
        raise ValueError("empty signal")
    out = np.convolve(u, h)[: u.size]
    top = np.max(np.abs(out))
    if top > 0:
        out = out / top
    return out


def task_courses(conditions, n_times: int, tr: float, h) -> np.ndarray:
    """The unit-peak course of each condition under the sampled response
    ``h`` (``build_regressor`` then ``task_time_course``), one column per
    condition; shape (n_times, 0) for no conditions."""
    cols = [task_time_course(build_regressor(cond, n_times, tr), h) for cond in conditions]
    return np.column_stack(cols) if cols else np.zeros((n_times, 0))


def estimate_c_delta(conditions, n_times: int, tr: float) -> float:
    """Similarity radius from the expected response variability.

    Builds the task courses under the canonical response and under
    ``default_alternate_hrf()``, and returns the mean squared distance
    between the two across conditions: how far a subject whose response
    differs that much from the canonical one moves each task course.
    """
    conditions = list(conditions)
    if not conditions:
        raise ValueError("need at least one condition")
    ref = task_courses(conditions, n_times, tr, canonical_hrf(tr))
    alt = task_courses(conditions, n_times, tr, hrf_curve(default_alternate_hrf(), tr))
    # each squared column is a fresh contiguous array, so every distance is
    # the pairwise sum a single course gives
    return float(np.mean([float(np.sum(d**2)) for d in (ref - alt).T]))
