"""Two-gamma hemodynamic response model, task regressors and the
similarity-radius estimator.

The canonical parameter set follows the widely used two-gamma convention
(peak at 6 s, undershoot at 16 s, unit dispersions, undershoot ratio 1/6,
32 s kernel); it is a convention default, not measured data, and every
value is configurable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import gamma as gamma_dist


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


def canonical_params() -> TwoGammaParams:
    return TwoGammaParams()


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


def hrf_curve(params: TwoGammaParams, dt: float) -> np.ndarray:
    """Sample the double-gamma response on t = 0, dt, ..., kernel_length.

    The curve is the difference of two gamma density shapes (peak minus
    scaled undershoot), shifted by ``onset`` and normalized so its largest
    magnitude is 1.

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


def canonical_hrf(dt: float) -> np.ndarray:
    return hrf_curve(canonical_params(), dt)


def sample_hrf(rng: np.random.Generator, spread: float = 0.3) -> TwoGammaParams:
    """Draw subject parameters uniformly within ``spread`` of the canonical
    values, resampling until the peak precedes the undershoot."""
    if not 0.0 <= spread < 1.0:
        raise ValueError("spread must lie in [0, 1)")
    base = canonical_params()
    fields = ("peak_delay", "undershoot_delay", "peak_dispersion",
              "undershoot_dispersion", "undershoot_ratio", "onset", "kernel_length")
    for _ in range(1000):
        drawn = {}
        for name in fields:
            center = getattr(base, name)
            drawn[name] = rng.uniform((1 - spread) * center, (1 + spread) * center)
        if drawn["peak_delay"] < drawn["undershoot_delay"]:
            return TwoGammaParams(**drawn)
    raise RuntimeError("could not draw a valid parameter set; spread too large")


@dataclass(frozen=True)
class ConditionSpec:
    """Block timing of one experimental condition (onsets/durations in s)."""

    onsets: tuple
    durations: tuple
    amplitude: float = 1.0

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
    onset+duration) of any block; overlapping blocks clip to the amplitude
    rather than accumulating. Blocks starting at or beyond the scan end are
    ignored with a warning.
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
        u[mask] = cond.amplitude
    return u


def task_time_course(u, h, normalize: bool = True) -> np.ndarray:
    """Convolve an activation pattern with a response kernel, truncated to
    the pattern length; unit peak magnitude unless ``normalize`` is off."""
    u = np.asarray(u, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if u.size == 0 or h.size == 0:
        raise ValueError("empty signal")
    out = np.convolve(u, h)[: u.size]
    if normalize:
        top = np.max(np.abs(out))
        if top > 0:
            out = out / top
    return out


def estimate_c_delta(
    conditions,
    n_times: int,
    tr: float,
    reference: TwoGammaParams | None = None,
    alternate: TwoGammaParams | None = None,
) -> float:
    """Similarity radius from the expected response variability.

    For each condition, builds the unit-peak task course under the reference
    response and under a plausible alternative, and returns the mean squared
    distance between the two across conditions.
    """
    conditions = list(conditions)
    if not conditions:
        raise ValueError("need at least one condition")
    reference = reference or canonical_params()
    alternate = alternate or default_alternate_hrf()
    h_ref = hrf_curve(reference, tr)
    h_alt = hrf_curve(alternate, tr)
    distances = []
    for cond in conditions:
        u = build_regressor(cond, n_times, tr)
        d_ref = task_time_course(u, h_ref)
        d_alt = task_time_course(u, h_alt)
        distances.append(float(np.sum((d_ref - d_alt) ** 2)))
    return float(np.mean(distances))
