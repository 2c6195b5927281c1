import warnings

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from iadl.hrf import (
    ConditionSpec,
    TwoGammaParams,
    _gamma_pdf,
    build_regressor,
    canonical_hrf,
    canonical_params,
    default_alternate_hrf,
    estimate_c_delta,
    hrf_curve,
    sample_hrf,
    task_courses,
    task_time_course,
)
from iadl.synthgen import RECIPES

from oracles import looped_c_delta, looped_task_courses, scipy_two_gamma_curve


def test_no_undershoot_curve_nonnegative():
    p = TwoGammaParams(undershoot_ratio=0.0)
    h = hrf_curve(p, 0.5)
    assert np.all(h >= 0)


def test_canonical_peak_location():
    h = canonical_hrf(0.01)
    peak_t = 0.01 * np.argmax(h)
    assert 4.0 <= peak_t <= 6.0


def test_longer_kernel_shares_prefix():
    short = hrf_curve(canonical_params(), 0.5)
    long = hrf_curve(TwoGammaParams(kernel_length=64.0), 0.5)
    np.testing.assert_array_equal(long[: short.size], short)


def test_canonical_hrf_length_and_peak():
    h = canonical_hrf(2.0)
    assert h.size == 32 // 2 + 1
    assert np.max(np.abs(h)) == pytest.approx(1.0)
    np.testing.assert_array_equal(h, hrf_curve(canonical_params(), 2.0))


def test_curves_bounded_by_one():
    for spread in (0.3, 0.9):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = sample_hrf(rng, spread)
            h = hrf_curve(p, 1.0)
            assert np.all(np.isfinite(h))
            assert np.max(np.abs(h)) <= 1.0 + 1e-12


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        TwoGammaParams(peak_delay=-1.0)
    with pytest.raises(ValueError):
        TwoGammaParams(undershoot_ratio=-0.1)
    with pytest.raises(ValueError):
        hrf_curve(canonical_params(), 0.0)


@pytest.mark.parametrize("delay, dispersion, values", [
    ("peak_delay", "peak_dispersion", {"peak_delay": 0.9}),
    ("undershoot_delay", "undershoot_dispersion",
     {"undershoot_delay": 2.0, "undershoot_dispersion": 2.5}),
])
def test_delay_below_dispersion_rejected(delay, dispersion, values):
    # a gamma shape below 1 puts an infinite density at the onset sample
    with pytest.raises(ValueError, match=f"^{delay} must not be below {dispersion}$"):
        TwoGammaParams(**values)


def test_delay_equal_to_dispersion_accepted():
    p = TwoGammaParams(peak_delay=1.5, peak_dispersion=1.5)
    assert np.all(np.isfinite(hrf_curve(p, 0.5)))


def test_hrf_curve_matches_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(11)
    draws = [sample_hrf(rng, spread) for spread in (0.0, 0.3, 0.7) for _ in range(40)]
    for p in draws:
        for dt in (0.1, 0.5, 2.0, 2.5):
            got = hrf_curve(p, dt)
            want = scipy_two_gamma_curve(p, dt)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # the density itself, off and on its support
    t = np.concatenate([
        -np.geomspace(1e-3, 40.0, 50),
        [-5e-324, -0.0, 0.0, 5e-324, 2.2e-308],
        np.linspace(1e-6, 60.0, 2001),
    ])
    for shape in (1.0, 1.5, 6.0, 16.0):
        for scale in (0.1, 0.75, 1.0, 1.3, 3.0):
            got = _gamma_pdf(t, shape, scale)
            want = gamma_dist.pdf(t, shape, scale=scale)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_sample_hrf_zero_spread_is_canonical():
    p = sample_hrf(np.random.default_rng(0), spread=0.0)
    assert p == canonical_params()


def test_sample_hrf_draws_valid_families():
    # above a spread of 5/7 a delay can be drawn below its dispersion
    for spread in (0.3, 0.9):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = sample_hrf(rng, spread=spread)
            assert p.peak_delay < p.undershoot_delay
            assert p.peak_delay >= p.peak_dispersion
            assert p.undershoot_delay >= p.undershoot_dispersion
            assert p.peak_dispersion > 0 and p.undershoot_dispersion > 0
            assert p.undershoot_ratio >= 0


def test_sample_hrf_seeded_reproducible():
    a = sample_hrf(np.random.default_rng(7))
    b = sample_hrf(np.random.default_rng(7))
    assert a == b


def test_regressor_single_block():
    cond = ConditionSpec(onsets=(0.0,), durations=(6.0,))
    u = build_regressor(cond, 10, 2.0)
    np.testing.assert_array_equal(u, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])


def test_regressor_empty_condition():
    u = build_regressor(ConditionSpec(onsets=(), durations=()), 5, 1.0)
    np.testing.assert_array_equal(u, np.zeros(5))


def test_regressor_overlap_clips():
    cond = ConditionSpec(onsets=(0.0, 1.0), durations=(4.0, 4.0))
    u = build_regressor(cond, 6, 1.0)
    assert np.max(u) == 1.0


def test_regressor_block_beyond_scan_warns():
    cond = ConditionSpec(onsets=(100.0,), durations=(5.0,))
    with pytest.warns(UserWarning):
        u = build_regressor(cond, 10, 2.0)
    np.testing.assert_array_equal(u, np.zeros(10))


def test_task_course_impulse_kernel():
    u = np.array([0.0, 3.0, 0.0, 0.0])
    delta = task_time_course(u, np.array([1.0]))
    np.testing.assert_allclose(delta, u / 3.0)


def test_task_course_zero_input():
    np.testing.assert_array_equal(task_time_course(np.zeros(5), np.ones(3)), np.zeros(5))


def test_task_course_length_is_input_length():
    u = np.ones(20)
    assert task_time_course(u, canonical_hrf(2.0)).size == 20


def test_task_course_shift_commutes_up_to_truncation():
    h = canonical_hrf(1.0)
    base = np.zeros(80)
    base[5:10] = 1.0
    shifted = np.roll(base, 7)
    a = task_time_course(base, h)
    b = task_time_course(shifted, h)
    np.testing.assert_allclose(b[7:], a[:-7], atol=1e-12)


def test_c_delta_single_impulse_identity():
    # a one-sample block makes the task course the (normalized) kernel, so
    # the estimate collapses to the squared kernel distance on T samples
    tr, n_times = 2.0, 25
    cond = ConditionSpec(onsets=(0.0,), durations=(tr,))
    got = estimate_c_delta([cond], n_times, tr)
    h_ref = hrf_curve(canonical_params(), tr)
    h_alt = hrf_curve(default_alternate_hrf(), tr)

    def padded_unit(h):
        out = np.zeros(n_times)
        out[: min(h.size, n_times)] = h[:n_times]
        return out / np.max(np.abs(out))

    expected = float(np.sum((padded_unit(h_ref) - padded_unit(h_alt)) ** 2))
    assert got == pytest.approx(expected, abs=1e-10)


def test_c_delta_rejects_empty_conditions():
    with pytest.raises(ValueError):
        estimate_c_delta([], 10, 2.0)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


_CONDITION_SETS = {
    **{f"{name}_recipe": (r.conditions, r.n_times, r.tr) for name, r in RECIPES.items()},
    "one_condition": (RECIPES["full"].conditions[:1], 300, 2.0),
    "blocks_past_the_scan_end": (RECIPES["mini"].conditions, 60, 2.5),
}


@pytest.mark.parametrize("case", sorted(_CONDITION_SETS))
@pytest.mark.parametrize("alternate", [False, True], ids=["canonical", "alternate"])
def test_task_courses_equal_the_per_condition_loop_bit_for_bit(case, alternate):
    conditions, n_times, tr = _CONDITION_SETS[case]
    h = hrf_curve(default_alternate_hrf(), tr) if alternate else canonical_hrf(tr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blocks past the scan end
        got = task_courses(conditions, n_times, tr, h)
        want = looped_task_courses(conditions, n_times, tr, h)
    assert got.shape == (n_times, len(conditions)) and got.flags.c_contiguous
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_task_courses_of_no_conditions_have_no_columns():
    got = task_courses([], 40, 2.0, canonical_hrf(2.0))
    assert got.shape == (40, 0)
    assert got.shape == looped_task_courses([], 40, 2.0, canonical_hrf(2.0)).shape


@pytest.mark.parametrize("case", sorted(_CONDITION_SETS))
def test_c_delta_equals_the_per_condition_loop_bit_for_bit(case):
    conditions, n_times, tr = _CONDITION_SETS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = estimate_c_delta(conditions, n_times, tr)
        want = looped_c_delta(conditions, n_times, tr)
    assert got > 0.0
    assert _bits([got]) == _bits([want])
