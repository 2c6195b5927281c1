import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kurtosis

from iadl import _shares, synthgen
from iadl.synthgen import (
    ARTIFACT_GAUSSIAN,
    ARTIFACT_KINDS,
    ARTIFACT_SUBGAUSSIAN,
    ARTIFACT_SUPERGAUSSIAN,
    RECIPES,
    SyntheticSourceSpec,
    artifact_values,
    assemble_dataset,
    full_benchmark,
    generate_artifact_pair,
    generate_spatial_map,
    mini_benchmark,
)
from iadl.hrf import ConditionSpec, TwoGammaParams

from oracles import dense_rician_noise, sparsity_percentage

MINI_SPECS = RECIPES["mini"].specs

FULL_TARGET_THETAS = [
    95.28, 95.33, 95.53, 88.25, 93.30, 97.04, 88.07, 91.82, 85.51, 92.67,
    91.60, 91.53, 94.51, 94.57, 71.95, 1.00, 1.00, 1.99, 86.14, 71.84,
]


def blob_spec(theta, centers, radius=3.0, plateau=0.0):
    return SyntheticSourceSpec(
        "transient", theta, blob_centers=centers, blob_radius=radius,
        plateau_fraction=plateau,
    )


def test_spatial_map_hits_target_count(rng):
    spec = blob_spec(95.0, ((20, 20),), radius=4.0, plateau=0.2)
    m = generate_spatial_map(spec, (40, 40), rng)
    assert np.count_nonzero(m) == round(1600 * 0.05)
    assert np.max(m) == 1.0


def test_spatial_map_no_plateau_is_smooth_bump(rng):
    spec = blob_spec(90.0, ((10, 10),), radius=3.0, plateau=0.0)
    m = generate_spatial_map(spec, (20, 20), rng).reshape(20, 20)
    # single maximum at the center, values fall off monotonically with radius
    assert m[10, 10] == 1.0
    assert np.count_nonzero(m == 1.0) == 1


def test_spatial_map_translation_grows_overlap(rng):
    base = blob_spec(93.0, ((15, 10),), radius=3.0)
    far = blob_spec(93.0, ((15, 28),), radius=3.0)
    near = blob_spec(93.0, ((15, 14),), radius=3.0)
    sup = lambda spec: set(np.flatnonzero(generate_spatial_map(spec, (30, 40), rng)))
    overlap_far = len(sup(base) & sup(far))
    overlap_near = len(sup(base) & sup(near))
    assert overlap_near > overlap_far


def test_spatial_map_unreachable_sparsity_raises(rng):
    spec = blob_spec(0.0, ((5, 5),), radius=0.5)
    with pytest.raises(ValueError):
        generate_spatial_map(spec, (50, 50), rng)


def test_artifact_dense_count(rng):
    _, spatial = generate_artifact_pair(ARTIFACT_SUBGAUSSIAN, 1.0, 50, 10_000, rng)
    assert np.count_nonzero(spatial) == 9900


def test_artifact_kurtosis_ordering(rng):
    n = 100_000
    sub = kurtosis(artifact_values(ARTIFACT_SUBGAUSSIAN, n, rng))
    gauss = kurtosis(artifact_values(ARTIFACT_GAUSSIAN, n, rng))
    sup = kurtosis(artifact_values(ARTIFACT_SUPERGAUSSIAN, n, rng))
    assert sub < gauss < sup


def test_artifact_rejects_sparsity_outside_percent_range(rng):
    with pytest.raises(ValueError, match=r"outside \[0, 100\]"):
        generate_artifact_pair(ARTIFACT_GAUSSIAN, 140.0, 30, 500, rng)


def test_artifact_fully_sparse_map(rng):
    course, spatial = generate_artifact_pair(ARTIFACT_GAUSSIAN, 100.0, 30, 500, rng)
    np.testing.assert_array_equal(spatial, np.zeros(500))
    assert np.max(np.abs(course)) == pytest.approx(1.0)


def test_assemble_noise_free_sentinel(rng):
    # 60 scans of 2 s end before the later MINI_SPECS blocks start
    with pytest.warns(UserWarning, match="beyond the scan end"):
        ds = assemble_dataset(MINI_SPECS, (40, 40), 60, 2.0, TwoGammaParams(), np.inf, rng)
    np.testing.assert_array_equal(ds.x.values, ds.truth.time_courses @ ds.truth.spatial_maps)
    assert ds.noise_sigma == 0.0


def test_assemble_zero_db_power_match(rng):
    with pytest.warns(UserWarning, match="beyond the scan end"):
        ds = assemble_dataset(MINI_SPECS, (40, 40), 80, 2.0, TwoGammaParams(), 0.0, rng)
    clean = ds.truth.time_courses @ ds.truth.spatial_maps
    p_signal = np.mean(clean**2)
    p_noise = np.mean((ds.x.values - clean) ** 2)
    assert p_signal / p_noise == pytest.approx(1.0, rel=0.02)


@st.composite
def small_recipes(draw):
    """A few transient and artifact sources on a small grid (all voxels
    reachable by the blobs), or None for the mini recipe."""
    if draw(st.booleans()):
        return None
    h, w = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    n_sources = draw(st.integers(1, 4))
    specs = []
    for _ in range(n_sources):
        if draw(st.booleans()):
            center = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)))
            specs.append(blob_spec(draw(st.floats(0.0, 95.0)), (center,), radius=3.0))
        else:
            specs.append(SyntheticSourceSpec(draw(st.sampled_from(ARTIFACT_KINDS)),
                                             draw(st.floats(0.0, 100.0))))
    return specs, (h, w), draw(st.integers(8, 40))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-20.0, 60.0), recipe=small_recipes())
@example(seed=0, snr_db=-20.0, recipe=None)
@example(seed=0, snr_db=60.0, recipe=None)
def test_realized_noise_power_meets_target(seed, snr_db, recipe):
    # The calibration is measured on the returned data: mean((x - clean)^2)
    # meets signal power * 10^(-snr/10) to rounding.
    rng = np.random.default_rng(seed)
    if recipe is None:
        ds = mini_benchmark(rng, snr_db=snr_db)
    else:
        specs, grid, n_times = recipe
        ds = assemble_dataset(specs, grid, n_times, 2.0, TwoGammaParams(), snr_db, rng)
    clean = ds.truth.time_courses @ ds.truth.spatial_maps
    target = np.mean(clean**2) * 10.0 ** (-snr_db / 10.0)
    if target == 0.0:
        assert ds.noise_sigma == 0.0
        np.testing.assert_array_equal(ds.x.values, clean)
        return
    assert ds.noise_sigma > 0.0
    realized = np.mean((ds.x.values - clean) ** 2)
    assert abs(realized - target) <= 1e-10 * target


def assert_calibration_matches_dense_reference(clean, snr_db, seed):
    """The blocked calibration returns the dense reference's X and sigma bit
    for bit and leaves the generator where the reference leaves it."""
    target_power = float(np.mean(clean**2)) * 10.0 ** (-snr_db / 10.0)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    x, sigma = synthgen._add_rician_noise(clean, target_power, rng)
    x_ref, sigma_ref = dense_rician_noise(clean, target_power, twin)
    np.testing.assert_array_equal(x.view(np.int64), x_ref.view(np.int64))
    assert repr(sigma) == repr(sigma_ref)
    assert rng.bit_generator.state == twin.bit_generator.state
    return sigma, rng


def _clean(ds):
    return ds.truth.time_courses @ ds.truth.spatial_maps


_DENSE_CASES = [(mini_benchmark, 10.0, s, f"mini_seed{s}") for s in range(5)]
_DENSE_CASES.append((full_benchmark, 0.0, 7, "full_seed7"))


@pytest.mark.parametrize(
    "build, snr_db, seed, cores",
    [pytest.param(build, snr_db, seed, cores,
                  id=name if cores is None else f"{name}-cores{cores}")
     for build, snr_db, seed, name in _DENSE_CASES for cores in (None, 1, 2, 7)],
)
def test_noise_calibration_matches_dense_reference(build, snr_db, seed, cores, monkeypatch):
    # each pass is split into one share per core the calibration sees (the
    # machine's own count when None); 7 shares split the blocks unevenly
    if cores is not None:
        monkeypatch.setattr(_shares, "_usable_cores", lambda: cores)
    clean = _clean(build(np.random.default_rng(seed), snr_db=np.inf))
    sigma, _ = assert_calibration_matches_dense_reference(clean, snr_db, seed)
    assert sigma > 0.0


def test_noise_calibration_of_a_zero_target_draws_nothing():
    sigma, rng = assert_calibration_matches_dense_reference(np.zeros((6, 9)), 10.0, 4)
    assert sigma == 0.0
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-20.0, 60.0), recipe=small_recipes())
def test_noise_calibration_matches_dense_reference_on_small_recipes(seed, snr_db, recipe):
    rng = np.random.default_rng(seed)
    if recipe is None:
        ds = mini_benchmark(rng, snr_db=np.inf)
    else:
        specs, grid, n_times = recipe
        ds = assemble_dataset(specs, grid, n_times, 2.0, TwoGammaParams(), np.inf, rng)
    assert_calibration_matches_dense_reference(_clean(ds), snr_db, seed)


def test_noise_calibration_holds_three_full_size_arrays(rng, traced_peak):
    # g1, g2 and one work array; the lifted signal and X are formed in blocks
    clean = rng.standard_normal((300, 2000))
    (_, sigma), peak = traced_peak(lambda: synthgen._add_rician_noise(clean, 0.5, rng))
    assert sigma > 0.0
    assert peak <= 3 * clean.nbytes + 2**20


def test_noise_calibration_workers_share_the_scratch(rng, traced_peak, monkeypatch):
    # seven workers hold two blocks of scratch between them, not one each
    monkeypatch.setattr(_shares, "_usable_cores", lambda: 7)
    clean = rng.standard_normal((300, 2000))
    (_, sigma), peak = traced_peak(lambda: synthgen._add_rician_noise(clean, 0.5, rng))
    assert sigma > 0.0
    assert peak <= 3 * clean.nbytes + 2 * synthgen._NOISE_BLOCK * 8 + 2**17


def test_assemble_all_zero_signal_gets_no_noise(rng):
    # fully sparse artifacts give an all-zero clean signal: at a finite SNR
    # the target noise power is 0, so sigma is 0 and the data is the signal
    specs = [SyntheticSourceSpec(ARTIFACT_GAUSSIAN, 100.0)] * 2
    ds = assemble_dataset(specs, (6, 7), 20, 2.0, TwoGammaParams(), 10.0, rng)
    clean = ds.truth.time_courses @ ds.truth.spatial_maps
    assert not clean.any()
    assert ds.noise_sigma == 0.0
    np.testing.assert_array_equal(ds.x.values, clean)


def test_noise_calibration_that_does_not_settle_raises(rng, monkeypatch):
    # the mini recipe needs 4 evaluations of the realized power at 10 dB
    monkeypatch.setattr(synthgen, "_MAX_POWER_EVALS", 2)
    with pytest.raises(RuntimeError, match="did not converge in 2 evaluations"):
        mini_benchmark(rng)


def test_assemble_rejects_nan_snr(rng):
    with pytest.raises(ValueError):
        assemble_dataset(MINI_SPECS, (40, 40), 50, 2.0, TwoGammaParams(), float("nan"), rng)


def test_assemble_rejects_minus_inf_snr(rng):
    # an infinite noise power has no sigma to calibrate
    with pytest.raises(ValueError, match=r"real number or \+inf"):
        assemble_dataset(MINI_SPECS, (40, 40), 50, 2.0, TwoGammaParams(), -np.inf, rng)


def test_clean_signal_reconstructs_exactly(rng):
    ds = mini_benchmark(rng, snr_db=np.inf)
    np.testing.assert_array_equal(ds.x.values, ds.truth.time_courses @ ds.truth.spatial_maps)


def test_mini_benchmark_deterministic():
    a = mini_benchmark(np.random.default_rng(33))
    b = mini_benchmark(np.random.default_rng(33))
    np.testing.assert_array_equal(a.x.values, b.x.values)
    np.testing.assert_array_equal(a.truth.spatial_maps, b.truth.spatial_maps)


_MINI_DIGEST = (
    "import hashlib, numpy as np; from iadl.synthgen import mini_benchmark; "
    "ds = mini_benchmark(np.random.default_rng(33)); "
    "print(hashlib.sha256(ds.x.values.tobytes()).hexdigest(), repr(ds.noise_sigma))"
)


def test_mini_benchmark_identical_across_blas_threads():
    # the calibration sums with NumPy's pairwise reduction, not a BLAS
    # product, so the thread count cannot change the data
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", _MINI_DIGEST], env=env, check=True,
                             capture_output=True, text=True).stdout
        digests.add(out.strip())
    here = mini_benchmark(np.random.default_rng(33))
    digests.add(f"{hashlib.sha256(here.x.values.tobytes()).hexdigest()} {here.noise_sigma!r}")
    assert len(digests) == 1


def test_mini_benchmark_task_overlap(rng):
    ds = mini_benchmark(rng)
    maps = ds.truth.spatial_maps
    i, j = ds.assisted_indices
    sup_i = set(np.flatnonzero(maps[i]))
    sup_j = set(np.flatnonzero(maps[j]))
    share = len(sup_i & sup_j) / min(len(sup_i), len(sup_j))
    assert share >= 0.15


def test_mini_benchmark_brain_sparsity_floor(rng):
    ds = mini_benchmark(rng)
    for m, kind in zip(ds.truth.spatial_maps, ds.truth.kinds):
        if kind in ("task", "transient"):
            assert sparsity_percentage(m) >= 85.0


def test_full_recipe_matches_reference_sparsities():
    ds = full_benchmark(np.random.default_rng(2))
    assert ds.x.values.shape == (300, 10_000)
    assert ds.assisted_indices == (0, 10, 13)
    for m, target in zip(ds.truth.spatial_maps, FULL_TARGET_THETAS):
        assert abs(sparsity_percentage(m) - target) <= 2.0


def test_full_recipe_zero_db(rng):
    ds = full_benchmark(rng)
    clean = ds.truth.time_courses @ ds.truth.spatial_maps
    ratio = np.mean(clean**2) / np.mean((ds.x.values - clean) ** 2)
    assert ratio == pytest.approx(1.0, rel=0.02)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSourceSpec("task", 95.0, blob_centers=((1, 1),))  # no condition
    with pytest.raises(ValueError):
        SyntheticSourceSpec("transient", 101.0, blob_centers=((1, 1),))
    with pytest.raises(ValueError):
        SyntheticSourceSpec("nonsense", 50.0)
    cond = ConditionSpec(onsets=(0.0,), durations=(2.0,))
    with pytest.raises(ValueError):
        SyntheticSourceSpec("task", 95.0, condition=cond)  # no blobs
