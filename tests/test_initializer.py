import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadl import initializer
from iadl.evaluation import _course_table
from iadl.hrf import sample_hrf
from iadl.initializer import (
    InitConfig,
    _cut_to_budget,
    _feasible_start,
    _whiten,
    align_assisted,
    ica_decompose,
    initialize,
    order_by_sparsity,
    refine_full_sparsity,
)
from iadl.projections import compute_weights, project_weighted_l1_rows
from iadl.synthgen import mini_benchmark
from iadl.types import CoefficientMatrix, ConstraintSpec, DataMatrix, Dictionary, TaskTimeCourses

from oracles import (
    capped_fixed_point_ica,
    copying_whitening,
    dense_whitening,
    pair_pearson,
    pairwise_align,
    weighted_l1_norm,
)


def laplace_sources(rng, k, n):
    s = rng.laplace(0.0, 1.0, (k, n))
    return s - s.mean(axis=1, keepdims=True)


def best_abs_corr(est_maps, true_map):
    return max(
        abs(np.corrcoef(row, true_map)[0, 1]) for row in est_maps if row.std() > 0
    )


# -- ICA ------------------------------------------------------------------------


def test_ica_recovers_two_source_toy(rng):
    s_true = laplace_sources(rng, 2, 6000)
    # four time points; the mixing courses correlate at about -0.53 once
    # centred
    mixing = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5], [-1.0, 0.5]])
    assert abs(pair_pearson(mixing[:, 0], mixing[:, 1])) < 0.6
    x = DataMatrix(mixing @ s_true)
    d, s = ica_decompose(x, 2, InitConfig(rng_seed=3))
    assert d.values.shape == (4, 2)
    assert s.values.shape == (2, 6000)
    for i in range(2):
        assert best_abs_corr(s.values, s_true[i]) >= 0.99


def test_ica_single_component_is_leading_pc(rng):
    t, n = 10, 4000
    d_true = rng.standard_normal((t, 3))
    d_true[:, 0] *= 6.0  # dominant direction
    x = DataMatrix(d_true @ laplace_sources(rng, 3, n))
    d, _ = ica_decompose(x, 1, InitConfig(rng_seed=0))
    xc = x.values - x.values.mean(axis=1, keepdims=True)
    evals, evecs = np.linalg.eigh(xc @ xc.T / n)
    lead = evecs[:, -1]
    cos = abs(d.values[:, 0] @ lead) / np.linalg.norm(d.values[:, 0])
    assert cos >= 0.999


def test_ica_rejects_too_many_components(rng):
    x = DataMatrix(rng.standard_normal((5, 50)))
    with pytest.raises(ValueError):
        ica_decompose(x, 6)


@pytest.mark.parametrize(
    "t, n, k",
    [(30, 200, 5), (60, 40, 6), (30, 200, 1), (30, 200, 30)],
    ids=["wide", "tall", "k_one", "k_all"],
)
def test_whiten_matches_dense_reference(rng, t, n, k):
    # the top-k solve against every eigenpair of a full dense solve, under
    # the same sign rule
    x = rng.standard_normal((t, 4)) @ rng.laplace(size=(4, n)) + rng.standard_normal((t, n))
    evals, evecs, z = _whiten(x, k)
    ref_evals, ref_evecs, ref_z = dense_whitening(x, k)
    assert evals.shape == (k,) and evecs.shape == (t, k) and z.shape == (k, n)
    np.testing.assert_allclose(evals, ref_evals, rtol=1e-10, atol=0.0)
    assert np.max(np.abs(evecs - ref_evecs)) <= 1e-10
    assert np.max(np.abs(z - ref_z)) <= 1e-10 * np.max(np.abs(ref_z))
    pivots = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(k)]
    assert np.all(pivots > 0.0)


@pytest.mark.parametrize(
    "t, n, k",
    [(60, 40, 6), (30, 200, 5), (30, 200, 1), (30, 200, 30), (900, 1600, 12)],
    ids=["tall", "wide", "k_one", "k_all", "group_size"],
)
def test_whiten_equals_the_copying_whitening_bit_for_bit(rng, t, n, k):
    # scaling the covariance in place and handing LAPACK its transposed view
    # changes no bit of the eigenpairs or the whitened data; 900 x 1600 is
    # six mini subjects stacked along time
    x = rng.standard_normal((t, 4)) @ rng.laplace(size=(4, n)) + rng.standard_normal((t, n))
    for got, ref in zip(_whiten(x, k), copying_whitening(x, k)):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def test_whiten_holds_one_covariance(rng, traced_peak):
    # beside the centred copy, the whitening holds one T x T array: the
    # covariance is scaled and eigensolved in place. At 900 x 1600 the
    # copying form peaks at 23.7 MiB, three covariances' worth over the
    # copy; this form at 17.9 MiB, within 2 MiB of the copy and one.
    t, n, k = 900, 1600, 12
    x = rng.standard_normal((t, 4)) @ rng.laplace(size=(4, n)) + rng.standard_normal((t, n))
    _, peak = traced_peak(lambda: _whiten(x, k))
    assert peak <= (t * n + t * t) * 8 + 2 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ica_warns_at_its_cap_and_returns_k_components(seed):
    # Gaussian sources leave the tanh contrast nothing to settle on, so the
    # fixed point runs to its cap
    rng = np.random.default_rng(seed)
    t, n, k = 8, 2000, 6
    x = DataMatrix(rng.standard_normal((t, n)))
    with pytest.warns(UserWarning, match="ICA did not reach tolerance"):
        d, s = ica_decompose(x, k, InitConfig(rng_seed=seed))
    assert d.values.shape == (t, k) and s.values.shape == (k, n)
    assert np.all(np.isfinite(d.values)) and np.all(np.isfinite(s.values))


def acceptance_subject(seed):
    """The mini subject that the acceptance study draws for ``seed``."""
    rng = np.random.default_rng(1000 + seed)
    return mini_benchmark(rng, hrf_params=sample_hrf(rng, 0.3)).x


def counted_ica(monkeypatch, x, k, seed):
    """``ica_decompose``'s factors and the fixed-point iterations it ran:
    the calls to ``_sym_decorrelate`` after the one on the random start."""
    calls = []
    decorrelate = initializer._sym_decorrelate

    def counted(w):
        calls.append(1)
        return decorrelate(w)

    monkeypatch.setattr(initializer, "_sym_decorrelate", counted)
    d, s = ica_decompose(x, k, InitConfig(rng_seed=seed))
    return d, s, len(calls) - 1


@pytest.mark.parametrize("seed, cycle_from", [(7, 42), (3, 71)])
def test_ica_stops_on_a_two_cycle_where_the_capped_loop_ends(monkeypatch, seed, cycle_from):
    # At K = 12 these subjects' iterates match the ones two steps back from
    # iteration 42 (seed 7, which the capped loop takes on to converge at 68)
    # and 71 (seed 3, which alternates up to the cap). The two parities
    # exercise both iterates the stop can return.
    x = acceptance_subject(seed)
    with pytest.warns(UserWarning, match="ICA did not reach tolerance: .* alternates"):
        d, s, iterations = counted_ica(monkeypatch, x, 12, seed)
    assert iterations <= cycle_from + 8
    d_ref, s_ref, ref_iterations = capped_fixed_point_ica(x.values, 12, seed)
    assert ref_iterations > iterations
    assert d.values.shape == d_ref.shape and s.values.shape == s_ref.shape
    # The maps are whitened, so the mean product of a row with the
    # reference's row is the cosine between the two unmixing rows; a flipped
    # sign would read near -1.
    cosines = np.sum(s.values * s_ref, axis=1) / x.n_voxels
    assert np.all(cosines >= 1.0 - 1e-5), cosines


@pytest.mark.parametrize(
    "k, seed, ends",
    [(8, 7, None), (12, 0, "in 400 iterations; returning the last iterate")],
    ids=["converges", "wanders_to_the_cap"],
)
def test_ica_without_a_two_cycle_is_the_capped_loop_bit_for_bit(monkeypatch, k, seed, ends):
    x = acceptance_subject(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d, s, iterations = counted_ica(monkeypatch, x, k, seed)
    messages = [str(w.message) for w in caught]
    assert len(messages) == (1 if ends else 0) and all(m.endswith(ends) for m in messages)
    d_ref, s_ref, ref_iterations = capped_fixed_point_ica(x.values, k, seed)
    assert iterations == ref_iterations
    np.testing.assert_array_equal(d.values, d_ref)
    np.testing.assert_array_equal(s.values, s_ref)


# -- alignment -------------------------------------------------------------------


def test_align_identity_when_already_in_place(rng):
    d = rng.standard_normal((15, 4))
    s = rng.standard_normal((4, 30))
    delta = TaskTimeCourses(d[:, :2].copy())
    d2, s2 = align_assisted(Dictionary(d), CoefficientMatrix(s), delta)
    np.testing.assert_array_equal(d2.values, d)
    np.testing.assert_array_equal(s2.values, s)
    assert d2.assisted_count == 2


def test_align_moves_last_column_to_front(rng):
    d, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    s = rng.standard_normal((3, 20))
    delta = TaskTimeCourses(d[:, 2:3].copy())
    d2, s2 = align_assisted(Dictionary(d), CoefficientMatrix(s), delta)
    np.testing.assert_array_equal(d2.values[:, 0], d[:, 2])
    np.testing.assert_array_equal(s2.values[0], s[2])
    # free block keeps the other columns
    np.testing.assert_array_equal(d2.values[:, 1:], d[:, :2])


def test_align_sign_flip_preserves_reconstruction(rng):
    d, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    s = rng.standard_normal((3, 20))
    delta = TaskTimeCourses(-d[:, 1:2])
    d2, s2 = align_assisted(Dictionary(d), CoefficientMatrix(s), delta)
    np.testing.assert_allclose(d2.values @ s2.values, d @ s, atol=1e-12)
    np.testing.assert_array_equal(s2.values[0], -s[1])


def test_align_never_changes_free_column_multiset(rng):
    d = rng.standard_normal((10, 5))
    s = rng.standard_normal((5, 9))
    delta = TaskTimeCourses(rng.standard_normal((10, 2)))
    d2, _ = align_assisted(Dictionary(d), CoefficientMatrix(s), delta)
    orig = {tuple(np.round(d[:, j], 12)) for j in range(5)}
    kept = {tuple(np.round(d2.values[:, j], 12)) for j in range(2, 5)}
    assert kept <= orig


def correlated_courses(rng, t, base, copies, dup):
    """``base`` random courses, then ``copies`` sign-flipped, rescaled noisy
    copies of them at distinct noise levels and, if ``dup``, one exact
    duplicate, in random order.

    At most one duplicate: two pairs that tie at |r| = 1 only up to
    rounding are ordered by the rounding, which differs between a per-pair
    and a tabled correlation.
    """
    d = rng.standard_normal((t, base))
    for noise in rng.uniform(1e-3, 0.5, copies):
        src = d[:, rng.integers(base)]
        copy = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * src
        d = np.column_stack([d, copy + noise * rng.standard_normal(t)])
    if dup:
        d = np.column_stack([d, d[:, rng.integers(d.shape[1])]])
    return d[:, rng.permutation(d.shape[1])]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(3, 12),
    m=st.integers(0, 3),
    extra=st.integers(1, 4),
    dup=st.booleans(),
    n_const=st.integers(0, 2),
)
def test_align_matches_pairwise_reference(seed, t, m, extra, dup, n_const):
    rng = np.random.default_rng(seed)
    delta = rng.standard_normal((t, m))
    # one or two noisy, sign-flipped copies per task course, then free atoms
    copies = [
        rng.choice([-1.0, 1.0]) * delta[:, i] + noise * rng.standard_normal(t)
        for i in range(m)
        for noise in rng.uniform(1e-3, 1.0, rng.integers(1, 3))
    ]
    dv = np.column_stack(copies + [correlated_courses(rng, t, extra, 1, dup)])
    # dyadic constants centre to exact zeros in both implementations
    for j in rng.choice(dv.shape[1], size=n_const, replace=False):
        dv[:, j] = rng.choice([0.0, 0.5, -2.0])
    dv = dv[:, rng.permutation(dv.shape[1])]
    sv = rng.standard_normal((dv.shape[1], 6))
    k = dv.shape[1]
    r = _course_table(dv, dv)
    ref = np.array([[pair_pearson(dv[:, i], dv[:, j]) for j in range(k)] for i in range(k)])
    np.testing.assert_allclose(r, np.clip(ref, -1.0, 1.0), rtol=0, atol=1e-12)
    d_ref, s_ref = pairwise_align(dv, sv, delta)
    d_new, s_new = align_assisted(Dictionary(dv), CoefficientMatrix(sv), TaskTimeCourses(delta))
    np.testing.assert_array_equal(d_new.values, d_ref)
    np.testing.assert_array_equal(s_new.values, s_ref)


# -- refinement -------------------------------------------------------------------


def refine_instance(rng, t=20, n=120, k=4, m=1):
    d_true = rng.standard_normal((t, k))
    d_true /= np.linalg.norm(d_true, axis=0)
    s_true = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.2)
    x = DataMatrix(d_true @ s_true + 0.05 * rng.standard_normal((t, n)))
    delta = TaskTimeCourses(d_true[:, :m])
    dbar = Dictionary(d_true, assisted_count=m)
    sbar = CoefficientMatrix(s_true + 0.1 * rng.standard_normal((k, n)))
    return x, dbar, sbar, delta


def test_refine_huge_budget_objective_non_increasing(rng):
    x, dbar, sbar, delta = refine_instance(rng)
    spec = ConstraintSpec(phi=np.full(4, 1e9), c_delta=0.5)
    obj0 = np.linalg.norm(x.values - dbar.values @ sbar.values) ** 2
    d2, s2 = refine_full_sparsity(x, dbar, sbar, delta, spec, InitConfig(refine_iters=5))
    obj1 = np.linalg.norm(x.values - d2.values @ s2.values) ** 2
    assert obj1 <= obj0 * (1 + 1e-9)


def test_refine_zero_budget_zeroes_maps(rng):
    x, dbar, sbar, delta = refine_instance(rng)
    spec = ConstraintSpec(phi=np.zeros(4), c_delta=0.5)
    _, s2 = refine_full_sparsity(x, dbar, sbar, delta, spec, InitConfig(refine_iters=3))
    np.testing.assert_array_equal(s2.values, np.zeros_like(s2.values))


def test_refine_enforces_matrix_budget_and_sparsifies(rng):
    x, dbar, sbar, delta = refine_instance(rng)
    spec = ConstraintSpec(phi=np.full(4, 20.0), c_delta=0.5)
    sparsity_before = np.mean(sbar.values == 0)
    d2, s2 = refine_full_sparsity(x, dbar, sbar, delta, spec, InitConfig(refine_iters=6))
    sparsity_after = np.mean(s2.values == 0)
    assert sparsity_after >= sparsity_before
    w = compute_weights(s2.values, spec.epsilon)
    assert weighted_l1_norm(s2.values, w) <= np.sum(spec.phi) * (1 + 1e-6) + 1e-6


# -- ordering ---------------------------------------------------------------------


def ordering_fixture():
    d = np.arange(6.0).reshape(2, 3)
    s = np.array(
        [
            [1.0, 2.0, 3.0, 0.0],  # assisted, untouched
            [1.0, 0.0, 0.0, 0.0],  # sparsest free
            [1.0, 2.0, 0.0, 0.0],
        ]
    )
    return Dictionary(d, assisted_count=1), CoefficientMatrix(s)


def test_order_already_sorted_is_identity():
    d, s = ordering_fixture()
    d2, s2 = order_by_sparsity(d, s, 1)
    np.testing.assert_array_equal(d2.values, d.values)
    np.testing.assert_array_equal(s2.values, s.values)


def test_order_reversed_free_block():
    d, s = ordering_fixture()
    swapped = CoefficientMatrix(s.values[[0, 2, 1]])
    d_in = Dictionary(d.values[:, [0, 2, 1]], assisted_count=1)
    d2, s2 = order_by_sparsity(d_in, swapped, 1)
    np.testing.assert_array_equal(s2.values, s.values)
    np.testing.assert_array_equal(d2.values, d.values)


def test_order_stable_on_ties(rng):
    s = np.zeros((3, 6))
    s[0, 0] = 1.0
    s[1, 1] = 1.0  # same sparsity as row 0: original order kept
    s[2, :3] = 1.0
    d = rng.standard_normal((5, 3))
    d2, s2 = order_by_sparsity(Dictionary(d, assisted_count=0), CoefficientMatrix(s), 0)
    np.testing.assert_array_equal(s2.values[0], s[0])
    np.testing.assert_array_equal(s2.values[1], s[1])
    np.testing.assert_array_equal(d2.values, d)


def test_order_with_every_atom_assisted_is_identity():
    # At M = K no atom is free: rows out of sparsity order stay where they are.
    d, s = ordering_fixture()
    swapped = s.values[[0, 2, 1]]
    d_in = Dictionary(d.values, assisted_count=3)
    d2, s2 = order_by_sparsity(d_in, CoefficientMatrix(swapped), 3)
    np.testing.assert_array_equal(s2.values, swapped)
    np.testing.assert_array_equal(d2.values, d.values)
    assert d2.assisted_count == 3


# -- full pipeline ----------------------------------------------------------------


def toy_pipeline_case(rng):
    """Five sources at K = 5."""
    t, n, k, m = 25, 300, 5, 2
    d_true = rng.standard_normal((t, k))
    s_true = laplace_sources(rng, k, n) * (rng.random((k, n)) < 0.3)
    x = DataMatrix(d_true @ s_true + 0.02 * rng.standard_normal((t, n)))
    delta = TaskTimeCourses(d_true[:, :m] / np.abs(d_true[:, :m]).max())
    spec = ConstraintSpec(phi=np.full(k, 60.0), c_delta=1.0)
    return x, k, delta, spec, InitConfig(rng_seed=11, refine_iters=4)


def inflated_mini_pipeline_case():
    """A mini subject's 8 sources at K = 12. ICA splits sources into
    components whose courses correlate beyond 0.95; the start keeps all 12."""
    dataset = mini_benchmark(np.random.default_rng(1))
    delta = TaskTimeCourses(dataset.truth.time_courses[:, list(dataset.assisted_indices)])
    spec = ConstraintSpec(phi=np.full(12, 160.0), c_delta=0.9)
    return dataset.x, 12, delta, spec, InitConfig(rng_seed=1)


def test_pipeline_shapes_and_reconstruction_invariance(rng):
    for x, k, delta, spec, cfg in (toy_pipeline_case(rng), inflated_mini_pipeline_case()):
        t, n, m = x.n_times, x.n_voxels, delta.n_courses
        d_ica, s_ica = ica_decompose(x, k, cfg)
        assert d_ica.values.shape == (t, k)
        assert s_ica.values.shape == (k, n)
        d0, s0 = initialize(x, k, delta, spec, cfg)
        assert d0.values.shape == (t, k)
        assert s0.values.shape == (k, n)
        assert d0.assisted_count == m
        # refinement may move assisted atoms, but only inside the similarity ball
        for i in range(m):
            dist_sq = np.sum((d0.values[:, i] - delta.values[:, i]) ** 2)
            assert dist_sq <= spec.c_delta + 1e-9
        norms = np.linalg.norm(d0.values[:, m:], axis=0)
        assert np.all(norms**2 <= spec.c_d + 1e-9)
        # the ordering permutation alone never changes the reconstruction
        d_ref, s_ref = refine_full_sparsity(
            x, *align_assisted(d_ica, s_ica, delta), delta, spec, cfg
        )
        d_ord, s_ord = order_by_sparsity(d_ref, s_ref, m)
        np.testing.assert_allclose(
            d_ord.values @ s_ord.values, d_ref.values @ s_ref.values, atol=1e-10
        )
        # the pipeline output is feasible for the budgets under its own weights
        w = compute_weights(s0.values, spec.epsilon)
        wl1 = np.einsum("ij,ij->i", w, np.abs(s0.values))
        assert np.all(wl1 <= spec.phi + 1e-9)


def test_pipeline_deterministic(rng):
    t, n, k = 15, 150, 3
    x = DataMatrix(rng.standard_normal((t, n)))
    delta = TaskTimeCourses(rng.standard_normal((t, 1)))
    spec = ConstraintSpec(phi=np.full(k, 30.0), c_delta=1.0)
    cfg = InitConfig(rng_seed=9, refine_iters=3)
    a = initialize(x, k, delta, spec, cfg)
    b = initialize(x, k, delta, spec, cfg)
    np.testing.assert_array_equal(a[0].values, b[0].values)
    np.testing.assert_array_equal(a[1].values, b[1].values)


# -- start feasibility -------------------------------------------------------------


def own_weight_norms(s, epsilon):
    return np.einsum("ij,ij->i", compute_weights(s, epsilon), np.abs(s))


def check_projected_and_cut(s0, phi, epsilon=1e-6):
    """Run the initializer's last step, one row projection of ``s0``
    followed by the cut, and check its start against that projection."""
    k = s0.shape[0]
    out = _feasible_start(s0, phi, epsilon)
    again = _feasible_start(s0, phi, epsilon)
    np.testing.assert_array_equal(out.view(np.int64), again.view(np.int64))

    proj = project_weighted_l1_rows(s0, compute_weights(s0, epsilon), phi)
    assert np.all(own_weight_norms(out, epsilon) <= phi + 1e-10)

    # The cut only zeroes: every survivor is bit-identical to the projection.
    kept = out != 0
    np.testing.assert_array_equal(out[kept].view(np.int64), proj[kept].view(np.int64))
    for i in range(k):
        dropped = np.abs(proj[i][~kept[i] & (proj[i] != 0)])
        if dropped.size == 0:
            continue
        # it drops the smallest entries, and no more than it has to
        assert dropped.max() <= np.abs(out[i][kept[i]]).min(initial=np.inf)
        w = compute_weights(out[i][kept[i]], epsilon)
        next_term = dropped.max() / (dropped.max() + epsilon)
        assert math.fsum(w * np.abs(out[i][kept[i]])) + next_term > phi[i] + 1e-10 - 1e-6
    return out


MAGNITUDES = st.one_of(
    st.just(0.0),
    # repeated picks give tied magnitudes; the middle ones sit near epsilon
    st.sampled_from([1e-300, 1e-150, 1e-12, 9.99e-7, 1e-6, 1.01e-6, 1e-5, 0.25, 1.0, 7.0, 1e150]),
    st.floats(min_value=1e-300, max_value=1e150, allow_nan=False, allow_infinity=False),
)


@st.composite
def start_maps(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 24))
    s0 = np.array(
        [draw(st.lists(MAGNITUDES, min_size=n, max_size=n)) for _ in range(k)]
    )
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k * n, max_size=k * n))
    s0 *= np.reshape(signs, (k, n))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=k)):
        s0[i] = 0.0
    phi = np.array(
        draw(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.floats(0.0, n, allow_nan=False),
                    st.just(float(n)),
                    st.floats(n, 2.0 * n, allow_nan=False),
                ),
                min_size=k,
                max_size=k,
            )
        )
    )
    return s0, phi


@settings(max_examples=150, deadline=None)
@given(start_maps())
def test_start_is_own_weight_feasible_on_adversarial_maps(case):
    s0, phi = case
    check_projected_and_cut(s0, phi)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), slack=st.floats(0.0, 4.0), ties=st.booleans())
def test_start_is_own_weight_feasible_with_budget_near_voxel_count(seed, slack, ties):
    # With phi a few units below N = 10 000 and most terms close to 1, the
    # cut drops only a handful of entries and its sums round at ~1e-12.
    rng = np.random.default_rng(seed)
    n = 10_000
    mags = np.exp(rng.normal(0.0, 3.0, (2, n)))
    if ties:
        mags = np.round(mags, 1) + 0.1
    s0 = mags * rng.choice([-1.0, 1.0], (2, n))
    out = check_projected_and_cut(s0, np.array([n - slack, n - 2.0 * slack]))
    assert np.count_nonzero(out) > n


def test_cut_lowers_budget_when_sorted_and_row_sums_round_apart():
    # 1000 entries worth ~8.7e-13 each, then 10 000 worth exactly 1. Summed
    # largest first the small terms vanish below half an ulp of 10 000;
    # summed in row order they add up to ~8.7e-10, past the 1e-10 slack.
    eps = 1e-6
    row = np.concatenate([np.full(1000, 2.0**-60), np.full(10_000, 2.0**40)])[None, :]
    phi = np.array([10_000.0 - 5e-11])
    terms = compute_weights(row, eps) * np.abs(row)
    sorted_sum = np.cumsum(np.sort(terms[0])[::-1])[-1]
    assert sorted_sum <= phi[0] + 1e-10 < own_weight_norms(row, eps)[0]

    out = _cut_to_budget(row, phi, eps)
    assert own_weight_norms(out, eps)[0] <= phi[0] + 1e-10
    kept = out != 0
    np.testing.assert_array_equal(out[kept], row[kept])
    assert np.abs(out[~kept]).max() <= np.abs(out[kept]).min()
    assert np.count_nonzero(out[0] == 2.0**40) >= 9_999
