import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadl.evaluation import (
    FULL_SOURCE,
    TIME_COURSE,
    _course_table,
    _full_source_table,
    atlas_fbn_sparsity,
    match_and_score,
)
from iadl.types import CoefficientMatrix, Dictionary, SourceSet

from oracles import full_source, matrix_pearson, pairwise_match, pairwise_score_tables


def toy_truth(rng, k=5, t=40, n=60, assisted=(0, 2)):
    d = rng.standard_normal((t, k))
    s = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.5)
    kinds = ["transient"] * k
    for i in assisted:
        kinds[i] = "task"
    kinds[-1] = "artifact_gaussian"
    return SourceSet(time_courses=d, spatial_maps=s, kinds=tuple(kinds))


# -- pearson -----------------------------------------------------------------


def test_pearson_self_is_one(rng):
    a = rng.standard_normal((6, 7))
    assert matrix_pearson(a, a) == pytest.approx(1.0)


def test_pearson_negation_is_minus_one(rng):
    a = rng.standard_normal((6, 7))
    assert matrix_pearson(a, -a) == pytest.approx(-1.0)


def test_pearson_affine_invariance(rng):
    a = rng.standard_normal((5, 8))
    b = rng.standard_normal((5, 8))
    base = matrix_pearson(a, b)
    assert matrix_pearson(a, 2.5 * b + 3.0) == pytest.approx(base, rel=1e-12)
    assert matrix_pearson(a, -0.5 * b + 1.0) == pytest.approx(-base, rel=1e-12)


def test_pearson_constant_matrix_rejected():
    with pytest.raises(ValueError):
        matrix_pearson(np.ones((3, 3)), np.random.default_rng(0).standard_normal((3, 3)))


# -- full source ----------------------------------------------------------------


def test_full_source_outer_product():
    f = full_source([1.0, 2.0], [3.0, 0.0, -1.0])
    np.testing.assert_array_equal(f, [[3.0, 0.0, -1.0], [6.0, 0.0, -2.0]])


def test_full_source_zero_map():
    np.testing.assert_array_equal(full_source([1.0, 2.0], [0.0, 0.0]), np.zeros((2, 2)))


def test_full_source_scale_counter_invariance(rng):
    d = rng.standard_normal(9)
    s = rng.standard_normal(5)
    np.testing.assert_allclose(full_source(3.0 * d, s / 3.0), full_source(d, s))


# -- matching -------------------------------------------------------------------


def test_match_exact_estimate_scores_one(rng):
    truth = toy_truth(rng)
    order = [0, 2, 1, 3, 4]  # assisted sources first, per the wire layout
    est_d = Dictionary(truth.time_courses[:, order], assisted_count=2)
    est_s = CoefficientMatrix(truth.spatial_maps[order])
    rep = match_and_score(truth, est_d, est_s, (0, 2))
    np.testing.assert_allclose(rep.r_full, np.ones(5), atol=1e-12)
    np.testing.assert_allclose(rep.r_time, np.ones(5), atol=1e-12)
    assert rep.mapping == {0: 0, 2: 1, 1: 2, 3: 3, 4: 4}
    assert rep.summaries["assisted_full"] == pytest.approx(1.0)


def test_match_recovers_inverse_permutation(rng):
    truth = toy_truth(rng, assisted=(1,))
    # assisted estimate first, free sources permuted behind it
    perm_free = [4, 0, 2, 3]
    order = [1] + perm_free
    est_d = Dictionary(truth.time_courses[:, order], assisted_count=1)
    est_s = CoefficientMatrix(truth.spatial_maps[order])
    rep = match_and_score(truth, est_d, est_s, (1,), mode=FULL_SOURCE)
    np.testing.assert_allclose(rep.r_full, np.ones(5), atol=1e-12)
    for true_idx, est_idx in rep.mapping.items():
        assert order[est_idx] == true_idx


def test_match_corrupted_source_scores_low(rng):
    truth = toy_truth(rng, assisted=())
    dv = truth.time_courses.copy()
    sv = truth.spatial_maps.copy()
    dv[:, 3] = rng.standard_normal(dv.shape[0])
    sv[3] = rng.standard_normal(sv.shape[1])
    rep = match_and_score(truth, Dictionary(dv), CoefficientMatrix(sv), ())
    others = [i for i in range(5) if i != 3]
    np.testing.assert_allclose(rep.r_full[others], np.ones(4), atol=1e-12)
    assert rep.r_full[3] < 0.2


def test_match_scale_invariance_of_estimates(rng):
    truth = toy_truth(rng)
    order = [0, 2, 1, 3, 4]
    scales = rng.uniform(0.5, 4.0, 5)
    est_d = Dictionary((truth.time_courses * scales)[:, order], assisted_count=2)
    est_s = CoefficientMatrix((truth.spatial_maps / scales[:, None])[order])
    rep = match_and_score(truth, est_d, est_s, (0, 2))
    np.testing.assert_allclose(rep.r_full, np.ones(5), atol=1e-12)


def test_match_time_course_mode(rng):
    truth = toy_truth(rng)
    order = [0, 2, 1, 3, 4]
    est_d = Dictionary(truth.time_courses[:, order] * -2.0, assisted_count=2)
    est_s = CoefficientMatrix(rng.standard_normal(truth.spatial_maps.shape))
    rep = match_and_score(truth, est_d, est_s, (0, 2), mode=TIME_COURSE)
    np.testing.assert_allclose(rep.r_time, np.ones(5), atol=1e-12)


def test_match_full_source_agrees_with_direct_pearson(rng):
    truth = toy_truth(rng, k=3, t=12, n=15, assisted=())
    dv = rng.standard_normal((12, 3))
    sv = rng.standard_normal((3, 15))
    rep = match_and_score(truth, Dictionary(dv), CoefficientMatrix(sv), ())
    for i, j in rep.mapping.items():
        f_true = full_source(truth.time_courses[:, i], truth.spatial_maps[i])
        f_est = full_source(dv[:, j], sv[j])
        assert rep.r_full[i] == pytest.approx(matrix_pearson(f_true, f_est) ** 2, abs=1e-12)


def test_match_handles_extra_estimated_sources(rng):
    truth = toy_truth(rng, k=4, assisted=(0,))
    dv = np.hstack([truth.time_courses, rng.standard_normal((40, 3))])
    sv = np.vstack([truth.spatial_maps, rng.standard_normal((3, 60))])
    rep = match_and_score(truth, Dictionary(dv, assisted_count=1), CoefficientMatrix(sv), (0,))
    assert len(rep.mapping) == 4
    np.testing.assert_allclose(rep.r_full, np.ones(4), atol=1e-12)


def test_match_validates_inputs(rng):
    truth = toy_truth(rng)
    est_d = Dictionary(truth.time_courses, assisted_count=2)
    est_s = CoefficientMatrix(truth.spatial_maps)
    with pytest.raises(ValueError):
        match_and_score(truth, est_d, est_s, (0,))  # wrong p length
    with pytest.raises(ValueError):
        match_and_score(truth, est_d, est_s, (0, 0))  # duplicate
    with pytest.raises(ValueError):
        match_and_score(truth, est_d, est_s, (0, 2), mode="nonsense")


def scoring_instance(seed, t, n, k_true, k_est, m, n_dup, n_const, n_zero):
    """A truth and an estimate with exact duplicate estimates, constant
    courses and all-zero maps. Constants are dyadic, so the per-pair
    reference centres them to exact zeros too: an inexact constant centres
    to rounding noise there, which it scores as noise, not as 0."""
    rng = np.random.default_rng(seed)
    truth = SourceSet(
        time_courses=rng.standard_normal((t, k_true)),
        spatial_maps=rng.standard_normal((k_true, n)) * (rng.random((k_true, n)) < 0.6),
        kinds=("transient",) * k_true,
    )
    p = [int(i) for i in rng.permutation(k_true)[:m]]
    dv = rng.standard_normal((t, k_est))
    sv = rng.standard_normal((k_est, n))
    # the assisted estimates and some free ones are noisy copies of truth
    for j in range(min(k_est, k_true)):
        i = p[j] if j < m else int(rng.integers(k_true))
        dv[:, j] = truth.time_courses[:, i] * rng.uniform(0.5, 2.0) + 0.3 * rng.standard_normal(t)
        sv[j] = truth.spatial_maps[i] / rng.uniform(0.5, 2.0) + 0.3 * rng.standard_normal(n)
    for j in rng.choice(k_est, size=min(n_const, k_est), replace=False):
        dv[:, j] = rng.choice([0.0, 0.5, -2.0, 3.0])
    for j in rng.choice(k_est, size=min(n_zero, k_est), replace=False):
        sv[j] = 0.0
    # duplicates come last, so that they stay exact
    free = np.arange(m, k_est)
    for j in rng.choice(free, size=min(n_dup, free.size), replace=False):
        src = int(rng.integers(k_est))
        dv[:, j], sv[j] = dv[:, src], sv[src]
    return truth, p, dv, sv


# Courses and maps have at least three samples. Any two non-constant
# two-sample vectors correlate at |r| = 1, so their order is rounding in
# either implementation; with a constant course, a full source correlates
# through its map alone. A one-voxel map also makes a constant course's
# full source constant, which the reference scores as rounding noise, not
# as 0 (test_constant_sources_score_zero covers that case).
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(3, 12),
    n=st.integers(3, 15),
    k_true=st.integers(1, 6),
    k_est=st.integers(1, 8),
    m_share=st.floats(0.0, 1.0),
    n_dup=st.integers(0, 3),
    n_const=st.integers(0, 2),
    n_zero=st.integers(0, 2),
)
@example(seed=1, t=8, n=10, k_true=4, k_est=4, m_share=0.0, n_dup=2, n_const=0, n_zero=0)
@example(seed=2, t=8, n=10, k_true=4, k_est=4, m_share=1.0, n_dup=0, n_const=1, n_zero=1)
@example(seed=3, t=5, n=6, k_true=3, k_est=7, m_share=0.5, n_dup=3, n_const=2, n_zero=2)
# BLAS cross sums give these duplicate estimates unequal entries
@example(seed=1427054127, t=10, n=3, k_true=1, k_est=7, m_share=0.0, n_dup=2, n_const=1, n_zero=0)
def test_tables_and_mapping_match_pairwise_reference(
    seed, t, n, k_true, k_est, m_share, n_dup, n_const, n_zero
):
    m = int(round(m_share * min(k_true, k_est)))
    truth, p, dv, sv = scoring_instance(seed, t, n, k_true, k_est, m, n_dup, n_const, n_zero)
    td, ts = truth.time_courses, truth.spatial_maps
    ref_full, ref_time = pairwise_score_tables(td, ts, dv, sv)
    np.testing.assert_allclose(_full_source_table(td, ts, dv, sv) ** 2, ref_full, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_course_table(td, dv) ** 2, ref_time, rtol=0, atol=1e-12)
    for mode in (FULL_SOURCE, TIME_COURSE):
        rep = match_and_score(
            truth, Dictionary(dv, assisted_count=m), CoefficientMatrix(sv), p, mode=mode
        )
        mapping, r_full, r_time = pairwise_match(td, ts, dv, sv, p, full_source=mode == FULL_SOURCE)
        assert rep.mapping == mapping
        np.testing.assert_allclose(rep.r_full, r_full, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.r_time, r_time, rtol=0, atol=1e-12)


def test_constant_sources_score_zero(rng):
    # 0.1 summed ten times is not 1: centred, the column is a tiny constant
    d = np.column_stack([np.full(10, 0.1), rng.standard_normal(10), np.full(10, 0.3)])
    for r in (_course_table(d, d), _full_source_table(d, np.full((3, 1), 0.7), d, np.ones((3, 1)))):
        assert np.all(r[[0, 2]] == 0.0) and np.all(r[:, [0, 2]] == 0.0)
        assert r[1, 1] == pytest.approx(1.0)


# -- atlas formula ----------------------------------------------------------------


def test_atlas_single_region_identity():
    assert atlas_fbn_sparsity([93.2]) == pytest.approx(93.2)


def test_atlas_two_regions():
    assert atlas_fbn_sparsity([95.0, 95.0]) == pytest.approx(90.0)


def test_atlas_over_coverage_raises():
    with pytest.raises(ValueError):
        atlas_fbn_sparsity([40.0, 40.0, 10.0])


def test_atlas_validates_range():
    with pytest.raises(ValueError):
        atlas_fbn_sparsity([101.0])
    with pytest.raises(ValueError):
        atlas_fbn_sparsity([])
