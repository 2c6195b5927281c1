import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadl import projections
from iadl.projections import (
    compute_weights,
    project_similarity_ball,
    project_weighted_l1_matrix_ball,
    project_weighted_l1_rows,
)
# a vector goes onto its own weighted-l1 ball through the matrix ball
from iadl.projections import project_weighted_l1_matrix_ball as project_weighted_l1_ball

from oracles import (
    dense_project_rows,
    oracle_gamma_bisection,
    oracle_project,
    random_feasible_points,
    unfiltered_breakpoint_scan,
    weighted_l1_norm,
)


# -- weights and norms -------------------------------------------------------


def test_compute_weights_zero_entry():
    assert compute_weights(np.array([0.0]), 1e-6) == pytest.approx([1e6])


def test_compute_weights_unit_magnitudes():
    w = compute_weights(np.array([1.0, -1.0]), 1e-12)
    np.testing.assert_allclose(w, [1.0, 1.0], rtol=1e-11)


def test_compute_weights_arithmetic():
    assert compute_weights(np.array([3.0]), 1.0) == pytest.approx([0.25])


def test_compute_weights_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        compute_weights(np.array([1.0]), 0.0)


def test_weighted_l1_norm_zero():
    assert weighted_l1_norm(np.zeros(4), np.ones(4)) == 0.0


def test_weighted_l1_norm_arithmetic():
    assert weighted_l1_norm([1.0, 2.0], [2.0, 0.5]) == pytest.approx(3.0)


def test_weighted_l1_norm_all_ones_reduces_to_l1(rng):
    x = rng.standard_normal(20)
    assert weighted_l1_norm(x, np.ones(20)) == pytest.approx(np.sum(np.abs(x)))


def test_weighted_l1_norm_length_mismatch():
    with pytest.raises(ValueError):
        weighted_l1_norm(np.ones(3), np.ones(4))


def test_matrix_norm_zero_and_vector_consistency(rng):
    assert weighted_l1_norm(np.zeros((2, 3)), np.ones((2, 3))) == 0.0
    x = rng.standard_normal(7)
    w = rng.random(7) + 0.1
    assert weighted_l1_norm(x[None, :], w[None, :]) == pytest.approx(
        weighted_l1_norm(x, w)
    )


def test_matrix_norm_row_sum_oracle(rng):
    s = rng.standard_normal((3, 4))
    w = rng.random((3, 4)) + 0.05
    expected = sum(weighted_l1_norm(s[i], w[i]) for i in range(3))
    assert weighted_l1_norm(s, w) == pytest.approx(expected)


def test_self_weighted_norm_below_l0(rng):
    # sum |x|/(|x|+eps) < number of nonzeros, strictly for x != 0
    for _ in range(25):
        x = rng.standard_normal(30)
        x[rng.random(30) < 0.5] = 0.0
        w = compute_weights(x, 1e-6)
        l0 = np.count_nonzero(x)
        if l0 == 0:
            assert weighted_l1_norm(x, w) == 0.0
        else:
            assert weighted_l1_norm(x, w) < l0


# -- weighted-l1 ball projection ---------------------------------------------


def test_projection_identity_inside_ball(rng):
    v = rng.standard_normal(10) * 0.01
    w = compute_weights(v, 1e-6)
    out = project_weighted_l1_ball(v, w, 1e6)
    np.testing.assert_array_equal(out, v)


def test_projection_known_case_with_kkt_check():
    v = np.array([2.0, 0.0])
    w = np.array([1.0, 1.0])
    out = project_weighted_l1_ball(v, w, 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)
    # KKT: constraint active, and out = shrinkage of v at gamma = 1
    assert weighted_l1_norm(out, w) == pytest.approx(1.0)
    gamma = oracle_gamma_bisection(v, w, 1.0)
    assert gamma == pytest.approx(1.0, abs=1e-10)


def test_projection_matches_bisection_oracle(rng):
    for _ in range(300):
        n = rng.integers(1, 13)
        v = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
        w = rng.random(n) * 5 + 1e-3
        phi = rng.random() * weighted_l1_norm(v, w)
        out = project_weighted_l1_ball(v, w, phi)
        ref = oracle_project(v, w, phi)
        np.testing.assert_allclose(out, ref, atol=1e-8)


def test_projection_beats_random_feasible_points(rng):
    for _ in range(50):
        n = int(rng.integers(2, 13))
        v = rng.standard_normal(n) * 3
        w = rng.random(n) * 4 + 0.01
        phi = rng.random() * weighted_l1_norm(v, w) * 0.8
        out = project_weighted_l1_ball(v, w, phi)
        pts = random_feasible_points(w, phi, 20000, rng)
        best = np.min(np.sum((pts - v) ** 2, axis=1))
        assert np.sum((out - v) ** 2) <= best + 1e-9


def test_projection_tightness_when_active(rng):
    for _ in range(100):
        n = int(rng.integers(2, 40))
        v = rng.standard_normal(n) * 10
        w = rng.random(n) + 0.01
        norm = weighted_l1_norm(v, w)
        phi = norm * 0.3
        out = project_weighted_l1_ball(v, w, phi)
        assert weighted_l1_norm(out, w) == pytest.approx(phi, rel=1e-10)


def test_projection_feasible_when_weights_dwarf_the_radius(rng):
    # weights near 1/epsilon leave survivors many orders below |v|, where
    # |v| - gamma * w keeps only their low bits and the row norm can round
    # past phi by far more than an ulp of phi
    for _ in range(50):
        n = int(rng.integers(5, 400))
        v = rng.standard_normal(n)
        w = np.full(n, 10.0 ** rng.uniform(3, 10))
        phi = rng.uniform(0.5, 5.0)
        out = project_weighted_l1_ball(v, w, phi)
        assert weighted_l1_norm(out, w) <= phi * (1 + 1e-12)
        np.testing.assert_allclose(out, oracle_project(v, w, phi), atol=1e-12)


def test_projection_mend_leaves_small_weight_entries_in_place(rng):
    # rows as the solver builds them far above epsilon: a large entry with
    # weight 1 / |s|, and an entry entering the support with weight
    # 1 / epsilon that carries nearly all of the norm. The excess the scan
    # leaves is rounding in the high-weight entry; scaling the whole row back
    # onto the sphere moved the large entry by up to 2e-5 of itself.
    for _ in range(200):
        big = 10.0 ** rng.uniform(3, 7)
        v = np.array([big, -rng.uniform(1e4, 1e5)])
        w = np.array([1.0 / (big + 1e-6), 1e6])
        phi = rng.uniform(1.3, 1.9)
        out = project_weighted_l1_ball(v, w, phi)
        assert weighted_l1_norm(out, w) <= phi * (1 + 1e-12)
        np.testing.assert_allclose(out, oracle_project(v, w, phi), rtol=0, atol=1e-12 * big)


def test_projection_idempotent(rng):
    for _ in range(50):
        n = int(rng.integers(2, 20))
        v = rng.standard_normal(n) * 5
        w = rng.random(n) + 0.05
        phi = rng.random() * 3
        once = project_weighted_l1_ball(v, w, phi)
        twice = project_weighted_l1_ball(once, w, phi)
        np.testing.assert_allclose(twice, once, atol=1e-12)


def test_projection_nonexpansive(rng):
    for _ in range(50):
        n = int(rng.integers(2, 20))
        w = rng.random(n) + 0.05
        phi = rng.random() * 2 + 0.1
        x = rng.standard_normal(n) * 4
        y = rng.standard_normal(n) * 4
        px = project_weighted_l1_ball(x, w, phi)
        py = project_weighted_l1_ball(y, w, phi)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_projection_preserves_signs_and_exact_zeros(rng):
    v = np.array([3.0, -2.0, 1e-4, -1e-4, 0.0])
    w = np.ones(5)
    # gamma = 1.5 here: both large entries survive with their signs
    out = project_weighted_l1_ball(v, w, 2.0)
    assert out[0] > 0 and out[1] < 0
    assert out[2] == 0.0 and out[3] == 0.0 and out[4] == 0.0
    # no negative zeros
    assert not np.signbit(out[2]) and not np.signbit(out[3])


def test_projection_zero_radius():
    out = project_weighted_l1_ball(np.array([1.0, -2.0]), np.ones(2), 0.0)
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_projection_rejects_bad_inputs():
    with pytest.raises(ValueError):
        project_weighted_l1_ball(np.ones(3), np.ones(3), -1.0)
    with pytest.raises(ValueError):
        project_weighted_l1_ball(np.ones(3), np.array([1.0, -1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        project_weighted_l1_ball(np.ones(3), np.ones(4), 1.0)


# Entry magnitudes for the property test. Weights stay within [1e-2, 1e2]
# (or powers of two in [2^-6, 2^6]), so w |v| is a normal number throughout;
# degenerate rows draw both from ranges of their own.
MAGNITUDES = st.one_of(
    st.sampled_from([1e-300, 1e-150, 1e-12, 1.0, 7.0, 1e150]),
    st.floats(min_value=1e-300, max_value=1e150),
)
# Radius as a share of the row's own weighted norm: phi = 0, phi close to 0
# and phi close to the norm (or the norm itself) are all drawn often.
RADIUS_SHARES = st.one_of(
    st.sampled_from([0.0, 1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
ROW_KINDS = ("plain", "ties", "all_survive", "one_survives", "degenerate")


@st.composite
def adversarial_row(draw, n):
    """One row (v, w, phi) of a kind from ROW_KINDS.

    - ties: power-of-two weights and at most three breakpoint levels, so
      |v| / w ties exactly;
    - all_survive: one breakpoint level, so every entry is active and the
      first Michelot pass already lands on the exact threshold;
    - one_survives: one entry's breakpoint far above the rest, with phi below
      what that entry alone carries at the next breakpoint;
    - degenerate: weights log-uniform over a span of 1e12 to 1e20, and
      magnitudes that are either drawn alone, so a high weight carries most
      of the norm on a low breakpoint, or drawn times their weight, so a
      high-weight entry can stay active; n = 1 leaves one weight.
    """
    kind = draw(st.sampled_from(ROW_KINDS))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    j = draw(st.integers(0, n - 1))
    if kind == "degenerate":
        # both ends of the span are pinned; with the magnitudes in
        # [1e-100, 1e100] every w |v| and breakpoint is a normal number
        lo, span = draw(st.floats(-12.0, 2.0)), draw(st.floats(12.0, 20.0))
        u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        u[(j + 1) % n], u[j] = 0.0, 1.0
        w = 10.0 ** (lo + span * u)
        mags = 10.0 ** np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
        scaled = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        mags = np.where(scaled, mags * w, mags)
    elif kind in ("ties", "all_survive"):
        w = 2.0 ** np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
        levels = draw(st.lists(MAGNITUDES, min_size=1, max_size=1 if kind == "all_survive" else 3))
        mags = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))) * w
    else:
        w = np.array(draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n)))
        mags = np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)))
    share = draw(RADIUS_SHARES)
    phi = share * float(np.sum(w * mags))
    if kind == "one_survives" and n > 1:
        rest = np.delete(mags / w, j).max()
        mags[j] = rest * w[j] * draw(st.floats(1.5, 1e6))
        phi = share * w[j] * (mags[j] - rest * w[j])
    return signs * mags, w, phi


@st.composite
def adversarial_blocks(draw):
    n = draw(st.one_of(st.just(1), st.integers(1, 24)))
    rows = draw(st.lists(adversarial_row(n), min_size=1, max_size=5))
    v, w, phi = (np.array(part) for part in zip(*rows))
    return v, w, phi


def assert_row_matches_oracle(v, w, phi, out):
    """``out``, a projection of row ``v``, agrees with the bisection oracle
    to within rounding of the row."""
    own = float(np.sum(w * np.abs(v)))
    got = float(np.sum(w * np.abs(out)))
    ref = oracle_project(v, w, phi)
    assert np.all((out == 0.0) | (np.sign(out) == np.sign(v)))
    assert got <= phi * (1 + 1e-12)
    # errors in the threshold move the weighted norm by at most a few
    # n * eps of the row's own norm
    assert float(np.sum(w * np.abs(out - ref))) <= 1e-10 * own
    # and no entry moves by more than rounding of the row's largest one
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(v))
    if own > phi:
        assert abs(got - phi) <= 1e-10 * own


@settings(max_examples=200, deadline=None)
@given(adversarial_blocks())
@example(
    # a weight of 1e16 carries nearly all of the norm on a breakpoint of
    # 1e-26, so the threshold lies near 5e-27; a bisection from the top
    # breakpoint 1e16 cannot resolve it in 128 halvings
    (np.array([[1e8, 1e-10]]), np.array([[1e-8, 1e16]]), np.array([500000.5]))
)
@example(
    # the scan leaves the rounding of 1 - gamma * 3e19 (1e-16) where 3e-101
    # belongs; one raise of the threshold cuts it to 1e-32, still far past
    # phi, and only the scaling puts the row on its sphere
    (
        np.array([[-1e-20, -1.0]]),
        np.array([[1.0, 3.162277660168379e19]]),
        np.array([8.822175726197784e-82]),
    )
)
def test_projection_matches_oracle_on_adversarial_rows(case):
    # the filtered breakpoint scan against the bisection oracle, one block
    # mixing row kinds
    v, w, phi = case
    out = project_weighted_l1_rows(v, w, phi)
    for i in range(v.shape[0]):
        assert_row_matches_oracle(v[i], w[i], phi[i], out[i])

    # the filter drops only entries that precede every survivor in the
    # sorted breakpoints, so the scan's threshold is unchanged bit for bit
    wl1 = np.einsum("ij,ij->i", w, np.abs(v))
    scanned = (wl1 > phi) & (phi > 0)
    np.testing.assert_array_equal(
        projections._project_block(v[scanned], w[scanned], phi[scanned]),
        unfiltered_breakpoint_scan(v[scanned], w[scanned], phi[scanned]),
    )


def test_filtered_scan_is_bit_identical_on_solver_like_rows(rng):
    # rows as the solver builds them: a sparse previous iterate gives the
    # weights, a gradient step moves every entry, and atlas budgets cut the
    # support back
    for _ in range(20):
        k, n = 8, 1600
        prev = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.15)
        v = prev + 0.05 * rng.standard_normal((k, n))
        w = compute_weights(prev, 1e-6)
        phi = n * (1.0 - rng.uniform(70.0, 99.0, k) / 100.0)
        assert np.all(np.einsum("ij,ij->i", w, np.abs(v)) > phi)
        np.testing.assert_array_equal(
            projections._project_block(v, w, phi), unfiltered_breakpoint_scan(v, w, phi)
        )


def test_rows_equal_the_dense_projection_bit_for_bit(rng):
    # only the Michelot survivors are sorted and thresholded, and the mend
    # reads the projected block in place; the result is the dense pass's,
    # bit for bit. Solver-like rows as above, with a zero-radius row, a row
    # already inside its ball and rows whose weights dwarf the radius.
    mended = 0
    for _ in range(20):
        k, n = 12, 1600
        prev = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.15)
        v = prev + 0.05 * rng.standard_normal((k, n))
        w = compute_weights(prev, 1e-6)
        phi = n * (1.0 - rng.uniform(70.0, 99.0, k) / 100.0)
        phi[0] = 0.0
        phi[1] = 2.0 * np.sum(w[1] * np.abs(v[1]))
        w[2:5] = 10.0 ** rng.uniform(3, 10, (3, 1))
        phi[2:5] = rng.uniform(0.5, 5.0, 3)
        out = project_weighted_l1_rows(v, w, phi)
        np.testing.assert_array_equal(
            out.view(np.int64), dense_project_rows(v, w, phi).view(np.int64)
        )
        scanned = unfiltered_breakpoint_scan(v[2:], w[2:], phi[2:])
        mended += int(np.sum(np.einsum("ij,ij->i", w[2:], np.abs(scanned)) > phi[2:]))
    assert mended > 0


def test_tied_breakpoints_with_inexact_sums_stay_within_the_oracle(rng):
    # v = r w with r from six levels ties the breakpoints |v| / w, while
    # the sums over tied entries round. A row with ties is re-sorted stably,
    # so the scanned rows equal the stable unfiltered scan bit for bit, stay
    # within the oracle tolerances and are projected the same alone as
    # inside their block.
    for _ in range(40):
        k, n = 5, 300
        w = 10.0 ** rng.uniform(-2.0, 2.0, (k, n))
        r = rng.choice(rng.uniform(0.1, 10.0, 6), (k, n))
        v = r * w * rng.choice([-1.0, 1.0], (k, n))
        phi = rng.uniform(0.0, 1.0, k) * np.einsum("ij,ij->i", w, np.abs(v))
        assert all(np.unique(np.abs(v[i]) / w[i]).size < n for i in range(k))
        scanned = (np.einsum("ij,ij->i", w, np.abs(v)) > phi) & (phi > 0)
        np.testing.assert_array_equal(
            projections._project_block(v[scanned], w[scanned], phi[scanned]).view(np.int64),
            unfiltered_breakpoint_scan(v[scanned], w[scanned], phi[scanned]).view(np.int64),
        )
        out = project_weighted_l1_rows(v, w, phi)
        for i in range(k):
            assert_row_matches_oracle(v[i], w[i], phi[i], out[i])
            alone = project_weighted_l1_rows(v[i : i + 1], w[i : i + 1], phi[i : i + 1])
            np.testing.assert_array_equal(alone[0].view(np.int64), out[i].view(np.int64))


def test_rowwise_projection_matches_vector_loop(rng):
    v = rng.standard_normal((6, 15)) * 3
    w = rng.random((6, 15)) + 0.02
    phi = rng.random(6) * 4
    batch = project_weighted_l1_rows(v, w, phi)
    for i in range(6):
        np.testing.assert_allclose(
            batch[i], project_weighted_l1_ball(v[i], w[i], phi[i]), atol=1e-12
        )


# -- matrix ball --------------------------------------------------------------


def test_matrix_ball_identity_inside(rng):
    s = rng.standard_normal((3, 5)) * 0.01
    w = compute_weights(s, 1e-6)
    out = project_weighted_l1_matrix_ball(s, w, 1e9)
    np.testing.assert_array_equal(out, s)


def test_matrix_ball_single_row_equals_vector(rng):
    s = rng.standard_normal((1, 9)) * 4
    w = rng.random((1, 9)) + 0.1
    out = project_weighted_l1_matrix_ball(s, w, 2.0)
    ref = project_weighted_l1_ball(s[0], w[0], 2.0)
    np.testing.assert_allclose(out[0], ref, atol=1e-12)


def test_matrix_ball_vectorize_oracle(rng):
    s = rng.standard_normal((3, 5)) * 4
    w = rng.random((3, 5)) + 0.1
    phi = 0.4 * weighted_l1_norm(s, w)
    out = project_weighted_l1_matrix_ball(s, w, phi)
    ref = oracle_project(s.ravel(), w.ravel(), phi).reshape(3, 5)
    np.testing.assert_allclose(out, ref, atol=1e-8)
    assert weighted_l1_norm(out, w) == pytest.approx(phi, rel=1e-10)


# -- similarity and l2 balls ---------------------------------------------------


def test_similarity_ball_identity_at_center(rng):
    delta = rng.standard_normal(6)
    np.testing.assert_array_equal(project_similarity_ball(delta, delta, 0.5), delta)


def test_similarity_ball_zero_radius(rng):
    b = rng.standard_normal(6)
    delta = rng.standard_normal(6)
    np.testing.assert_allclose(project_similarity_ball(b, delta, 0.0), delta)


def test_similarity_ball_halfway_case():
    delta = np.zeros(2)
    b = np.array([2.0, 0.0])
    out = project_similarity_ball(b, delta, 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0])


def test_similarity_ball_boundary_exact(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        b = rng.standard_normal(n) * 5
        delta = rng.standard_normal(n)
        c = rng.random() * 0.5
        out = project_similarity_ball(b, delta, c)
        if np.sum((b - delta) ** 2) > c:
            assert np.sum((out - delta) ** 2) == pytest.approx(c, rel=1e-12)


def test_l2_ball_cases():
    unit = np.array([1.0, 0.0])
    zero = np.zeros(2)
    np.testing.assert_array_equal(project_similarity_ball(unit, zero, 1.0), unit)
    np.testing.assert_allclose(
        project_similarity_ball(np.array([2.0, 0.0]), zero, 1.0), [1.0, 0.0]
    )


def test_l2_ball_reduces_to_similarity_with_zero_center(rng):
    # around zero the projection is the radial rescaling b * sqrt(c / ||b||^2)
    b = rng.standard_normal(7) * 3
    np.testing.assert_allclose(
        project_similarity_ball(b, np.zeros(7), 0.7), b * np.sqrt(0.7 / (b @ b)), rtol=1e-14
    )


def test_similarity_ball_matrix_rows_match_vectors(rng):
    # each row has its own centre and radius; zero centres and a zero radius
    # mix with ordinary balls, and rows already inside pass through
    b = rng.standard_normal((5, 9)) * 3
    centres = rng.standard_normal((5, 9))
    centres[3:] = 0.0
    radii = np.array([0.5, 0.0, 1e3, 1.0, 0.2])
    out = project_similarity_ball(b, centres, radii)
    for i in range(5):
        np.testing.assert_array_equal(out[i], project_similarity_ball(b[i], centres[i], radii[i]))
    np.testing.assert_array_equal(out[2], b[2])
    np.testing.assert_array_equal(out[1], centres[1])
    # one radius for every row broadcasts
    np.testing.assert_array_equal(
        project_similarity_ball(b, centres, 0.5),
        project_similarity_ball(b, centres, np.full(5, 0.5)),
    )


def test_similarity_ball_matrix_input_validation():
    with pytest.raises(ValueError, match="radius"):
        project_similarity_ball(np.ones((3, 2)), np.zeros((3, 2)), [1.0, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        project_similarity_ball(np.ones((2, 2)), np.zeros((2, 2)), [1.0, -1.0])
    with pytest.raises(ValueError, match="shape"):
        project_similarity_ball(np.ones((2, 2)), np.zeros((2, 3)), 1.0)


def test_ball_projections_nonexpansive(rng):
    delta = rng.standard_normal(5)
    for _ in range(30):
        x = rng.standard_normal(5) * 4
        y = rng.standard_normal(5) * 4
        px = project_similarity_ball(x, delta, 0.8)
        py = project_similarity_ball(y, delta, 0.8)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_violating_block_is_projected_with_fewer_temporaries(rng, traced_peak):
    # a solver-like block at the north star's K = 20 and N = 10 000, every
    # row over its budget, is projected in place of a copy: the output
    # equals the dense pass's bit for bit, and the traced peak stays under
    # six blocks (the row copies and the scatter took it past eight)
    k, n = 20, 10_000
    prev = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.15)
    v = prev + 0.05 * rng.standard_normal((k, n))
    w = compute_weights(prev, 1e-6)
    phi = n * (1.0 - rng.uniform(70.0, 99.0, k) / 100.0)
    assert np.all(np.einsum("ij,ij->i", w, np.abs(v)) > phi)
    out, peak = traced_peak(lambda: project_weighted_l1_rows(v, w, phi))
    np.testing.assert_array_equal(out.view(np.int64), dense_project_rows(v, w, phi).view(np.int64))
    assert peak <= 6 * v.nbytes


def test_barely_violating_rows_with_zeros_equal_the_dense_projection(rng):
    # a row over its radius by less than its sums' rounding can get a
    # threshold below zero from the scan; a zero entry then has a positive
    # part, and sign(v) * part keeps it at zero where copying v's sign would
    # not. Rows of wide magnitudes, half zeros, radius just under the
    # weighted norm.
    for _ in range(1000):
        n = int(rng.integers(2, 300))
        v = rng.standard_normal((1, n)) * 10.0 ** rng.integers(-8, 8, size=(1, n))
        v[rng.random((1, n)) < 0.5] = 0.0
        w = 10.0 ** rng.uniform(-3, 3, size=(1, n))
        norm = np.einsum("ij,ij->i", w, np.abs(v))
        phi = np.nextafter(norm, 0.0) * (1.0 - rng.integers(0, 50) * 1e-16)
        if norm[0] > phi[0]:
            np.testing.assert_array_equal(
                project_weighted_l1_rows(v, w, phi).view(np.int64),
                dense_project_rows(v, w, phi).view(np.int64),
            )


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_weights_must_be_positive_and_finite(bad):
    w = np.ones((2, 3))
    w[1, 2] = bad
    with pytest.raises(ValueError, match="weights must be strictly positive and finite"):
        project_weighted_l1_rows(np.ones((2, 3)), w, [1.0, 1.0])
