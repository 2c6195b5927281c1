import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadl.initializer import InitConfig, initialize
from iadl.projections import compute_weights, project_weighted_l1_rows
from iadl.solver import (
    _EXPANDED_LOSS_FLOOR,
    SolverConfig,
    _atom_balls,
    _block_step,
    _dictionary_step,
    run_iadl,
)
from iadl.synthgen import mini_benchmark
from iadl.types import CoefficientMatrix, ConstraintSpec, DataMatrix, Dictionary, TaskTimeCourses

from oracles import (
    coefficient_surrogate,
    dictionary_surrogate,
    oracle_ball_columns,
    oracle_project,
    oracle_spectral_norm,
    per_atom_dictionary_step,
    random_feasible_points,
    weighted_l1_norm,
)


def make_instance(rng, t=12, n=30, k=4, m=2, phi=None, noise=0.05, budget_factor=1.3):
    """Random sparse factorization problem with a feasible starting point.

    Budgets overestimate the true per-row support (the intended usage:
    sparsity budgets are upper bounds), so the start is feasible for the
    weights it defines.
    """
    d_true = rng.standard_normal((t, k))
    d_true /= np.linalg.norm(d_true, axis=0)
    counts = rng.integers(max(2, n // 10), max(3, n // 3), size=k)
    s_true = np.zeros((k, n))
    for i, c in enumerate(counts):
        idx = rng.choice(n, c, replace=False)
        s_true[i, idx] = rng.standard_normal(c) * 2
    x = DataMatrix(d_true @ s_true + noise * rng.standard_normal((t, n)))
    delta = TaskTimeCourses(d_true[:, :m] + 0.05 * rng.standard_normal((t, m)))
    if phi is None:
        phi = counts * budget_factor
    spec = ConstraintSpec(phi=np.asarray(phi, float), c_delta=0.5, c_d=1.0)
    d0v = d_true + 0.01 * rng.standard_normal((t, k))
    d0v[:, :m] = delta.values
    d0v[:, m:] /= np.maximum(np.linalg.norm(d0v[:, m:], axis=0), 1.0)
    d0 = Dictionary(d0v, assisted_count=m)
    s0 = CoefficientMatrix(s_true)
    return x, d0, s0, delta, spec


def coefficient_update(x, d, s, spec):
    """One majorized coefficient step under the solver's row-ball projection."""
    xv, dv, sv = x.values, d.values, s.values
    step = _block_step(dv.T @ xv, dv.T @ dv, sv)
    out = project_weighted_l1_rows(step, compute_weights(sv, spec.epsilon), spec.phi)
    return CoefficientMatrix(out)


def dictionary_update(x, s, d, delta, spec):
    """One majorized dictionary step with its column projections."""
    balls = _atom_balls(delta.values, d.n_atoms, spec)
    out = _dictionary_step(x.values, s.values, d.values, balls)[0]
    return Dictionary(out, assisted_count=delta.n_courses)


# -- coefficient update --------------------------------------------------------


def test_coefficient_update_fixed_point_at_exact_factorization(rng):
    t, n, k = 10, 25, 3
    d, _ = np.linalg.qr(rng.standard_normal((t, k)))
    s = rng.standard_normal((k, n))
    x = DataMatrix(d @ s)
    spec = ConstraintSpec(phi=np.full(k, float(n)), c_delta=1.0)
    out = coefficient_update(x, Dictionary(d), CoefficientMatrix(s), spec)
    np.testing.assert_allclose(out.values, s, atol=1e-10)


def test_coefficient_update_zero_budgets(rng):
    t, n, k = 8, 12, 3
    x = DataMatrix(rng.standard_normal((t, n)))
    d = Dictionary(rng.standard_normal((t, k)))
    s = CoefficientMatrix(rng.standard_normal((k, n)))
    spec = ConstraintSpec(phi=np.zeros(k), c_delta=1.0)
    out = coefficient_update(x, d, s, spec)
    np.testing.assert_array_equal(out.values, np.zeros((k, n)))


def test_coefficient_update_single_row_is_constrained_minimizer(rng):
    # K=1 toy: the update must beat every random feasible point on the
    # surrogate, which is c_s * ||s - a||^2 up to a constant
    t, n = 4, 3
    d = rng.standard_normal((t, 1))
    x = DataMatrix(rng.standard_normal((t, n)))
    s_t = rng.standard_normal((1, n))
    spec = ConstraintSpec(phi=np.array([1.2]), c_delta=1.0, epsilon=1e-6)
    out = coefficient_update(x, Dictionary(d), CoefficientMatrix(s_t), spec).values

    gram = d.T @ d
    c_s = 1.01 * oracle_spectral_norm(gram)
    a = (d.T @ x.values + (c_s * np.eye(1) - gram) @ s_t) / c_s
    w = compute_weights(s_t[0], 1e-6)
    assert weighted_l1_norm(out[0], w) <= 1.2 * (1 + 1e-9)
    pts = random_feasible_points(w, 1.2, 50000, rng)
    best = np.min(np.sum((pts - a[0]) ** 2, axis=1))
    assert np.sum((out[0] - a[0]) ** 2) <= best + 1e-9


def test_coefficient_update_rows_feasible_wrt_update_weights(rng):
    x, d0, s0, delta, spec = make_instance(rng, phi=[6.0, 7.0, 5.5, 6.5])
    out = coefficient_update(x, d0, s0, spec)
    w = compute_weights(s0.values, spec.epsilon)
    for i in range(4):
        assert weighted_l1_norm(out.values[i], w[i]) <= spec.phi[i] + 1e-9


# -- dictionary update ---------------------------------------------------------


def test_dictionary_update_fixed_point(rng):
    x, d0, s0, delta, spec = make_instance(rng)
    # make d0 exactly feasible and x = d0 @ s0
    dv = d0.values.copy()
    dv[:, :2] = delta.values
    dv[:, 2:] /= np.maximum(np.linalg.norm(dv[:, 2:], axis=0), 1.0)
    d_feasible = Dictionary(dv, assisted_count=2)
    x_exact = DataMatrix(dv @ s0.values)
    out = dictionary_update(x_exact, s0, d_feasible, delta, spec)
    np.testing.assert_allclose(out.values, dv, atol=1e-9)


def test_dictionary_update_zero_radius_pins_assisted_atoms(rng):
    x, d0, s0, delta, _ = make_instance(rng)
    spec = ConstraintSpec(phi=np.full(4, 15.0), c_delta=0.0, c_d=1.0)
    out = dictionary_update(x, s0, d0, delta, spec)
    np.testing.assert_allclose(out.values[:, :2], delta.values, atol=1e-12)


def test_dictionary_update_blind_mode_bounds_norms(rng):
    t, n, k = 9, 20, 4
    x = DataMatrix(rng.standard_normal((t, n)))
    d0 = Dictionary(rng.standard_normal((t, k)) * 3)
    s0 = CoefficientMatrix(rng.standard_normal((k, n)))
    spec = ConstraintSpec(phi=np.full(k, float(n)), c_delta=0.0, c_d=1.0)
    delta = TaskTimeCourses.empty(t)
    out = dictionary_update(x, s0, d0, delta, spec)
    norms = np.linalg.norm(out.values, axis=0)
    assert np.all(norms**2 <= 1.0 + 1e-9)
    # surrogate did not increase against the anchor point
    c_d = 1.01 * oracle_spectral_norm(s0.values @ s0.values.T)
    before = dictionary_surrogate(x.values, s0.values, d0.values, d0.values, c_d)
    after = dictionary_surrogate(x.values, s0.values, out.values, d0.values, c_d)
    assert after <= before + 1e-9


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(2, 12),
    n=st.integers(1, 15),
    k=st.integers(1, 6),
    m_share=st.floats(0.0, 1.0),
    c_delta=st.one_of(st.just(0.0), st.floats(1e-3, 4.0)),
    c_d=st.floats(0.05, 4.0),
    x_rank=st.integers(0, 3),
    s_scale=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
)
@example(seed=1, t=6, n=9, k=4, m_share=0.0, c_delta=0.5, c_d=1.0, x_rank=2, s_scale=1.0)
@example(seed=2, t=6, n=9, k=4, m_share=1.0, c_delta=0.5, c_d=1.0, x_rank=3, s_scale=1.0)
@example(seed=3, t=6, n=9, k=4, m_share=0.5, c_delta=0.0, c_d=1.0, x_rank=3, s_scale=1.0)
@example(seed=4, t=6, n=9, k=4, m_share=0.5, c_delta=0.5, c_d=1.0, x_rank=3, s_scale=0.0)
@example(seed=5, t=3, n=9, k=6, m_share=0.5, c_delta=0.5, c_d=1.0, x_rank=1, s_scale=1.0)
def test_dictionary_step_matches_per_atom_reference(
    seed, t, n, k, m_share, c_delta, c_d, x_rank, s_scale
):
    # The transposed block step with one ball projection for all atoms
    # against the per-atom reference: M = 0 and M = K, pinned atoms
    # (c_delta = 0), an all-zero S (the step constant's floor) and K above
    # the data rank, with the anchor feasible for its balls.
    rng = np.random.default_rng(seed)
    m = int(round(m_share * k))
    x = rng.standard_normal((t, x_rank)) @ rng.standard_normal((x_rank, n))
    s = s_scale * rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.6)
    delta = rng.standard_normal((t, m))
    d0 = oracle_ball_columns(3.0 * rng.standard_normal((t, k)), delta, c_delta, c_d)
    spec = ConstraintSpec(phi=np.full(k, float(n)), c_delta=c_delta, c_d=c_d)

    d_new, violation, _, _ = _dictionary_step(x, s, d0, _atom_balls(delta, k, spec))
    ref, c = per_atom_dictionary_step(x, s, d0, delta, c_delta, c_d)
    assert d_new.flags.c_contiguous
    np.testing.assert_allclose(d_new, ref, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))

    centres = np.hstack([delta, np.zeros((t, k - m))])
    radii = np.repeat([c_delta, c_d], [m, k - m])
    dist_sq = np.sum((d_new - centres) ** 2, axis=0)
    assert np.all(dist_sq <= radii + 1e-12 * np.maximum(radii, 1.0))
    assert 0.0 <= violation <= 1e-12 * max(c_delta, c_d, 1.0)

    anchor = dictionary_surrogate(x, s, d0, d0, c)
    after = dictionary_surrogate(x, s, d_new, d0, c)
    loss = float(np.linalg.norm(x - d_new @ s) ** 2)
    tol = 1e-10 * max(anchor, 1.0)
    assert after <= anchor + tol
    assert loss <= after + tol


# -- surrogates and multipliers --------------------------------------------------


def test_surrogates_majorize_loss(rng):
    for _ in range(40):
        t, n, k = 6, 9, 3
        x = rng.standard_normal((t, n))
        d = rng.standard_normal((t, k))
        s_anchor = rng.standard_normal((k, n))
        s = rng.standard_normal((k, n))
        c_s = 1.01 * oracle_spectral_norm(d.T @ d)
        loss = float(np.linalg.norm(x - d @ s) ** 2)
        assert coefficient_surrogate(x, d, s, s_anchor, c_s) >= loss - 1e-9 * max(loss, 1)
        anchor_loss = float(np.linalg.norm(x - d @ s_anchor) ** 2)
        assert coefficient_surrogate(x, d, s_anchor, s_anchor, c_s) == pytest.approx(
            anchor_loss, rel=1e-12
        )

        d_anchor = rng.standard_normal((t, k))
        d_var = rng.standard_normal((t, k))
        c_d = 1.01 * oracle_spectral_norm(s @ s.T)
        loss_d = float(np.linalg.norm(x - d_var @ s) ** 2)
        assert dictionary_surrogate(x, s, d_var, d_anchor, c_d) >= loss_d - 1e-9 * max(loss_d, 1)
        anchor_loss_d = float(np.linalg.norm(x - d_anchor @ s) ** 2)
        assert dictionary_surrogate(x, s, d_anchor, d_anchor, c_d) == pytest.approx(
            anchor_loss_d, rel=1e-12
        )


# -- full solve ------------------------------------------------------------------


def test_run_iadl_fixed_point_at_global_optimum(rng):
    t, n, k, m = 10, 30, 4, 2
    d, _ = np.linalg.qr(rng.standard_normal((t, k)))
    s = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.3)
    x = DataMatrix(d @ s)
    delta = TaskTimeCourses(d[:, :m])
    spec = ConstraintSpec(phi=np.full(k, float(n)), c_delta=0.1, c_d=1.0)
    res = run_iadl(x, Dictionary(d, m), CoefficientMatrix(s), delta, spec)
    assert res.trace.objective[-1] <= 1e-18
    np.testing.assert_allclose(res.dictionary.values, d, atol=1e-9)
    np.testing.assert_allclose(res.coefficients.values, s, atol=1e-9)


def check_dense_budgets_reference_run(rng, noise, iters):
    # with phi_i = N and a start above the solution scale the solve must
    # follow norm-bounded alternating updates step for step: the plain
    # coefficient step from S_k onto the balls of S_k's weights, then the
    # plain dictionary step. The step can take an entry past its weight's
    # share, so even phi_i = N may bind; the reference projects by bisection.
    t, n, k = 8, 14, 3
    d0, _ = np.linalg.qr(rng.standard_normal((t, k)))
    s_star = rng.standard_normal((k, n))
    x = d0 @ s_star + noise * rng.standard_normal((t, n))
    s0 = 3.0 * s_star
    spec = ConstraintSpec(phi=np.full(k, float(n)), c_delta=0.0, c_d=1.0)

    dv, sv = d0.copy(), s0.copy()
    for _ in range(iters):
        gram = dv.T @ dv
        c_s = max(1.01 * oracle_spectral_norm(gram), 1e-12)
        a = (dv.T @ x + (c_s * np.eye(k) - gram) @ sv) / c_s
        w = 1.0 / (np.abs(sv) + spec.epsilon)
        sv = np.array([oracle_project(a[i], w[i], float(n)) for i in range(k)])
        gram2 = sv @ sv.T
        c_d = max(1.01 * oracle_spectral_norm(gram2), 1e-12)
        dv = (x @ sv.T + dv @ (c_d * np.eye(k) - gram2)) / c_d
        for j in range(k):
            nrm2 = float(dv[:, j] @ dv[:, j])
            if nrm2 > 1.0:
                dv[:, j] /= np.sqrt(nrm2)

    cfg = SolverConfig(max_iters=iters, rel_obj_tol=0.0)
    res = run_iadl(
        DataMatrix(x),
        Dictionary(d0),
        CoefficientMatrix(s0),
        TaskTimeCourses.empty(t),
        spec,
        cfg,
    )
    np.testing.assert_allclose(res.coefficients.values, sv, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(res.dictionary.values, dv, rtol=1e-6, atol=1e-9)
    if noise == 0.0:
        assert res.trace.objective[-1] < 1e-20


def test_run_iadl_dense_budgets_match_reference_run(rng):
    check_dense_budgets_reference_run(rng, 0.0, 6)


def test_run_iadl_noisy_dense_budgets_match_reference_run(rng):
    check_dense_budgets_reference_run(rng, 0.3, 15)


def test_run_iadl_monotone_objective_and_feasible(rng):
    for _ in range(5):
        x, d0, s0, delta, spec = make_instance(rng, t=30, n=200, k=5, m=2)
        cfg = SolverConfig(max_iters=60, rel_obj_tol=0.0)
        res = run_iadl(x, d0, s0, delta, spec, cfg)
        obj = res.trace.objective
        assert np.all(obj[1:] <= obj[:-1] * (1 + 1e-9))
        assert np.all(res.trace.constraint_violation_max <= 1e-9)


def property_instance(seed, t, n, k, m_share, rank, noise, c_delta, a):
    """A small random solve from a start inside its balls: noise-free data,
    K above the data rank, M = 0 and M = K, pinned assisted atoms
    (c_delta = 0), and X and S scaled by 2^a. At a = 30 the weights
    1 / (|s| + epsilon) span past 1e15 within a row. Returns the inputs and
    the largest radius."""
    rng = np.random.default_rng(seed)
    m = int(round(m_share * k))
    scale = 2.0**a
    rank = min(rank, t)
    x = rng.standard_normal((t, rank)) @ (
        rng.standard_normal((rank, n)) * (rng.random((rank, n)) < 0.3)
    )
    x = DataMatrix(scale * (x + noise * rng.standard_normal((t, n))))
    delta = TaskTimeCourses(rng.standard_normal((t, m)))
    d = Dictionary(oracle_ball_columns(rng.standard_normal((t, k)), delta.values, c_delta, 1.0), m)
    s = CoefficientMatrix(scale * rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.4))
    # sum_j |s_j| / (|s_j| + epsilon) is below the support size, so budgets
    # at or above it put the start inside the balls its weights define
    support = np.count_nonzero(s.values, axis=1)
    spec = ConstraintSpec(phi=np.minimum(support * rng.uniform(1.0, 2.0, k), n), c_delta=c_delta)
    return x, d, s, delta, spec, max(float(spec.phi.max()), c_delta, spec.c_d)


PROPERTY_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(2, 24),
    n=st.integers(2, 80),
    k=st.integers(1, 8),
    m_share=st.floats(0.0, 1.0),
    rank=st.integers(1, 8),
    noise=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
    c_delta=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    a=st.integers(-30, 30),
)


@settings(max_examples=200, deadline=None)
@given(**PROPERTY_DRAWS, iters=st.integers(1, 30))
@example(seed=1, t=12, n=40, k=4, m_share=0.5, rank=3, noise=0.0, c_delta=0.5, a=0, iters=30)
@example(seed=2, t=12, n=40, k=8, m_share=0.25, rank=2, noise=0.1, c_delta=0.5, a=0, iters=30)
@example(seed=3, t=12, n=40, k=4, m_share=1.0, rank=4, noise=0.1, c_delta=0.5, a=0, iters=30)
@example(seed=4, t=12, n=40, k=4, m_share=0.5, rank=4, noise=0.1, c_delta=0.0, a=0, iters=30)
@example(seed=5, t=24, n=80, k=8, m_share=0.25, rank=6, noise=0.1, c_delta=0.5, a=30, iters=30)
@example(seed=6, t=24, n=80, k=8, m_share=0.25, rank=6, noise=0.1, c_delta=0.5, a=-30, iters=30)
# S near 1e7 gives rows with weights near 1e-7 and 1e6; scaling such a row
# back onto its sphere moved its large entry and raised the objective
@example(seed=0, t=2, n=2, k=1, m_share=0.0, rank=1, noise=0.5, c_delta=0.0, a=23, iters=5)
def test_run_iadl_objective_never_rises_and_iterates_stay_feasible(
    seed, t, n, k, m_share, rank, noise, c_delta, a, iters
):
    # The solve runs one iteration at a time, so each step's start can be
    # inspected.
    x, d, s, delta, spec, radius = property_instance(
        seed, t, n, k, m_share, rank, noise, c_delta, a
    )
    x_sq = float(np.sum(x.values**2))
    loss = float(np.sum((x.values - d.values @ s.values) ** 2))
    cfg = SolverConfig(max_iters=1, rel_obj_tol=0.0)
    for _ in range(iters):
        # the step majorizes the loss at an anchor inside the ball its own
        # weights define; an iterate can leave it when an entry enters the
        # support at a magnitude near epsilon, and the objective may then rise
        own = np.einsum("ij,ij->i", compute_weights(s.values, spec.epsilon), np.abs(s.values))
        inside = bool(np.all(own <= spec.phi))
        res = run_iadl(x, d, s, delta, spec, cfg)
        d, s = res.dictionary, res.coefficients
        assert res.trace.constraint_violation_max[0] <= 1e-9 * radius
        # the loss read off the step's products is exact to a few eps times
        # its terms ||X||^2 and <D^T D, S S^T> <= ||D||^2 ||S||^2
        floor = 1e-13 * (x_sq + float(np.sum(d.values**2) * np.sum(s.values**2)))
        if inside:
            assert res.trace.objective[0] <= loss * (1 + 1e-9) + floor
        loss = res.trace.objective[0]


def test_one_iteration_is_the_plain_step(rng):
    # one iteration is the plain coefficient step from the start, bit for
    # bit, then the dictionary step
    x, d0, s0, delta, spec = make_instance(rng, t=20, n=80, k=5, m=2)
    res = run_iadl(x, d0, s0, delta, spec, SolverConfig(max_iters=1, rel_obj_tol=0.0))
    xv, dv, sv = x.values, d0.values, s0.values
    step = _block_step(dv.T @ xv, dv.T @ dv, sv)
    s1 = project_weighted_l1_rows(step, compute_weights(sv, spec.epsilon), spec.phi)
    d1 = _dictionary_step(x.values, s1, d0.values, _atom_balls(delta.values, d0.n_atoms, spec))[0]
    np.testing.assert_array_equal(res.coefficients.values.view(np.int64), s1.view(np.int64))
    np.testing.assert_array_equal(res.dictionary.values.view(np.int64), d1.view(np.int64))


def test_run_iadl_carries_no_state_between_iterations():
    # a 30-iteration solve equals 30 chained one-iteration solves, bit for
    # bit: every iteration is the plain step from (D_k, S_k)
    x, d, s, delta, spec = make_instance(np.random.default_rng(5), t=30, n=200, k=5, m=2)
    full = run_iadl(x, d, s, delta, spec, SolverConfig(max_iters=30, rel_obj_tol=0.0))
    one = SolverConfig(max_iters=1, rel_obj_tol=0.0)
    objective = []
    for _ in range(30):
        res = run_iadl(x, d, s, delta, spec, one)
        d, s = res.dictionary, res.coefficients
        objective.append(res.trace.objective[0])
    np.testing.assert_array_equal(full.coefficients.values.view(np.int64), s.values.view(np.int64))
    np.testing.assert_array_equal(full.dictionary.values.view(np.int64), d.values.view(np.int64))
    np.testing.assert_array_equal(full.trace.objective.view(np.int64), np.array(objective).view(np.int64))


def test_run_iadl_stops_at_the_first_change_below_the_tolerance():
    # a noisy fit from the package's own start settles to a relative change
    # of 1e-6 in a few hundred iterations (the shipped 1e-8 is not reached in
    # 2 000); the tolerance test compares the last two recorded objectives
    rng = np.random.default_rng(0)
    x, _, _, delta, spec = make_instance(rng, t=12, n=40, k=3, m=1, phi=np.full(3, 20.0))
    d0, s0 = initialize(x, 3, delta, spec, InitConfig(rng_seed=0))
    cfg = SolverConfig(max_iters=2000, rel_obj_tol=1e-6)
    trace = run_iadl(x, d0, s0, delta, spec, cfg).trace
    assert trace.stop_reason == "tolerance"
    assert 2 < trace.iterations_run < cfg.max_iters
    change = np.abs(np.diff(trace.objective)) / trace.objective[:-1]
    assert change[-1] < cfg.rel_obj_tol
    assert np.all(change[:-1] >= cfg.rel_obj_tol)


def test_run_iadl_zero_start_and_zero_atoms_take_the_scale_floor(rng):
    # From an all-zero S the weights are 1/epsilon.
    # - With an all-zero start dictionary both Gram matrices of the first
    #   iteration are exactly zero, so only the scale floor keeps the steps
    #   finite; the similarity ball then moves the assisted atom off zero.
    # - With one all-zero free atom and epsilon = 1e-9, each row's l1 norm is
    #   at most phi * epsilon after the first step, so trace(S S^T) is far
    #   below the floor for several iterations; the weights also dwarf the
    #   budgets, where the row projection's survivors lose their low bits.
    # Zero free atoms and their map rows stay exactly zero throughout.
    t, n, k, m = 10, 40, 3, 1
    x, d0, _, delta, _ = make_instance(rng, t=t, n=n, k=k, m=m)
    one_zero_atom = d0.values.copy()
    one_zero_atom[:, 2] = 0.0
    starts = [(np.zeros((t, k)), 1e-6, 1.0), (one_zero_atom, 1e-9, 0.9)]
    cfg = SolverConfig(max_iters=60, rel_obj_tol=0.0)
    start_obj = float(np.linalg.norm(x.values) ** 2)
    for dv, epsilon, drop in starts:
        spec = ConstraintSpec(phi=np.full(k, 3.0), c_delta=0.5, c_d=1.0, epsilon=epsilon)
        res = run_iadl(
            x, Dictionary(dv, m), CoefficientMatrix(np.zeros((k, n))), delta, spec, cfg
        )
        obj = res.trace.objective
        assert np.all(np.isfinite(obj))
        assert np.all(np.isfinite(res.dictionary.values))
        assert np.all(np.isfinite(res.coefficients.values))
        assert obj[0] <= start_obj * (1 + 1e-9)
        assert np.all(obj[1:] <= obj[:-1] * (1 + 1e-9))
        assert np.all(res.trace.constraint_violation_max <= 1e-9)
        assert obj[-1] < drop * start_obj
        zero = np.flatnonzero(~dv[:, m:].any(axis=0)) + m
        np.testing.assert_array_equal(res.dictionary.values[:, zero], 0.0)
        np.testing.assert_array_equal(res.coefficients.values[zero], 0.0)


def _exact_mini_start(rng):
    """Noise-free mini data with its own factors as the start: unit atoms,
    assisted ones first, and budgets that leave the maps feasible."""
    ds = mini_benchmark(rng, snr_db=np.inf)
    order = list(ds.assisted_indices)
    order += [j for j in range(ds.truth.time_courses.shape[1]) if j not in order]
    d = ds.truth.time_courses[:, order]
    s = ds.truth.spatial_maps[order]
    scale = np.linalg.norm(d, axis=0)
    d, s = d / scale, s * scale[:, None]
    m = len(ds.assisted_indices)
    spec = ConstraintSpec(phi=np.full(len(order), float(s.shape[1])), c_delta=0.1, c_d=1.0)
    return ds.x, Dictionary(d, m), CoefficientMatrix(s), TaskTimeCourses(d[:, :m]), spec


def test_run_iadl_objective_equals_residual_of_returned_factors(rng):
    # The loss is read off the dictionary step's products as
    # ||X||^2 - 2<D, XS^T> + <D^T D, SS^T>. Noisy data keeps it far above
    # the cancellation floor; noise-free data from an exact factorization
    # sits far below it and takes the direct evaluation.
    noisy = make_instance(rng, t=20, n=80, k=4, m=2)
    exact = _exact_mini_start(rng)
    for (x, d0, s0, delta, spec), above_floor in ((noisy, True), (exact, False)):
        x_sq = float(np.sum(x.values**2))
        for iters in (1, 2, 7, 25):
            cfg = SolverConfig(max_iters=iters, rel_obj_tol=0.0)
            res = run_iadl(x, d0, s0, delta, spec, cfg)
            direct = float(
                np.sum((x.values - res.dictionary.values @ res.coefficients.values) ** 2)
            )
            last = res.trace.objective[-1]
            assert (last > _EXPANDED_LOSS_FLOOR * x_sq) == above_floor
            assert last == pytest.approx(direct, rel=1e-9, abs=0.0)


def test_run_iadl_objective_is_direct_loss_when_the_model_outweighs_the_data(rng):
    # With X = 0, or X tiny against DS, the fit shrinks DS until the loss is
    # far below the terms of its expansion, <D^T D, S S^T> and 2<D, X S^T>,
    # though not below ||X||^2 times the floor; the recorded objective must
    # still be the loss, not the rounding of those terms.
    t, n, k, m = 11, 6, 5, 2
    delta = TaskTimeCourses(rng.standard_normal((t, m)))
    d = Dictionary(oracle_ball_columns(rng.standard_normal((t, k)), delta.values, 0.5, 1.0), m)
    s = CoefficientMatrix(rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.6))
    spec = ConstraintSpec(phi=np.full(k, 4.0), c_delta=0.5)
    for x in (np.zeros((t, n)), 1e-9 * rng.standard_normal((t, n))):
        for iters in (1, 200, 1000):
            cfg = SolverConfig(max_iters=iters, rel_obj_tol=0.0)
            res = run_iadl(DataMatrix(x), d, s, delta, spec, cfg)
            direct = float(np.sum((x - res.dictionary.values @ res.coefficients.values) ** 2))
            assert res.trace.objective[-1] == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_run_iadl_permutation_equivariance(rng):
    x, d0, s0, delta, spec = make_instance(rng, k=5, m=2)
    cfg = SolverConfig(max_iters=25, rel_obj_tol=0.0)
    res = run_iadl(x, d0, s0, delta, spec, cfg)

    perm_free = np.array([2, 0, 1])  # permutation of the three free atoms
    cols = np.concatenate([np.arange(2), 2 + perm_free])
    d0p = Dictionary(d0.values[:, cols], assisted_count=2)
    s0p = CoefficientMatrix(s0.values[cols])
    specp = ConstraintSpec(
        phi=spec.phi[cols], c_delta=spec.c_delta, c_d=spec.c_d, epsilon=spec.epsilon
    )
    resp = run_iadl(x, d0p, s0p, delta, specp, cfg)
    np.testing.assert_allclose(resp.dictionary.values, res.dictionary.values[:, cols], atol=1e-8)
    np.testing.assert_allclose(resp.coefficients.values, res.coefficients.values[cols], atol=1e-8)


def test_run_iadl_deterministic(rng):
    x, d0, s0, delta, spec = make_instance(rng)
    cfg = SolverConfig(max_iters=10, rel_obj_tol=0.0)
    res1 = run_iadl(x, d0, s0, delta, spec, cfg)
    res2 = run_iadl(x, d0, s0, delta, spec, cfg)
    np.testing.assert_array_equal(res1.dictionary.values, res2.dictionary.values)
    np.testing.assert_array_equal(res1.coefficients.values, res2.coefficients.values)
    np.testing.assert_array_equal(res1.trace.objective, res2.trace.objective)


def test_run_iadl_forms_no_data_sized_array(rng, traced_peak):
    # every objective comes from X S^T and S S^T, and the start's is not taken
    x, d0, s0, delta, spec = make_instance(rng, t=200, n=4000, k=4)
    cfg = SolverConfig(max_iters=3, rel_obj_tol=0.0)
    res, peak = traced_peak(lambda: run_iadl(x, d0, s0, delta, spec, cfg))
    assert res.trace.iterations_run == 3
    assert peak < x.values.nbytes


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ConstraintSpec(np.ones(2), c_delta=np.nan), "c_delta"),
        (lambda: ConstraintSpec(np.ones(2), c_d=np.inf), "c_d"),
        (lambda: ConstraintSpec(np.ones(2), epsilon=np.nan), "epsilon"),
        (lambda: SolverConfig(rel_obj_tol=np.nan), "rel_obj_tol"),
        (lambda: DataMatrix(np.ones((2, 3)), tr=np.nan), "tr"),
    ],
    ids=["spec_c_delta", "spec_c_d", "spec_epsilon", "solver_rel_obj_tol", "data_tr"],
)
def test_constructors_refuse_non_finite_numbers(build, field):
    # a NaN tolerance never stops a fit; an infinite bound leaves atoms free
    with pytest.raises(ValueError, match=f"^{field} .*finite"):
        build()


def test_run_iadl_shape_validation(rng):
    x, d0, s0, delta, spec = make_instance(rng)
    bad_delta = TaskTimeCourses(rng.standard_normal((x.n_times, 3)))
    with pytest.raises(ValueError):
        run_iadl(x, d0, s0, bad_delta, spec)
    # a saved start of the wrong size is refused here (iadl fit --init-dir)
    narrow = CoefficientMatrix(s0.values[:, :-5])
    with pytest.raises(ValueError, match="coefficients must be"):
        run_iadl(x, d0, narrow, delta, spec)
    short = Dictionary(d0.values[:-1], assisted_count=d0.assisted_count)
    with pytest.raises(ValueError, match="row count"):
        run_iadl(x, short, s0, delta, spec)
