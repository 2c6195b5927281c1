"""Each correctness check passes on a real output and fails on a corrupted one.

Run from the repository root:

    python -m pytest pipebench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from iadl import initializer, solver  # noqa: E402
from iadl.evaluation import match_and_score  # noqa: E402
from iadl.io import save_matrix  # noqa: E402
from iadl.projections import compute_weights, project_weighted_l1_rows  # noqa: E402
from iadl.synthgen import full_benchmark, mini_benchmark  # noqa: E402
from iadl.types import (  # noqa: E402
    CoefficientMatrix,
    ConstraintSpec,
    DataMatrix,
    Dictionary,
    TaskTimeCourses,
)
from tracer import ROW_PROJECTION, STAGES, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def fit():
    """A small assisted fit: data, task courses, spec and the solve result."""
    rng = np.random.default_rng(5)
    t, n, k, m = 30, 200, 5, 2
    d_true = rng.standard_normal((t, k))
    d_true /= np.linalg.norm(d_true, axis=0)
    s_true = np.where(rng.random((k, n)) < 0.2, rng.standard_normal((k, n)), 0.0)
    x = DataMatrix(d_true @ s_true + 0.1 * rng.standard_normal((t, n)))
    delta = TaskTimeCourses(d_true[:, :m] + 0.05 * rng.standard_normal((t, m)))
    spec = ConstraintSpec(phi=np.full(k, 40.0), c_delta=0.3, c_d=1.0)
    d0, s0 = initializer.initialize(x, k, delta, spec, initializer.InitConfig(rng_seed=1))
    result = solver.run_iadl(x, d0, s0, delta, spec, solver.SolverConfig(max_iters=40))
    return x.values, delta.values, spec, result


def test_residual_check(fit):
    x, _, _, result = fit
    d = result.dictionary.values
    s = result.coefficients.values.copy()
    last = result.trace.objective[-1]
    assert checks.residual_matches(x, d, s, last) == []
    s[0, int(np.argmax(np.abs(s[0])))] += 1e-3
    assert checks.residual_matches(x, d, s, last)


def test_monotone_check(fit):
    objective = fit[3].trace.objective.copy()
    assert checks.objective_monotone(objective) == []
    mid = len(objective) // 2
    objective[mid] = objective[mid - 1] * 1.001
    assert checks.objective_monotone(objective)


def test_ball_check(fit):
    _, delta, spec, result = fit
    d = result.dictionary.values.copy()
    assert checks.atoms_in_balls(d, delta, spec.c_delta, spec.c_d) == []

    moved = d.copy()
    direction = d[:, 0] - delta[:, 0]
    direction = direction / np.linalg.norm(direction) if np.any(direction) else np.eye(len(d))[0]
    moved[:, 0] = delta[:, 0] + 1.01 * np.sqrt(spec.c_delta) * direction
    assert checks.atoms_in_balls(moved, delta, spec.c_delta, spec.c_d)

    grown = d.copy()
    grown[:, -1] = 1.01 * np.sqrt(spec.c_d) * np.eye(len(d))[0]
    assert checks.atoms_in_balls(grown, delta, spec.c_delta, spec.c_d)


def test_rho2_check():
    rng = np.random.default_rng(2)
    dataset = mini_benchmark(rng)
    truth = dataset.truth
    noise = 0.3 * rng.standard_normal(truth.time_courses.shape)
    est_d = Dictionary(truth.time_courses + noise, assisted_count=2)
    est_s = CoefficientMatrix(truth.spatial_maps)
    report = match_and_score(truth, est_d, est_s, dataset.assisted_indices)
    args = (truth.time_courses, truth.spatial_maps, est_d.values)
    assert checks.rho2_matches(*args, est_s.values, report.mapping, report.r_full) == []

    changed = est_s.values.copy()
    changed[3, int(np.argmax(changed[3]))] *= -5.0
    assert checks.rho2_matches(*args, changed, report.mapping, report.r_full)


def test_projection_oracle_check():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((6, 300)) * rng.choice([0.1, 1.0, 10.0], size=(6, 1))
    w = compute_weights(rng.standard_normal((6, 300)), 1e-6)
    w = np.minimum(w, 1e3)
    phi = np.array([0.0, 5.0, 20.0, 60.0, 1e9, 1.0])
    out = project_weighted_l1_rows(v, w, phi)
    assert checks.projection_matches_oracle(v, w, phi, out) == []
    bad = out.copy()
    bad[2, int(np.argmax(np.abs(bad[2])))] *= 1.0 + 1e-6
    assert checks.projection_matches_oracle(v, w, phi, bad)


def test_sparsity_check():
    maps = full_benchmark(np.random.default_rng(4)).truth.spatial_maps.copy()
    assert checks.maps_hit_sparsity(maps, checks.FULL_TARGET_THETAS) == []
    maps[0, int(np.argmin(np.abs(maps[0])))] = 0.5
    assert checks.maps_hit_sparsity(maps, checks.FULL_TARGET_THETAS)


def test_ordering_check():
    assert checks.assisted_beats_blind({"assisted": 0.9, "pinned": 0.95, "blind": 0.7}) == []
    assert checks.assisted_beats_blind({"assisted": 0.7, "pinned": 0.8, "blind": 0.75})
    assert checks.assisted_beats_blind({"assisted": 0.9, "pinned": 0.8, "blind": 0.9})


def test_reader_matches_package_writer(tmp_path):
    values = np.arange(12.0).reshape(3, 4) / 7.0
    save_matrix(values, tmp_path / "m.iadl")
    assert np.array_equal(checks.read_matrix(tmp_path / "m.iadl"), values)
    (tmp_path / "short.iadl").write_bytes((tmp_path / "m.iadl").read_bytes()[:-8])
    with pytest.raises(ValueError):
        checks.read_matrix(tmp_path / "short.iadl")


def test_tracer_spans_and_restore(fit):
    x, delta, spec, _ = fit
    originals = (solver.run_iadl, initializer.initialize, initializer.project_weighted_l1_rows)
    tracer = Tracer(full=True, capture_rows=1)
    with tracer.installed():
        assert solver.run_iadl is not originals[0]
        with tracer.region("fit", fit="f") as root:
            d0, s0 = initializer.initialize(
                DataMatrix(x), 5, TaskTimeCourses(delta), spec, initializer.InitConfig(rng_seed=1)
            )
            result = solver.run_iadl(
                DataMatrix(x), d0, s0, TaskTimeCourses(delta), spec, solver.SolverConfig(max_iters=5)
            )
    assert (solver.run_iadl, initializer.initialize, initializer.project_weighted_l1_rows) == originals

    spans = tracer.spans_of("f")
    names = {s.name for s in spans}
    assert set(STAGES) <= names and ROW_PROJECTION in names
    solve = next(s for s in spans if s.name == STAGES[1])
    assert solve.count == result.trace.iterations_run == 5
    assert all(s.self_time >= 0 for s in spans)
    # Self times never exceed the fit they belong to.
    assert sum(s.self_time for s in spans if s.name != "fit") <= root.duration
    (v, w, phi, out), = tracer.take_captures("f")
    assert checks.projection_matches_oracle(v, w, phi, out) == []
