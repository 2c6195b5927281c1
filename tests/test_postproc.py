import numpy as np
import pytest
from scipy.stats import norm

from iadl.postproc import concat_group, pinv_spatial_maps, zscore_threshold
from iadl.types import CoefficientMatrix, DataMatrix, Dictionary, TaskTimeCourses


def test_pinv_recovers_exact_synthesis(rng):
    d = rng.standard_normal((20, 4))
    s = rng.standard_normal((4, 35))
    maps = pinv_spatial_maps(Dictionary(d), DataMatrix(d @ s))
    np.testing.assert_allclose(maps.values, s, atol=1e-8)


def test_pinv_orthonormal_dictionary_is_transpose(rng):
    d, _ = np.linalg.qr(rng.standard_normal((15, 3)))
    x = rng.standard_normal((15, 12))
    maps = pinv_spatial_maps(Dictionary(d), DataMatrix(x))
    np.testing.assert_allclose(maps.values, d.T @ x, atol=1e-10)


def test_pinv_matches_normal_equations_oracle(rng):
    d = rng.standard_normal((25, 5))
    x = rng.standard_normal((25, 18))
    maps = pinv_spatial_maps(Dictionary(d), DataMatrix(x))
    oracle = np.linalg.solve(d.T @ d, d.T @ x)
    np.testing.assert_allclose(maps.values, oracle, atol=1e-8)


def test_pinv_rank_deficient_names_columns(rng):
    d = rng.standard_normal((10, 3))
    d[:, 2] = d[:, 0]
    with pytest.raises(ValueError, match="columns"):
        pinv_spatial_maps(Dictionary(d), DataMatrix(rng.standard_normal((10, 5))))


def test_zscore_normalization_invariants(rng):
    z, _ = zscore_threshold(rng.standard_normal(500) * 3 + 7)
    assert abs(z.mean()) < 1e-10
    assert z.std(ddof=1) == pytest.approx(1.0, abs=1e-10)


def test_zscore_gaussian_tail_fraction(rng):
    z, active = zscore_threshold(rng.standard_normal(200_000), z_min=1.97)
    expected = norm.sf(1.97)  # about 2.4 percent
    assert active.mean() == pytest.approx(expected, abs=0.005)


def test_zscore_all_active_sentinel(rng):
    _, active = zscore_threshold(rng.standard_normal(50), z_min=-np.inf)
    assert active.all()


def test_zscore_constant_map_rejected():
    with pytest.raises(ValueError):
        zscore_threshold(np.full(10, 3.0))


def test_concat_single_dataset_identity(rng):
    x = DataMatrix(rng.standard_normal((8, 10)), tr=2.0)
    delta = TaskTimeCourses(rng.standard_normal((8, 2)))
    gx, gd = concat_group([x], [delta])
    np.testing.assert_array_equal(gx.values, x.values)
    np.testing.assert_array_equal(gd.values, delta.values)
    assert gx.tr == 2.0


def test_concat_two_copies_doubles_time(rng):
    x = DataMatrix(rng.standard_normal((8, 10)))
    delta = TaskTimeCourses(rng.standard_normal((8, 2)))
    gx, gd = concat_group([x, x], [delta, delta])
    assert gx.values.shape == (16, 10)
    assert gd.values.shape == (16, 2)
    np.testing.assert_array_equal(gx.values[8:], x.values)


def test_concat_rejects_mismatches(rng):
    x1 = DataMatrix(rng.standard_normal((8, 10)))
    x2 = DataMatrix(rng.standard_normal((6, 11)))
    d1 = TaskTimeCourses(rng.standard_normal((8, 2)))
    d2 = TaskTimeCourses(rng.standard_normal((6, 2)))
    with pytest.raises(ValueError):
        concat_group([x1, x2], [d1, d2])
    d_bad = TaskTimeCourses(rng.standard_normal((8, 3)))
    with pytest.raises(ValueError):
        concat_group([x1, x1], [d1, d_bad])


def test_concat_rejects_differing_repetition_times(rng):
    x1 = DataMatrix(rng.standard_normal((8, 10)), tr=2.0)
    x2 = DataMatrix(rng.standard_normal((6, 10)), tr=2.5)
    d1 = TaskTimeCourses(rng.standard_normal((8, 2)))
    d2 = TaskTimeCourses(rng.standard_normal((6, 2)))
    with pytest.raises(ValueError, match="repetition times differ across subjects: 2.0 and 2.5"):
        concat_group([x1, x2], [d1, d2])
    with pytest.raises(ValueError, match="2.0 and None"):
        concat_group([x1, DataMatrix(x2.values)], [d1, d2])
    gx, _ = concat_group([x1, DataMatrix(x1.values, tr=2.0)], [d1, d1])
    assert gx.tr == 2.0
