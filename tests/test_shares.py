import threading
import time

import numpy as np
import pytest

from iadl import _shares
from iadl.solver import (
    _CUT_ALIGN,
    _SPLIT_WORK,
    _atom_balls,
    _block_step,
    _coefficient_step,
    _dictionary_step,
    _product_cuts,
    _step_terms,
)
from iadl.types import ConstraintSpec


def _assert_partition(bounds, n):
    assert bounds[0] == 0 and bounds[-1] == n
    assert all(lo < hi for lo, hi in zip(bounds[:-1], bounds[1:]))


@pytest.mark.parametrize("n", [1, 15, 16, 31, 32, 33, 300, 1600, 10_000, 10_007])
@pytest.mark.parametrize("parts", [1, 2, 3, 7])
@pytest.mark.parametrize("align", [1, 16])
def test_cuts_cover_the_range_on_multiples_of_the_alignment(n, parts, align):
    bounds = _shares._cuts(n, parts, align)
    _assert_partition(bounds, n)
    assert len(bounds) <= parts + 1
    assert all(cut % align == 0 for cut in bounds[1:-1])
    if align == 1:
        assert len(bounds) == min(parts, n) + 1


@pytest.mark.parametrize(
    "t, n, k, cols, rows",
    [
        (300, 10_000, 20, [0, 4992, 10_000], [0, 144, 300]),  # the full recipe
        (900, 1600, 12, [0, 1600], [0, 900]),  # six mini subjects: whole
        (150, 1600, 8, [0, 1600], [0, 150]),  # one mini subject: whole
        (64, 32_768, 16, [0, 16_384, 32_768], [0, 32, 64]),  # exactly the threshold
        (64, 32_767, 16, [0, 32_767], [0, 64]),  # one voxel short of it
    ],
)
@pytest.mark.parametrize("cores", [1, 2, 7])
def test_product_cuts_depend_on_the_shape_alone(t, n, k, cols, rows, cores, monkeypatch):
    monkeypatch.setattr(_shares, "_usable_cores", lambda: cores)
    xv = np.empty((t, n))
    assert _product_cuts(n, xv, k) == cols
    assert _product_cuts(t, xv, k) == rows
    split = t * n * k >= _SPLIT_WORK
    assert len(cols) == len(rows) == (3 if split else 2)
    for bounds, length in ((cols, n), (rows, t)):
        _assert_partition(bounds, length)
        assert all(cut % _CUT_ALIGN == 0 for cut in bounds[1:-1])


def _relative_gap(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("cores", [1, 2])
def test_split_products_match_the_whole_products(rng, cores, monkeypatch):
    # the shares' bits rest on the BLAS kernel, so only rounding is asserted
    monkeypatch.setattr(_shares, "_usable_cores", lambda: cores)
    t, n, k = 128, 16_400, 16
    xv = rng.standard_normal((t, n))
    dv = rng.standard_normal((t, k))
    sv = rng.standard_normal((k, n))
    assert len(_product_cuts(n, xv, k)) == 3
    whole_step = _block_step(dv.T @ xv, sv, _step_terms(dv.T @ dv))
    spec = ConstraintSpec(phi=np.full(k, 50.0), c_delta=0.5, c_d=1.0)
    balls = _atom_balls(dv[:, :2], k, spec)
    with _shares._share_runner() as run:
        step = _coefficient_step(xv, dv, sv, run)
        xs = _dictionary_step(xv, sv, dv, balls, run)[2]
    assert _relative_gap(step, whole_step) <= 1e-12
    assert _relative_gap(xs, xv @ sv.T) <= 1e-12


def _thread_of_each_share(cores, bounds, monkeypatch):
    monkeypatch.setattr(_shares, "_usable_cores", lambda: cores)
    seen = {}

    def task(lo, hi):
        seen[lo, hi] = threading.get_ident()

    with _shares._share_runner() as run:
        run(task, bounds)
        run(task, bounds)
    return seen


def test_runner_gives_the_first_share_to_the_calling_thread(monkeypatch):
    seen = _thread_of_each_share(2, [0, 5, 9, 12], monkeypatch)
    assert sorted(seen) == [(0, 5), (5, 9), (9, 12)]
    assert seen[0, 5] == threading.get_ident()
    assert seen[5, 9] != threading.get_ident() and seen[9, 12] == seen[5, 9]


def test_runner_runs_a_one_share_pass_on_the_calling_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a share was sent to a pool thread")

    monkeypatch.setattr(_shares.ThreadPoolExecutor, "submit", no_thread)
    seen = _thread_of_each_share(2, [0, 12], monkeypatch)
    assert seen == {(0, 12): threading.get_ident()}


def test_runner_raises_a_workers_error_after_every_share_ran(monkeypatch):
    monkeypatch.setattr(_shares, "_usable_cores", lambda: 2)
    done = []

    def task(lo, hi):
        if lo:
            raise ValueError("share failed")
        done.append(lo)

    with pytest.raises(ValueError, match="share failed"):
        with _shares._share_runner() as run:
            run(task, [0, 4, 8])
    assert done == [0]


def test_runner_raises_the_calling_threads_error_once_the_workers_share_ran(monkeypatch):
    monkeypatch.setattr(_shares, "_usable_cores", lambda: 2)
    started, done = threading.Event(), []

    def task(lo, hi):
        if lo == 0:
            assert started.wait(10)
            raise ValueError("first share failed")
        started.set()
        time.sleep(0.1)
        done.append(lo)

    with _shares._share_runner() as run:
        with pytest.raises(ValueError, match="first share failed"):
            run(task, [0, 4, 8])
        # the worker's share was still running when the calling thread's failed
        assert done == [4]
