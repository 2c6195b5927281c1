"""Contiguous shares of one pass, run on the cores the process may use.

A pass over a range is cut into contiguous shares ``[bounds[i],
bounds[i + 1])``, and a task writes each share's part of the result into
its own slice of one output. The calling thread runs the first share and a
thread pool the others; on one usable core the same shares run in turn on
the calling thread. So the result does not depend on the core count when
the cut points do not: the solver cuts by the problem's shape, and the
noise calibration's passes are elementwise.

Tasks call NumPy only, never a public ``iadl`` name: a tracer that wraps
those names keeps one span stack for all threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cuts(n: int, parts: int, align: int = 1) -> list[int]:
    """The bounds of ``parts`` contiguous shares of ``[0, n)``: share ``i``
    starts at ``i n / parts`` rounded down to a multiple of ``align``.
    Empty shares are dropped, so the bounds rise strictly from 0 to ``n``."""
    inner = (align * (n * i // (parts * align)) for i in range(1, parts))
    return sorted({0, *inner, n})


def _in_turn(task, bounds) -> None:
    """Call ``task(lo, hi)`` on each share, in order, on the calling thread."""
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        task(lo, hi)


@contextmanager
def _share_runner():
    """Yield ``run(task, bounds)``, which calls ``task(lo, hi)`` on each
    share and returns once every share has run.

    The calling thread runs the first share and a thread pool the others,
    one thread per further usable core. The pool lives for the context and
    starts on the first pass with a second share, and only if the process
    has a second usable core; otherwise every share runs in turn on the
    calling thread.
    """
    cores = _usable_cores()
    pool = None

    def run(task, bounds):
        nonlocal pool
        if cores == 1 or len(bounds) < 3:
            _in_turn(task, bounds)
            return
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=cores - 1)
        others = [pool.submit(task, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        try:
            task(bounds[0], bounds[1])
        finally:
            for future in others:
                future.result()

    try:
        yield run
    finally:
        if pool is not None:
            pool.shutdown()
