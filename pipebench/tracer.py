"""Span tracer that wraps the public functions of the iadl layers from outside.

The package is not edited: every public function defined in a layer module
is replaced, wherever an iadl module holds a reference to it, by a wrapper
that records a span (name, parent, fit, start, end).  A span's self time is
its duration minus the gross time of its child spans, where the gross time
also covers the wrapper's own bookkeeping; bookkeeping therefore counts
against no layer and shows up only as the traced-minus-untraced fit time.

A few functions carry hooks that count work (rows over budget, bytes
written, iterations) or capture row-projection calls for the oracle check.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The layer modules whose public functions a traced run wraps; the NumPy
# projection kernel belongs to the projections layer.
LAYER_MODULES = (
    "iadl.synthgen",
    "iadl.hrf",
    "iadl.initializer",
    "iadl.solver",
    "iadl.projections",
    "iadl._kernels._wl1_numpy",
    "iadl.evaluation",
    "iadl.postproc",
    "iadl.io",
    "iadl.cli",
)

# The two calls every run times, traced or not: they give init_s and solve_s.
STAGES = ("iadl.initializer.initialize", "iadl.solver.run_iadl")

ROW_PROJECTION = "iadl.projections.project_weighted_l1_rows"


class Span:
    __slots__ = ("id", "name", "parent", "fit", "start", "end", "gross", "child_gross", "count")

    def __init__(self, span_id, name, parent, fit):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.fit = fit
        self.start = self.end = 0.0
        self.gross = 0.0
        self.child_gross = 0.0
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_gross


def _bytes_of(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _count_rows_over_budget(args, kwargs):
    v, w, phi = (list(args) + [kwargs.get(k) for k in ("v", "w", "phi")][len(args):])[:3]
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    wl1 = np.einsum("ij,ij->i", w, np.abs(v))
    return int(np.count_nonzero(wl1 > np.atleast_1d(phi)))


def _after_save_matrix(args, kwargs, result):
    return _bytes_of(kwargs.get("path", args[1] if len(args) > 1 else None))


def _after_write_manifest(args, kwargs, result):
    directory = kwargs.get("directory", args[0] if args else None)
    return _bytes_of(os.path.join(directory, "manifest.json"))


def _after_save_metrics(args, kwargs, result):
    path = str(kwargs.get("path", args[1] if len(args) > 1 else None))
    return _bytes_of(path, os.path.splitext(path)[0] + ".csv")


def _after_run_iadl(args, kwargs, result):
    return int(result.trace.iterations_run)


# Hooks: name -> (before(args, kwargs) -> count, after(args, kwargs, result) -> count).
HOOKS = {
    ROW_PROJECTION: (_count_rows_over_budget, None),
    "iadl.io.save_matrix": (None, _after_save_matrix),
    "iadl.io.write_manifest": (None, _after_write_manifest),
    "iadl.io.save_metrics": (None, _after_save_metrics),
    "iadl.solver.run_iadl": (None, _after_run_iadl),
}


class Tracer:
    """Records spans for the wrapped functions while installed.

    ``full=False`` wraps only the two stage calls in STAGES, which is what the
    untraced run uses to split a fit into init and solve time.
    ``capture_rows`` row-projection calls made directly by the solver are
    kept per fit (inputs and output) for the oracle check.
    """

    def __init__(self, full: bool, capture_rows: int = 0):
        self.full = full
        self.capture_rows = capture_rows
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.captures: list[tuple] = []
        self._fit = None
        self._next_id = 0
        self._patched: list[tuple] = []
        self.wrapped: set[str] = set()

    # -- installation -------------------------------------------------------

    def _targets(self):
        if not self.full:
            out = []
            for qual in STAGES:
                mod_name, name = qual.rsplit(".", 1)
                fn = getattr(importlib.import_module(mod_name), name, None)
                if fn is None:
                    raise SystemExit(f"error: {qual} is gone; init_s and solve_s need it")
                out.append((qual, fn))
            return out
        out = []
        for mod_name in LAYER_MODULES:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod_name:
                    out.append((f"{mod_name}.{name}", fn))
        return out

    def install(self) -> None:
        targets = dict(self._targets())
        self.wrapped = set(targets)
        wrappers = {id(fn): (fn, self._wrap(qual, fn)) for qual, fn in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iadl" or mod_name.startswith("iadl.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(self._next_id, name, parent.id if parent else None, self._fit)
        self._next_id += 1
        self.stack.append(span)
        return span, parent

    def _close(self, span, parent, enter, exit_):
        span.gross = exit_ - enter
        if parent is not None:
            parent.child_gross += span.gross
        self.spans.append(span)

    def _wrap(self, qual, fn):
        before, after = HOOKS.get(qual, (None, None))
        capture = qual == ROW_PROJECTION and self.capture_rows > 0
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            span, parent = tracer._open(qual)
            span.start = enter
            try:
                if before is not None:
                    span.count += before(args, kwargs)
                span.start = perf_counter()
                result = fn(*args, **kwargs)
                span.end = perf_counter()
                if after is not None:
                    span.count += after(args, kwargs, result)
                if capture and parent is not None and parent.name == "iadl.solver.run_iadl":
                    tracer._capture(args, kwargs, result)
                return result
            finally:
                if not span.end:
                    span.end = perf_counter()
                tracer.stack.pop()
                tracer._close(span, parent, enter, perf_counter())

        return wrapper

    def _capture(self, args, kwargs, result):
        mine = [c for c in self.captures if c[0] == self._fit]
        if len(mine) < self.capture_rows:
            v, w, phi = (list(args) + [kwargs.get(k) for k in ("v", "w", "phi")][len(args):])[:3]
            self.captures.append(
                (self._fit, np.array(v, float), np.array(w, float),
                 np.array(np.atleast_1d(phi), float), np.array(result, float))
            )

    @contextmanager
    def region(self, name, fit=None):
        """A span opened by the benchmark itself, e.g. one whole fit."""
        previous = self._fit
        if fit is not None:
            self._fit = fit
        enter = perf_counter()
        span, parent = self._open(name)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.stack.pop()
            self._close(span, parent, enter, perf_counter())
            self._fit = previous

    def take_captures(self, fit):
        mine = [c[1:] for c in self.captures if c[0] == fit]
        self.captures = [c for c in self.captures if c[0] != fit]
        return mine

    def spans_of(self, fit):
        return [s for s in self.spans if s.fit == fit]
