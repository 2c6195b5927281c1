"""Measurement loop, metric aggregation and the environment record."""

from __future__ import annotations

import ctypes
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy

import checks
from tracer import ROW_PROJECTION, STAGES, Tracer

INIT, SOLVE = STAGES
P = "iadl.projections."
IO = "iadl.io."
FEASIBILITY_CALLS = {P + "compute_weights", ROW_PROJECTION}
# Row-projection calls per traced fit whose inputs and outputs are kept for
# the bisection-oracle check.
CAPTURED_ROW_CALLS = 2

E2E_UNITS = {
    "setup_s": "s",
    "init_s": "s",
    "solve_s": "s",
    "fit_s": "s",
    "peak_rss_mb": "MB",
    "r2_assisted": "r2",
    "r2_brain": "r2",
    "rel_residual": "ratio",
}

# Per-layer metric -> (unit, functions it is measured on).  A metric any of
# whose functions is gone from the package is reported absent, as 0.
LAYER_METRICS = {
    "synthgen.generate_s": ("s", ["iadl.synthgen.assemble_dataset"]),
    "initializer.ica_s": ("s", ["iadl.initializer.ica_decompose"]),
    "initializer.refine_s": ("s", ["iadl.initializer.refine_full_sparsity"]),
    "initializer.feasibility_s": ("s", [INIT, ROW_PROJECTION]),
    "initializer.feasibility_passes": ("count", [INIT, ROW_PROJECTION]),
    "projections.matrix_ball_s": ("s", [P + "project_weighted_l1_matrix_ball"]),
    "solver.iterations": ("count", [SOLVE]),
    "solver.iteration_ms": ("ms", [SOLVE]),
    "solver.self_s": ("s", [SOLVE]),
    "solver.step_constant_s": ("s", ["iadl.solver.spectral_norm"]),
    "solver.reweight_s": ("s", [P + "compute_weights"]),
    "projections.row_s": ("s", [ROW_PROJECTION]),
    "projections.rows_projected": ("count", [ROW_PROJECTION]),
    "projections.column_s": ("s", [P + "project_similarity_ball"]),
    "evaluation.score_s": ("s", ["iadl.evaluation.match_and_score"]),
    "io.read_s": ("s", [IO + "load_matrix"]),
    "io.write_s": ("s", [IO + "save_matrix"]),
    "io.checksum_s": ("s", [IO + "sha256_file"]),
    "io.bytes_written": ("bytes", [IO + "save_matrix"]),
    "io.setup_s": ("s", [IO + "save_matrix"]),
    "trace.coverage": ("ratio", []),
    "trace.overhead_s": ("s", []),
}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({f.split()[-1] for f in fh if "openblas" in f.split()[-1].lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import iadl

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    if threads not in (None, 1):
        raise SystemExit(f"error: BLAS runs {threads} threads; the benchmark needs 1")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else "unknown",
        "kernel_backend": getattr(iadl, "kernel_backend", "absent"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _spans_index(spans):
    by_id = {s.id: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    return by_id, kids


def fit_layer_metrics(spans, fit_span) -> dict:
    """Per-layer figures of one traced fit."""
    by_id, kids = _spans_index(spans)

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else None

    def pick(names, parent=None):
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in spans if s.name in names and (parent is None or parent_name(s) == parent)]

    def incl(names, parent=None):
        return sum(s.duration for s in pick(names, parent))

    def self_of(names):
        return sum(s.self_time for s in pick(names))

    def count(names, parent=None):
        return sum(s.count for s in pick(names, parent))

    # The feasibility repair is the tail of initialize after its last
    # init stage returns: everything but reweighting and row projections.
    feasibility_s = 0.0
    passes = 0
    for init in pick(INIT):
        children = kids[init.id]
        stage_ends = [c.end for c in children if c.name not in FEASIBILITY_CALLS]
        last = max(stage_ends, default=init.start)
        tail = [c for c in children if c.start >= last]
        feasibility_s += (init.end - last) - sum(c.gross - c.duration for c in tail)
        passes += sum(1 for c in children if c.name == ROW_PROJECTION)

    iterations = count(SOLVE)
    return {
        "initializer.ica_s": incl("iadl.initializer.ica_decompose"),
        "initializer.refine_s": incl("iadl.initializer.refine_full_sparsity"),
        "initializer.feasibility_s": feasibility_s,
        "initializer.feasibility_passes": passes,
        "projections.matrix_ball_s": incl(P + "project_weighted_l1_matrix_ball"),
        "solver.iterations": iterations,
        "solver.iteration_ms": 1000.0 * incl(SOLVE) / max(iterations, 1),
        "solver.self_s": self_of(SOLVE),
        "solver.step_constant_s": incl("iadl.solver.spectral_norm", SOLVE),
        "solver.reweight_s": incl(P + "compute_weights", SOLVE),
        "projections.row_s": incl(ROW_PROJECTION, SOLVE),
        "projections.rows_projected": count(ROW_PROJECTION, SOLVE),
        "projections.column_s": incl([P + "project_similarity_ball", P + "project_l2_ball"], SOLVE),
        "evaluation.score_s": incl("iadl.evaluation.match_and_score"),
        "io.read_s": self_of([IO + n for n in ("load_matrix", "read_manifest", "verify_manifest", "load_config")]),
        "io.write_s": self_of([IO + n for n in ("save_matrix", "write_manifest", "save_metrics")]),
        "io.checksum_s": self_of(IO + "sha256_file"),
        "io.bytes_written": count([IO + n for n in ("save_matrix", "write_manifest", "save_metrics")]),
        "trace.coverage": sum(s.self_time for s in spans if s.name.startswith("iadl."))
        / fit_span.duration,
    }


def setup_layer_metrics(spans) -> dict:
    by_id, _ = _spans_index(spans)

    def in_synthgen(s):
        return s is not None and s.name.startswith("iadl.synthgen.")

    return {
        "synthgen.generate_s": sum(
            s.duration for s in spans if in_synthgen(s) and not in_synthgen(by_id.get(s.parent))
        ),
        "io.setup_s": sum(s.self_time for s in spans if s.name.startswith(IO)),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _span_dicts(spans, origin):
    return [
        {"name": s.name, "id": s.id, "parent": s.parent, "start": s.start - origin,
         "end": s.end - origin, "self": s.self_time, "count": s.count}
        for s in spans
    ]


def run(workload, seed: int, seconds: float, trace: bool, root) -> dict:
    """Set up several times, then run whole rounds of fits for ``seconds``."""
    stage = Tracer(full=False)
    full = Tracer(full=True, capture_rows=CAPTURED_ROW_CALLS) if trace else None
    failures = []

    setup_s, setup_layers = [], []
    setup_tracer = full or stage
    with setup_tracer.installed():
        for i in range(workload.n_setups):
            with setup_tracer.region("bench.setup", fit=f"setup-{i}") as span:
                state = workload.setup(seed, root / f"setup-{i}")
            setup_s.append(span.duration)
            if trace:
                setup_layers.append(setup_layer_metrics(setup_tracer.spans_of(f"setup-{i}")))
            setup_tracer.spans.clear()
            if i + 1 < workload.n_setups:
                shutil.rmtree(root / f"setup-{i}")
    failures += workload.prepare_checks(state)

    fits = {"untraced": [], "traced": []}
    layers, results = [], []
    last_spans = []
    attempted = failed = rounds = 0
    start = perf_counter()
    min_rounds = 2 if trace else 1
    while rounds < min_rounds or (perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        traced = trace and rounds % 2 == 1
        tracer = full if traced else stage
        round_results = []
        with tracer.installed():
            for op in workload.round(state):
                fit_id = f"fit-{rounds}-{op[0]}-{op[1]}"
                attempted += 1
                body, check = workload.fit(state, op)
                try:
                    with tracer.region("bench.fit", fit=fit_id) as fit_span:
                        body()
                except Exception as err:  # count it and keep the run going
                    failed += 1
                    print(f"fit {fit_id} failed: {err!r}", file=sys.stderr)
                    tracer.spans.clear()
                    tracer.take_captures(fit_id)
                    continue
                spans = tracer.spans_of(fit_id)
                fits["traced" if traced else "untraced"].append({
                    "fit_s": fit_span.duration,
                    "init_s": sum(s.duration for s in spans if s.name == INIT),
                    "solve_s": sum(s.duration for s in spans if s.name == SOLVE),
                })
                if traced:
                    layers.append(fit_layer_metrics(spans, fit_span))
                    last_spans = _span_dicts(spans, fit_span.start)
                    for v, w, phi, out in tracer.take_captures(fit_id):
                        failures += checks.projection_matches_oracle(v, w, phi, out)
                tracer.spans.clear()
                try:
                    result = check()
                except Exception as err:
                    failures.append(f"checking {fit_id} raised {err!r}")
                    continue
                failures += [f"{fit_id}: {f}" for f in result.failures]
                round_results.append(result)
                if not traced:
                    results.append(result)
        failures += workload.round_checks(round_results)
        rounds += 1

    if not results or (trace and not layers):
        raise SystemExit("error: no fit completed and passed its checks")

    if trace:
        metrics, absent = _layer_report(
            layers, setup_layers, fits, (full.wrapped | stage.wrapped)
        )
    else:
        metrics, absent = _e2e_report(setup_s, fits["untraced"], results), []

    report = [f"workload {workload.__class__.__name__} seed {seed}: {rounds} rounds, "
              f"{attempted} fits attempted, {failed} failed"]
    report += [f"  {name:32s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    arms = sorted({r.arm for r in results})
    if len(arms) > 1:
        report.append("  task rho2 by arm: " + ", ".join(
            f"{arm} {np.mean([r.r2_assisted for r in results if r.arm == arm]):.4f}" for arm in arms
        ))
    report += [f"  absent: {name}" for name in absent]
    report += [f"  CHECK FAILED: {f}" for f in failures]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    outcome = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }
    if trace:
        outcome["spans"] = last_spans
    return outcome


def _e2e_report(setup_s, fits, results) -> dict:
    values = {
        "setup_s": _median(setup_s),
        "init_s": _median([f["init_s"] for f in fits]),
        "solve_s": _median([f["solve_s"] for f in fits]),
        "fit_s": _median([f["fit_s"] for f in fits]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "r2_assisted": float(np.mean([r.r2_assisted for r in results])),
        "r2_brain": float(np.mean([r.r2_brain for r in results])),
        "rel_residual": float(np.mean([r.rel_residual for r in results])),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def _layer_report(layers, setup_layers, fits, wrapped):
    values = {}
    for per in (layers, setup_layers):
        for name in (per[0] if per else {}):
            values[name] = _median([p[name] for p in per])
    values["trace.overhead_s"] = (
        _median([f["fit_s"] for f in fits["traced"]])
        - _median([f["fit_s"] for f in fits["untraced"]])
    )
    metrics, absent = {}, []
    for name, (unit, needs) in LAYER_METRICS.items():
        if not all(n in wrapped for n in needs):
            absent.append(name)
            value = 0.0
        else:
            value = values[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
