"""Command-line pipeline: simulate, init, fit, evaluate, tune-cdelta,
atlas-sparsity.

Every command is deterministic given its config (the --seed flag overrides
the config seed) and exits nonzero with a one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as iadl_io
from . import synthgen
from .evaluation import FULL_SOURCE, TIME_COURSE, atlas_fbn_sparsity, match_and_score
from .hrf import TwoGammaParams, canonical_hrf, estimate_c_delta, sample_hrf, task_courses
from .initializer import initialize
from .solver import run_iadl
from .types import (
    CoefficientMatrix,
    ConstraintSpec,
    DataMatrix,
    Dictionary,
    SourceSet,
    TaskTimeCourses,
)


def _load_config(args) -> iadl_io.ExperimentConfig:
    """The config with the --seed override applied."""
    config = iadl_io.load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return config if args.seed is None else replace(config, seed=args.seed)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    rng = np.random.default_rng(config.seed)
    ds_cfg = config.dataset
    if ds_cfg.hrf_spread > 0:
        subject_hrf = sample_hrf(rng, ds_cfg.hrf_spread)
    else:
        subject_hrf = TwoGammaParams()
    recipe = synthgen.RECIPES[ds_cfg.recipe]
    dataset = recipe.generate(rng, snr_db=ds_cfg.snr_db, hrf_params=subject_hrf)
    # the knowledge handed to the solver: the task courses under the
    # canonical response, whatever the subject response in the data
    delta = task_courses(ds_cfg.conditions, recipe.n_times, recipe.tr,
                         canonical_hrf(recipe.tr))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    iadl_io.save_matrix(dataset.x.values, out / "x.iadl")
    iadl_io.save_matrix(dataset.truth.time_courses, out / "true_courses.iadl")
    iadl_io.save_matrix(dataset.truth.spatial_maps, out / "true_maps.iadl")
    iadl_io.save_matrix(delta, out / "task_courses.iadl")
    meta = {
        "recipe": ds_cfg.recipe,
        "grid": list(recipe.grid),
        "tr": recipe.tr,
        "snr_db": ds_cfg.snr_db,
        "seed": config.seed,
        "kinds": list(dataset.truth.kinds),
        "assisted_indices": list(dataset.assisted_indices),
        "noise_sigma": dataset.noise_sigma,
        "subject_hrf": subject_hrf.__dict__,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    iadl_io.write_manifest(
        out,
        ["x.iadl", "true_courses.iadl", "true_maps.iadl", "task_courses.iadl", "meta.json"],
    )
    print(f"wrote {ds_cfg.recipe} dataset to {out}")
    return 0


def _estimated_c_delta(config) -> float:
    ds = config.dataset
    return estimate_c_delta(ds.conditions, ds.n_times, ds.tr)


def _load_fit_inputs(config, data_dir, blind):
    """The data, task courses and constraints a start or a fit is computed
    from, and the checksum of ``x.iadl`` taken from the same read."""
    data_dir = Path(data_dir)
    xv, data_checksum = iadl_io._load_matrix_and_digest(data_dir / "x.iadl")
    x = DataMatrix(xv, tr=config.dataset.tr)
    if blind:
        delta = TaskTimeCourses.empty(x.n_times)
    else:
        delta = TaskTimeCourses(iadl_io.load_matrix(data_dir / "task_courses.iadl"))
    c_delta = _estimated_c_delta(config) if config.c_delta == "auto" else config.c_delta
    spec = ConstraintSpec(
        phi=config.resolve_phis(x.n_voxels),
        c_delta=c_delta,
        c_d=config.c_d,
        epsilon=config.epsilon,
    )
    return x, delta, spec, data_checksum


def _refuse_out_over_inputs(out, *inputs) -> None:
    """Refuse an ``--out`` that resolves to an input directory, given as
    (flag, path) pairs: the command's manifest would overwrite the input's."""
    target = Path(out).resolve()
    for flag, path in inputs:
        if path is not None and Path(path).resolve() == target:
            raise ValueError(
                f"--out {out} is the {flag} directory; its manifest.json would be overwritten"
            )


def _refuse_report_over_inputs(out, *inputs) -> None:
    """Refuse a report ``out`` that, or whose ``.csv`` table, resolves to the
    manifest or a listed file of an input directory, given as (directory,
    checksums) pairs: it would replace the input and break its checksums."""
    report = Path(out)
    for written in (report, report.with_suffix(".csv")):
        target = written.resolve()
        for directory, checksums in inputs:
            for name in ("manifest.json", *checksums):
                if (directory / name).resolve() == target:
                    raise ValueError(
                        f"--out {out} would write {written} over the input {directory / name}"
                    )


def _start_settings(config, spec, blind) -> dict:
    """The resolved settings a start depends on, as its manifest records
    them."""
    return {
        "k": config.k,
        "phi": [float(v) for v in spec.phi],
        "epsilon": spec.epsilon,
        "c_delta": spec.c_delta,
        "c_d": spec.c_d,
        "blind": bool(blind),
        "seed": config.seed,
        "refine_iters": config.init.refine_iters,
    }


def cmd_init(args) -> int:
    _refuse_out_over_inputs(args.out, ("--data", args.data))
    config = _load_config(args)
    x, delta, spec, data_checksum = _load_fit_inputs(config, args.data, args.blind)
    d0, s0 = initialize(x, config.k, delta, spec, config.init)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    iadl_io.save_matrix(d0.values, out / "init_dict.iadl")
    iadl_io.save_matrix(s0.values, out / "init_coef.iadl")
    iadl_io.write_manifest(
        out,
        ["init_dict.iadl", "init_coef.iadl"],
        extra={
            "data_checksum": data_checksum,
            "settings": _start_settings(config, spec, args.blind),
        },
    )
    print(f"wrote starting point to {out}")
    return 0


def _load_start(init_dir, data_checksum, settings, delta):
    """The start ``iadl init`` saved, exactly as saved; refused if a file
    changed since, or it was computed from other data or under other
    settings."""
    manifest = iadl_io.verify_manifest(init_dir, ["data_checksum", "settings"])
    if manifest["data_checksum"] != data_checksum:
        raise ValueError(f"{init_dir}: start was computed from different data")
    saved = manifest["settings"]
    if not isinstance(saved, dict):
        raise ValueError(f"{init_dir / 'manifest.json'}: key 'settings' is not an object")
    for key, value in settings.items():
        if saved.get(key) != value:
            raise ValueError(f"{init_dir}: start was computed with a different {key!r}")
    d0 = Dictionary(
        iadl_io.load_matrix(init_dir / "init_dict.iadl"), assisted_count=delta.n_courses
    )
    return d0, CoefficientMatrix(iadl_io.load_matrix(init_dir / "init_coef.iadl"))


def cmd_fit(args) -> int:
    _refuse_out_over_inputs(args.out, ("--data", args.data), ("--init-dir", args.init_dir))
    config = _load_config(args)
    x, delta, spec, data_checksum = _load_fit_inputs(config, args.data, args.blind)
    settings = _start_settings(config, spec, args.blind)
    if args.init_dir:
        d0, s0 = _load_start(Path(args.init_dir), data_checksum, settings, delta)
    else:
        d0, s0 = initialize(x, config.k, delta, spec, config.init)

    result = run_iadl(x, d0, s0, delta, spec, config.solver)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    iadl_io.save_matrix(result.dictionary.values, out / "fitted_dict.iadl")
    iadl_io.save_matrix(result.coefficients.values, out / "fitted_maps.iadl")
    trace = result.trace
    lines = ["iteration,objective,max_violation"]
    for i, (obj, viol) in enumerate(zip(trace.objective, trace.constraint_violation_max), start=1):
        lines.append(f"{i},{obj:.12g},{viol:.6g}")
    (out / "trace.csv").write_text("\n".join(lines) + "\n")

    resolved = {
        **settings,
        "assisted_count": delta.n_courses,
        "solver": config.solver.__dict__,
        "iterations_run": trace.iterations_run,
        "stop_reason": trace.stop_reason,
        "final_objective": float(trace.objective[-1]),
        "data_checksum": data_checksum,
    }
    (out / "resolved.json").write_text(json.dumps(resolved, indent=2) + "\n")
    iadl_io.write_manifest(
        out, ["fitted_dict.iadl", "fitted_maps.iadl", "trace.csv", "resolved.json"]
    )
    print(
        f"fit finished after {trace.iterations_run} iterations "
        f"({trace.stop_reason}); objective {trace.objective[-1]:.6g}"
    )
    return 0


def cmd_evaluate(args) -> int:
    truth_dir = Path(args.truth)
    fit_dir = Path(args.fit)
    truth_checksums = iadl_io.verify_manifest(truth_dir)["checksums"]
    fit_checksums = iadl_io.verify_manifest(fit_dir)["checksums"]
    _refuse_report_over_inputs(args.out, (truth_dir, truth_checksums), (fit_dir, fit_checksums))
    if "x.iadl" not in truth_checksums:
        raise ValueError(f"{truth_dir / 'manifest.json'}: key 'checksums' lists no 'x.iadl'")
    resolved = iadl_io.read_json_object(
        fit_dir / "resolved.json", ["data_checksum", "assisted_count"]
    )
    if resolved["data_checksum"] != truth_checksums["x.iadl"]:
        raise ValueError("fit was produced from different data than this truth bundle")

    meta = iadl_io.read_json_object(truth_dir / "meta.json", ["kinds", "assisted_indices"])
    truth = SourceSet(
        time_courses=iadl_io.load_matrix(truth_dir / "true_courses.iadl"),
        spatial_maps=iadl_io.load_matrix(truth_dir / "true_maps.iadl"),
        kinds=tuple(meta["kinds"]),
    )
    est_d = Dictionary(
        iadl_io.load_matrix(fit_dir / "fitted_dict.iadl"),
        assisted_count=int(resolved["assisted_count"]),
    )
    est_s = CoefficientMatrix(iadl_io.load_matrix(fit_dir / "fitted_maps.iadl"))
    p = tuple(meta["assisted_indices"])[: est_d.assisted_count]

    reports = {
        mode: match_and_score(truth, est_d, est_s, p, mode) for mode in (FULL_SOURCE, TIME_COURSE)
    }
    iadl_io.save_metrics(reports, args.out, truth.kinds)
    full = reports[FULL_SOURCE].summaries
    print(
        f"mean r (full source): assisted {full.get('assisted_full', float('nan')):.4f}, "
        f"brain {full['brain_full']:.4f}, all {full['all_full']:.4f}"
    )
    return 0


def cmd_tune_cdelta(args) -> int:
    print(f"{_estimated_c_delta(_load_config(args)):.10g}")
    return 0


def cmd_atlas_sparsity(args) -> int:
    print(f"{atlas_fbn_sparsity(args.thetas):.10g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iadl",
        description="Constrained dictionary learning pipeline: simulate, "
        "initialize, fit, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("init", help="compute and store a starting point")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--blind", action="store_true", help="no assisted atoms")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("fit", help="run the solver")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--blind", action="store_true", help="no assisted atoms")
    p.add_argument("--init-dir", default=None, help="saved starting point to reuse")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score a fit against ground truth")
    p.add_argument("--truth", required=True, help="dataset directory")
    p.add_argument("--fit", required=True, help="fit output directory")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune-cdelta", help="print the estimated similarity radius")
    add_common(p, needs_out=False)
    p.set_defaults(func=cmd_tune_cdelta)

    p = sub.add_parser("atlas-sparsity", help="network sparsity from region values")
    p.add_argument("thetas", nargs="+", type=float, help="per-region sparsity %%")
    p.set_defaults(func=cmd_atlas_sparsity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # single-line diagnostic, nonzero exit
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
