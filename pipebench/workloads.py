"""The benchmark's three workloads on the iadl pipeline.

Each workload has a set-up (simulate the subjects, estimate c_delta, write
configs) and a round: a fixed list of fits, each run from data to a scored
decomposition.  Rounds are identical within a run, so a run is any whole
number of rounds.  Every call into iadl goes through a module attribute, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np
import yaml

import checks
from iadl import cli, evaluation, initializer, postproc, solver
from iadl import io as iadl_io
from iadl.types import ConstraintSpec, DataMatrix, SourceSet, TaskTimeCourses

BRAIN_KINDS = ("task", "transient")
SOLVER_TOL = 1e-8  # the shipped stop tolerance


def subject_seeds(seed: int, tag: int, count: int) -> list[int]:
    """Per-subject seeds drawn from a seed and the workload's tag."""
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


def run_cli(*argv) -> str:
    """Run one ``iadl`` command in this process; raise on a nonzero exit."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"iadl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def experiment(seed, k, thetas, recipe, snr_db, max_iters) -> dict:
    return {
        "seed": seed,
        "k": k,
        "sparsity": {"theta": list(thetas)},
        "c_delta": "auto",
        "c_d": 1.0,
        "epsilon": 1e-6,
        "dataset": {"recipe": recipe, "snr_db": snr_db, "hrf_spread": 0.3},
        "solver": {"max_iters": max_iters, "rel_obj_tol": SOLVER_TOL},
        "init": {"refine_iters": 10},
    }


@dataclass
class Subject:
    """One simulated subject on disk, plus what the checks read back."""

    dir: Path
    x: np.ndarray = None
    x_sq: float = 0.0
    delta: np.ndarray = None
    true_courses: np.ndarray = None
    true_maps: np.ndarray = None
    task_idx: list = field(default_factory=list)
    brain_idx: list = field(default_factory=list)

    def load_for_checks(self) -> None:
        self.x = checks.read_matrix(self.dir / "x.iadl")
        self.x_sq = float(np.sum(self.x * self.x))
        self.delta = checks.read_matrix(self.dir / "task_courses.iadl")
        self.true_courses = checks.read_matrix(self.dir / "true_courses.iadl")
        self.true_maps = checks.read_matrix(self.dir / "true_maps.iadl")
        meta = json.loads((self.dir / "meta.json").read_text())
        self.task_idx = [int(i) for i in meta["assisted_indices"]]
        self.brain_idx = [i for i, kind in enumerate(meta["kinds"]) if kind in BRAIN_KINDS]


def simulate(config: Path, seed: int, out: Path) -> Subject:
    run_cli("simulate", "--config", config, "--seed", seed, "--out", out)
    return Subject(dir=out)


def tune_cdelta(config: Path) -> float:
    return float(run_cli("tune-cdelta", "--config", config).strip())


@dataclass
class FitResult:
    arm: str
    r2_assisted: float
    r2_brain: float
    rel_residual: float
    failures: list


def score(r_full, task_idx, brain_idx, rel_residual, arm, failures) -> FitResult:
    r_full = np.asarray(r_full, float)
    return FitResult(
        arm=arm,
        r2_assisted=float(np.mean(r_full[task_idx])),
        r2_brain=float(np.mean(r_full[brain_idx])),
        rel_residual=rel_residual,
        failures=failures,
    )


def load_for_checks(subjects, targets) -> list[str]:
    failures = []
    for subject in subjects:
        subject.load_for_checks()
        failures += checks.maps_hit_sparsity(subject.true_maps, targets)
    return failures


class CliWorkload:
    """Subjects simulated by ``iadl simulate``, fitted by ``iadl fit`` and
    scored by ``iadl evaluate``, one arm at a time."""

    n_subjects = 1
    arms = ("assisted",)
    targets = ()

    def sim_config(self, seed) -> dict:
        raise NotImplementedError

    def seeds(self, seed: int) -> list[int]:
        return subject_seeds(seed, self.tag, self.n_subjects)

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True)
        seeds = self.seeds(seed)
        sim = write_config(root / "simulate.yaml", self.sim_config(seeds[0]))
        subjects = [simulate(sim, s, root / f"subject-{i}") for i, s in enumerate(seeds)]
        c_delta = tune_cdelta(sim)
        configs = {}
        for arm in self.arms:
            doc = self.sim_config(seeds[0])
            doc["c_delta"] = 0.0 if arm == "pinned" else c_delta
            configs[arm] = write_config(root / f"fit-{arm}.yaml", doc)
        return {"root": root, "subjects": subjects, "configs": configs}

    def prepare_checks(self, state) -> list[str]:
        return load_for_checks(state["subjects"], self.targets)

    def round(self, state):
        return [(i, arm) for i in range(self.n_subjects) for arm in self.arms]

    def fit(self, state, op) -> tuple:
        """Returns the timed body of one fit and the check that follows it."""
        index, arm = op
        subject = state["subjects"][index]
        out = state["root"] / f"fit-{index}-{arm}"
        metrics = out / "metrics.json"
        argv = ["fit", "--config", state["configs"][arm], "--data", subject.dir, "--out", out]
        if arm == "blind":
            argv.append("--blind")

        def body():
            run_cli(*argv)
            run_cli("evaluate", "--truth", subject.dir, "--fit", out, "--out", metrics)

        def check():
            d = checks.read_matrix(out / "fitted_dict.iadl")
            s = checks.read_matrix(out / "fitted_maps.iadl")
            objective = checks.read_objective_trace(out / "trace.csv")
            resolved = json.loads((out / "resolved.json").read_text())
            report = json.loads(metrics.read_text())["full_source"]
            mapping = {int(i): int(j) for i, j in report["mapping"].items()}
            delta = subject.delta[:, :0] if arm == "blind" else subject.delta
            failures = (
                checks.residual_matches(subject.x, d, s, objective[-1])
                + checks.objective_monotone(objective)
                + checks.atoms_in_balls(d, delta, resolved["c_delta"], resolved["c_d"])
                + checks.rho2_matches(
                    subject.true_courses, subject.true_maps, d, s, mapping, report["r_full"]
                )
            )
            rel = resolved["final_objective"] / subject.x_sq
            return score(report["r_full"], subject.task_idx, subject.brain_idx, rel, arm, failures)

        return body, check

    def round_checks(self, results) -> list[str]:
        return []


class FullSubject(CliWorkload):
    """One subject of the full recipe: 300 x 10 000, K = 20, SNR 0 dB.

    The subject and its ICA start are fixed (seed 7, the seed of the shipped
    config) whatever the run seed.  Init work on this recipe swings by 20-35%
    between subjects and between ICA starts (feasibility passes and their
    cost follow the data), and a run holds only two or three ~10 s fits, so
    a subject per seed put the run-to-run spread of init_s at 37% of the
    median over five seeds.
    """

    targets = checks.FULL_TARGET_THETAS
    max_iters = 50
    n_setups = 4
    reference_seed = 7

    def seeds(self, seed):
        return [self.reference_seed]

    def sim_config(self, seed):
        # The three task sources get their atlas sparsities; the other
        # atoms get the default ladder.
        return experiment(seed, 20, (95.28, 91.60, 94.57), "full", 0.0, self.max_iters)


class MiniStudy(CliWorkload):
    """Mismatched mini subjects, each fitted assisted, pinned and blind.

    The hard check is that the assisted arm beats the blind arm.  Its lead
    over the pinned arm is reported, not checked: it averages about 0.03
    task rho^2 with a per-subject spread of about 0.05, so on a mean over a
    few subjects the pinned arm wins on some seeds.
    """

    tag = 2
    n_subjects = 4
    arms = ("assisted", "pinned", "blind")
    targets = checks.MINI_TARGET_THETAS
    max_iters = 200
    n_setups = 7

    def sim_config(self, seed):
        return experiment(seed, 8, (95.0, 94.0), "mini", 10.0, self.max_iters)

    def round_checks(self, results):
        means = {
            arm: float(np.mean([r.r2_assisted for r in results if r.arm == arm]))
            for arm in self.arms
        }
        return checks.assisted_beats_blind(means)


class GroupConcat:
    """Mini subjects with different subject responses, stacked along time by
    ``postproc.concat_group`` and fitted through the library.

    The group is fixed (subject seeds drawn from seed 7) whatever the run
    seed: between draws of the group, ICA either converges in 20-140
    iterations or stops at its 400-iteration cap, which moves init_s by
    about 20% and put its run-to-run spread at 30% of the median over ten
    seeds.
    """

    tag = 3
    n_subjects = 6
    k = 12
    max_iters = 100
    n_setups = 7
    targets = checks.MINI_TARGET_THETAS
    reference_seed = 7

    def setup(self, seed: int, root: Path) -> dict:
        root.mkdir(parents=True)
        seeds = subject_seeds(self.reference_seed, self.tag, self.n_subjects)
        doc = experiment(seeds[0], self.k, (95.0, 94.0), "mini", 10.0, self.max_iters)
        sim = write_config(root / "simulate.yaml", doc)
        subjects = [simulate(sim, s, root / f"subject-{i}") for i, s in enumerate(seeds)]
        # Residual energies add across subjects, so the stacked courses get
        # the summed radius.
        c_delta = self.n_subjects * tune_cdelta(sim)

        # Group truth: the brain-like sources share their maps across
        # subjects; their courses stack along time like the data.
        courses, maps = [], None
        for subject in subjects:
            meta = json.loads((subject.dir / "meta.json").read_text())
            brain = [i for i, kind in enumerate(meta["kinds"]) if kind in BRAIN_KINDS]
            tasks = [brain.index(i) for i in meta["assisted_indices"]]
            subject_maps = iadl_io.load_matrix(subject.dir / "true_maps.iadl")[brain]
            if maps is None:
                maps = subject_maps
            elif not np.array_equal(maps, subject_maps):
                raise RuntimeError("brain maps differ across subjects; no group truth")
            courses.append(iadl_io.load_matrix(subject.dir / "true_courses.iadl")[:, brain])
        truth = SourceSet(np.vstack(courses), maps, kinds=("brain",) * len(brain))
        config = iadl_io.load_config(sim)
        return {
            "root": root,
            "subjects": subjects,
            "truth": truth,
            "task_idx": tasks,
            "spec": ConstraintSpec(phi=config.resolve_phis(maps.shape[1]), c_delta=c_delta),
            "init_seed": seeds[0],
            "tr": config.dataset.tr,
        }

    def prepare_checks(self, state) -> list[str]:
        failures = load_for_checks(state["subjects"], self.targets)
        state["x"] = np.vstack([s.x for s in state["subjects"]])
        state["x_sq"] = float(np.sum(state["x"] ** 2))
        state["delta"] = np.vstack([s.delta for s in state["subjects"]])
        return failures

    def round(self, state):
        return [(0, "assisted")]

    def fit(self, state, op):
        out = state["root"] / "fit"
        spec = state["spec"]
        produced = {}

        def body():
            xs, deltas = [], []
            for subject in state["subjects"]:
                xs.append(DataMatrix(iadl_io.load_matrix(subject.dir / "x.iadl"), tr=state["tr"]))
                deltas.append(TaskTimeCourses(iadl_io.load_matrix(subject.dir / "task_courses.iadl")))
            x, delta = postproc.concat_group(xs, deltas)
            d0, s0 = initializer.initialize(
                x, self.k, delta, spec, initializer.InitConfig(rng_seed=state["init_seed"])
            )
            result = solver.run_iadl(
                x, d0, s0, delta, spec,
                solver.SolverConfig(max_iters=self.max_iters, rel_obj_tol=SOLVER_TOL),
            )
            out.mkdir(exist_ok=True)
            iadl_io.save_matrix(result.dictionary.values, out / "fitted_dict.iadl")
            iadl_io.save_matrix(result.coefficients.values, out / "fitted_maps.iadl")
            iadl_io.write_manifest(out, ["fitted_dict.iadl", "fitted_maps.iadl"])
            report = evaluation.match_and_score(
                state["truth"], result.dictionary, result.coefficients, state["task_idx"]
            )
            produced.update(objective=result.trace.objective, report=report)

        def check():
            d = checks.read_matrix(out / "fitted_dict.iadl")
            s = checks.read_matrix(out / "fitted_maps.iadl")
            objective = produced["objective"]
            report = produced["report"]
            truth = state["truth"]
            failures = (
                checks.residual_matches(state["x"], d, s, objective[-1])
                + checks.objective_monotone(objective)
                + checks.atoms_in_balls(d, state["delta"], spec.c_delta, spec.c_d)
                + checks.rho2_matches(
                    truth.time_courses, truth.spatial_maps, d, s, report.mapping, report.r_full
                )
            )
            rel = float(objective[-1]) / state["x_sq"]
            brain = range(truth.n_sources)
            return score(report.r_full, state["task_idx"], brain, rel, "assisted", failures)

        return body, check

    def round_checks(self, results):
        return []


WORKLOADS = {
    "full_subject": FullSubject(),
    "group_concat": GroupConcat(),
    "mini_study": MiniStudy(),
}

