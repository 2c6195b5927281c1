"""File formats, experiment configuration, and artifact manifests.

Matrices travel in a small binary container (magic ``IADL``, version, row
and column counts, little-endian float64 payload) with a comma-separated
text alternative selected by the ``.csv`` extension. Experiment configs
are YAML documents validated into typed objects; every simulated or
fitted artifact directory carries a manifest with content checksums so
mismatched truth/fit pairs are refused at evaluation time.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .hrf import ConditionSpec, TwoGammaParams, default_alternate_hrf, sample_hrf
from .initializer import InitConfig
from .solver import SolverConfig
from .types import phi_from_theta
from . import synthgen

MAGIC = b"IADL"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHII")


class MatrixFileError(ValueError):
    pass


def save_matrix(values, path) -> None:
    """Write a matrix; binary container by default, text for ``.csv``."""
    path = Path(path)
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise MatrixFileError(f"expected a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError("refusing to write non-finite values")
    if path.suffix == ".csv":
        np.savetxt(path, arr, fmt="%.17g", delimiter=",")
        return
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1])
    path.write_bytes(header + arr.tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".csv":
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
            except ValueError as err:
                raise MatrixFileError(f"{path}: {err}") from err
        if arr.size == 0:
            raise MatrixFileError(f"{path}: no values")
        if not np.all(np.isfinite(arr)):
            raise MatrixFileError(f"{path}: non-finite values")
        return arr
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise MatrixFileError(f"{path}: truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MatrixFileError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise MatrixFileError(f"{path}: unsupported format version {version}")
    expected = _HEADER.size + 8 * rows * cols
    if len(raw) < expected:
        raise MatrixFileError(f"{path}: truncated payload")
    if len(raw) > expected:
        raise MatrixFileError(f"{path}: trailing bytes after payload")
    arr = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)
    arr = np.ascontiguousarray(arr)
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError(f"{path}: non-finite values")
    return arr


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(directory, filenames, extra=None) -> None:
    directory = Path(directory)
    manifest = {
        "checksums": {name: sha256_file(directory / name) for name in filenames},
    }
    if extra:
        manifest.update(extra)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def read_json_object(path, keys=()) -> dict:
    """Parse a JSON object file; a file that is not one, or lacks one of
    ``keys``, fails with a ValueError naming the file and the key."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err})") from err
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    return doc


def read_manifest(directory) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest in {directory}")
    manifest = read_json_object(path, ["checksums"])
    checksums = manifest["checksums"]
    if not isinstance(checksums, dict) or not all(isinstance(v, str) for v in checksums.values()):
        raise ValueError(f"{path}: key 'checksums' must map file names to digests")
    return manifest


def verify_manifest(directory) -> None:
    """Recompute every checksum and fail loudly on drift."""
    manifest = read_manifest(directory)
    for name, recorded in manifest["checksums"].items():
        if not (Path(directory) / name).is_file():
            raise ValueError(f"{directory}/manifest.json: listed file {name!r} is missing")
        if sha256_file(Path(directory) / name) != recorded:
            raise ValueError(f"{name}: checksum mismatch (artifact modified?)")


@dataclass(frozen=True)
class DatasetConfig:
    recipe: str = "mini"
    snr_db: float = 0.0
    hrf_spread: float = 0.3

    def __post_init__(self):
        if self.recipe not in ("mini", "full"):
            raise ValueError(f"unknown dataset recipe {self.recipe!r}")
        if not 0.0 <= self.hrf_spread < 1.0:
            raise ValueError("hrf_spread must lie in [0, 1)")

    @property
    def n_times(self) -> int:
        return synthgen.MINI_N_TIMES if self.recipe == "mini" else synthgen.FULL_N_TIMES

    @property
    def tr(self) -> float:
        return synthgen.MINI_TR if self.recipe == "mini" else synthgen.FULL_TR

    @property
    def conditions(self) -> tuple:
        if self.recipe == "mini":
            return synthgen.MINI_CONDITIONS
        return synthgen.FULL_CONDITIONS


@dataclass(frozen=True)
class ExperimentConfig:
    k: int
    seed: int = 0
    conditions: tuple = ()
    thetas: tuple | None = None
    phis: tuple | None = None
    c_delta: float | str = "auto"
    c_d: float = 1.0
    epsilon: float = 1e-6
    solver: SolverConfig = SolverConfig()
    init: InitConfig = InitConfig()
    dataset: DatasetConfig = DatasetConfig()
    alternate_hrf_spread: float | None = None
    alternate_hrf_seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if (self.thetas is None) == (self.phis is None):
            raise ValueError("give exactly one of sparsity.theta or sparsity.phi")
        if isinstance(self.c_delta, str):
            if self.c_delta != "auto":
                raise ValueError("c_delta must be a number or 'auto'")
        elif self.c_delta < 0:
            raise ValueError("c_delta must be non-negative")
        if self.c_d <= 0 or self.epsilon <= 0:
            raise ValueError("c_d and epsilon must be positive")

    def resolved_conditions(self) -> tuple:
        """Explicit conditions, else those fixed by the dataset recipe."""
        return self.conditions if self.conditions else self.dataset.conditions

    def alternate_hrf(self) -> TwoGammaParams:
        if self.alternate_hrf_spread is None:
            return default_alternate_hrf()
        rng = np.random.default_rng(self.alternate_hrf_seed)
        return sample_hrf(rng, self.alternate_hrf_spread)

    def resolve_thetas(self) -> np.ndarray:
        """Full-length sparsity percentages.

        A theta vector shorter than k covers the assisted sources only;
        the free entries are filled with a ladder from 99 down to 80 plus
        a dense tail (70, 10, 0).
        """
        if self.thetas is None:
            raise ValueError("config specifies budgets directly; no thetas")
        thetas = list(self.thetas)
        if len(thetas) == self.k:
            return np.asarray(thetas, dtype=float)
        free = self.k - len(thetas)
        if free < 0:
            raise ValueError(f"{len(thetas)} sparsity values for k={self.k}")
        tail = [70.0, 10.0, 0.0]
        if free >= 4:
            ladder = list(np.linspace(99.0, 80.0, free - 3)) + tail
        else:
            ladder = tail[-free:] if free else []
        return np.asarray(thetas + ladder, dtype=float)

    def resolve_phis(self, n_voxels: int) -> np.ndarray:
        """Per-row budgets against a concrete voxel count."""
        if self.phis is not None:
            phis = np.asarray(self.phis, dtype=float)
            if phis.size != self.k:
                raise ValueError(f"sparsity.phi needs exactly {self.k} entries")
            return phis
        return np.array([phi_from_theta(t, n_voxels) for t in self.resolve_thetas()])


def _section(raw, key, expected_type=dict):
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, expected_type):
        raise ValueError(f"config section {key!r} must be a {expected_type.__name__}")
    return value


def _build_conditions(entries):
    conditions = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "onsets" not in entry or "durations" not in entry:
            raise ValueError(f"assisted condition {i} needs 'onsets' and 'durations'")
        conditions.append(
            ConditionSpec(
                onsets=tuple(entry["onsets"]),
                durations=tuple(entry["durations"]),
                amplitude=float(entry.get("amplitude", 1.0)),
            )
        )
    return tuple(conditions)


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration document."""
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    if "k" not in raw:
        raise ValueError(f"{path}: missing required key 'k'")

    sparsity = _section(raw, "sparsity")
    thetas = sparsity.get("theta")
    phis = sparsity.get("phi")

    solver_kwargs = _section(raw, "solver")
    init_kwargs = _section(raw, "init")
    if "rng_seed" in init_kwargs:
        raise ValueError(f"{path}: init.rng_seed is not read; set the top-level 'seed' instead")
    dataset_kwargs = _section(raw, "dataset")
    alt = _section(raw, "alternate_hrf")

    assisted = raw.get("assisted", [])
    if not isinstance(assisted, list):
        raise ValueError(f"{path}: 'assisted' must be a list of conditions")

    try:
        return ExperimentConfig(
            k=int(raw["k"]),
            seed=int(raw.get("seed", 0)),
            conditions=_build_conditions(assisted),
            thetas=tuple(thetas) if thetas is not None else None,
            phis=tuple(phis) if phis is not None else None,
            c_delta=raw.get("c_delta", "auto"),
            c_d=float(raw.get("c_d", 1.0)),
            epsilon=float(raw.get("epsilon", 1e-6)),
            solver=SolverConfig(**solver_kwargs),
            init=InitConfig(**init_kwargs),
            dataset=DatasetConfig(**dataset_kwargs),
            alternate_hrf_spread=alt.get("spread"),
            alternate_hrf_seed=int(alt.get("seed", 0)),
        )
    except TypeError as err:
        raise ValueError(f"{path}: {err}") from err


def save_metrics(reports: dict, path) -> None:
    """Serialize one or more match reports plus a flat per-source table.

    ``reports`` maps mode name to (MatchReport, kinds). Writes JSON at
    ``path`` and a companion ``.csv`` with one row per true source.
    """
    path = Path(path)
    doc = {}
    kinds = None
    for mode, (report, mode_kinds) in reports.items():
        kinds = mode_kinds
        doc[mode] = {
            "mapping": {str(i): j for i, j in sorted(report.mapping.items())},
            "r_full": [float(v) for v in report.r_full],
            "r_time": [float(v) for v in report.r_time],
            "summaries": report.summaries,
        }
    path.write_text(json.dumps(doc, indent=2) + "\n")

    first = next(iter(reports.values()))[0]
    lines = ["true_index,kind,matched_estimate,r_full,r_time"]
    for i in range(first.r_full.size):
        est = first.mapping.get(i, -1)
        kind = kinds[i] if kinds else "unknown"
        lines.append(
            f"{i},{kind},{est},{first.r_full[i]:.10g},{first.r_time[i]:.10g}"
        )
    path.with_suffix(".csv").write_text("\n".join(lines) + "\n")
