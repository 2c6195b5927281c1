"""File formats, experiment configuration, and artifact manifests.

Matrices travel in one format, a small checked binary container (magic
``IADL``, version, row and column counts, little-endian float64 payload),
whatever the file's extension. Experiment configs are YAML documents
validated into typed objects; a key the schema does not know, or a number
of the wrong kind or out of its range, is refused with the file and the
key named.
Every simulated, initialized or fitted artifact directory carries a
manifest with content checksums, so a start or a fit is refused against
data other than its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .hrf import ConditionSpec
from .initializer import InitConfig
from .solver import SolverConfig
from .types import phi_from_theta
from . import synthgen

MAGIC = b"IADL"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHII")
# sha256_file hashes a file in reads of this size, not all at once.
_HASH_CHUNK = 1 << 20


class MatrixFileError(ValueError):
    pass


def save_matrix(values, path) -> None:
    """Write a matrix in the binary container."""
    path = Path(path)
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 2:
        raise MatrixFileError(f"expected a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError("refusing to write non-finite values")
    with path.open("wb") as handle:
        handle.write(_HEADER.pack(MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1]))
        handle.write(arr)


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    return _parse_matrix(path.read_bytes(), path)


def _load_matrix_and_digest(path) -> tuple[np.ndarray, str]:
    """``load_matrix(path)`` and ``sha256_file(path)`` from one read."""
    path = Path(path)
    raw = path.read_bytes()
    return _parse_matrix(raw, path), hashlib.sha256(raw).hexdigest()


def _parse_matrix(raw: bytes, path) -> np.ndarray:
    """The matrix in the container bytes ``raw`` read from ``path``."""
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
    """The file's SHA-256, read ``_HASH_CHUNK`` bytes at a time."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            digest.update(chunk)
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
    recipe: str = synthgen.DEFAULT_RECIPE
    snr_db: float = 0.0
    hrf_spread: float = 0.3

    @property
    def n_times(self) -> int:
        return synthgen.RECIPES[self.recipe].n_times

    @property
    def tr(self) -> float:
        return synthgen.RECIPES[self.recipe].tr

    @property
    def conditions(self) -> tuple:
        return synthgen.RECIPES[self.recipe].conditions


@dataclass(frozen=True)
class ExperimentConfig:
    k: int
    thetas: tuple
    seed: int = 0
    conditions: tuple = ()
    c_delta: float | str = "auto"
    c_d: float = 1.0
    epsilon: float = 1e-6
    solver: SolverConfig = SolverConfig()
    init: InitConfig = InitConfig()
    dataset: DatasetConfig = DatasetConfig()

    def __post_init__(self):
        # the one seed: it also seeds the initializer's ICA start
        object.__setattr__(self, "init", replace(self.init, rng_seed=self.seed))

    def resolved_conditions(self) -> tuple:
        """Explicit conditions, else those fixed by the dataset recipe."""
        return self.conditions if self.conditions else self.dataset.conditions

    def resolve_thetas(self) -> np.ndarray:
        """Full-length sparsity percentages.

        A theta vector shorter than k covers the assisted sources only;
        the free entries are filled with a ladder from 99 down to 80 plus
        a dense tail (70, 10, 0); three or fewer free atoms get the tail's
        last entries.
        """
        free = self.k - len(self.thetas)
        ladder = list(np.linspace(99.0, 80.0, max(free - 3, 0)))
        ladder += [70.0, 10.0, 0.0][max(3 - free, 0):]
        return np.asarray(list(self.thetas) + ladder, dtype=float)

    def resolve_phis(self, n_voxels: int) -> np.ndarray:
        """Per-row budgets against a concrete voxel count."""
        return np.array([phi_from_theta(t, n_voxels) for t in self.resolve_thetas()])


def _refuse_unknown(path, mapping, known, where=""):
    """A key the schema does not know would leave its setting at the
    default without a word, so it is refused."""
    for key in mapping:
        if key not in known:
            raise ValueError(f"{path}: unknown config key '{where}{key}'")


def _integer(path, key, value, least=None) -> int:
    """A YAML integer, at least ``least`` if given; a float or a boolean
    would be truncated or counted as 0 or 1 without a word."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: config key {key!r} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{path}: config key {key!r} must be at least {least}, got {value!r}")
    return value


def _real(path, key, value) -> float:
    """``float(value)``, which also reads the strings PyYAML leaves
    exponents such as ``1e-8`` in (it takes them as floats only with a
    dot); a boolean or NaN is refused."""
    number = math.nan
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
    if math.isnan(number):
        raise ValueError(f"{path}: config key {key!r} must be a number, got {value!r}")
    return number


def _real_in(accepts, words):
    """A ``_real`` rule that also refuses a number ``accepts`` rejects,
    saying the key must be ``words``."""
    def rule(path, key, value) -> float:
        number = _real(path, key, value)
        if not accepts(number):
            raise ValueError(f"{path}: config key {key!r} must be {words}, got {value!r}")
        return number
    return rule


_positive = _real_in(lambda v: v > 0, "positive")
_non_negative = _real_in(lambda v: v >= 0, "non-negative")
# +inf simulates noise-free data
_snr_db = _real_in(lambda v: v != -math.inf, "a real number or +inf")
_hrf_spread = _real_in(lambda v: 0 <= v < 1, "in [0, 1)")
_percent = _real_in(lambda v: 0 <= v <= 100, "in [0, 100]")


def _reals(path, key, values, rule=_real) -> tuple:
    """A YAML list, each entry read by ``rule``."""
    if not isinstance(values, list):
        raise ValueError(f"{path}: config key {key!r} must be a list of numbers")
    return tuple(rule(path, f"{key}[{i}]", v) for i, v in enumerate(values))


def _recipe(path, key, value) -> str:
    if not isinstance(value, str) or value not in synthgen.RECIPES:
        names = " or ".join(repr(name) for name in synthgen.RECIPES)
        raise ValueError(f"{path}: config key {key!r} must be {names}, got {value!r}")
    return value


def _c_delta(path, key, value):
    return value if value == "auto" else _non_negative(path, key, value)


def _conditions(path, key, entries) -> tuple:
    if not isinstance(entries, list):
        raise ValueError(f"{path}: '{key}' must be a list of conditions")
    conditions = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "onsets" not in entry or "durations" not in entry:
            raise ValueError(f"{path}: assisted condition {i} needs 'onsets' and 'durations'")
        where = f"{key}[{i}]"
        _refuse_unknown(path, entry, ("onsets", "durations"), f"{where}.")
        onsets = _reals(path, f"{where}.onsets", entry["onsets"])
        durations = _reals(path, f"{where}.durations", entry["durations"])
        try:
            conditions.append(ConditionSpec(onsets, durations))
        except ValueError as err:
            raise ValueError(
                f"{path}: config key '{where}' must be a valid condition: {err}"
            ) from err
    return tuple(conditions)


# Every key a config file may set, by its dotted name, and the rule that
# reads it. A section's keys fill the fields of the section's dataclass, and
# a key the file leaves out keeps its field's default.
_SCHEMA = {
    "seed": partial(_integer, least=0),
    "k": partial(_integer, least=1),
    "assisted": _conditions,
    "sparsity.theta": partial(_reals, rule=_percent),
    "c_delta": _c_delta,
    "c_d": _positive,
    "epsilon": _positive,
    "dataset.recipe": _recipe,
    "dataset.snr_db": _snr_db,
    "dataset.hrf_spread": _hrf_spread,
    "solver.max_iters": partial(_integer, least=1),
    "solver.rel_obj_tol": _non_negative,
    "init.refine_iters": partial(_integer, least=0),
}
# The ExperimentConfig fields of the keys not named after theirs.
_FIELDS = {"assisted": "conditions", "sparsity.theta": "thetas"}
_SECTIONS = {"dataset": DatasetConfig, "solver": SolverConfig, "init": InitConfig}


def _dotted(path, raw) -> dict:
    """The document's settings by dotted key, each section flattened into
    its keys; an empty section sets none."""
    _refuse_unknown(path, raw, {key.partition(".")[0] for key in _SCHEMA})
    flat = {}
    for key, value in raw.items():
        if key in _SCHEMA:
            flat[key] = value
        elif value is not None:
            if not isinstance(value, dict):
                raise ValueError(f"{path}: config section {key!r} must be a mapping")
            flat.update((f"{key}.{name}", v) for name, v in value.items())
    return flat


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration document."""
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a mapping")
    settings = _dotted(path, raw)
    if "init.rng_seed" in settings:
        raise ValueError(f"{path}: init.rng_seed is not read; set the top-level 'seed' instead")
    _refuse_unknown(path, settings, _SCHEMA)
    for key in ("k", "sparsity.theta"):
        if key not in settings:
            raise ValueError(f"{path}: missing required key {key!r}")
    top, nested = {}, {name: {} for name in _SECTIONS}
    for key, value in settings.items():
        section, _, name = _FIELDS.get(key, key).rpartition(".")
        (nested[section] if section else top)[name] = _SCHEMA[key](path, key, value)
    config = ExperimentConfig(
        **top, **{name: cls(**nested[name]) for name, cls in _SECTIONS.items()}
    )
    # A list shorter than k gives the assisted atoms theirs, one per condition.
    k, given, assisted_count = config.k, len(config.thetas), len(config.resolved_conditions())
    if given not in (k, min(assisted_count, k)):
        raise ValueError(
            f"{path}: config key 'sparsity.theta' must be k = {k} thetas, or one per "
            f"assisted condition ({assisted_count}) when fewer, got {given}"
        )
    return config


def save_metrics(reports: dict, path, kinds) -> None:
    """Serialize one or more match reports plus a flat per-source table.

    ``reports`` maps mode name to MatchReport, and ``kinds`` labels the true
    sources they score. Writes JSON at ``path`` and a companion ``.csv``
    with one row per true source, read off the first report.
    """
    path = Path(path)
    doc = {}
    for mode, report in reports.items():
        doc[mode] = {
            "mapping": {str(i): j for i, j in sorted(report.mapping.items())},
            "r_full": [float(v) for v in report.r_full],
            "r_time": [float(v) for v in report.r_time],
            "summaries": report.summaries,
        }
    path.write_text(json.dumps(doc, indent=2) + "\n")

    first = next(iter(reports.values()))
    lines = ["true_index,kind,matched_estimate,r_full,r_time"]
    for i in range(first.r_full.size):
        est = first.mapping.get(i, -1)
        lines.append(
            f"{i},{kinds[i]},{est},{first.r_full[i]:.10g},{first.r_time[i]:.10g}"
        )
    path.with_suffix(".csv").write_text("\n".join(lines) + "\n")
