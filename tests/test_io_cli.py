import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadl import io as iadl_io
from iadl.cli import main
from iadl.hrf import canonical_params, estimate_c_delta
from iadl.initializer import initialize
from iadl.io import (
    _SCHEMA,
    ExperimentConfig,
    MatrixFileError,
    load_config,
    load_matrix,
    read_manifest,
    save_matrix,
    sha256_file,
    verify_manifest,
    write_manifest,
)
from iadl.synthgen import RECIPES
from iadl.types import ConstraintSpec, DataMatrix, TaskTimeCourses

MINI_CONFIG = """
seed: 7
k: 8
sparsity:
  theta: [95, 94]
c_delta: auto
dataset:
  recipe: mini
  snr_db: 0.0
  hrf_spread: 0.3
solver:
  max_iters: 12
  rel_obj_tol: 0.0
init:
  refine_iters: 3
"""


@pytest.fixture
def mini_config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(MINI_CONFIG)
    return path


# -- matrix files -----------------------------------------------------------------


def test_binary_round_trip_exact(tmp_path, rng):
    m = rng.standard_normal((7, 5))
    path = tmp_path / "m.iadl"
    save_matrix(m, path)
    back = load_matrix(path)
    np.testing.assert_array_equal(back, m)


@pytest.mark.parametrize(
    "make",
    [lambda r: r.standard_normal((7, 5)), lambda r: r.standard_normal((5, 7)).T,
     lambda r: r.standard_normal((1, 1))],
    ids=["contiguous", "transposed_view", "one_by_one"],
)
def test_saved_file_is_header_then_payload_and_hashes_in_chunks(tmp_path, rng, monkeypatch, make):
    m = make(rng)
    path = tmp_path / "m.iadl"
    save_matrix(m, path)
    header = struct.pack("<4sHII", b"IADL", 1, *m.shape)
    assert path.read_bytes() == header + np.ascontiguousarray(m).tobytes()
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert sha256_file(path) == expected
    # reads shorter than the file, the last one partial
    monkeypatch.setattr(iadl_io, "_HASH_CHUNK", 7)
    assert sha256_file(path) == expected


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "1,2\n3\n", "a,1\n2,3\n", "1,2\n3,4\n", "1.5,2.25,3\n4,5,6\n7,8,9\n"],
    ids=["empty", "blank", "ragged", "text", "numeric", "numeric_long"],
)
def test_corrupt_csv_rejected(tmp_path, text):
    # The binary container is the only matrix format, whatever the file's
    # extension: comma-separated text, well-formed or not, is refused.
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(MatrixFileError, match="m.csv"):
        load_matrix(path)


def test_truncated_payload_rejected(tmp_path, rng):
    path = tmp_path / "m.iadl"
    save_matrix(rng.standard_normal((4, 4)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(MatrixFileError, match="truncated payload"):
        load_matrix(path)


def test_bad_magic_rejected(tmp_path, rng):
    path = tmp_path / "m.iadl"
    save_matrix(rng.standard_normal((2, 2)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(MatrixFileError, match="bad magic"):
        load_matrix(path)


def test_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "m.iadl"
    save_matrix(rng.standard_normal((2, 2)), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(MatrixFileError, match="trailing"):
        load_matrix(path)


def test_non_finite_values_rejected(tmp_path):
    with pytest.raises(MatrixFileError):
        save_matrix(np.array([[1.0, np.nan]]), tmp_path / "m.iadl")


# Container layout: magic (4 bytes), version (uint16 at byte 4), rows and
# columns (uint32 at bytes 6 and 10), then the float64 payload at byte 14.
_HEADER_BYTES = 14


@st.composite
def mutated_matrix_files(draw):
    """A saved matrix's bytes with one mutation, and the array the mutated
    file still describes (None when it describes none)."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, cols))
    raw = bytearray(struct.pack("<4sHII", b"IADL", 1, rows, cols) + values.tobytes())
    kind = draw(st.sampled_from(["truncate", "version", "shape", "non_finite"]))
    expected = None
    if kind == "truncate":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif kind == "version":
        version = st.one_of(st.integers(0, 8), st.integers(0, 2**16 - 1)).filter(lambda v: v != 1)
        struct.pack_into("<H", raw, 4, draw(version))
    elif kind == "shape":
        count = st.one_of(st.integers(0, 30), st.integers(0, 2**32 - 1))
        r, c = draw(count), draw(count)
        struct.pack_into("<II", raw, 6, r, c)
        if r * c == values.size:
            expected = values.reshape(r, c)
    else:
        where = _HEADER_BYTES + 8 * draw(st.integers(0, values.size - 1))
        struct.pack_into("<d", raw, where, draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    return bytes(raw), expected


@settings(max_examples=300, deadline=None)
@given(mutated_matrix_files())
@example((struct.pack("<4sHII", b"IADL", 1, 2**32 - 1, 2**32 - 1) + bytes(8), None))
@example((struct.pack("<4sHII", b"IADL", 1, 0, 2**32 - 1) + bytes(8), None))
@example((struct.pack("<4sHII", b"IADL", 1, 1, 1) + struct.pack("<d", -np.inf), None))
def test_mutated_matrix_file_loads_exactly_or_raises_matrix_file_error(
    tmp_path_factory, mutated
):
    # A mutated file loads to the array its bytes describe (a reshape whose
    # counts keep the payload size) or fails with a MatrixFileError naming
    # the file; no other exception escapes.
    raw, expected = mutated
    path = tmp_path_factory.mktemp("fuzz") / "m.iadl"
    path.write_bytes(raw)
    if expected is None:
        with pytest.raises(MatrixFileError, match=re.escape(str(path))):
            load_matrix(path)
    else:
        np.testing.assert_array_equal(load_matrix(path), expected)


# -- manifests ---------------------------------------------------------------------


def test_manifest_round_trip_and_tamper_detection(tmp_path, rng):
    save_matrix(rng.standard_normal((3, 3)), tmp_path / "a.iadl")
    write_manifest(tmp_path, ["a.iadl"], extra={"note": "test"})
    verify_manifest(tmp_path)
    assert read_manifest(tmp_path)["note"] == "test"
    save_matrix(rng.standard_normal((3, 3)), tmp_path / "a.iadl")
    with pytest.raises(ValueError, match="checksum"):
        verify_manifest(tmp_path)


@pytest.mark.parametrize(
    "name_of",
    [lambda root: "../outside.yaml", lambda root: str(root / "outside.yaml"),
     lambda root: "sub/inner.iadl"],
    ids=["parent", "absolute", "subdirectory"],
)
def test_manifest_refuses_names_outside_its_directory(tmp_path, name_of):
    # a listed file with its correct digest would otherwise be vouched for
    bundle = tmp_path / "bundle"
    (bundle / "sub").mkdir(parents=True)
    (tmp_path / "outside.yaml").write_text("k: 2\n")
    (bundle / "sub" / "inner.iadl").write_text("inner\n")
    listed = name_of(tmp_path)
    write_manifest(bundle, [listed])
    message = f"{bundle / 'manifest.json'}: listed name {listed!r} is not a file in {bundle}"
    for read in (read_manifest, verify_manifest):
        with pytest.raises(ValueError, match=re.escape(message)):
            read(bundle)


def _evaluate_inputs(tmp_path, rng):
    """A truth and a fit directory that pass every check before scoring."""
    truth, fit = tmp_path / "truth", tmp_path / "fit"
    truth.mkdir()
    fit.mkdir()
    save_matrix(rng.standard_normal((3, 4)), truth / "x.iadl")
    write_manifest(truth, ["x.iadl"])
    resolved = {"data_checksum": sha256_file(truth / "x.iadl"), "assisted_count": 0}
    (fit / "resolved.json").write_text(json.dumps(resolved))
    write_manifest(fit, ["resolved.json"])
    return truth, fit


def _drop_data_checksum(truth, fit):
    (fit / "resolved.json").write_text(json.dumps({"assisted_count": 0}))
    write_manifest(fit, ["resolved.json"])


@pytest.mark.parametrize(
    "corrupt, named_file, named_key",
    [
        (lambda truth, fit: (truth / "manifest.json").write_text("{}\n"),
         "manifest.json", "'checksums'"),
        (lambda truth, fit: (truth / "manifest.json").write_text('{"checksums": ["x.iadl"]}'),
         "manifest.json", "'checksums'"),
        (lambda truth, fit: (truth / "manifest.json").write_text("not json\n"),
         "manifest.json", "not valid JSON"),
        (_drop_data_checksum, "resolved.json", "'data_checksum'"),
        (lambda truth, fit: (truth / "x.iadl").unlink(), "manifest.json", "'x.iadl'"),
    ],
    ids=["missing_checksums", "checksums_list", "not_json", "resolved_lacks_checksum",
         "listed_file_absent"],
)
def test_cli_evaluate_names_corrupt_file_and_key(
    tmp_path, rng, capsys, corrupt, named_file, named_key
):
    truth, fit = _evaluate_inputs(tmp_path, rng)
    corrupt(truth, fit)
    code = main(["evaluate", "--truth", str(truth), "--fit", str(fit),
                 "--out", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert named_file in err and named_key in err
    if named_file == "manifest.json":
        with pytest.raises(ValueError, match=named_key):
            verify_manifest(truth)


def test_cli_evaluate_refuses_a_truth_that_lists_no_data(tmp_path, rng, capsys):
    # a truth bundle that vouches for no x.iadl cannot tie a fit to its data
    truth, fit = _evaluate_inputs(tmp_path, rng)
    write_manifest(truth, [])
    code = main(["evaluate", "--truth", str(truth), "--fit", str(fit),
                 "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {truth / 'manifest.json'}: key 'checksums' lists no 'x.iadl'\n"
    )
    assert not (tmp_path / "m.json").exists()


# -- config ------------------------------------------------------------------------


def test_config_loads_and_expands_theta_ladder(mini_config_path):
    config = load_config(mini_config_path)
    assert config.k == 8
    thetas = config.resolve_thetas()
    assert thetas.size == 8
    np.testing.assert_allclose(thetas[:2], [95.0, 94.0])
    np.testing.assert_allclose(thetas[-3:], [70.0, 10.0, 0.0])
    # the ladder between runs from 99 down to 80
    assert thetas[2] == pytest.approx(99.0)
    assert thetas[4] == pytest.approx(80.0)
    phis = config.resolve_phis(1600)
    np.testing.assert_allclose(phis[:2], [80.0, 96.0])


def test_config_seed_seeds_the_initializer(mini_config_path):
    # one seed: the initializer reads the top-level one, also once replaced
    config = load_config(mini_config_path)
    assert config.seed == 7 and config.init.rng_seed == 7
    assert replace(config, seed=3).init.rng_seed == 3


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resolve_thetas_keeps_the_prefix_and_fills_a_falling_ladder(data):
    k = data.draw(st.integers(1, 64))
    prefix = tuple(data.draw(st.lists(st.floats(0.0, 100.0), max_size=k)))
    thetas = ExperimentConfig(k=k, thetas=prefix).resolve_thetas()
    assert thetas.shape == (k,)
    assert tuple(thetas[: len(prefix)]) == prefix
    free = thetas[len(prefix):]
    assert np.all(np.diff(free) <= 0)
    assert np.all((free >= 0) & (free <= 100))
    # the last free atom is the fully dense one
    assert free.size == 0 or free[-1] == 0.0


@pytest.mark.parametrize(
    "k, prefix, expected",
    [
        (8, (95.0, 94.0), [95.0, 94.0, 99.0, 89.5, 80.0, 70.0, 10.0, 0.0]),
        (12, (95.0, 94.0),
         [95.0, 94.0, 99.0, 95.83333333333333, 92.66666666666667, 89.5, 86.33333333333333,
          83.16666666666667, 80.0, 70.0, 10.0, 0.0]),
        (20, (95.28, 91.60, 94.57),
         [95.28, 91.6, 94.57, 99.0, 97.53846153846153, 96.07692307692308, 94.61538461538461,
          93.15384615384616, 91.6923076923077, 90.23076923076923, 88.76923076923077,
          87.3076923076923, 85.84615384615384, 84.38461538461539, 82.92307692307692,
          81.46153846153847, 80.0, 70.0, 10.0, 0.0]),
    ],
    ids=["mini_k8", "mini_k12", "full_k20"],
)
def test_resolve_thetas_of_the_benchmark_shapes(k, prefix, expected):
    # the budgets the benchmark's fits run under, bit for bit
    assert ExperimentConfig(k=k, thetas=prefix).resolve_thetas().tolist() == expected


_BUDGET = "k: 2\nsparsity:\n  theta: [95, 90]\n"


def _assert_commands_refuse(path, key, capsys):
    """tune-cdelta and simulate refuse the config at ``path`` with one line
    naming the file and ``key``; simulate writes nothing first."""
    data = path.parent / "data"
    for argv in (["tune-cdelta", "--config", path], ["simulate", "--config", path, "--out", data]):
        assert main([str(a) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(path) in err and key in err
    assert not data.exists()


def test_config_requires_some_sparsity(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("k: 3\n")
    message = f"{path}: missing required key 'sparsity.theta'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)
    _assert_commands_refuse(path, "'sparsity.theta'", capsys)


def test_config_rejects_unknown_recipe(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("k: 3\nsparsity:\n  theta: [95, 95, 95]\ndataset:\n  recipe: huge\n")
    message = f"{path}: config key 'dataset.recipe' must be 'mini' or 'full'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)
    _assert_commands_refuse(path, "'dataset.recipe'", capsys)


def test_config_rejects_a_recipe_that_is_not_a_name(tmp_path):
    # a YAML list is not a key of the recipe table
    path = tmp_path / "bad.yaml"
    path.write_text("k: 3\nsparsity:\n  theta: [95, 95, 95]\ndataset:\n  recipe: [mini]\n")
    message = f"{path}: config key 'dataset.recipe' must be 'mini' or 'full', got ['mini']"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)


def _recipe_config(tmp_path, name):
    """``MINI_CONFIG`` with the recipe ``name`` and a theta per condition."""
    recipe = RECIPES[name]
    thetas = ", ".join("95" for _ in recipe.conditions)
    path = tmp_path / f"{name}.yaml"
    path.write_text(MINI_CONFIG.replace("recipe: mini", f"recipe: {name}")
                    .replace("k: 8", f"k: {len(recipe.specs)}")
                    .replace("theta: [95, 94]", f"theta: [{thetas}]"))
    return path


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_config_reads_the_recipe_record(tmp_path, name):
    recipe = RECIPES[name]
    config = load_config(_recipe_config(tmp_path, name))
    assert config.dataset.recipe == name
    assert config.dataset.n_times == recipe.n_times
    assert config.dataset.tr == recipe.tr
    assert config.dataset.conditions == recipe.conditions


def test_config_without_a_recipe_reads_the_default_record(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("k: 8\nsparsity:\n  theta: [95, 94]\n")
    config = load_config(path)
    assert config.dataset.recipe == "mini"
    assert config.dataset.conditions == RECIPES["mini"].conditions


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_config_without_an_snr_takes_the_recipes(tmp_path, name):
    path = _recipe_config(tmp_path, name)
    path.write_text(path.read_text().replace("  snr_db: 0.0\n", ""))
    assert load_config(path).dataset.snr_db == RECIPES[name].snr_db


def test_cli_simulate_records_the_recipes_snr(tmp_path):
    # the mini recipe's 10 dB, not 0 dB, when the config names no SNR
    config = tmp_path / "c.yaml"
    config.write_text(MINI_CONFIG.replace("  snr_db: 0.0\n", ""))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    assert json.loads((data / "meta.json").read_text())["snr_db"] == 10.0 == RECIPES["mini"].snr_db


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_cli_simulate_writes_the_recipe_record(tmp_path, name):
    recipe = RECIPES[name]
    data = tmp_path / "data"
    config = _recipe_config(tmp_path, name)
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    meta = json.loads((data / "meta.json").read_text())
    assert meta["recipe"] == name
    assert meta["grid"] == list(recipe.grid)
    assert meta["tr"] == recipe.tr
    n_voxels = recipe.grid[0] * recipe.grid[1]
    assert load_matrix(data / "x.iadl").shape == (recipe.n_times, n_voxels)
    courses = load_matrix(data / "task_courses.iadl")
    assert courses.shape == (recipe.n_times, len(recipe.conditions))
    assert meta["assisted_indices"] == [
        j for j, spec in enumerate(recipe.specs) if spec.condition is not None
    ]


def test_config_short_theta_list_counts_the_assisted_conditions(tmp_path):
    # the full recipe has three conditions, so three thetas cover them and
    # the ladder fills the other 17 atoms; two thetas cover neither
    assert len(RECIPES["full"].conditions) == 3
    path = tmp_path / "c.yaml"
    path.write_text("k: 20\nsparsity:\n  theta: [95, 94, 93]\ndataset:\n  recipe: full\n")
    thetas = load_config(path).resolve_thetas().tolist()
    assert len(thetas) == 20 and thetas[:4] == [95.0, 94.0, 93.0, 99.0]
    path.write_text("k: 20\nsparsity:\n  theta: [95, 94]\ndataset:\n  recipe: full\n")
    message = f"{path}: config key 'sparsity.theta' must be k = 20 thetas, or one per"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)


def test_config_rejects_removed_solver_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("k: 3\nsparsity:\n  theta: [95, 95, 95]\nsolver:\n  spectral_safety: 1.05\n")
    with pytest.raises(ValueError, match="spectral_safety"):
        load_config(path)


@pytest.mark.parametrize(
    "text, key",
    [
        (_BUDGET + "epsilom: 1.0e-3\n", "'epsilom'"),
        (_BUDGET + "solvr:\n  max_iters: 3\n", "'solvr'"),
        (_BUDGET + "alternate_hrf:\n  spread: 0.3\n  seed: 123\n", "'alternate_hrf'"),
        ("k: 2\nsparsity:\n  theta: [95, 90]\n  thetas: [95]\n", "'sparsity.thetas'"),
        ("k: 2\nsparsity:\n  phi: [12, 30]\n", "'sparsity.phi'"),
        # the design is the recipe's; a config states no second one
        (_BUDGET + "assisted:\n  - onsets: [10]\n    durations: [6]\n", "'assisted'"),
        (_BUDGET + "solver:\n  maxiters: 3\n", "'solver.maxiters'"),
        (_BUDGET + "init:\n  merge_corr_threshold: 0.95\n", "'init.merge_corr_threshold'"),
        (_BUDGET + "dataset:\n  snr: 3.0\n", "'dataset.snr'"),
    ],
    ids=["top_level", "section_name", "alternate_hrf", "sparsity", "sparsity_phi", "assisted",
         "solver", "init", "dataset"],
)
def test_config_refuses_unknown_key(tmp_path, capsys, text, key):
    # a misspelt key would otherwise leave its setting at the default
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown config key {key}")):
        load_config(path)
    _assert_commands_refuse(path, key, capsys)


@pytest.mark.parametrize(
    "text, key",
    [
        ("k: 2.7\nsparsity:\n  theta: [95, 90]\n", "'k'"),
        ("k: true\nsparsity:\n  theta: [95]\n", "'k'"),
        (_BUDGET + "seed: 1.9\n", "'seed'"),
        (_BUDGET + "solver:\n  max_iters: 2.5\n", "'solver.max_iters'"),
        (_BUDGET + "solver:\n  max_iters: true\n", "'solver.max_iters'"),
        (_BUDGET + "init:\n  refine_iters: 1.0\n", "'init.refine_iters'"),
        (_BUDGET + "solver:\n  rel_obj_tol: tiny\n", "'solver.rel_obj_tol'"),
        (_BUDGET + "dataset:\n  snr_db: loud\n", "'dataset.snr_db'"),
        (_BUDGET + "c_delta: wide\n", "'c_delta'"),
        (_BUDGET + "c_d: yes\n", "'c_d'"),
        (_BUDGET + "epsilon: .nan\n", "'epsilon'"),
        ("k: 2\nsparsity:\n  theta: [95, many]\n", "'sparsity.theta[1]'"),
        ("k: 0\nsparsity:\n  theta: [95]\n", "'k'"),
        (_BUDGET + "seed: -1\n", "'seed'"),
        (_BUDGET + "dataset:\n  snr_db: -.inf\n", "'dataset.snr_db'"),
        (_BUDGET + "solver:\n  max_iters: 0\n", "'solver.max_iters'"),
        (_BUDGET + "solver:\n  rel_obj_tol: -1.0e-8\n", "'solver.rel_obj_tol'"),
        (_BUDGET + "init:\n  refine_iters: -1\n", "'init.refine_iters'"),
        (_BUDGET + "dataset:\n  hrf_spread: 1.5\n", "'dataset.hrf_spread'"),
        (_BUDGET + "dataset:\n  hrf_spread: -0.1\n", "'dataset.hrf_spread'"),
        (_BUDGET + "c_d: -1\n", "'c_d'"),
        (_BUDGET + "epsilon: 0\n", "'epsilon'"),
        (_BUDGET + "c_delta: -1\n", "'c_delta'"),
        ("k: 2\nsparsity:\n  theta: [150, 95]\n", "'sparsity.theta[0]'"),
        ("k: 2\nsparsity:\n  theta: [95, .inf]\n", "'sparsity.theta[1]'"),
        ("k: 2\nsparsity:\n  theta: [95, 94, 93]\n", "'sparsity.theta'"),
        ("k: 8\nsparsity:\n  theta: [95]\n", "'sparsity.theta'"),
        (_BUDGET + "epsilon: .inf\n", "'epsilon'"),
        (_BUDGET + "c_d: .inf\n", "'c_d'"),
        (_BUDGET + "c_delta: .inf\n", "'c_delta'"),
        (_BUDGET + "solver:\n  rel_obj_tol: .inf\n", "'solver.rel_obj_tol'"),
        ("k: 2\nsparsity:\n  theta: 95\n", "'sparsity.theta'"),
    ],
    ids=["k_float", "k_bool", "seed_float", "max_iters_float", "max_iters_bool",
         "refine_iters_float", "rel_obj_tol", "snr_db", "c_delta", "c_d_bool", "epsilon_nan",
         "phi_entry", "k_zero", "seed_negative", "snr_db_minus_inf",
         "max_iters_zero", "rel_obj_tol_negative", "refine_iters_negative",
         "hrf_spread_one_and_a_half", "hrf_spread_negative", "c_d_negative", "epsilon_zero",
         "c_delta_negative", "theta_out_of_range",
         "theta_inf", "theta_too_many", "theta_short_list_wrong_length", "epsilon_inf",
         "c_d_inf", "c_delta_inf", "rel_obj_tol_inf", "theta_not_a_list"],
)
def test_config_refuses_bad_number(tmp_path, capsys, text, key):
    # a float count would be truncated and a boolean read as 0 or 1; a
    # string would fail later, inside the code that compares it; a number
    # out of range would fail, if at all, without the file and the key
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: config key {key} must be")):
        load_config(path)
    _assert_commands_refuse(path, key, capsys)


@pytest.mark.parametrize(
    "text, named",
    [
        ("- k: 2\n- sparsity: {theta: [95, 90]}\n", "top level must be a mapping"),
        (_BUDGET + "solver: 3\n", "config section 'solver' must be a mapping"),
    ],
    ids=["top_level", "section"],
)
def test_config_refuses_a_document_that_is_not_a_mapping(tmp_path, capsys, text, named):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
        load_config(path)
    _assert_commands_refuse(path, named, capsys)


def test_cli_fit_refuses_an_infinite_epsilon_before_writing(tmp_path, capsys, mini_start):
    # every weight would be zero: the start would fail, without the key,
    # after --out was made
    _, data, _ = mini_start
    path, out = tmp_path / "c.yaml", tmp_path / "fit"
    path.write_text(MINI_CONFIG + "epsilon: .inf\n")
    assert main(["fit", "--config", str(path), "--data", str(data), "--out", str(out)]) == 1
    assert f"{path}: config key 'epsilon' must be" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_negative_seed_flag(mini_config_path, tmp_path, capsys):
    # the flag overrides the config's seed, so it is held to the same rule
    code = main(["simulate", "--config", str(mini_config_path), "--seed", "-1",
                 "--out", str(tmp_path / "data")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: --seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "data").exists()


def test_config_reads_exponents_without_a_dot(tmp_path):
    # PyYAML reads 1e-8 as a string; every real-valued key takes it
    path = tmp_path / "c.yaml"
    path.write_text(
        "k: 1\nsparsity:\n  theta: [9.5e1]\nc_delta: 1e-1\nc_d: 2e0\nepsilon: 1e-6\n"
        "dataset:\n  snr_db: 1e1\n  hrf_spread: 3e-1\nsolver:\n  rel_obj_tol: 1e-8\n"
    )
    config = load_config(path)
    assert config.thetas == (95.0,)
    assert (config.c_delta, config.c_d, config.epsilon) == (0.1, 2.0, 1e-6)
    assert (config.dataset.snr_db, config.dataset.hrf_spread) == (10.0, 0.3)
    assert config.solver.rel_obj_tol == 1e-8


def test_readme_config_schema_loads(tmp_path):
    # The README's schema block goes through the loader, which refuses
    # unknown keys, so the documented schema cannot drift from the code;
    # and it shows every key the loader knows.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema\n\n```yaml\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "schema.yaml"
    path.write_text(block)
    config = load_config(path)
    assert config.k == 8 and config.thetas == (95, 94)
    documented = set()
    for key, value in yaml.safe_load(block).items():
        documented |= {f"{key}.{name}" for name in value} if isinstance(value, dict) else {key}
    assert documented == set(_SCHEMA)


def test_readme_library_block_runs(capsys):
    # The README's "Library use" block runs as written and prints its fit's
    # stop reason and final objective.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    trace = namespace["result"].trace
    assert capsys.readouterr().out == f"{trace.stop_reason} {trace.objective[-1]}\n"
    assert trace.stop_reason == "max_iters" and np.isfinite(trace.objective[-1])


# -- CLI pipeline -------------------------------------------------------------------


def test_cli_atlas_sparsity(capsys):
    assert main(["atlas-sparsity", "95", "95"]) == 0
    assert capsys.readouterr().out.strip() == "90"


def test_cli_tune_cdelta_deterministic(mini_config_path, capsys):
    assert main(["tune-cdelta", "--config", str(mini_config_path)]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["tune-cdelta", "--config", str(mini_config_path)]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second
    assert float(first) > 0


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    code = main(["tune-cdelta", "--config", str(tmp_path / "missing.yaml")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_config_init_seed(tmp_path, capsys):
    # the start is seeded by the top-level seed; a seed under init would be
    # silently overwritten, so the config is refused
    config = tmp_path / "c.yaml"
    config.write_text("k: 2\nsparsity:\n  theta: [95, 90]\ninit:\n  rng_seed: 12345\n")
    code = main(["init", "--config", str(config), "--data", str(tmp_path),
                 "--out", str(tmp_path / "init")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(config) in err and "init.rng_seed" in err and "'seed'" in err


def test_cli_rejects_theta_outside_percent_range(tmp_path, rng, capsys):
    data = tmp_path / "data"
    data.mkdir()
    save_matrix(rng.standard_normal((150, 40)), data / "x.iadl")
    config = tmp_path / "c.yaml"
    config.write_text("k: 2\nsparsity:\n  theta: [140, 95]\n")
    code = main(["fit", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "fit"), "--blind"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(config) in err and "'sparsity.theta[0]'" in err and "140" in err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw[:-3],
        lambda raw: raw[:4] + struct.pack("<H", 2) + raw[6:],
        lambda raw: raw[:_HEADER_BYTES] + struct.pack("<d", np.nan) + raw[_HEADER_BYTES + 8:],
    ],
    ids=["truncated", "version_2", "nan_payload"],
)
def test_cli_fit_names_corrupt_data_file(tmp_path, rng, capsys, corrupt):
    data = tmp_path / "data"
    data.mkdir()
    x_path = data / "x.iadl"
    save_matrix(rng.standard_normal((20, 30)), x_path)
    x_path.write_bytes(corrupt(x_path.read_bytes()))
    config = tmp_path / "c.yaml"
    config.write_text("k: 2\nsparsity:\n  theta: [80, 70]\n")
    code = main(["fit", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "fit"), "--blind"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(x_path) in err


def test_cli_full_pipeline(tmp_path, mini_config_path, capsys):
    data = tmp_path / "data"
    fit = tmp_path / "fit"
    init_dir = tmp_path / "init"
    metrics = tmp_path / "metrics.json"

    assert main(["simulate", "--config", str(mini_config_path), "--out", str(data)]) == 0
    for name in ("x.iadl", "true_courses.iadl", "true_maps.iadl",
                 "task_courses.iadl", "meta.json", "manifest.json"):
        assert (data / name).exists()
    delta = load_matrix(data / "task_courses.iadl")
    assert delta.shape == (150, 2)

    assert main(["init", "--config", str(mini_config_path), "--data", str(data),
                 "--out", str(init_dir)]) == 0
    assert (init_dir / "init_dict.iadl").exists()

    assert main(["fit", "--config", str(mini_config_path), "--data", str(data),
                 "--out", str(fit), "--init-dir", str(init_dir)]) == 0
    resolved = json.loads((fit / "resolved.json").read_text())
    assert resolved["assisted_count"] == 2
    assert resolved["c_delta"] > 0
    trace_lines = (fit / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "iteration,objective,max_violation"
    objectives = [float(line.split(",")[1]) for line in trace_lines[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(objectives, objectives[1:]))

    assert main(["evaluate", "--truth", str(data), "--fit", str(fit),
                 "--out", str(metrics)]) == 0
    doc = json.loads(metrics.read_text())
    assert set(doc) == {"full_source", "time_course"}
    assert len(doc["full_source"]["r_full"]) == 8
    assert metrics.with_suffix(".csv").exists()
    out = capsys.readouterr().out
    assert "mean r (full source)" in out


def test_cli_blind_fit_and_checksum_refusal(tmp_path, mini_config_path, capsys):
    data = tmp_path / "data"
    data2 = tmp_path / "data2"
    fit = tmp_path / "fit"

    assert main(["simulate", "--config", str(mini_config_path), "--out", str(data)]) == 0
    assert main(["simulate", "--config", str(mini_config_path), "--seed", "99",
                 "--out", str(data2)]) == 0
    assert main(["fit", "--config", str(mini_config_path), "--data", str(data),
                 "--out", str(fit), "--blind"]) == 0
    resolved = json.loads((fit / "resolved.json").read_text())
    assert resolved["assisted_count"] == 0 and resolved["blind"] is True

    # evaluating against the wrong truth bundle must be refused
    code = main(["evaluate", "--truth", str(data2), "--fit", str(fit),
                 "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "different data" in capsys.readouterr().err


def test_cli_simulates_a_wide_response_spread(tmp_path):
    # at spread 0.9 a delay can fall below its dispersion; such a draw gave
    # a NaN response and a failed noise calibration until it was resampled
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "mini.yaml").read_text()
    assert "hrf_spread: 0.3" in shipped
    config = tmp_path / "wide.yaml"
    config.write_text(shipped.replace("hrf_spread: 0.3", "hrf_spread: 0.9"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(config), "--seed", "3", "--out", str(data)]) == 0
    assert np.all(np.isfinite(load_matrix(data / "x.iadl")))
    hrf = json.loads((data / "meta.json").read_text())["subject_hrf"]
    assert hrf["peak_delay"] >= hrf["peak_dispersion"]
    assert hrf["undershoot_delay"] >= hrf["undershoot_dispersion"]


_PIPELINE = """
import sys
from iadl.cli import main
config, out = sys.argv[1], sys.argv[2]
for argv in (["simulate", "--config", config, "--out", out + "/data"],
             ["fit", "--config", config, "--data", out + "/data", "--out", out + "/fit"],
             ["evaluate", "--truth", out + "/data", "--fit", out + "/fit",
              "--out", out + "/metrics.json"]):
    if main(argv):
        sys.exit(1)
"""


def test_shipped_config_across_blas_thread_counts(tmp_path):
    # the same seed, BLAS build and thread count give the same bits; across
    # thread counts the simulated data stay bit-equal and the fit agrees to
    # rounding that its late iterations amplify. The fits need not differ.
    root = Path(__file__).resolve().parents[1]
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", _PIPELINE, str(root / "configs" / "mini.yaml"),
                        str(out)], env=env, check=True, capture_output=True)
        results.append((
            (out / "data" / "x.iadl").read_bytes(),
            json.loads((out / "fit" / "resolved.json").read_text())["final_objective"],
            json.loads((out / "metrics.json").read_text())["full_source"]["summaries"],
        ))
    (x1, obj1, summary1), (x2, obj2, summary2) = results
    assert x1 == x2
    assert abs(obj1 - obj2) <= 1e-3 * obj1
    assert summary1.keys() == summary2.keys()
    for key in summary1:
        assert abs(summary1[key] - summary2[key]) <= 1e-3


def test_cli_simulate_deterministic(tmp_path, mini_config_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--config", str(mini_config_path), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(mini_config_path), "--out", str(b)]) == 0
    assert sha256_file(a / "x.iadl") == sha256_file(b / "x.iadl")


@pytest.fixture(scope="module")
def mini_start(tmp_path_factory):
    """A simulated mini dataset, its config and a start saved by `iadl init`."""
    root = tmp_path_factory.mktemp("start")
    config = root / "config.yaml"
    config.write_text(MINI_CONFIG)
    data, start = root / "data", root / "start"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    assert main(["init", "--config", str(config), "--data", str(data),
                 "--out", str(start)]) == 0
    return config, data, start


def test_cli_fit_from_saved_start_matches_plain_fit(tmp_path, mini_start):
    config, data, start = mini_start
    plain, resumed = tmp_path / "plain", tmp_path / "resumed"
    assert main(["fit", "--config", str(config), "--data", str(data),
                 "--out", str(plain)]) == 0
    assert main(["fit", "--config", str(config), "--data", str(data),
                 "--out", str(resumed), "--init-dir", str(start)]) == 0
    for name in ("fitted_dict.iadl", "fitted_maps.iadl", "trace.csv"):
        assert (plain / name).read_bytes() == (resumed / name).read_bytes(), name
    # resolved.json restates the settings the start was checked against
    settings = json.loads((start / "manifest.json").read_text())["settings"]
    for out in (plain, resumed):
        resolved = json.loads((out / "resolved.json").read_text())
        assert {key: resolved[key] for key in settings} == settings


def test_cli_simulate_at_zero_spread_uses_the_canonical_response(tmp_path):
    # no response is drawn, so the data are the recipe's under the canonical
    # response from the seed's first draw on
    config = tmp_path / "c.yaml"
    config.write_text(MINI_CONFIG.replace("hrf_spread: 0.3", "hrf_spread: 0.0")
                      .replace("snr_db: 0.0", "snr_db: 10.0"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    expected = tmp_path / "expected.iadl"
    save_matrix(RECIPES["mini"].generate(np.random.default_rng(7), snr_db=10.0).x.values, expected)
    assert (data / "x.iadl").read_bytes() == expected.read_bytes()
    meta = json.loads((data / "meta.json").read_text())
    assert meta["subject_hrf"] == canonical_params().__dict__


def _fit_without_data(tmp_path, config, data, start):
    return ["fit", "--config", config, "--data", tmp_path / "missing"]


def _init_without_data(tmp_path, config, data, start):
    return ["init", "--config", config, "--data", tmp_path / "missing"]


def _fit_from_a_start_on_other_data(tmp_path, config, data, start):
    other = tmp_path / "other"
    assert main(["simulate", "--config", str(config), "--seed", "99", "--out", str(other)]) == 0
    return ["fit", "--config", config, "--data", other, "--init-dir", start]


@pytest.mark.parametrize(
    "command, named",
    [(_fit_without_data, "x.iadl"), (_init_without_data, "x.iadl"),
     (_fit_from_a_start_on_other_data, "start was computed from different data")],
    ids=["fit_missing_data", "init_missing_data", "fit_start_on_other_data"],
)
def test_cli_failed_fit_or_init_leaves_no_out(tmp_path, capsys, mini_start, command, named):
    config, data, start = mini_start
    out = tmp_path / "out"
    argv = command(tmp_path, config, data, start) + ["--out", out]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err
    assert not out.exists()


def test_cli_evaluate_refuses_a_report_its_table_would_overwrite(tmp_path, capsys, mini_start):
    # the per-source table goes to the report's name with a .csv suffix
    config, data, _ = mini_start
    fit, report = tmp_path / "fit", tmp_path / "metrics" / "m.csv"
    assert main(["fit", "--config", str(config), "--data", str(data), "--out", str(fit)]) == 0
    capsys.readouterr()
    code = main(["evaluate", "--truth", str(data), "--fit", str(fit), "--out", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {report}: ")
    assert not report.parent.exists()


def test_library_start_from_the_config_matches_cli_init(mini_start):
    # a library caller handing config.init to initialize gets the start
    # `iadl init` saves from the same config, bit for bit
    config_path, data, start = mini_start
    config = load_config(config_path)
    ds = config.dataset
    x = DataMatrix(load_matrix(data / "x.iadl"), tr=ds.tr)
    delta = TaskTimeCourses(load_matrix(data / "task_courses.iadl"))
    spec = ConstraintSpec(
        phi=config.resolve_phis(x.n_voxels),
        c_delta=estimate_c_delta(ds.conditions, ds.n_times, ds.tr),
        c_d=config.c_d,
        epsilon=config.epsilon,
    )
    d0, s0 = initialize(x, config.k, delta, spec, config.init)
    assert d0.values.tobytes() == load_matrix(start / "init_dict.iadl").tobytes()
    assert s0.values.tobytes() == load_matrix(start / "init_coef.iadl").tobytes()


def test_cli_init_and_fit_read_the_data_once_and_record_its_checksum(
    tmp_path, monkeypatch, mini_start
):
    config, data, _ = mini_start
    start, fit = tmp_path / "start", tmp_path / "fit"
    reads = []
    read_bytes = Path.read_bytes

    def counted(path):
        if path.name == "x.iadl":
            reads.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    assert main(["init", "--config", str(config), "--data", str(data),
                 "--out", str(start)]) == 0
    assert len(reads) == 1
    assert main(["fit", "--config", str(config), "--data", str(data),
                 "--out", str(fit), "--init-dir", str(start)]) == 0
    assert len(reads) == 2
    monkeypatch.undo()
    digest = sha256_file(data / "x.iadl")
    assert json.loads((start / "manifest.json").read_text())["data_checksum"] == digest
    assert json.loads((fit / "resolved.json").read_text())["data_checksum"] == digest


def test_cli_fit_parses_the_start_manifest_once(tmp_path, monkeypatch, mini_start):
    config, data, saved = mini_start
    manifest = saved / "manifest.json"
    reads = []
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        if path == manifest:
            reads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    assert main(["fit", "--config", str(config), "--data", str(data),
                 "--out", str(tmp_path / "fit"), "--init-dir", str(saved)]) == 0
    assert len(reads) == 1


def _tamper_start(tmp_path, start, data):
    coef = start / "init_coef.iadl"
    raw = bytearray(coef.read_bytes())
    raw[-1] ^= 1
    coef.write_bytes(bytes(raw))
    return "init_coef.iadl: checksum mismatch"


def _start_on_other_data(tmp_path, start, data):
    config = tmp_path / "config.yaml"
    other = tmp_path / "other"
    assert main(["simulate", "--config", str(config), "--seed", "99", "--out", str(other)]) == 0
    assert main(["init", "--config", str(config), "--data", str(other),
                 "--out", str(start)]) == 0
    return "start was computed from different data"


def _fit_with_other_k(tmp_path, start, data):
    # the start keeps its 8 atoms; the config asks for 6
    (tmp_path / "config.yaml").write_text(MINI_CONFIG.replace("k: 8", "k: 6"))
    return "start was computed with a different 'k'"


def _blind_start(tmp_path, start, data):
    # a start without assisted atoms, handed to an assisted fit
    assert main(["init", "--config", str(tmp_path / "config.yaml"), "--data", str(data),
                 "--out", str(start), "--blind"]) == 0
    return "start was computed with a different 'blind'"


def _start_with_other_theta(tmp_path, start, data):
    # the same data and k, but the start was sparsified to other budgets
    other = tmp_path / "other.yaml"
    other.write_text(MINI_CONFIG.replace("theta: [95, 94]", "theta: [80, 80]"))
    assert main(["init", "--config", str(other), "--data", str(data),
                 "--out", str(start)]) == 0
    return "start was computed with a different 'phi'"


def _no_manifest(tmp_path, start, data):
    (start / "manifest.json").unlink()
    return f"no manifest in {start}"


def _settings_not_an_object(tmp_path, start, data):
    manifest = json.loads((start / "manifest.json").read_text())
    manifest["settings"] = list(manifest["settings"].items())
    (start / "manifest.json").write_text(json.dumps(manifest))
    return f"{start / 'manifest.json'}: key 'settings' is not an object"


def _manifest_without(key):
    def spoil(tmp_path, start, data):
        manifest = json.loads((start / "manifest.json").read_text())
        del manifest[key]
        (start / "manifest.json").write_text(json.dumps(manifest))
        return f"{start / 'manifest.json'}: missing key {key!r}"

    return spoil


@pytest.mark.parametrize(
    "spoil",
    [_tamper_start, _start_on_other_data, _fit_with_other_k, _blind_start,
     _start_with_other_theta, _manifest_without("data_checksum"),
     _manifest_without("settings"), _no_manifest, _settings_not_an_object],
    ids=["tampered", "other_data", "wrong_k", "blind_start", "other_theta",
         "no_data_checksum", "no_settings", "no_manifest", "settings_not_an_object"],
)
def test_cli_fit_refuses_a_start_that_does_not_fit(tmp_path, capsys, mini_start, spoil):
    config, data, saved = mini_start
    start = tmp_path / "start"
    shutil.copytree(saved, start)
    shutil.copy(config, tmp_path / "config.yaml")
    message = spoil(tmp_path, start, data)
    capsys.readouterr()
    code = main(["fit", "--config", str(tmp_path / "config.yaml"), "--data", str(data),
                 "--out", str(tmp_path / "fit"), "--init-dir", str(start)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "command, flag",
    [("init", "--data"), ("fit", "--data"), ("fit", "--init-dir")],
    ids=["init_over_data", "fit_over_data", "fit_over_start"],
)
def test_cli_refuses_an_out_that_is_an_input(tmp_path, capsys, mini_start, command, flag):
    # the command's manifest would replace the input's, which vouches for
    # its files; the refusal comes before anything is written
    config, data, start = mini_start
    data, start = shutil.copytree(data, tmp_path / "data"), shutil.copytree(start, tmp_path / "start")
    inputs = {"--data": data, "--init-dir": start}
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    argv = [command, "--config", config, "--data", data]
    if command == "fit":
        argv += ["--init-dir", start]
    # the same directory under another spelling
    argv += ["--out", inputs[flag] / ".." / inputs[flag].name]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"is the {flag} directory" in err
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before
