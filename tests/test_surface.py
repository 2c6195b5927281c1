"""The package's public surface is what a caller uses.

Every top-level public function and class of ``src/iadl/*.py``, and every
public method of those classes, must be referenced, as a name or an
attribute and not inside a string, by package code outside ``__init__.py``
or by the benchmark harness outside its tests. Every private top-level
function must be referenced by package code outside its own definition.
Reference implementations that only tests read belong in
``tests/oracles.py``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "iadl"
HARNESS = ROOT / "pipebench"

# The GLM baseline of the paper's comparison (ROADMAP item 5) is to call
# these; until it does, only their tests do.
AWAITING_CALLER = {"postproc.pinv_spatial_maps", "postproc.zscore_threshold"}


def _public(name):
    return not name.startswith("_")


def public_names(path):
    """``module.name`` and ``module.Class.method`` for the public top-level
    functions and classes of one module, and the public methods of those
    classes."""
    tree = ast.parse(path.read_text())
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            names.append(f"{path.stem}.{node.name}")
        if isinstance(node, ast.ClassDef) and _public(node.name):
            names.extend(
                f"{path.stem}.{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and _public(item.name)
            )
    return names


def referenced(paths):
    """Every identifier read as a name or an attribute in ``paths``."""
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [p for p in modules if p.name != "__init__.py"] + [
        p for p in sorted(HARNESS.glob("*.py")) if p.name != "test_checks.py"
    ]
    used = referenced(callers)
    surface = [name for path in modules for name in public_names(path)]
    assert len(surface) > 50
    unused = [name for name in surface if name.rsplit(".", 1)[1] not in used]
    assert sorted(unused) == sorted(AWAITING_CALLER), f"public names only tests use: {unused}"


def test_every_private_function_has_a_caller_in_the_package():
    # a helper whose last caller went, but whose tests stayed, is dead code
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or _public(node.name):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(
                (isinstance(ref, ast.Name) and ref.id == node.name)
                or (isinstance(ref, ast.Attribute) and ref.attr == node.name)
                for other in trees.values()
                for ref in ast.walk(other)
                if id(ref) not in own
            ):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"private functions only tests use: {unused}"


def test_import_loads_no_scipy_stats():
    # scipy.stats pulls in optimize, sparse, spatial and more, about 38 MB
    # of resident memory under every command; the package needs none of it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, iadl, iadl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
