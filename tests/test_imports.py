"""Import structure of the package: private names and the import path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwfloor

PACKAGE = Path(gwfloor.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    """No module reads a private name of another package module, neither
    by ``from .x import _name`` nor as ``alias._name`` on a module alias."""
    tree = ast.parse(path.read_text())
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gwfloor")):
            for alias in node.names:
                assert not alias.name.startswith("_"), f"{path.name} imports {alias.name}"
                if node.module is None:
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            assert not (isinstance(node.value, ast.Name) and node.value.id in aliases), (
                f"{path.name} reads {node.value.id}.{node.attr}"
            )


def test_every_private_helper_is_used():
    """Every module-level private function or class is referenced from
    some other statement of the package (a recursive call does not
    count), so no dead helper or wrapper lingers."""
    statements = [
        node for path in sorted(PACKAGE.glob("*.py")) for node in ast.parse(path.read_text()).body
    ]

    def names(node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    used = [names(node) for node in statements]
    unused = [
        node.name
        for k, node in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not any(node.name in u for j, u in enumerate(used) if j != k)
    ]
    assert unused == []


def test_every_cache_states_its_domain():
    """Every module-level ``@cache`` or ``@functools.cache`` function of
    the package says what its memo is keyed by, in a docstring line that
    begins ``Cached per``, so a memo that grows with the configurations
    is visible where it is declared."""
    undocumented = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            cached = any(ast.unparse(dec) in ("cache", "functools.cache") for dec in node.decorator_list)
            lines = (ast.get_docstring(node) or "").splitlines()
            if cached and not any(line.startswith("Cached per") for line in lines):
                undocumented.append(f"{path.name}:{node.name}")
    assert undocumented == []


def test_only_classify_pair_decides_a_floor_pair():
    """The orbit path reads a fused floor pair off its class ``("R",
    "floors")``, and the stabiliser table reads no pair class at all: its
    walk over the relabeled marking decides which floors are adjacent.
    None of these functions tests the object kind."""
    tree = ast.parse((PACKAGE / "diagrams.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    offenders = [
        name
        for name in ("_orbit_test", "_apply_swaps", "_joins", "_stabiliser_table")
        if any(isinstance(n, ast.Constant) and n.value == "floor" for n in ast.walk(functions[name]))
    ]
    assert offenders == []


@pytest.mark.parametrize(
    ("module", "group_ring"),
    [("gwfloor", False), ("gwfloor.checks", True), ("gwfloor.cli", True)],
    ids=["gwfloor", "gwfloor.checks", "gwfloor.cli"],
)
def test_import_footprint(module, group_ring):
    """Importing the package, the checks or the CLI loads neither
    ``dataclasses`` nor ``inspect``: the value types are tuples, so no
    module needs them at import.  The group-ring oracle is for the
    identity checks; ``import gwfloor`` and the count path do not load
    it.  ``-S`` keeps the modules that site hooks import out of the
    list."""
    watched = ("dataclasses", "inspect", "gwfloor.group_ring")
    code = f"import sys, {module}; print([m for m in {watched!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out == f"{['gwfloor.group_ring'] if group_ring else []}\n"


def test_group_ring_has_one_ring_element():
    """The oracle keeps one ring-element class, multiplies in the plain
    group ring and reads only the universal ring's basis from ``univ``, so
    it cannot borrow the closed forms' product rules or the forms
    themselves."""
    tree = ast.parse((PACKAGE / "group_ring.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"SquareClassCarrier", "GroupRingElement"}
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                for alias in node.names:
                    imported.setdefault(alias.name, set()).add("*module*")
            else:
                imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gwfloor"):
                    imported.setdefault(alias.name.removeprefix("gwfloor."), set()).add("*module*")
    assert imported.get("univ") == {"UnivElement"}
    assert "local_factors" not in imported


@pytest.mark.parametrize("top", ["src", "tests", "perfbench"])
def test_sources_parse_as_python_3_10(top):
    """Every Python file parses with the grammar of Python 3.10, the
    oldest version the package supports, so a newer construct (``except*``,
    a ``type`` alias statement, PEP 695 generics) fails here under any
    newer interpreter.  The files are only read."""
    paths = sorted((REPO / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
