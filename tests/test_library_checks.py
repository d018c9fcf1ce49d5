"""Static checks over the library sources."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "juliareal").rglob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a check written as one silently vanishes;
    # library code raises a real error instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statement on line(s) {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "tolerances.py"],
                         ids=lambda p: p.name)
def test_no_tolerance_literals(path):
    # every tolerance is defined once, in tolerances.py; a small float
    # literal anywhere else is a tolerance kept outside the table
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             and 0 < abs(node.value) < 1e-3]
    assert found == [], f"{path.name}: tolerance literal(s) (line, value) {found}"


def test_every_tolerance_is_imported():
    # a tolerance whose last use goes must leave the table too
    table = next(p for p in SOURCES if p.name == "tolerances.py")
    defined = {target.id for node in ast.parse(table.read_text()).body
               if isinstance(node, ast.Assign) for target in node.targets}
    imported = {alias.name for path in SOURCES if path != table
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "tolerances"
                for alias in node.names}
    assert defined, "no constants found in tolerances.py"
    assert sorted(defined - imported) == []


def test_lattes_makes_no_float_solve():
    # a Lattes certificate rounds its roots exactly (roots.rounded_real_roots),
    # so lattes.py names no float solver and does not import numpy
    path = next(p for p in SOURCES if p.name == "lattes.py")
    solvers = {"complex_roots", "roots_shifted", "roots_batch"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in solvers | {"numpy"}]
            if (node.module or "").split(".")[0] == "numpy":
                found.append(node.module)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            found += [name] if name in solvers else []
    assert found == [], f"lattes.py uses the float solver or numpy: {found}"
