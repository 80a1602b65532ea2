"""Every third-party module the package imports is a declared runtime dependency.

The imports are read from the source with ``ast``, including those inside
functions, which a fresh ``import quditmaps`` never runs.  The one exception
is the lazy ``scipy.linalg`` import of ``dynamics.expm``: nothing in the
package calls it, and ``perfbench/tracer.py`` patches the name.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quditmaps"
ALLOWED = {("dynamics", "expm", "scipy")}


def requirement_names(reqs):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in reqs}


def third_party_imports(source, module):
    """(module, enclosing function or None, top-level name) of every import."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "quditmaps":
                    found.add((module, function, top))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_package_imports_only_its_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = requirement_names(project["dependencies"])
    assert runtime == {"numpy"}
    assert "scipy" in requirement_names(project["optional-dependencies"]["test"])
    imports = set().union(*(third_party_imports(p.read_text(), p.stem)
                            for p in PACKAGE.glob("*.py")))
    assert {top for _, _, top in imports} >= {"numpy"}
    undeclared = {imp for imp in imports if imp[2] not in runtime}
    assert undeclared <= ALLOWED, undeclared


def test_imports_inside_functions_are_seen():
    source = ("import os\nfrom . import linalg\n"
              "def f():\n    import scipy.linalg\n    from numpy import eye\n")
    assert third_party_imports(source, "probe") == {("probe", "f", "scipy"),
                                                    ("probe", "f", "numpy")}
