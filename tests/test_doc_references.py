"""Every backticked ``module.name`` of a quditmaps module in the README and in a
docstring under ``src`` names something that exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "quditmaps").glob("*.py"))
MODULES = sorted(path.stem for path in SOURCES if not path.stem.startswith("_"))
# `linalg.min_eig_gathered`, ``regions.family_min_eig(d, ...)``, `quditmaps.cli.main`;
# not a file name such as `linalg.py`
REFERENCE = re.compile(r"`+(?:quditmaps\.)?(" + "|".join(MODULES) + r")\.(?!py\b)([A-Za-z_]\w*)")


def unresolved(text: str, where: str, first_line: int = 1) -> list:
    """``file:line: module.name`` of each reference in ``text`` that does not resolve."""
    out = []
    for match in REFERENCE.finditer(text):
        module, name = match.groups()
        if not hasattr(importlib.import_module(f"quditmaps.{module}"), name):
            line = first_line + text.count("\n", 0, match.start())
            out.append(f"{where}:{line}: {module}.{name}")
    return out


def docstrings(path: Path):
    """(line of the docstring, docstring) of the module and each class and function."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text:
                yield node.body[0].lineno, text


def test_readme_references_resolve():
    text = (ROOT / "README.md").read_text()
    assert len(REFERENCE.findall(text)) >= 20  # the guard reads the README's references
    assert unresolved(text, "README.md") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_docstring_references_resolve(path):
    bad = [ref for line, text in docstrings(path) for ref in unresolved(text, path.name, line)]
    assert bad == []
