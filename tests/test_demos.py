"""The demos and the README's library tour run against the package as it is.

Each runs in a fresh process with ``PYTHONPATH=src``, so a name or a
parameter that the package drops but a demo or the README still uses fails
here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


def library_tour() -> str:
    """The first python block after the README's "Library tour" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_at_its_default_dimension(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_tour_runs(tmp_path):
    code = library_tour()
    assert "import quditmaps" in code or "from quditmaps import" in code
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
