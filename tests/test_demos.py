"""Every demo, and the README's library example, runs against the package as
it stands: exit 0, nothing on stderr.  Importing the package loads only the
modules asked for.

The demos and the README example call the library API directly, so a renamed
function or report field that the tests of each module miss shows up here.
Each runs in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = _python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_library_example_runs_cleanly():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("module, loaded", [
    ("isocert", ["isocert"]),
    ("isocert.convex", ["isocert", "isocert.convex"]),
])
def test_import_loads_only_the_module_asked_for(module, loaded):
    proc = _python("-c", f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'isocert'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n"
