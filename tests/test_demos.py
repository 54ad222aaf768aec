"""Smoke tests for the code outside the package: the demos and the README's
quick start run, and the slow scripts at least import names the library
still provides."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ("landscape_tour.py", "single_search_run.py", "unit_testing_subjects.py")
SLOW_SCRIPTS = ("demos/algorithm_shootout.py", "calibrate_acceptance.py")


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name):
    done = _run_python([str(ROOT / "demos" / name)])
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    done = _run_python(["-c", blocks[0]])
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", SLOW_SCRIPTS)
def test_script_imports_resolve(path):
    tree = ast.parse((ROOT / path).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "suitesearch":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported.append(alias.name)
    assert imported
