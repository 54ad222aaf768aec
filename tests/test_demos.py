"""Smoke tests for the code outside the package: the demos and the README's
quick start run, the slow scripts at least import names the library still
provides, and the package exports what the README and demos import."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import suitesearch

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


def _readme_python_blocks():
    readme = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)


def _suitesearch_imports(source):
    """(module, name) for every name ``source`` imports from suitesearch or
    one of its submodules."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "suitesearch"
        for alias in node.names
    ]


def test_readme_quick_start_runs():
    blocks = _readme_python_blocks()
    assert len(blocks) == 1
    done = _run_python(["-c", blocks[0]])
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", SLOW_SCRIPTS)
def test_script_imports_resolve(path):
    imported = _suitesearch_imports((ROOT / path).read_text())
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert imported


def test_exports_are_what_readme_and_demos_import():
    # The README's promise: the package exports the names its quick start
    # and the demos import, plus the other three algorithms.
    sources = _readme_python_blocks() + [p.read_text() for p in (ROOT / "demos").glob("*.py")]
    imported = {
        name
        for source in sources
        for module, name in _suitesearch_imports(source)
        if module == "suitesearch"
    }
    expected = imported | {"run_mosa", "run_random", "run_wts"}
    assert sorted(suitesearch.__all__) == sorted(expected)
