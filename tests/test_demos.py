"""Smoke tests for the scripts outside the package: the demos run, and the
slow scripts at least import names the library still provides."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ("landscape_tour.py", "single_search_run.py", "unit_testing_subjects.py")
SLOW_SCRIPTS = ("demos/algorithm_shootout.py", "calibrate_acceptance.py")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
