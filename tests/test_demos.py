"""The demo scripts run and import only public names of the package.

Each demo runs to completion in a fresh interpreter with src/ on the
path, so a demo that calls the library with an outdated signature fails
here; every name it imports from noma_pep must also be exported in
noma_pep.__all__.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noma_pep

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "noma_pep"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(noma_pep.__all__)) == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
