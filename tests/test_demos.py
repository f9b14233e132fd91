"""The demo scripts import only public names of the package.

No test runs the demos, so each one is parsed, not executed, and every
name it imports from noma_pep must be exported in noma_pep.__all__.
"""

import ast
from pathlib import Path

import pytest

import noma_pep

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
