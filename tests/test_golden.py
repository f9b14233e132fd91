"""Every golden CLI recipe reproduces its stored CSVs byte for byte.

tests/golden/recipes.txt lists the recipes, one a line: a name, then the
argv of `noma-pep`.  tests/golden/<name>/ holds the CSVs that recipe
wrote when the files were generated, and tests/golden/environment.json
the `environment` block of those runs' manifests (the manifests
themselves hold durations and are not stored).  Run this file as a
script to regenerate every stored file:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shlex
import shutil
from pathlib import Path

import pytest

from noma_pep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ENVIRONMENT = GOLDEN / "environment.json"


def _recipes() -> dict:
    recipes = {}
    for line in (GOLDEN / "recipes.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            recipes[name] = argv
    return recipes


RECIPES = _recipes()


def _run(argv, out: Path):
    """Run one recipe into out; return its CSV names and environment."""
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return manifest["outputs"], manifest["environment"]


def _first_difference(expected: bytes, actual: bytes) -> str:
    want = expected.decode().splitlines()
    got = actual.decode().splitlines()
    for number, (w, g) in enumerate(zip(want, got), 1):
        if w != g:
            return f"line {number}: stored {w!r}, got {g!r}"
    return f"line {min(len(want), len(got)) + 1}: stored {len(want)} " \
           f"lines, got {len(got)}"


@pytest.mark.parametrize("name", RECIPES)
def test_recipe_reproduces_golden_csvs(name, tmp_path):
    outputs, environment = _run(RECIPES[name], tmp_path)
    assert sorted(outputs) == sorted(p.name for p in (GOLDEN / name).iterdir())
    for csv in outputs:
        expected = (GOLDEN / name / csv).read_bytes()
        actual = (tmp_path / csv).read_bytes()
        if actual != expected:
            pytest.fail(
                f"{name}/{csv} differs at "
                f"{_first_difference(expected, actual)}\n"
                f"stored environment: {ENVIRONMENT.read_text()}\n"
                f"this environment: {json.dumps(environment, indent=2)}")


def test_ci_pins_the_stored_versions():
    stored = json.loads(ENVIRONMENT.read_text())
    pins = dict(line.split("==") for line in
                (GOLDEN / "constraints.txt").read_text().splitlines()
                if line and not line.startswith("#"))
    # the CLI records no scipy version: no run executes scipy code
    assert pins["numpy"] == stored["numpy"]


def regenerate():
    for stale in GOLDEN.iterdir():
        if stale.is_dir():
            shutil.rmtree(stale)
    for name, argv in RECIPES.items():
        _, environment = _run(argv, GOLDEN / name)
        (GOLDEN / name / "manifest.json").unlink()
    ENVIRONMENT.write_text(json.dumps(environment, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
