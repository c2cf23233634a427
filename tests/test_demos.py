"""The demos run to completion against the public API and print the claims
they demonstrate as holding.

Each runs in a fresh interpreter, as a reader would run it.  The first demo
is left out: its n=40 walk takes about ten seconds and repeats the
exponential-scaling acceptance test.  The README's library quick start runs
the same way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ascentlab

SRC = Path(ascentlab.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"
# Each quick demo with the lines it must print, stripped of indentation.
QUICK_DEMOS = {
    "02_steepest_simulation.py": (
        "traces identical: True",
        "independent full-neighborhood verification: True",
    ),
    "03_boolean_pathwidth_four.py": (
        "decoded walk equals the predicted simulation: True",
        "without it (n=2): two-intermediate ceiling broken at bits=(0, 0, 0, 1, 1): 18 > 13",
    ),
    "04_no_additive_split.py": ("split feasible: False",),
}


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    done = _run(str(DEMOS / name))
    assert done.returncode == 0, done.stderr
    printed = {line.strip() for line in done.stdout.splitlines()}
    for claim in QUICK_DEMOS[name]:
        assert claim in printed, done.stdout


def test_readme_library_quick_start_runs():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = _run("-c", block)
    assert done.returncode == 0, done.stderr
