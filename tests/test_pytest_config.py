"""The repo's pytest settings let a failing property test report itself."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ALWAYS_FAILS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(i):
    assert i != i
"""


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # Under `filterwarnings = ["error"]` alone, a warning raised by
    # hypothesis's report hook ends the session in an INTERNALERROR instead.
    (tmp_path / "test_throwaway.py").write_text(ALWAYS_FAILS, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out
