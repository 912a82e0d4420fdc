"""The repository's pytest configuration reports a failing hypothesis test like any other."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_does_not_end_the_run(tmp_path):
    # hypothesis raises a mypy_extensions DeprecationWarning while pytest reports
    # a failing @given test; turned into an error, it ended the run in INTERNALERROR
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", "."]
    result = subprocess.run(
        [sys.executable, *argv, "test_given.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1
    assert "FAILED test_given.py::test_fails" in output
    assert "1 failed, 1 passed" in output
