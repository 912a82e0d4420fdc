"""How the repository's pytest configuration treats failing and leaking tests.

A failing hypothesis test is reported like any other, and a test that
leaves a file open fails.
"""

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

LEAKED_HANDLE = """
def test_leaks(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("x")
    open(path).read()


def test_passes():
    pass
"""


def run_pytest(tmp_path, name, source):
    """Run pytest with the repository's configuration on one file; return its output and exit code."""
    (tmp_path / name).write_text(source)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", "."]
    result = subprocess.run(
        [sys.executable, *argv, name],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.stdout + result.stderr, result.returncode


def test_failing_given_test_does_not_end_the_run(tmp_path):
    # hypothesis raises a mypy_extensions DeprecationWarning while pytest reports
    # a failing @given test; turned into an error, it ended the run in INTERNALERROR
    output, code = run_pytest(tmp_path, "test_given.py", FAILING_GIVEN)
    assert "INTERNALERROR" not in output
    assert code == 1
    assert "FAILED test_given.py::test_fails" in output
    assert "1 failed, 1 passed" in output


def test_leaked_file_handle_fails_its_test(tmp_path):
    # the ResourceWarning of the unclosed file is raised while the file is finalised,
    # so pytest reports it as an unraisable exception, which the configuration makes an error
    output, code = run_pytest(tmp_path, "test_handle.py", LEAKED_HANDLE)
    assert code == 1
    assert "FAILED test_handle.py::test_leaks" in output
    assert "1 failed, 1 passed" in output
