"""The experiment scripts run to completion on their smallest settings."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

from morphocomp.cli import BINARY_SWEEP_COLUMNS, ROTATOR_SWEEP_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    """Run scripts/<name> as __main__ with the given arguments; return its exit code."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def read_table(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def test_binary_surfaces(monkeypatch, tmp_path):
    args = ("--resolution", "2", "--out", str(tmp_path))
    assert run_script(monkeypatch, "binary_surfaces.py", *args) == 0
    rows = read_table(tmp_path / "binary_sweep.csv")
    assert tuple(rows[0]) == BINARY_SWEEP_COLUMNS
    # 2 phi x 2 psi x 3 mu
    assert len(rows) == 1 + 12


def test_rotator_noise_deadband_grid(monkeypatch, tmp_path):
    args = ("--runs", "1", "--out", str(tmp_path))
    assert run_script(monkeypatch, "rotator_noise_deadband_grid.py", *args) == 0
    rows = read_table(tmp_path / "rotator_sweep.csv")
    assert tuple(rows[0]) == ROTATOR_SWEEP_COLUMNS
    # the coarse 5 eta x 5 beta grid
    assert len(rows) == 1 + 25
