"""Tests of the benchmark itself, run at the reduced smoke scale.

Each test runs perfbench/run.py in a copy of the benchmark and the program
source, laid out like the checkout the benchmark is run from.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench_work")


def bench(root: Path, workload: str, trace: int = 0, seed: int = 0):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.2",
            "--trace", str(trace),
            "--scale", "smoke",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(HERE, root / "perfbench", ignore=IGNORE)
    shutil.copytree(ROOT / "src", root / "src", ignore=IGNORE)
    return root


# seed 0 also compares against the recorded reference outputs
@pytest.mark.parametrize("trace, section, seed", [(0, "end_to_end", 0), (1, "per_layer", 1)])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(checkout, workload, trace, section, seed):
    proc, result = bench(checkout, workload, trace, seed)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    if trace:
        assert "sanity: " in proc.stdout


def test_flipped_reference_byte_fails_the_run(checkout, tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(checkout, root, ignore=IGNORE)
    path = root / "perfbench" / "reference.json"
    data = bytearray(path.read_bytes())
    smoke = data.index(b'"smoke"')
    digest = data.index(b'"sha256": "', smoke) + len(b'"sha256": "')
    data[digest] ^= 1
    path.write_bytes(bytes(data))

    proc, result = bench(root, "measure-csv")
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    record = root / ".perfbench_work" / "results" / "measure-csv-smoke-seed0-trace0.json"
    assert json.loads(record.read_text())["failed_frac"] > 0


def test_without_the_program_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = bench(tmp_path, WORKLOADS[0])
    assert proc.returncode != 0
    assert result is None
