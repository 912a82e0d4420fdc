"""Workload definitions shared by run.py and its child processes.

Stdlib only: run.py imports this module without importing numpy or the
program, so that every workflow run starts from a fresh interpreter.
"""

from __future__ import annotations

WORKLOADS = ("measure-csv", "binary-sweep", "rotator-sweep", "episode-batch")

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is a
# reduced size for the benchmark's own tests.
SCALES = {
    "full": {
        "measure-csv": {"rows": 1_000_000},
        "binary-sweep": {"grid": 51},
        "rotator-sweep": {"cells": 5, "runs": 10, "steps": 500},
        "episode-batch": {"runs": 100, "steps": 5000},
    },
    "smoke": {
        "measure-csv": {"rows": 20_000},
        "binary-sweep": {"grid": 6},
        "rotator-sweep": {"cells": 2, "runs": 2, "steps": 50},
        "episode-batch": {"runs": 2, "steps": 200},
    },
}

# The binary-sweep policy-sharpness values, as in the CLI default grid.
BINARY_MU = (0.0, 1.0, 20.0)

# The four highlighted rotator cells, as (eta, beta).
REFERENCE_CELLS = ((0.0, 2.0), (0.0, 0.0), (0.5, 0.0), (0.5, 2.0))

MEASURES = ("asoc_a", "asoc_w", "c_a", "c_w")


def rotator_grid(cells: int) -> tuple[list[float], list[float]]:
    """Evenly spaced eta in [0, 0.5] and beta in [0, 2.0], `cells` values each."""
    step = cells - 1
    return [0.5 * i / step for i in range(cells)], [2.0 * i / step for i in range(cells)]


def items(workload: str, scale: str) -> int:
    """Work items in one workflow: CSV rows, grid points or episodes."""
    size = SCALES[scale][workload]
    if workload == "measure-csv":
        return size["rows"]
    if workload == "binary-sweep":
        return size["grid"] ** 2 * len(BINARY_MU)
    if workload == "rotator-sweep":
        return size["cells"] ** 2 * size["runs"]
    return len(REFERENCE_CELLS) * size["runs"]
