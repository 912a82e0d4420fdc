"""One benchmark process: generate a workload's inputs, or run its workflow once.

  child.py setup WORKLOAD SCALE SEED   write inputs to ./input
  child.py run WORKLOAD TRACE RESULT   run the workflow on ./input once, outputs
                                       to ./out, measurements to RESULT (JSON)

run.py starts each one in a fresh interpreter with the workload's work
directory as the current directory and the program's `src` on PYTHONPATH.
Both modes import the program first, so a setup also warms its bytecode.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import morphocomp.cli  # loads every module of the program, in both modes
from morphocomp import estimation, measures, rotator

from tracer import ROOT, Tracer, install
from workloads import BINARY_MU, MEASURES, REFERENCE_CELLS, SCALES, rotator_grid

INPUT = Path("input")
OUT = Path("out")
TWO_PI = 2.0 * math.pi


def setup_measure_csv(rng, rows: int) -> None:
    """A real-valued t,s,a CSV in the format `rotator run` writes to series.csv.

    s wanders around the 2*pi rad/s target; a is a clipped, noisy error
    response with a deadband, in [-1, 1].  The last row leaves a empty.
    """
    t = np.arange(rows) * 0.01
    s = np.clip(
        TWO_PI
        + 1.2 * np.sin(TWO_PI * t / 7.3 + rng.uniform(0.0, TWO_PI))
        + rng.normal(0.0, 0.5, rows),
        0.0,
        8.0,
    )
    error = TWO_PI - s
    a = np.where(
        np.abs(error) < 0.3, 0.0, np.clip(0.8 * error + rng.uniform(-0.3, 0.3, rows), -1.0, 1.0)
    )
    body = "\n".join(map("{!r},{!r},{!r}".format, t[:-1].tolist(), s[:-1].tolist(), a[:-1].tolist()))
    with (INPUT / "series.csv").open("w") as handle:
        handle.write("t,s,a\n")
        handle.write(body)
        handle.write(f"\n{float(t[-1])!r},{float(s[-1])!r},\n")


def setup_binary_sweep(rng, seed: int, grid: int) -> None:
    """Seed 0 is the CLI's evenly spaced grid; other seeds draw phi and psi in [0, 5]."""
    if seed == 0:
        phi = psi = np.linspace(0.0, 5.0, grid)
    else:
        phi, psi = np.sort(rng.uniform(0.0, 5.0, (2, grid)), axis=1)
    grids = {"phi": phi.tolist(), "psi": psi.tolist(), "mu": list(BINARY_MU)}
    (INPUT / "grid.json").write_text(json.dumps(grids))


def setup_rotator_sweep(seed: int, cells: int, runs: int, steps: int) -> None:
    eta, beta = rotator_grid(cells)
    grid = {"eta": eta, "beta": beta, "runs": runs, "steps": steps, "seed": seed}
    (INPUT / "grid.json").write_text(json.dumps(grid))


def setup_episode_batch(seed: int, runs: int, steps: int) -> None:
    """Record `runs` episodes at each reference cell as binned symbol streams."""
    cfg = rotator.RotatorConfig(steps=steps)
    sensors, actions = [], []
    for cell_index, (eta, beta) in enumerate(REFERENCE_CELLS):
        cell = replace(cfg, eta=eta, beta=beta)
        seqs = [np.random.SeedSequence((seed, cell_index, r)) for r in range(runs)]
        velocities, _, _, forces = rotator._simulate_batch(cell, seqs)
        sensors.append(rotator.SENSOR_BINNER.index(velocities))
        actions.append(rotator.ACTION_BINNER.index(forces / cell.f_max))
    np.savez(
        INPUT / "episodes.npz",
        sensors=np.concatenate(sensors).astype(np.int16),
        actions=np.concatenate(actions).astype(np.int16),
    )


def setup(workload: str, scale: str, seed: int) -> None:
    INPUT.mkdir()
    size = SCALES[scale][workload]
    rng = np.random.default_rng(seed)
    if workload == "measure-csv":
        setup_measure_csv(rng, size["rows"])
    elif workload == "binary-sweep":
        setup_binary_sweep(rng, seed, size["grid"])
    elif workload == "rotator-sweep":
        setup_rotator_sweep(seed, **size)
    else:
        setup_episode_batch(seed, size["runs"], size["steps"])


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def cli_argv(workload: str) -> list[str]:
    out = str(OUT)
    if workload == "measure-csv":
        return [
            "measure",
            "--input", str(INPUT / "series.csv"),
            "--sensor-bins", "0:8:30",
            "--action-bins=-1:1:30",
            "--out", out,
        ]
    grid = json.loads((INPUT / "grid.json").read_text())
    if workload == "binary-sweep":
        return [
            "binary-sweep",
            "--phi", *_floats(grid["phi"]),
            "--psi", *_floats(grid["psi"]),
            "--mu", *_floats(grid["mu"]),
            "--out", out,
        ]
    return [
        "rotator", "sweep",
        "--eta", *_floats(grid["eta"]),
        "--beta", *_floats(grid["beta"]),
        "--runs", str(grid["runs"]),
        "--steps", str(grid["steps"]),
        "--seed", str(grid["seed"]),
        "--out", out,
    ]


def episode_workflow():
    """Estimate and measure every recorded episode; returns the workflow and its output writer."""
    recorded = np.load(INPUT / "episodes.npz")
    series = [
        estimation.SymbolSeries(s, a) for s, a in zip(recorded["sensors"], recorded["actions"])
    ]
    sensor_alphabet = rotator.sensor_alphabet()
    action_alphabet = rotator.action_alphabet()
    values = []

    def workflow() -> int:
        for episode in series:
            model = estimation.estimate(episode, sensor_alphabet, action_alphabet)
            values.append(measures.intrinsic_measures(model, MEASURES))
        return 0

    def write() -> None:
        OUT.mkdir()
        (OUT / "values.json").write_text(json.dumps(values))

    return workflow, write


def run(workload: str, trace: bool, result_path: str) -> None:
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    if workload == "episode-batch":
        workflow, write = episode_workflow()
    else:
        argv = cli_argv(workload)
        workflow, write = (lambda: morphocomp.cli.main(argv)), None
    if tracer is not None:
        workflow = tracer.wrap(ROOT, workflow)
    start = perf_counter()
    status = workflow()
    wall_s = perf_counter() - start
    if write is not None:
        write()
    result = {
        "status": status,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trace": tracer.summary() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    mode, workload = argv[:2]
    if mode == "setup":
        setup(workload, argv[2], int(argv[3]))
    else:
        run(workload, argv[2] == "1", argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
