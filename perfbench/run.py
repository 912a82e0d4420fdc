"""Benchmark of morphocomp's batch workflows.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
NAME is one of measure-csv, binary-sweep, rotator-sweep, episode-batch, or
`all` to run each in turn.  The seed makes the inputs; the program only sees
the generated inputs.

Each run sets the inputs up (several times, timed, unless tracing), then runs
the workflow over and over for S seconds, each time in a fresh child process,
and checks every output.  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced runs and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full record with
every run, the quartiles and the machine goes to
.perfbench_work/results/.  The exit code is 0 when every run passed its
output check, 1 when one did not, and 2 when the benchmark could not run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, ROOT
from workloads import MEASURES, SCALES, WORKLOADS, items

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = Path(".perfbench_work")

# Set-up repeats at least this many times and until this much time has gone,
# so that a cheap set-up still yields a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15
# A workflow or set-up takes at most a few seconds; this bounds a hung child.
CHILD_TIMEOUT_S = 60
REFERENCE_SEED = 0
# Slack for float accumulation in the invariant checks; the program's own
# tolerance for measure values outside [0, 1] (measures.RANGE_TOL).
TOL = 1e-9
# episode-batch values must match the reference to this absolute gap.
REFERENCE_TOL = 1e-12

DATA_FILE = {
    "measure-csv": "report.json",
    "binary-sweep": "binary_sweep.csv",
    "rotator-sweep": "rotator_sweep.csv",
    "episode-batch": "values.json",
}

# The layer each workload exists to stress; the traced run prints its share.
DOMINANT = {
    "measure-csv": "estimation.read_symbol_series",
    "binary-sweep": "binary.point_measures",
    "rotator-sweep": "rotator.integrate",
    "episode-batch": "measures.intrinsic_measures",
}

END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
PER_LAYER = (
    *((f"{name}.{kind}", unit) for name in LAYER_NAMES for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("rotator.lanes_per_step", "lanes"),
    ("estimation.transitions", "count"),
    ("prob.objects_validated", "count"),
    ("cli.self_s", "s"),
    ("trace_overhead_frac", "frac"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, failed setup)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # The workflows are single-threaded; keep BLAS from starting threads.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: list[str], workdir: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def set_up(workload: str, scale: str, seed: int, workdir: Path, env: dict) -> float:
    """Generate the inputs into workdir/input; returns the seconds it took."""
    shutil.rmtree(workdir / "input", ignore_errors=True)
    start = perf_counter()
    try:
        proc = run_child(["setup", workload, scale, str(seed)], workdir, env)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} setup took over {CHILD_TIMEOUT_S} s") from None
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} setup failed:\n{proc.stderr.strip()}")
    return elapsed


def output_rows(workload: str, scale: str, out: Path) -> list[dict]:
    """The output's measure rows, after checking its shape."""
    path = out / DATA_FILE[workload]
    size = SCALES[scale][workload]
    if workload == "measure-csv":
        document = json.loads(path.read_text())
        transitions = document["metadata"]["transitions"]
        if transitions != size["rows"] - 1:
            raise ValueError(f"{transitions} transitions, expected {size['rows'] - 1}")
        rows = [document["values"]]
        expected = 1
    elif workload == "episode-batch":
        rows = json.loads(path.read_text())
        expected = items(workload, scale)
    else:
        with path.open(newline="") as handle:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]
        expected = items(workload, scale) if workload == "binary-sweep" else size["cells"] ** 2
        if workload == "rotator-sweep" and any(row["runs"] != size["runs"] for row in rows):
            raise ValueError(f"a cell did not average {size['runs']} runs")
    if len(rows) != expected:
        raise ValueError(f"{len(rows)} rows, expected {expected}")
    return rows


def check_invariants(workload: str, rows: list[dict]) -> None:
    """Every measure in [0, 1], and c_w <= asoc_w (joint convexity) on every row."""
    names = (*MEASURES, "mc_a", "mc_w") if workload == "binary-sweep" else MEASURES
    for index, row in enumerate(rows):
        for name in names:
            if not -TOL <= row[name] <= 1.0 + TOL:
                raise ValueError(f"row {index}: {name} = {row[name]!r} outside [0, 1]")
        if row["c_w"] > row["asoc_w"] + TOL:
            raise ValueError(f"row {index}: c_w {row['c_w']!r} > asoc_w {row['asoc_w']!r}")


def reference_entry(workload: str, out: Path) -> dict:
    """What the reference records of an output: all values, or the data file's digest."""
    path = out / DATA_FILE[workload]
    if workload == "episode-batch":
        return {"values": [[row[name] for name in MEASURES] for row in json.loads(path.read_text())]}
    return {"file": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def check_reference(workload: str, out: Path, expected: dict) -> None:
    actual = reference_entry(workload, out)
    if "sha256" in expected:
        if actual["sha256"] != expected["sha256"]:
            raise ValueError(f"{actual['file']} differs from the reference bytes")
        return
    if len(actual["values"]) != len(expected["values"]):
        raise ValueError("episode count differs from the reference")
    for index, (got, want) in enumerate(zip(actual["values"], expected["values"])):
        gap = max(abs(g - w) for g, w in zip(got, want))
        if gap > REFERENCE_TOL:
            raise ValueError(f"episode {index} is {gap:.3g} from the reference")


def run_workflow(workload: str, traced: bool, workdir: Path, env: dict) -> dict:
    """Run the workflow once in a fresh child; returns its measurements or raises."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    proc = run_child(["run", workload, "1" if traced else "0", result_path.name], workdir, env)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        raise RuntimeError(lines[-1])
    result = json.loads(result_path.read_text())
    if result["status"] != 0:
        raise RuntimeError(f"workflow returned {result['status']}")
    return result


def checked_run(workload, scale, traced, workdir, env, reference) -> dict:
    """One workflow run and its output check; failures are recorded, not raised."""
    try:
        result = run_workflow(workload, traced, workdir, env)
        out = workdir / "out"
        check_invariants(workload, output_rows(workload, scale, out))
        if reference is not None:
            check_reference(workload, out, reference)
    except (OSError, ValueError, KeyError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return {"ok": False, "traced": traced, "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "traced": traced, **result}


def spread(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    # a count's median stays one of the counts
    median = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(workload, scale, runs, setup_times) -> dict:
    count = items(workload, scale)
    walls = [run["wall_s"] for run in runs]
    return {
        "wall_s": spread(walls),
        "items_per_s": spread([count / wall for wall in walls]),
        "setup_s": spread(setup_times),
        "peak_rss_mb": spread([run["peak_rss_mb"] for run in runs]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def over_runs(value) -> dict:
        return spread([value(run["trace"]) for run in traced])

    stats = {}
    for name in LAYER_NAMES:
        stats[f"{name}.calls"] = over_runs(lambda t, n=name: t["calls"].get(n, 0))
        stats[f"{name}.self_s"] = over_runs(lambda t, n=name: t["self_s"].get(n, 0.0))

    def lanes(t):
        steps = t["calls"].get("rotator.integrate", 0)
        return t["counters"].get("rotator.lane_steps", 0) / steps if steps else 0.0

    stats["rotator.lanes_per_step"] = over_runs(lanes)
    for counter in ("estimation.transitions", "prob.objects_validated"):
        stats[counter] = over_runs(lambda t, c=counter: t["counters"].get(c, 0))
    stats["cli.self_s"] = over_runs(lambda t: t["self_s"][ROOT])
    untraced_wall = statistics.median(run["wall_s"] for run in untraced)
    traced_wall = statistics.median(run["wall_s"] for run in traced)
    stats["trace_overhead_frac"] = spread([(traced_wall - untraced_wall) / untraced_wall])
    return stats


def machine(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "load_average_at_start": os.getloadavg(),
        "git_commit": commit,
    }


def bench(workload: str, scale: str, seed: int, seconds: float, trace: bool, root: Path):
    """Set up, run and check one workload; returns (printed result, full record)."""
    started = machine(root)
    references = json.loads(REFERENCE.read_text())
    reference = references[scale][workload] if seed == REFERENCE_SEED else None
    workdir = root / WORK / f"{workload}-{scale}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(root)
    try:
        setup_times = [set_up(workload, scale, seed, workdir, env)]
        while not trace and len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S
        ):
            setup_times.append(set_up(workload, scale, seed, workdir, env))
        runs = []
        start = perf_counter()
        while not runs or perf_counter() - start < seconds or (trace and len(runs) % 2):
            runs.append(checked_run(workload, scale, trace and len(runs) % 2 == 1, workdir, env, reference))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passed = [run for run in runs if run["ok"]]
    failed = len(runs) - len(passed)
    traced = [run for run in passed if run["traced"]]
    untraced = [run for run in passed if not run["traced"]]
    stats, units, sanity = {}, dict(PER_LAYER if trace else END_TO_END), None
    if trace and traced and untraced:
        stats = per_layer(traced, untraced)
        dominant = DOMINANT[workload]
        share = statistics.median(run["trace"]["total_s"].get(dominant, 0.0) / run["wall_s"] for run in traced)
        sanity = {"layer": dominant, "share_of_traced_wall": share}
    elif not trace and untraced:
        stats = end_to_end(workload, scale, untraced, setup_times)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": stat["median"], "unit": units[name]} for name, stat in stats.items()},
    }
    record = {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "items_per_workflow": items(workload, scale),
        "machine": {**started, "numpy": passed[0]["numpy"] if passed else "unknown"},
        "failed_frac": failed / len(runs),
        "metrics": {name: {**stat, "unit": units[name]} for name, stat in stats.items()},
        "sanity": sanity,
        "setup_s": setup_times,
        "runs": [{k: v for k, v in run.items() if k not in ("python", "numpy")} for run in runs],
    }
    return result, record


def report(workload: str, result: dict, record: dict) -> None:
    for name, stat in record["metrics"].items():
        print(
            f"{workload:14s} {name:34s} {stat['median']:.6g} {stat['unit']}  "
            f"(q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n {stat['n']})"
        )
    print(f"{workload:14s} {'failed_frac':34s} {record['failed_frac']:.6g}  ({result['failed']} of {result['attempted']} runs)")
    for run in record["runs"]:
        if not run["ok"]:
            print(f"{workload:14s} failed run: {run['error']}")
    if record["sanity"]:
        sanity = record["sanity"]
        print(f"sanity: {workload}: {sanity['layer']} covers {sanity['share_of_traced_wall']:.1%} of traced wall")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full", help="input sizes; smoke is for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "morphocomp" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'morphocomp'}; run from a checkout root", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, record = bench(workload, args.scale, args.seed, args.seconds, bool(args.trace), root)
            path = root / WORK / "results" / f"{workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(record, indent=2) + "\n")
            report(workload, result, record)
            print(f"{workload:14s} record: {path.relative_to(root)}")
            results[workload] = result
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
