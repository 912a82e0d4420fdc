"""Command-line front end.

Commands:
  measure       intrinsic measures of a recorded t,s,a series
  binary-sweep  exact measure surfaces of the parameterised binary loop
  rotator run   one pendulum episode (transients + symbol series)
  rotator sweep averaged measures over a noise/deadband grid

Every invocation that writes files also writes a manifest.json capturing the
resolved configuration, seed and tool version, sufficient to regenerate the
outputs bit-identically.  Exit codes: 0 success, 2 usage or parse error or
out of memory, 3 numerical or consistency error (a ``prob.ComputeError``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import __version__, binary, rotator
from .estimation import Binner, estimate, read_symbol_series
from .measures import INTRINSIC_MEASURES, MeasureReport, intrinsic_measures
from .prob import ComputeError
from .rotator import RotatorConfig

BINARY_SWEEP_COLUMNS = ("phi", "psi", "mu", "mc_a", "mc_w", "asoc_a", "asoc_w", "c_a", "c_w")
ROTATOR_SWEEP_COLUMNS = ("eta", "beta", "asoc_a", "c_a", "asoc_w", "c_w", "runs")

# documented parameter ranges; exceeding them warns but still runs
ETA_RANGE = (0.0, 0.5)
BETA_RANGE = (0.0, 2.0)

# |S| x |A| x |S| float64 tables `measure` holds at once at its peak: about 3.2
# in `estimate`, then 6.2-6.6 in `intrinsic_measures`, the model's included
PEAK_TABLES = 7


class UsageError(ValueError):
    """Bad flag combination detected after argparse."""


def _parse_binner(text: str) -> Binner:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"binner spec {text!r} must be LOW:HIGH:BINS")
    try:
        return Binner(float(parts[0]), float(parts[1]), int(parts[2]))
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"bad binner spec {text!r}: {exc}") from None


def _write_manifest(out_dir: Path, command: str, config: dict, seed, outputs: list[str]) -> None:
    """Write manifest.json: everything needed to regenerate the outputs bit-identically."""
    manifest = {
        "command": command,
        "config": config,
        "tool_version": __version__,
        "master_seed": seed,
        "outputs": outputs,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_json(path: Path, document, sort_keys: bool = True) -> None:
    with path.open("w") as handle:
        json.dump(document, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")


def _write_table(out: Path, stem: str, fmt: str, columns, reports: Iterable[MeasureReport]) -> Path:
    """Write one row per report, its metadata and values picked by `columns`.

    `fmt` "json" writes `<stem>.json`, a list of records in column order;
    anything else writes `<stem>.csv`.  The reports may be a stream: CSV
    rows are written as they arrive, and a stream that fails leaves no
    partial table behind.
    """
    records = ({**report.metadata, **report.values} for report in reports)
    path = out / f"{stem}.{'json' if fmt == 'json' else 'csv'}"
    try:
        if fmt == "json":
            _write_json(path, [{c: record[c] for c in columns} for record in records], sort_keys=False)
        else:
            _write_csv(path, columns, ([record[c] for c in columns] for record in records))
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _ensure_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_measure(args) -> int:
    for column in ("sensor", "action"):
        bins, size = getattr(args, f"{column}_bins"), getattr(args, f"{column}_size")
        if size is not None and size < 1:
            raise UsageError(f"--{column}-size must be at least 1, got {size}")
        if bins is not None and size is not None:
            raise UsageError(
                f"--{column}-bins and --{column}-size conflict: a binned column's "
                "alphabet size is its bin count"
            )
    sensor_binner = _parse_binner(args.sensor_bins) if args.sensor_bins is not None else None
    action_binner = _parse_binner(args.action_bins) if args.action_bins is not None else None
    names = tuple(args.measures.split(",")) if args.measures is not None else INTRINSIC_MEASURES
    for name in names:
        if name not in INTRINSIC_MEASURES:
            raise UsageError(
                f"unknown measure {name!r}; choose from {', '.join(INTRINSIC_MEASURES)}"
            )
        if names.count(name) > 1:
            raise UsageError(f"measure {name!r} is named more than once in --measures")
    series, s_alph, a_alph = read_symbol_series(
        args.input,
        sensor_binner=sensor_binner,
        action_binner=action_binner,
        sensor_size=args.sensor_size,
        action_size=args.action_size,
    )
    needed = 8 * s_alph.size**2 * a_alph.size
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if PEAK_TABLES * needed > memory:
        s_from, a_from = (
            f"--{c}-bins" if vars(args)[f"{c}_bins"] else f"--{c}-size" if vars(args)[f"{c}_size"]
            else f"inferred from column {c[0]}" for c in ("sensor", "action")
        )
        raise UsageError(
            f"a {s_alph.size} x {a_alph.size} x {s_alph.size} model (|S|: {s_from}; |A|: {a_from}) "
            f"needs {needed} bytes of float64, more than the {memory // PEAK_TABLES} bytes per "
            f"table with {PEAK_TABLES} tables held at once in the {memory} bytes of physical memory"
        )
    model = estimate(series, s_alph, a_alph)
    report = MeasureReport(
        intrinsic_measures(model, names),
        metadata={
            "input": str(args.input),
            "transitions": len(series),
            "sensor_alphabet": s_alph.size,
            "action_alphabet": a_alph.size,
        },
    )
    document = {"values": report.values, "metadata": report.metadata}
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for name in names:
            print(f"{name:<8s} {report[name]:.6f}")
    if args.out:
        out = _ensure_out(args)
        report_path = out / "report.json"
        _write_json(report_path, document)
        _write_manifest(
            out,
            "measure",
            {
                "input": str(args.input),
                "sensor_bins": args.sensor_bins,
                "action_bins": args.action_bins,
                "sensor_size": args.sensor_size,
                "action_size": args.action_size,
                "measures": list(names),
            },
            None,
            [report_path.name],
        )
    return 0


def cmd_binary_sweep(args) -> int:
    reports = binary.sweep(args.phi, args.psi, args.mu, zeta=args.zeta, tau=args.tau)
    points = len(args.phi) * len(args.psi) * len(args.mu)
    out = _ensure_out(args)
    table_path = _write_table(out, "binary_sweep", args.format, BINARY_SWEEP_COLUMNS, reports)
    _write_manifest(
        out,
        "binary-sweep",
        {
            "phi": [float(v) for v in args.phi],
            "psi": [float(v) for v in args.psi],
            "mu": [float(v) for v in args.mu],
            "zeta": args.zeta,
            "tau": args.tau,
            "format": args.format,
        },
        None,
        [table_path.name],
    )
    print(f"{points} grid points -> {table_path}")
    return 0


def _warn_soft_range(name: str, value: float, low: float, high: float) -> None:
    if not low <= value <= high:
        print(
            f"warning: {name} = {value:g} is outside the documented range "
            f"[{low:g}, {high:g}]; running anyway",
            file=sys.stderr,
        )


def _rotator_config(args) -> RotatorConfig:
    """Config-file values first (if given), explicit flags override."""
    # `rotator sweep` has no eta or beta flag: its grids are eta_grid and beta_grid
    cfg = rotator.load_config(args.config) if args.config else RotatorConfig()
    flags = {name: getattr(args, name, None) for name in ("steps", "seed", "eta", "beta")}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def cmd_rotator_run(args) -> int:
    cfg = _rotator_config(args)
    _warn_soft_range("eta", cfg.eta, *ETA_RANGE)
    _warn_soft_range("beta", cfg.beta, *BETA_RANGE)
    episode = rotator.run_episode(cfg)
    report = MeasureReport(rotator.episode_measures(episode.series))
    out = _ensure_out(args)

    transients_path = out / "transients.csv"
    _write_csv(
        transients_path,
        ("t", "s", "g_clamped", "f"),
        zip(
            episode.times,
            episode.sensor_values[:-1],
            episode.g_clamped,
            episode.forces,
        ),
    )
    series_path = out / "series.csv"
    steps = zip(episode.times, episode.velocities[:-1], episode.forces / cfg.f_max)
    # final observation has no action yet
    final = (cfg.steps * cfg.control_dt, episode.velocities[-1], "")
    _write_csv(series_path, ("t", "s", "a"), itertools.chain(steps, [final]))

    for name, value in report.values.items():
        print(f"{name:<8s} {value:.6f}")
    _write_manifest(
        out,
        "rotator-run",
        {**dataclasses.asdict(cfg), "config_file": args.config},
        cfg.seed,
        [transients_path.name, series_path.name],
    )
    return 0


def cmd_rotator_sweep(args) -> int:
    for eta in args.eta_grid:
        _warn_soft_range("eta", eta, *ETA_RANGE)
    for beta in args.beta_grid:
        _warn_soft_range("beta", beta, *BETA_RANGE)
    cfg = _rotator_config(args)
    reports = rotator.sweep(args.eta_grid, args.beta_grid, args.runs, cfg)
    out = _ensure_out(args)
    table_path = _write_table(out, "rotator_sweep", args.format, ROTATOR_SWEEP_COLUMNS, reports)
    _write_manifest(
        out,
        "rotator-sweep",
        {
            **dataclasses.asdict(cfg),
            "eta_grid": [float(v) for v in args.eta_grid],
            "beta_grid": [float(v) for v in args.beta_grid],
            "runs": args.runs,
            "config_file": args.config,
            "format": args.format,
        },
        cfg.seed,
        [table_path.name],
    )
    print(f"{len(args.eta_grid) * len(args.beta_grid)} cells x {args.runs} runs -> {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphocomp",
        description="Morphological-computation measures for discrete sensorimotor data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="measures of a recorded t,s,a CSV")
    p_measure.add_argument("--input", required=True, help="CSV with header t,s,a")
    p_measure.add_argument("--sensor-bins", metavar="LOW:HIGH:BINS", help="bin real sensor values")
    p_measure.add_argument(
        "--action-bins",
        metavar="LOW:HIGH:BINS",
        help="bin real action values (use --action-bins=-1:1:30 for negative bounds)",
    )
    p_measure.add_argument("--sensor-size", type=int, help="alphabet size for integer sensor symbols")
    p_measure.add_argument("--action-size", type=int, help="alphabet size for integer action symbols")
    p_measure.add_argument("--measures", help=f"comma list from {','.join(INTRINSIC_MEASURES)}")
    p_measure.add_argument("--out", help="directory for report.json + manifest")
    p_measure.add_argument("--format", choices=("table", "json"), default="table")
    p_measure.set_defaults(func=cmd_measure)

    p_binary = sub.add_parser("binary-sweep", help="exact binary-loop measure surfaces")
    p_binary.add_argument("--phi", type=float, nargs="+", help="world self-coupling grid")
    p_binary.add_argument("--psi", type=float, nargs="+", help="action coupling grid")
    p_binary.add_argument("--mu", type=float, nargs="+", help="policy sharpness grid")
    p_binary.add_argument("--zeta", type=float, default=binary.STRICT, help="sensor sharpness")
    p_binary.add_argument("--tau", type=float, default=0.0, help="world prior bias")
    p_binary.add_argument("--out", required=True, help="output directory")
    p_binary.add_argument("--format", choices=("csv", "json"), default="csv")
    grid = binary.DEFAULT_GRID
    p_binary.set_defaults(func=cmd_binary_sweep, phi=grid, psi=grid, mu=binary.DEFAULT_MU_VALUES)

    p_rot = sub.add_parser("rotator", help="pendulum experiment")
    rot_sub = p_rot.add_subparsers(dest="rotator_command", required=True)

    p_run = rot_sub.add_parser("run", help="single episode")
    p_run.add_argument("--config", help="key = value config file; flags override")
    p_run.add_argument("--eta", type=float, help="sensor noise fraction")
    p_run.add_argument("--beta", type=float, help="controller deadband")
    p_run.add_argument("--steps", type=int, help="control updates (default 5000)")
    p_run.add_argument("--seed", type=int, help="master seed (default 0)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_rotator_run)

    p_sweep = rot_sub.add_parser("sweep", help="grid of averaged measures")
    p_sweep.add_argument("--config", help="key = value config file; flags override")
    p_sweep.add_argument("--eta", type=float, nargs="+", dest="eta_grid", help="noise grid")
    p_sweep.add_argument("--beta", type=float, nargs="+", dest="beta_grid", help="deadband grid")
    p_sweep.add_argument("--runs", type=int, default=10, help="episodes per cell")
    p_sweep.add_argument("--steps", type=int, help="control updates (default 5000)")
    p_sweep.add_argument("--seed", type=int, help="master seed (default 0)")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    eta_grid = [round(0.025 * i, 3) for i in range(21)]
    beta_grid = [round(0.01 * i, 2) for i in range(201)]
    p_sweep.set_defaults(func=cmd_rotator_sweep, eta_grid=eta_grid, beta_grid=beta_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # most ComputeErrors are ValueErrors too, so this clause must come first
    except ComputeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # DataError, UsageError and the range checks of the configs and sweeps
    # are ValueErrors; OSError covers missing inputs and blocked outputs
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
