"""Commands driven end to end, in process, with drawn inputs at the edges of their ranges.

Whatever is drawn, a command exits 0, 2 or 3; a failing one ends stderr
with one `error:` line after only soft-range `warning:` lines and leaves no
table behind; no warning or other exception escapes; and a successful one
writes measures in [0, 1] with c_w <= asoc_w.  A flag value that argparse
cannot convert exits 2 the same way, its line naming the parser.
"""

import contextlib
import csv
import io
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphocomp import rotator
from morphocomp.cli import BINARY_SWEEP_COLUMNS, build_parser, main
from morphocomp.estimation import DataError
from morphocomp.measures import INTRINSIC_MEASURES
from morphocomp.rotator import RotatorConfig
from test_estimation import cli_flags, column_specs, csv_files

FIELDS = [field.name for field in fields(RotatorConfig)]
EDGES = ("0", "-0", "1e-320", "5e-324", "1e20", "800", "-800", "1e308", "-1e308", "nan", "inf", "-inf", "x", "")

COMMANDS = {
    "run": ["rotator", "run", "--steps", "8"],
    "sweep": ["rotator", "sweep", "--eta", "0", "0.3", "--beta", "0", "--runs", "1", "--steps", "8"],
}
# the table a successful sweep writes, and its measure columns
TABLES = {
    "sweep": ("rotator_sweep.csv", INTRINSIC_MEASURES),
    "binary-sweep": ("binary_sweep.csv", BINARY_SWEEP_COLUMNS[3:]),
}


def run_in_process(argv):
    """(exit code, stdout lines, stderr lines) of `main(argv)`, any warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value before any command runs
            code = exc.code
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


def check_run(command, code, stdout, stderr, out: Path):
    assert code in (0, 2, 3), (command, code, stderr)
    if code:
        *warned, last = stderr
        assert last.startswith("error: "), (command, stderr)
        assert not list(out.glob("*.csv")), command
    else:
        warned = stderr
    assert all(line.startswith("warning: ") for line in warned), (command, stderr)
    if code == 0 and command in TABLES:
        table, measures = TABLES[command]
        with (out / table).open(newline="") as handle:
            for row in csv.DictReader(handle):
                assert all(0.0 <= float(row[name]) <= 1.0 for name in measures), row
                assert float(row["c_w"]) <= float(row["asoc_w"]) + 1e-12, row
    else:  # `rotator run` prints one `name value` line per measure
        printed = [line.split() for line in stdout]
        assert all(0.0 <= float(value) <= 1.0 for name, value in printed if name in INTRINSIC_MEASURES), stdout


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(FIELDS), st.sampled_from(EDGES), min_size=1, max_size=4))
# a response beyond the float range: it once overflowed with a numpy warning
@example({"theta_dot_target": "1e308", "f_min": "1e308"})
@example({"theta_dot_target": "-1e308", "control_dt": "1e-320", "beta": "1e308"})
# an eta of -0.0 passed the config check, then numpy refused its noise span with exit 2
@example({"eta": "-0"})
def test_rotator_config_files_end_to_end(entries):
    text = "version = 1\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "rotator.cfg"
        config.write_text(text, encoding="utf-8")
        for command, argv in COMMANDS.items():
            out = Path(tmp) / command
            code, stdout, stderr = run_in_process([*argv, "--config", str(config), "--out", str(out)])
            check_run(command, code, stdout, stderr, out)
            if command == "run" and loads(config):
                # `--steps 8` overrides no value the loader checked, so no usage error is left
                assert code in (0, 3), (entries, stderr)


def loads(config) -> bool:
    """Whether `rotator.load_config` accepts the file."""
    try:
        rotator.load_config(config)
    except DataError:
        return False
    return True


# --runs and --steps: small counts stand in for "800", which would run 800 episodes or steps a draw
COUNTS = tuple(edge for edge in EDGES if edge != "800") + ("1", "3")
# argparse reads a separate "-1e308" or "-inf" as a flag, and `--flag=value` holds one value
SEPARATE = tuple(edge for edge in EDGES if edge not in ("-1e308", "-inf"))


@st.composite
def sweep_argv(draw):
    """The command and argv of a `binary-sweep` or `rotator sweep`, its flags drawn from the edges.

    A grid of one value is passed as `--flag=value`, since argparse takes a
    separate `-1e308` for a flag; one of two values as separate arguments,
    drawn from `SEPARATE`.  The rotator's --steps is always drawn, as its
    default runs 5,000 steps.
    """
    if draw(st.booleans()):
        command, argv, grids = "binary-sweep", ["binary-sweep"], ("--phi", "--psi", "--mu")
        flags = {"--zeta": EDGES, "--tau": EDGES}
    else:
        command, argv, grids = "sweep", ["rotator", "sweep"], ("--eta", "--beta")
        flags = {"--runs": COUNTS, "--seed": EDGES}
        argv.append(f"--steps={draw(st.sampled_from(COUNTS))}")
    for flag in grids:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(EDGES))}")
        else:
            argv += [flag, *draw(st.lists(st.sampled_from(SEPARATE), min_size=2, max_size=2))]
    for flag, edges in flags.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(edges))}")
    return command, argv


@settings(max_examples=100, deadline=None)
@given(sweep_argv())
# an eta of -0.0 passed the grid check, then numpy refused its noise span with exit 2
@example(("sweep", ["rotator", "sweep", "--steps=8", "--eta", "-0", "0.3", "--beta=0", "--runs=1"]))
# a rejected grid once printed a soft-range warning for its value before the error
@example(("sweep", ["rotator", "sweep", "--steps=3", "--eta=-800", "--beta=0", "--runs=1"]))
def test_sweep_flags_end_to_end(drawn):
    command, argv = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, stdout, stderr = run_in_process([*argv, "--out", str(out)])
        check_run(command, code, stdout, stderr, out)
        if command == "sweep" and sweep_accepts(argv):
            assert code in (0, 3), (argv, stderr)
        elif command == "sweep":
            # the grid is checked before any value in it is warned about
            assert len(stderr) == 1, (argv, stderr)


def sweep_accepts(argv) -> bool:
    """Whether argparse and `rotator.sweep`'s up-front checks take the grids, runs and config of argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args([*argv, "--out", "unused"])
    except SystemExit:
        return False
    flags = {name: getattr(args, name) for name in ("steps", "seed") if getattr(args, name) is not None}
    try:
        rotator.sweep(args.eta_grid, args.beta_grid, args.runs, RotatorConfig(**flags))
    except ValueError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(
    st.fixed_dictionaries(
        # a valid count half the time, so that some runs get past argparse
        {"--steps": st.sampled_from(("3", "8")) | st.sampled_from(COUNTS)},
        optional={flag: st.sampled_from(EDGES) for flag in ("--eta", "--beta", "--seed")},
    )
)
# an eta whose noise span overflows once escaped as numpy's OverflowError
@example({"--steps": "8", "--eta": "1e308"})
def test_rotator_run_flags_end_to_end(flags):
    argv = ["rotator", "run", *(f"{flag}={value}" for flag, value in flags.items())]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        check_run("run", *run_in_process([*argv, "--out", str(out)]), out)


# alphabet sizes and bin counts stay small, as a table of 800 x 800 x 800 floats would take 4 GB
SIZES = COUNTS + ("7",)
MEASURES = ("asoc_a", "c_w,asoc_w", ",".join(INTRINSIC_MEASURES), "asoc_a,asoc_a", "mc_w", "", "x")


@st.composite
def measure_argv(draw):
    """A `measure` argv on a drawn file, with size, bin and --measures flags drawn from the edges.

    Each column takes the flags that fit the file, none, a size, bins, or
    both a size and bins.
    """
    text, options = draw(csv_files())
    flags = []
    for name, spec in zip(("sensor", "action"), column_specs(options)):
        kinds = draw(st.sampled_from(["fitting", "none", "size", "bins", "size+bins"]))
        if kinds == "fitting":
            flags += cli_flags({name: spec})
        if "size" in kinds:
            flags.append(f"--{name}-size={draw(st.sampled_from(SIZES))}")
        if "bins" in kinds:
            low, high = draw(st.sampled_from(EDGES)), draw(st.sampled_from(EDGES))
            flags.append(f"--{name}-bins={low}:{high}:{draw(st.sampled_from(SIZES))}")
    if draw(st.booleans()):
        flags.append(f"--measures={draw(st.sampled_from(MEASURES))}")
    return text, flags


@settings(max_examples=100, deadline=None)
@given(measure_argv())
def test_measure_flags_end_to_end(drawn):
    text, flags = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "series.csv", Path(tmp) / "out"
        path.write_bytes(text.encode())
        argv = ["measure", f"--input={path}", *flags, "--out", str(out)]
        check_run("measure", *run_in_process(argv), out)
