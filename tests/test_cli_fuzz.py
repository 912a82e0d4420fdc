"""Commands driven end to end, in process, with drawn inputs at the edges of their ranges.

Whatever is drawn, a command exits 0, 2 or 3; a failing one ends stderr
with one `error:` line after only soft-range `warning:` lines and leaves no
table behind; no warning or other exception escapes; and a successful one
writes measures in [0, 1] with c_w <= asoc_w.
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

from morphocomp.cli import main
from morphocomp.measures import INTRINSIC_MEASURES
from morphocomp.rotator import RotatorConfig

FIELDS = [field.name for field in fields(RotatorConfig)]
EDGES = ("0", "-0", "1e-320", "5e-324", "1e20", "800", "-800", "1e308", "-1e308", "nan", "inf", "-inf", "x", "")

COMMANDS = {
    "run": ["rotator", "run", "--steps", "8"],
    "sweep": ["rotator", "sweep", "--eta", "0", "0.3", "--beta", "0", "--runs", "1", "--steps", "8"],
}


def run_in_process(argv):
    """(exit code, stdout lines, stderr lines) of `main(argv)`, any warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
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
    if code == 0 and command == "sweep":
        with (out / "rotator_sweep.csv").open(newline="") as handle:
            for row in csv.DictReader(handle):
                assert all(0.0 <= float(row[name]) <= 1.0 for name in INTRINSIC_MEASURES), row
                assert float(row["c_w"]) <= float(row["asoc_w"]) + 1e-12, row
    else:  # `rotator run` prints one `name value` line per measure
        printed = [line.split() for line in stdout]
        assert all(0.0 <= float(value) <= 1.0 for name, value in printed if name in INTRINSIC_MEASURES), stdout


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(FIELDS), st.sampled_from(EDGES), min_size=1, max_size=4))
# a response beyond the float range: it once overflowed with a numpy warning
@example({"theta_dot_target": "1e308", "f_min": "1e308"})
@example({"theta_dot_target": "-1e308", "control_dt": "1e-320", "beta": "1e308"})
def test_rotator_config_files_end_to_end(entries):
    text = "version = 1\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "rotator.cfg"
        config.write_text(text, encoding="utf-8")
        for command, argv in COMMANDS.items():
            out = Path(tmp) / command
            code, stdout, stderr = run_in_process([*argv, "--config", str(config), "--out", str(out)])
            check_run(command, code, stdout, stderr, out)
