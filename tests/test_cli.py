import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from morphocomp import binary, cli, rotator
from morphocomp.cli import build_parser, main
from morphocomp.measures import ConsistencyError
from morphocomp.prob import (
    ComputeError,
    DegenerateAlphabetError,
    DimensionError,
    InvalidDistributionError,
    SupportError,
)
from morphocomp.rotator import NumericalError


def run_cli(*argv):
    return main(list(argv))


def write_series(path, rows, header="t,s,a"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestMeasureCommand:
    def make_uniform_series(self, tmp_path, n=3000):
        rng = np.random.default_rng(0)
        sensors = rng.integers(0, 3, size=n + 1)
        actions = rng.integers(0, 2, size=n)
        rows = [f"{t},{sensors[t]},{actions[t]}" for t in range(n)]
        rows.append(f"{n},{sensors[n]},")
        return write_series(tmp_path / "uniform.csv", rows)

    def test_uniform_series_measures(self, tmp_path, capsys):
        path = self.make_uniform_series(tmp_path)
        code = run_cli(
            "measure", "--input", str(path),
            "--sensor-size", "3", "--action-size", "2",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["asoc_a"] > 0.95
        assert report["values"]["asoc_w"] < 0.05
        assert report["metadata"]["transitions"] == 3000

    def test_measure_selection_and_report_file(self, tmp_path, capsys):
        path = self.make_uniform_series(tmp_path, n=500)
        out = tmp_path / "out"
        code = run_cli(
            "measure", "--input", str(path),
            "--sensor-size", "3", "--action-size", "2",
            "--measures", "c_w,asoc_a", "--out", str(out),
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        report = json.loads((out / "report.json").read_text())
        assert set(report["values"]) == {"c_w", "asoc_a"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "measure"
        assert "report.json" in manifest["outputs"]

    def test_symbol_out_of_declared_range(self, tmp_path, capsys):
        path = write_series(tmp_path / "bad.csv", ["0,0,0", "1,31,1", "2,1,"])
        code = run_cli("measure", "--input", str(path), "--sensor-size", "30", "--action-size", "2")
        assert code == 2
        assert "31" in capsys.readouterr().err

    def test_real_values_need_binner(self, tmp_path, capsys):
        path = write_series(tmp_path / "real.csv", ["0,0.5,0", "1,1.5,"])
        code = run_cli("measure", "--input", str(path))
        assert code == 2
        assert "binner" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli("measure", "--input", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_unknown_measure_name(self, tmp_path, capsys):
        path = self.make_uniform_series(tmp_path, n=50)
        code = run_cli(
            "measure", "--input", str(path),
            "--sensor-size", "3", "--action-size", "2",
            "--measures", "mc_a",
        )
        assert code == 2

    def test_unknown_measure_is_named_before_the_input_is_read(self, tmp_path, capsys):
        code = run_cli("measure", "--input", str(tmp_path / "nope.csv"), "--measures", "bogus")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown measure 'bogus'; choose from asoc_a, asoc_w, c_a, c_w\n"
        )

    def test_repeated_measure_name_is_named(self, tmp_path, capsys):
        path = self.make_uniform_series(tmp_path, n=50)
        code = run_cli("measure", "--input", str(path), "--measures", "c_w,asoc_a,c_w")
        assert code == 2
        assert capsys.readouterr().err == "error: measure 'c_w' is named more than once in --measures\n"

    def test_huge_sample_bins_as_the_top_of_the_range(self, tmp_path, capsys):
        bins = ["--sensor-bins", "0:8:30", "--action-bins=-1:1:30"]
        huge = write_series(tmp_path / "huge.csv", ["0,1e308,0.5", "1,2,"])
        top = write_series(tmp_path / "top.csv", ["0,8,0.5", "1,2,"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("measure", "--input", str(huge), *bins) == 0
        huge_output = capsys.readouterr()
        assert huge_output.err == ""
        assert run_cli("measure", "--input", str(top), *bins) == 0
        assert huge_output.out == capsys.readouterr().out

    def test_bad_binner_spec(self, tmp_path, capsys):
        path = self.make_uniform_series(tmp_path, n=50)
        code = run_cli("measure", "--input", str(path), "--sensor-bins", "0:8")
        assert code == 2


class TestMeasureMemory:
    """Sized by flags or inferred, `measure` holds the counts and one block, not the series."""

    @staticmethod
    def peak(tmp_path, rows, inferred=False):
        rng = np.random.default_rng(0)
        if inferred:
            # integer symbols, their alphabets sized by the largest
            sensors, actions = rng.integers(0, 30, (2, rows)).tolist()
            flags = []
        else:
            sensors, actions = rng.uniform(0.0, 8.0, rows).tolist(), rng.uniform(-1.0, 1.0, rows).tolist()
            flags = ["--sensor-bins", "0:8:30", "--action-bins=-1:1:30"]
        path = tmp_path / f"series-{rows}.csv"
        body = "".join(f"{t},{s!r},{a!r}\n" for t, (s, a) in enumerate(zip(sensors, actions)))
        path.write_text("t,s,a\n" + body)
        tracemalloc.start()
        try:
            code = run_cli("measure", "--input", str(path), *flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_peak_does_not_grow_with_the_series(self, tmp_path, capsys):
        small, large = (self.peak(tmp_path, rows) for rows in (20_000, 200_000))
        # the series alone would take 16 bytes a row, 2.9 MB more on the larger file
        assert abs(large - small) < 1_000_000

    def test_peak_does_not_grow_with_the_series_with_inferred_sizes(self, tmp_path, capsys):
        small, large = (self.peak(tmp_path, rows, inferred=True) for rows in (20_000, 200_000))
        # reading the whole series first took about 32 bytes a row, 5.8 MB more on the larger file
        assert abs(large - small) < 1_000_000


class TestBinarySweepCommand:
    def read_rows(self, path):
        with path.open() as handle:
            return list(csv.DictReader(handle))

    def test_corner_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(
            "binary-sweep", "--phi", "0", "20", "--psi", "0", "20", "--mu", "0",
            "--out", str(out),
        )
        assert code == 0
        rows = self.read_rows(out / "binary_sweep.csv")
        assert len(rows) == 4
        by_corner = {(float(r["phi"]), float(r["psi"])): r for r in rows}
        assert float(by_corner[(20.0, 0.0)]["mc_a"]) >= 0.999
        assert float(by_corner[(20.0, 0.0)]["mc_w"]) >= 0.999
        assert float(by_corner[(0.0, 20.0)]["mc_a"]) <= 0.001
        assert float(by_corner[(0.0, 20.0)]["mc_w"]) <= 0.001
        assert float(by_corner[(0.0, 0.0)]["mc_a"]) == pytest.approx(1.0, abs=1e-12)
        assert float(by_corner[(0.0, 0.0)]["mc_w"]) == pytest.approx(0.0, abs=1e-12)
        assert float(by_corner[(20.0, 20.0)]["mc_a"]) < 1 - 1e-3
        assert float(by_corner[(20.0, 20.0)]["mc_w"]) > 1e-3

    def test_sharp_policy_column(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "binary-sweep", "--phi", "0", "2.5", "5", "--psi", "0", "5",
            "--mu", "20", "--out", str(out),
        )
        assert code == 0
        for row in self.read_rows(out / "binary_sweep.csv"):
            assert float(row["mc_a"]) >= 0.999
            assert float(row["mc_w"]) <= 0.001

    def test_columns_and_manifest(self, tmp_path):
        out = tmp_path / "sweep"
        run_cli("binary-sweep", "--phi", "1", "--psi", "1", "--mu", "0", "--out", str(out))
        with (out / "binary_sweep.csv").open() as handle:
            header = handle.readline().strip().split(",")
        assert header == ["phi", "psi", "mu", "mc_a", "mc_w", "asoc_a", "asoc_w", "c_a", "c_w"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["zeta"] == 20.0
        assert manifest["outputs"] == ["binary_sweep.csv"]

    def test_failing_point_is_named(self, tmp_path, capsys):
        # zeta = tau = 800 puts all sensor mass on one symbol at every point;
        # the error names the first of them in grid order
        out = tmp_path / "sweep"
        code = run_cli(
            "binary-sweep", "--phi", "1", "2", "--psi", "1", "--mu", "0", "5",
            "--zeta", "800", "--tau", "800", "--out", str(out),
        )
        assert code == 3
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: ")
        assert "phi=1, psi=1, mu=0" in error
        assert "zero marginal probability" in error
        assert not (out / "binary_sweep.csv").exists()

    def test_underflowing_point_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["binary-sweep", "--phi", "400", "--psi", "50", "--mu", "50", "--out", str(out)]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""
        (row,) = self.read_rows(out / "binary_sweep.csv")
        assert float(row["mc_a"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["mc_w"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "couplings",
        [("1", "1", "1e308"), ("1e308", "1e308", "1")],
        ids=["overflowing-spread", "overflowing-sum"],
    )
    def test_couplings_near_the_float_limit_exit_zero(self, tmp_path, capsys, couplings):
        phi, psi, mu = couplings
        out = tmp_path / "sweep"
        argv = ["binary-sweep", "--phi", phi, "--psi", psi, "--mu", mu, "--out", str(out)]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""
        (row,) = self.read_rows(out / "binary_sweep.csv")
        assert all(0.0 <= float(row[name]) <= 1.0 for name in cli.BINARY_SWEEP_COLUMNS[3:])

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep"
        run_cli(
            "binary-sweep", "--phi", "0", "--psi", "0", "--mu", "0",
            "--format", "json", "--out", str(out),
        )
        rows = json.loads((out / "binary_sweep.json").read_text())
        assert rows[0]["mc_a"] == pytest.approx(1.0, abs=1e-12)


class TestRotatorCommands:
    def test_run_outputs_and_silence_after_spin_up(self, tmp_path, capsys):
        out = tmp_path / "episode"
        code = run_cli(
            "rotator", "run", "--eta", "0", "--beta", "2.0", "--seed", "7",
            "--steps", "1500", "--out", str(out),
        )
        assert code == 0
        with (out / "transients.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1500
        late_forces = [float(r["f"]) for r in rows if float(r["t"]) >= 3.0]
        assert late_forces and all(f == 0.0 for f in late_forces)
        early_forces = [float(r["f"]) for r in rows if float(r["t"]) < 2.0]
        assert any(f != 0.0 for f in early_forces)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["config"]["beta"] == 2.0

    def test_run_then_measure_round_trip(self, tmp_path, capsys):
        out = tmp_path / "episode"
        code = run_cli(
            "rotator", "run", "--eta", "0", "--beta", "2.0", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        run_table = capsys.readouterr().out.splitlines()
        bins = ["--sensor-bins", "0:8:30", "--action-bins=-1:1:30"]
        assert run_cli("measure", "--input", str(out / "series.csv"), *bins) == 0
        assert capsys.readouterr().out.splitlines() == run_table
        assert len(run_table) == 4
        code = run_cli("measure", "--input", str(out / "series.csv"), *bins, "--format", "json")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # single noiseless episode reproduces the reference coasting values
        assert report["values"]["c_w"] == pytest.approx(0.54, abs=0.05)
        assert report["values"]["asoc_a"] == pytest.approx(0.99, abs=0.05)

    def test_run_value_out_of_range_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rotator, "intrinsic_values", lambda *tables: {"asoc_a": np.array([1.5])})
        out = tmp_path / "episode"
        assert run_cli("rotator", "run", "--steps", "50", "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: measure asoc_a = 1.5 is outside [0, 1] beyond tolerance"
        ]
        assert not out.exists()

    def test_soft_range_warning(self, tmp_path, capsys):
        out = tmp_path / "episode"
        code = run_cli(
            "rotator", "run", "--eta", "0.9", "--beta", "0.0",
            "--steps", "200", "--out", str(out),
        )
        assert code == 0
        assert "outside the documented range" in capsys.readouterr().err

    def test_sweep_csv_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = [
            "rotator", "sweep", "--eta", "0", "0.2", "--beta", "0", "1.0",
            "--runs", "2", "--steps", "400", "--seed", "11",
        ]
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        bytes_a = (out_a / "rotator_sweep.csv").read_bytes()
        assert bytes_a == (out_b / "rotator_sweep.csv").read_bytes()
        with (out_a / "rotator_sweep.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert [r["eta"] for r in rows] == ["0.0", "0.0", "0.2", "0.2"]
        for row in rows:
            assert row["runs"] == "2"
            for name in ("asoc_a", "c_a", "asoc_w", "c_w"):
                assert 0.0 <= float(row[name]) <= 1.0

    def test_run_with_negative_zero_eta_runs_as_zero(self, tmp_path, capsys):
        args = ["rotator", "run", "--beta", "0.5", "--steps", "200"]
        negative, zero = tmp_path / "negative", tmp_path / "zero"
        assert run_cli(*args, "--eta=-0.0", "--out", str(negative)) == 0
        measured = capsys.readouterr()
        assert run_cli(*args, "--eta", "0", "--out", str(zero)) == 0
        assert measured == capsys.readouterr()
        for name in ("transients.csv", "series.csv"):
            assert (negative / name).read_bytes() == (zero / name).read_bytes()

    def test_sweep_with_negative_zero_eta_runs_as_zero(self, tmp_path):
        args = ["rotator", "sweep", "--beta", "0", "0.5", "--runs", "2", "--steps", "200"]
        negative, zero = tmp_path / "negative", tmp_path / "zero"
        assert run_cli(*args, "--eta", "-0.0", "0.2", "--out", str(negative)) == 0
        assert run_cli(*args, "--eta", "0", "0.2", "--out", str(zero)) == 0
        tables = [
            list(csv.DictReader((out / "rotator_sweep.csv").read_text().splitlines()))
            for out in (negative, zero)
        ]
        etas = [[row.pop("eta") for row in rows] for rows in tables]
        assert etas == [["-0.0", "-0.0", "0.2", "0.2"], ["0.0", "0.0", "0.2", "0.2"]]
        assert tables[0] == tables[1]

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        config = tmp_path / "rotator.cfg"
        config.write_text("version = 1\neta = 0.2\nbeta = 1.5\nsteps = 300\nseed = 8\n")
        out = tmp_path / "episode"
        code = run_cli(
            "rotator", "run", "--config", str(config), "--beta", "0.5", "--out", str(out)
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["eta"] == 0.2  # from the file
        assert manifest["config"]["beta"] == 0.5  # flag wins
        assert manifest["config"]["steps"] == 300
        assert manifest["master_seed"] == 8

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "rotator.cfg"
        config.write_text("version = 1\nbogus = 1\n")
        code = run_cli("rotator", "run", "--config", str(config), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_transients_match_between_identical_runs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["rotator", "run", "--eta", "0.3", "--beta", "1.0", "--seed", "5", "--steps", "300"]
        run_cli(*args, "--out", str(out_a))
        run_cli(*args, "--out", str(out_b))
        assert (out_a / "transients.csv").read_bytes() == (out_b / "transients.csv").read_bytes()
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()


class TestBadInputExitsTwo:
    """Rejected input ends in exit 2 and an `error:` line, never a traceback."""

    SWEEP = ["rotator", "sweep", "--eta", "0", "--beta", "0", "--steps", "50", "--runs", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            SWEEP + ["--runs", "0", "--out", "{out}"],
            SWEEP + ["--steps", "0", "--out", "{out}"],
            SWEEP + ["--seed", "-1", "--out", "{out}"],
            SWEEP + ["--eta", "-0.1", "--out", "{out}"],
            SWEEP + ["--eta", "nan", "--out", "{out}"],
            SWEEP + ["--eta", "1e308", "--out", "{out}"],
            ["rotator", "run", "--beta", "nan", "--steps", "50", "--out", "{out}"],
            ["rotator", "run", "--eta", "nan", "--steps", "50", "--out", "{out}"],
            ["rotator", "run", "--eta", "inf", "--steps", "50", "--out", "{out}"],
            ["rotator", "run", "--eta", "9e307", "--steps", "5", "--out", "{out}"],
            ["rotator", "run", "--config", "{config}", "--steps", "5", "--out", "{out}"],
            ["binary-sweep", "--phi", "-1", "--psi", "0", "--mu", "0", "--out", "{out}"],
            ["binary-sweep", "--phi", "nan", "--psi", "0", "--mu", "0", "--out", "{out}"],
            ["binary-sweep", "--phi", "0", "--psi", "inf", "--mu", "0", "--out", "{out}"],
            ["binary-sweep", "--phi", "0", "--psi", "0", "--mu", "0", "nan", "--out", "{out}"],
            ["binary-sweep", "--phi", "0", "--psi", "0", "--mu", "0", "--zeta", "inf", "--out", "{out}"],
            ["binary-sweep", "--phi", "0", "--psi", "0", "--mu", "0", "--tau", "nan", "--out", "{out}"],
            ["measure", "--input", "{series}", "--out", "{series}"],
            ["measure", "--input", "{tmp}"],
            ["measure", "--input", "{empty}", "--sensor-size", "2", "--action-size", "0"],
            ["measure", "--input", "{series}", "--sensor-size", "-3", "--action-size", "3"],
            ["measure", "--input", "{series}", "--sensor-bins", "0:inf:30"],
            ["measure", "--input", "{series}", "--sensor-bins=-inf:8:30"],
            ["measure", "--input", "{series}", "--sensor-bins", "0:8:30", "--sensor-size", "5"],
            ["measure", "--input", "{series}", "--action-bins=-1:1:30", "--action-size", "5"],
            ["measure", "--input", "{series}", "--sensor-bins", "0:1e308:30"],
            ["measure", "--input", "{series}", "--measures", "asoc_a,asoc_a"],
            ["measure", "--input", "{series}", "--sensor-bins", "0:1:100000000000"],
            ["measure", "--input", "{series}", "--sensor-bins", "0:1:" + "9" * 401],
            ["measure", "--input", "{series}", "--sensor-size", "100000000000"],
            ["measure", "--input", "{huge}"],
            ["measure", "--input", "{series}", "--sensor-bins", "0:1:3000", "--action-bins=-1:1:3000"],
            ["measure", "--input", "{series}", "--measures", ""],
            ["measure", "--input", "{series}", "--sensor-bins", ""],
            ["measure", "--input", "{series}", "--action-bins", ""],
        ],
        ids=[
            "sweep-runs-0",
            "sweep-steps-0",
            "sweep-seed-negative",
            "sweep-eta-negative",
            "sweep-eta-nan",
            "sweep-eta-noise-span-overflows",
            "run-beta-nan",
            "run-eta-nan",
            "run-eta-inf",
            "run-eta-noise-span-overflows",
            "run-config-byte-not-utf-8",
            "binary-phi-negative",
            "binary-phi-nan",
            "binary-psi-inf",
            "binary-mu-nan",
            "binary-zeta-inf",
            "binary-tau-nan",
            "measure-out-is-a-file",
            "measure-input-is-a-directory",
            "measure-action-size-0",
            "measure-sensor-size-negative",
            "measure-sensor-bins-high-inf",
            "measure-sensor-bins-low-minus-inf",
            "measure-sensor-bins-with-sensor-size",
            "measure-action-bins-with-action-size",
            "measure-sensor-bins-overflow",
            "measure-repeated-name",
            "measure-sensor-bins-1e11",
            "measure-sensor-bins-401-digits",
            "measure-sensor-size-1e11",
            "measure-inferred-sensor-size-1e11",
            "measure-bins-3000-each",
            "measure-measures-empty",
            "measure-sensor-bins-empty",
            "measure-action-bins-empty",
        ],
    )
    def test_exits_two_with_error_line(self, tmp_path, capsys, argv):
        series = write_series(tmp_path / "series.csv", ["0,0,1", "1,2,0", "2,1,"])
        empty = write_series(tmp_path / "empty.csv", ["0,0,"])
        huge = write_series(tmp_path / "huge.csv", ["0,100000000000,0", "1,0,1", "2,1,"])
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"version = 1\nbeta = 2.0\xff\n")
        paths = {"series": series, "empty": empty, "huge": huge, "config": config}
        argv = [a.format(out=tmp_path / "out", tmp=tmp_path, **paths) for a in argv]
        assert run_cli(*argv) == 2
        (line,) = capsys.readouterr().err.splitlines()  # no warning about a rejected value
        assert line.startswith("error: ")

    # argparse printed its usage, then `morphocomp binary-sweep: error: ...`
    @pytest.mark.parametrize(
        "argv, line",
        [
            (["binary-sweep", "--phi=x", "--out", "{out}"],
             "error: morphocomp binary-sweep: argument --phi: invalid float value: 'x'"),
            (["measure"], "error: morphocomp measure: the following arguments are required: --input"),
        ],
        ids=["binary-phi-not-a-float", "measure-without-input"],
    )
    def test_argparse_rejection_is_one_error_line(self, tmp_path, capsys, argv, line):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(*(a.format(out=tmp_path / "out") for a in argv))
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "sizes, message",
        [
            (["--sensor-size", "2", "--action-size", "0"], "--action-size must be at least 1, got 0"),
            (["--sensor-size", "-3", "--action-size", "2"], "--sensor-size must be at least 1, got -3"),
        ],
    )
    def test_alphabet_size_below_one_names_its_flag(self, tmp_path, capsys, sizes, message):
        empty = write_series(tmp_path / "empty.csv", ["0,0,"])
        assert run_cli("measure", "--input", str(empty), *sizes) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"

    @pytest.mark.parametrize("column", ["sensor", "action"])
    def test_bins_with_size_names_both_flags(self, tmp_path, capsys, column):
        series = write_series(tmp_path / "series.csv", ["0,0,1", "1,2,0", "2,1,"])
        argv = ["measure", "--input", str(series), f"--{column}-bins=-1:1:30", f"--{column}-size", "5"]
        assert run_cli(*argv) == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith(f"error: --{column}-bins and --{column}-size conflict")

    @pytest.mark.parametrize(
        "spec, bounds",
        [("0:inf:30", "[0.0, inf]"), ("-inf:8:30", "[-inf, 8.0]"), ("nan:8:30", "[nan, 8.0]")],
    )
    def test_non_finite_binner_bound_is_named(self, tmp_path, capsys, spec, bounds):
        series = write_series(tmp_path / "series.csv", ["0,0,1", "1,2,0", "2,1,"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("measure", "--input", str(series), f"--sensor-bins={spec}") == 2
        assert capsys.readouterr().err == (
            f"error: bad binner spec {spec!r}: binner bounds must be finite, got {bounds}\n"
        )

    @pytest.mark.parametrize(
        "rows, flags, table",
        [
            (["0,0,1", "1,2,0", "2,1,"], ["--sensor-bins", "0:1:3000", "--action-bins=-1:1:3000"],
             "3000 x 3000 x 3000 model (|S|: --sensor-bins; |A|: --action-bins) needs 216000000000"),
            (["0,0,1", "1,2,0", "2,1,"], ["--action-size", "100000000000"],
             "3 x 100000000000 x 3 model (|S|: inferred from column s; |A|: --action-size) "
             "needs 7200000000000"),
            (["0,100000000000,0", "1,0,1", "2,1,"], ["--action-size", "2"],
             "100000000001 x 2 x 100000000001 model (|S|: inferred from column s; "
             "|A|: --action-size) needs 160000000003200000000016"),
        ],
        ids=["both-bins", "action-size", "inferred-sensor"],
    )
    def test_model_beyond_memory_names_its_sizes_and_bytes(self, tmp_path, capsys, rows, flags, table):
        series = write_series(tmp_path / "series.csv", rows)
        assert run_cli("measure", "--input", str(series), *flags) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(f"error: a {table} bytes of float64, more than the ")
        assert error.endswith(" bytes of physical memory")

    def test_model_beyond_memory_is_rejected_before_the_file_is_read(self, tmp_path, capsys):
        # reading the file would end in the DataError of line 2
        series = write_series(tmp_path / "series.csv", ["0,x,1", "1,2,0", "2,1,"])
        flags = ["--sensor-bins", "0:1:3000", "--action-bins=-1:1:3000"]
        assert run_cli("measure", "--input", str(series), *flags) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith(
            "error: a 3000 x 3000 x 3000 model (|S|: --sensor-bins; |A|: --action-bins) "
            "needs 216000000000 bytes of float64, more than the "
        )

    def test_model_within_memory_reaches_the_estimator(self, tmp_path, capsys, monkeypatch):
        # a 5,001-symbol inferred alphabet needs 400 MB a table, 2.8 GB at the
        # peak of 7 tables, within this test's machines' memory
        series = write_series(tmp_path / "series.csv", ["0,5000,1", "1,0,0", "2,1,"])

        def estimate_arrays(counts):
            n_s, n_a, _ = counts.shape
            raise ConsistencyError(f"reached with {n_s} x {n_a}")

        monkeypatch.setattr(cli, "estimate_arrays", estimate_arrays)
        assert run_cli("measure", "--input", str(series)) == 3
        assert capsys.readouterr().err == "error: reached with 5001 x 2\n"

    @staticmethod
    def physical_memory(monkeypatch, nbytes):
        sysconf = cli.os.sysconf
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
        monkeypatch.setattr(
            cli.os, "sysconf", lambda name: sizes[name] if name in sizes else sysconf(name)
        )

    @pytest.mark.parametrize("memory", [144, 1007])
    def test_model_beyond_its_peak_share_of_memory_exits_two(
        self, tmp_path, capsys, monkeypatch, memory
    ):
        # one 3 x 2 x 3 table takes 144 bytes, and measure holds 7 at once: 1,008
        self.physical_memory(monkeypatch, memory)
        monkeypatch.setattr(cli, "estimate_arrays", None)
        series = write_series(tmp_path / "series.csv", ["0,0,1", "1,2,0", "2,1,"])
        assert run_cli("measure", "--input", str(series)) == 2
        assert capsys.readouterr().err == (
            "error: a 3 x 2 x 3 model (|S|: inferred from column s; |A|: inferred from column a) "
            f"needs 144 bytes of float64, more than the {memory // 7} bytes per table with 7 "
            f"tables held at once in the {memory} bytes of physical memory\n"
        )

    def test_model_within_its_peak_share_of_memory_reaches_the_estimator(
        self, tmp_path, capsys, monkeypatch
    ):
        self.physical_memory(monkeypatch, 7 * 144)

        def estimate_arrays(counts):
            n_s, n_a, _ = counts.shape
            raise ConsistencyError(f"reached with {n_s} x {n_a}")

        monkeypatch.setattr(cli, "estimate_arrays", estimate_arrays)
        series = write_series(tmp_path / "series.csv", ["0,0,1", "1,2,0", "2,1,"])
        assert run_cli("measure", "--input", str(series)) == 3
        assert capsys.readouterr().err == "error: reached with 3 x 2\n"

    @pytest.mark.parametrize("numpy_error", [True, False], ids=["numpy-allocation", "bare"])
    def test_memory_error_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch, numpy_error):
        def estimate_arrays(counts):
            # 8 PiB is beyond any address space, so the request fails at once
            if numpy_error:
                np.empty(1 << 50)
            raise MemoryError

        monkeypatch.setattr(cli, "estimate_arrays", estimate_arrays)
        series = write_series(tmp_path / "series.csv", ["0,0,1", "1,2,0", "2,1,"])
        assert run_cli("measure", "--input", str(series)) == 2
        expected = "error: out of memory"
        if numpy_error:
            expected += (
                ": Unable to allocate 8.00 PiB for an array with shape (1125899906842624,) "
                "and data type float64"
            )
        assert capsys.readouterr().err == expected + "\n"

    def test_config_file_with_nan_exits_two(self, tmp_path, capsys):
        config = tmp_path / "rotator.cfg"
        config.write_text("version = 1\nbeta = nan\n")
        code = run_cli("rotator", "run", "--config", str(config), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "beta must be finite" in capsys.readouterr().err


COMPUTE_ERRORS = [
    (DimensionError, ValueError),
    (InvalidDistributionError, ValueError),
    (DegenerateAlphabetError, ValueError),
    (SupportError, ValueError),
    (ConsistencyError, RuntimeError),
    (NumericalError, FloatingPointError),
]


class TestComputeErrorExitsThree:
    """Every numerical fault is a prob.ComputeError, and main maps it to exit 3."""

    @pytest.mark.parametrize("error, builtin", COMPUTE_ERRORS, ids=lambda c: c.__name__)
    def test_fault_class_keeps_its_builtin_base(self, error, builtin):
        assert issubclass(error, ComputeError)
        assert issubclass(error, builtin)
        fault = error("fault", index=(1, 0), batch=3)
        assert (str(fault), fault.index, fault.batch) == ("fault", (1, 0), 3)
        assert error("fault").batch is None

    @pytest.mark.parametrize("error, builtin", COMPUTE_ERRORS, ids=lambda c: c.__name__)
    def test_main_exits_three(self, tmp_path, capsys, monkeypatch, error, builtin):
        def cmd_measure(args):
            raise error("table at fault")

        monkeypatch.setattr(cli, "cmd_measure", cmd_measure)
        assert run_cli("measure", "--input", str(tmp_path / "series.csv")) == 3
        assert capsys.readouterr().err.splitlines()[-1] == "error: table at fault"

    def test_sweep_names_a_failing_point_past_the_first(self, tmp_path, capsys, monkeypatch):
        # of the five points only phi = 3, the fourth, gets a NaN in its prior
        def kernel_arrays(phi, psi, zeta, mu, tau):
            alpha, beta, pi, p_w = original(phi, psi, zeta, mu, tau)
            p_w[np.asarray(phi) == 3.0, 0] = np.nan
            return alpha, beta, pi, p_w

        original = binary.kernel_arrays
        monkeypatch.setattr(binary, "kernel_arrays", kernel_arrays)
        for chunk in (1, 3, 1024):
            monkeypatch.setattr(binary, "SWEEP_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}"
            argv = ["binary-sweep", "--phi", "0", "1", "2", "3", "4", "--psi", "0", "--mu", "0"]
            assert run_cli(*argv, "--out", str(out)) == 3
            error = capsys.readouterr().err.splitlines()[-1]
            assert error == "error: phi=3, psi=0, mu=0: joint contains non-finite entries"
            assert not (out / "binary_sweep.csv").exists()


    # each step overflows the stepper's arithmetic at once
    @pytest.mark.parametrize("entry", ["gravity = 1e308", "control_dt = 1e300"])
    def test_diverging_stepper_exits_three_without_a_warning(self, tmp_path, capsys, entry):
        config = tmp_path / "rotator.cfg"
        config.write_text(f"version = 1\n{entry}\n")
        argv = ["rotator", "run", "--config", str(config), "--steps", "200", "--out", str(tmp_path / "o")]
        assert run_cli(*argv) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: eta=0, beta=0, run=0: integration diverged at control step 0")


class TestParserBehaviour:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "morphocomp" in capsys.readouterr().out

    def test_default_grids(self):
        parser = build_parser()
        args = parser.parse_args(["binary-sweep", "--out", "o"])
        assert [float(v) for v in args.phi] == list(np.linspace(0.0, 5.0, 51))
        assert [float(v) for v in args.psi] == list(np.linspace(0.0, 5.0, 51))
        assert [float(v) for v in args.mu] == [0.0, 1.0, 20.0]
        args = parser.parse_args(["rotator", "sweep", "--out", "o"])
        assert args.eta_grid == [round(0.025 * i, 3) for i in range(21)]
        assert args.beta_grid == [round(0.01 * i, 2) for i in range(201)]
