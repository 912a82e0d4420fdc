import contextlib
import csv
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import random_kernel2, random_kernel3
from morphocomp import estimation, prob
from morphocomp.cli import main
from morphocomp.estimation import (
    Binner,
    DataError,
    SymbolSeries,
    estimate,
    estimate_arrays,
    joint_from_model,
    read_symbol_series,
)
from morphocomp.measures import IntrinsicModel
from morphocomp.prob import Alphabet, Distribution, Kernel2, Kernel3


def recursive_estimate(series, n_sensors, n_actions):
    """Observation-by-observation update rule, as the oracle for the closed form.

    Every table starts uniform; after each observation the matching cell's
    row is shrunk by n/(n+1) and the observed symbol gains 1/(n+1).
    """
    world = np.full((n_sensors, n_actions, n_sensors), 1.0 / n_sensors)
    world_n = np.zeros((n_sensors, n_actions), dtype=int)
    policy = np.full((n_sensors, n_actions), 1.0 / n_actions)
    policy_n = np.zeros(n_sensors, dtype=int)
    prior = np.full(n_sensors, 1.0 / n_sensors)
    prior_n = 0
    for t in range(len(series.actions)):
        s, a, s_next = series.sensors[t], series.actions[t], series.sensors[t + 1]
        n = world_n[s, a] + 1
        world[s, a] = n / (n + 1) * world[s, a]
        world[s, a, s_next] += 1.0 / (n + 1)
        world_n[s, a] = n
        n = policy_n[s] + 1
        policy[s] = n / (n + 1) * policy[s]
        policy[s, a] += 1.0 / (n + 1)
        policy_n[s] = n
        prior_n += 1
        prior = prior_n / (prior_n + 1) * prior
        prior[s] += 1.0 / (prior_n + 1)
    return prior, policy, world


def random_series(rng, length, n_sensors, n_actions):
    return SymbolSeries(
        rng.integers(0, n_sensors, size=length + 1),
        rng.integers(0, n_actions, size=length),
    )


class TestBinner:
    def test_lower_edge(self):
        assert Binner(0.0, 8.0, 30).index(0.0) == 0

    def test_clamps_above_range(self):
        assert Binner(0.0, 8.0, 30).index(8.5) == 29

    def test_top_edge_clamps(self):
        assert Binner(0.0, 8.0, 30).index(8.0) == 29

    def test_clamps_below_range(self):
        assert Binner(-1.0, 1.0, 30).index(-3.0) == 0

    def test_interior_value(self):
        # floor(30 * 2pi / 8) = floor(23.56)
        assert Binner(0.0, 8.0, 30).index(2 * math.pi) == 23

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            Binner(0.0, 1.0, 4).index(float("nan"))

    def test_array_input(self):
        idx = Binner(0.0, 1.0, 4).index(np.array([0.0, 0.3, 0.99, 2.0]))
        np.testing.assert_array_equal(idx, [0, 1, 3, 3])

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Binner(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            Binner(0.0, 1.0, 0)

    @pytest.mark.parametrize(
        "low, high, message",
        [
            (0.0, math.inf, "bounds must be finite"),
            (-math.inf, 8.0, "bounds must be finite"),
            (math.nan, 1.0, "bounds must be finite"),
            (0.0, math.nan, "bounds must be finite"),
            (-1e308, 1e308, "width of .* overflows"),
            (0.0, 1e308, r"width of \[0.0, 1e\+308\] x 30 bins overflows"),
        ],
        ids=["high-inf", "low-minus-inf", "low-nan", "high-nan", "width-overflows", "bins-overflow"],
    )
    def test_non_finite_bounds_rejected(self, low, high, message):
        with pytest.raises(ValueError, match=message):
            Binner(low, high, 30)

    @given(
        st.floats(-20, 20),
        st.floats(-20, 20),
        st.integers(1, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, a, b, bins):
        binner = Binner(-10.0, 10.0, bins)
        lo, hi = min(a, b), max(a, b)
        assert binner.index(lo) <= binner.index(hi)

    def test_huge_samples_clamp_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = Binner(0.0, 8.0, 30).index(np.array([1e308, -1e308, 2.0]))
        np.testing.assert_array_equal(idx, [29, 0, 7])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_in_range_samples_keep_their_bins(self, data):
        finite = st.floats(-1e300, 1e300)
        low, high = sorted(data.draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
        bins = data.draw(st.integers(1, 1000))
        samples = np.array(data.draw(st.lists(st.floats(low, high), min_size=1, max_size=20)))
        # the formula before samples were clipped, which holds inside [low, high]
        oracle = np.clip(np.floor(bins * (samples - low) / (high - low)), 0, bins - 1)
        np.testing.assert_array_equal(Binner(low, high, bins).index(samples), oracle)


class TestSymbolSeries:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            SymbolSeries([0, 1, 0], [0, 1, 0])

    def test_negative_symbols(self):
        with pytest.raises(DataError):
            SymbolSeries([0, -1], [0])

    def test_two_dimensional_symbols(self):
        with pytest.raises(DataError, match="symbol series must be one-dimensional") as caught:
            SymbolSeries([[0, 1], [1, 0]], [0])
        assert isinstance(caught.value, ValueError)

    def test_len_counts_transitions(self):
        assert len(SymbolSeries([0, 1, 0], [1, 0])) == 2


class TestEstimate:
    def test_unvisited_rows_stay_uniform(self):
        series = SymbolSeries([0], [])
        model = estimate(series, Alphabet(3), Alphabet(2))
        np.testing.assert_array_equal(model.world_model.entries, 1 / 3)
        np.testing.assert_array_equal(model.policy.rows, 1 / 2)
        np.testing.assert_array_equal(model.sensor_prior.probs, 1 / 3)

    def test_single_observation_closed_form(self):
        # one (s0, a0) -> s1 transition over a binary sensor alphabet:
        # (1 + 1/2) / 2 on the hit, (0 + 1/2) / 2 on the miss
        series = SymbolSeries([0, 1], [0])
        model = estimate(series, Alphabet(2), Alphabet(2))
        assert model.world_model.entries[0, 0, 1] == pytest.approx(0.75)
        assert model.world_model.entries[0, 0, 0] == pytest.approx(0.25)
        np.testing.assert_array_equal(model.world_model.entries[0, 1], 0.5)

    def test_closed_form_equals_recursion(self, rng):
        for _ in range(20):
            series = random_series(rng, 200, 4, 3)
            model = estimate(series, Alphabet(4), Alphabet(3))
            prior, policy, world = recursive_estimate(series, 4, 3)
            np.testing.assert_allclose(model.sensor_prior.probs, prior, atol=1e-12)
            np.testing.assert_allclose(model.policy.rows, policy, atol=1e-12)
            np.testing.assert_allclose(model.world_model.entries, world, atol=1e-12)

    def test_monte_carlo_convergence(self):
        # sample a known loop; visited rows must approach the truth
        rng = np.random.default_rng(7)
        s_alph, a_alph = Alphabet(3), Alphabet(2)
        truth_policy = random_kernel2(rng, s_alph, a_alph)
        truth_world = random_kernel3(rng, s_alph, a_alph, s_alph)
        sensors = [0]
        actions = []
        for _ in range(10_000):
            s = sensors[-1]
            a = rng.choice(2, p=truth_policy.rows[s])
            actions.append(a)
            sensors.append(rng.choice(3, p=truth_world.entries[s, a]))
        model = estimate(SymbolSeries(sensors, actions), s_alph, a_alph)
        assert np.abs(model.world_model.entries - truth_world.entries).max() < 0.05
        assert np.abs(model.policy.rows - truth_policy.rows).max() < 0.05

    def test_error_shrinks_with_more_samples(self):
        rng = np.random.default_rng(11)
        s_alph, a_alph = Alphabet(3), Alphabet(2)
        truth_policy = random_kernel2(rng, s_alph, a_alph)
        truth_world = random_kernel3(rng, s_alph, a_alph, s_alph)

        def max_error(n):
            gen = np.random.default_rng(5)
            sensors = [0]
            actions = []
            for _ in range(n):
                s = sensors[-1]
                a = gen.choice(2, p=truth_policy.rows[s])
                actions.append(a)
                sensors.append(gen.choice(3, p=truth_world.entries[s, a]))
            model = estimate(SymbolSeries(sensors, actions), s_alph, a_alph)
            return np.abs(model.world_model.entries - truth_world.entries).max()

        assert max_error(100_000) < max_error(10_000)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_any_series_yields_valid_model(self, seed, length):
        rng = np.random.default_rng(seed)
        series = random_series(rng, length, 3, 2)
        model = estimate(series, Alphabet(3), Alphabet(2))
        # constructors enforce row normalisation; reaching here is the test
        assert isinstance(model, IntrinsicModel)

    def test_out_of_range_symbol_rejected(self):
        series = SymbolSeries([0, 5], [0])
        with pytest.raises(DataError):
            estimate(series, Alphabet(3), Alphabet(2))


class TestEstimateArrays:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 5000),
        n_s=st.integers(1, 30),
        n_a=st.integers(1, 30),
        dtype=st.sampled_from([np.int8, np.int64]),
    )
    def test_bitwise_equal_to_estimate(self, seed, steps, n_s, n_a, dtype):
        # symbols drawn from a random part of each alphabet, so some rows go unvisited
        rng = np.random.default_rng(seed)
        sensors = rng.integers(0, rng.integers(1, n_s + 1), steps + 1).astype(dtype)
        actions = rng.integers(0, rng.integers(1, n_a + 1), steps).astype(dtype)
        model = estimate(SymbolSeries(sensors, actions), Alphabet(n_s), Alphabet(n_a))
        tables = (model.sensor_prior.probs, model.policy.rows, model.world_model.entries)
        arrays = estimate_arrays(sensors, actions, n_s, n_a)
        assert len(arrays) == len(tables)
        for array, table in zip(arrays, tables):
            assert array.shape == (1, *table.shape)
            assert array.tobytes() == table.tobytes()


class TestEstimateChecks:
    def test_each_table_is_checked_once(self, monkeypatch):
        names, check_probs = [], prob.check_probs

        def counted(arr, name, whole=False):
            names.append(name)
            return check_probs(arr, name, whole)

        monkeypatch.setattr(prob, "check_probs", counted)
        monkeypatch.setattr(estimation, "check_probs", counted)
        rng = np.random.default_rng(0)
        series = SymbolSeries(rng.integers(0, 5, 201), rng.integers(0, 4, 200))
        estimate(series, Alphabet(5), Alphabet(4))
        assert names == ["distribution", "kernel", "kernel"]


class TestEstimateMemory:
    STEPS = 1_000_000

    def test_peak_stays_near_one_int64_per_transition(self):
        rng = np.random.default_rng(0)
        series = SymbolSeries(rng.integers(0, 30, self.STEPS + 1), rng.integers(0, 30, self.STEPS))
        tracemalloc.start()
        try:
            estimate(series, Alphabet(30), Alphabet(30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int64 transition indices take 8 bytes each; a copy of the
        # series' int64 symbols would add 8 more
        assert peak / self.STEPS <= 9


class TestJointFromModel:
    def test_uniform_model_gives_uniform_joint(self):
        s, a = Alphabet(2), Alphabet(2)
        model = IntrinsicModel(
            Distribution(s, np.full(2, 0.5)),
            Kernel2(s, a, np.full((2, 2), 0.5)),
            Kernel3(s, a, s, np.full((2, 2, 2), 0.5)),
        )
        np.testing.assert_allclose(joint_from_model(model).probs, 1 / 8)

    def test_deterministic_loop_support(self):
        s = Alphabet(2)
        model = IntrinsicModel(
            Distribution(s, [0.5, 0.5]),
            Kernel2(s, s, np.eye(2)),
            Kernel3(
                s, s, s,
                np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]),
            ),
        )
        joint = joint_from_model(model)
        # mass only where sensor, action and successor coincide
        assert joint.probs[0, 0, 0] == 0.5
        assert joint.probs[1, 1, 1] == 0.5
        assert joint.probs.sum() == pytest.approx(1.0)


class TestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text)
        return path

    def test_integer_round_trip(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,1\n1,2,0\n2,1,\n")
        series, s_alph, a_alph = read_symbol_series(path, sensor_size=3, action_size=2)
        np.testing.assert_array_equal(series.sensors, [0, 2, 1])
        np.testing.assert_array_equal(series.actions, [1, 0])
        assert (s_alph.size, a_alph.size) == (3, 2)

    def test_trailing_action_dropped_without_final_row(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,1\n1,2,0\n2,1,1\n")
        series, _, _ = read_symbol_series(path, sensor_size=3, action_size=2)
        np.testing.assert_array_equal(series.sensors, [0, 2, 1])
        np.testing.assert_array_equal(series.actions, [1, 0])

    def test_alphabets_inferred(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,1\n1,4,0\n2,1,\n")
        _, s_alph, a_alph = read_symbol_series(path)
        assert (s_alph.size, a_alph.size) == (5, 2)

    def test_real_columns_binned(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0.1,-0.9\n1,7.9,0.9\n2,4.0,\n")
        series, s_alph, _ = read_symbol_series(
            path,
            sensor_binner=Binner(0.0, 8.0, 30),
            action_binner=Binner(-1.0, 1.0, 30),
        )
        np.testing.assert_array_equal(series.sensors, [0, 29, 15])
        np.testing.assert_array_equal(series.actions, [1, 28])
        assert s_alph.size == 30

    def test_symbol_exceeding_declared_alphabet(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,0\n1,31,1\n2,1,\n")
        with pytest.raises(DataError, match="31"):
            read_symbol_series(path, sensor_size=30, action_size=2)

    def test_real_value_without_binner(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0.5,0\n1,1,\n")
        with pytest.raises(DataError, match="binner"):
            read_symbol_series(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "time,sensor,action\n0,0,0\n")
        with pytest.raises(DataError, match="header"):
            read_symbol_series(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DataError):
            read_symbol_series(path)

    def test_interior_empty_action_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,\n1,1,0\n2,0,\n")
        with pytest.raises(DataError, match="empty action"):
            read_symbol_series(path)

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-99999999999999999999"])
    @pytest.mark.parametrize("column", ["s", "a"])
    def test_symbol_beyond_int64_names_its_line(self, tmp_path, cell, column):
        row = f"1,{cell},0" if column == "s" else f"1,0,{cell}"
        path = self.write(tmp_path, f"t,s,a\n0,0,1\n{row}\n2,1,\n")
        with pytest.raises(DataError, match=rf":3: column {column} symbol {cell} "):
            read_symbol_series(path)

    @pytest.mark.parametrize(
        "cell, options, message",
        [
            ("x", {}, "column s holds 'x'"),
            ("nan", {"sensor_binner": Binner(0.0, 8.0, 30)}, "non-finite value in column s"),
            ("-1", {}, "negative symbol in column s"),
            ("7", {"sensor_size": 3}, "column s symbol 7 does not fit"),
        ],
        ids=["unparsable", "non-finite", "negative", "out-of-alphabet"],
    )
    def test_messages_name_the_file_line_past_blank_rows(self, tmp_path, cell, options, message):
        # the bad cell sits on line 5, after two blank lines
        path = self.write(tmp_path, f"t,s,a\n0,0,1\n\n\n1,{cell},0\n2,1,\n")
        with pytest.raises(DataError, match=rf":5: {message}"):
            read_symbol_series(path, **options)

    @pytest.mark.parametrize("column, row", [("s", "1,x,0.2"), ("a", "1,0.7,x")])
    def test_unparsable_real_names_its_line(self, tmp_path, column, row):
        # the `x` sits on line 4, after one blank line
        path = self.write(tmp_path, f"t,s,a\n0,0.5,0.1\n\n{row}\n2,1.5,\n")
        binners = {"sensor_binner": Binner(0.0, 8.0, 30), "action_binner": Binner(-1.0, 1.0, 30)}
        message = rf"series.csv:4: column {column}: could not convert string to float: 'x'$"
        with pytest.raises(DataError, match=message):
            read_symbol_series(path, **binners)

    def test_oversized_cell_names_its_line(self, tmp_path):
        # csv.reader refuses a cell over its field size limit
        path = self.write(tmp_path, f"t,s,a\n0,0,1\n1,{'1' * 200_000},0\n2,1,\n")
        with pytest.raises(DataError, match=r"series.csv:3: field larger than field limit"):
            read_symbol_series(path)


    @pytest.mark.parametrize(
        "rows_before, newline", [(0, "\n"), (200_000, "\r\n")], ids=["line-2", "past-first-scan-chunk"]
    )
    def test_invalid_utf8_names_its_line(self, tmp_path, capsys, rows_before, newline):
        body = "".join(f"{t},1,0{newline}" for t in range(rows_before))
        assert rows_before == 0 or len(body) > estimation.SCAN_CHUNK
        path = tmp_path / "series.csv"
        path.write_bytes(f"t,s,a{newline}{body}".encode() + b"0,\xff1,0\n1,2,\n")
        message = f"{path}:{rows_before + 2}: not valid UTF-8"
        with pytest.raises(DataError) as exc_info:
            read_symbol_series(path)
        assert str(exc_info.value) == message
        assert main(["measure", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


SENSOR_BINNER = Binner(0.0, 8.0, 30)
ACTION_BINNER = Binner(-1.0, 1.0, 30)


def column_specs(options):
    """The (binner, size) of the sensor and action columns in reader options."""
    return tuple(
        (options.get(f"{name}_binner"), options.get(f"{name}_size")) for name in ("sensor", "action")
    )


def read_by_row_loop(path, **options):
    """`read_symbol_series` with the numpy fast path left out."""
    specs = column_specs(options)
    return estimation._series(estimation._read_rows(Path(path), specs), specs)


def outcome(read, path, options):
    """What a reader makes of a file: the series and alphabet sizes, or the DataError text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            series, sensor_alphabet, action_alphabet = read(path, **options)
        except DataError as exc:
            return str(exc)
    return (
        series.sensors.tolist(),
        series.actions.tolist(),
        sensor_alphabet.size,
        action_alphabet.size,
    )


def fast_columns(path, options):
    return estimation._read_fast(Path(path), column_specs(options))


class TestFastPath:
    """Well-formed files are parsed by numpy's C reader, never by the row loop."""

    @pytest.fixture(autouse=True)
    def no_row_loop(self, monkeypatch):
        def row_loop(*args):
            raise AssertionError("the row loop ran on a well-formed file")

        monkeypatch.setattr(estimation, "_read_rows", row_loop)

    def read(self, path, **options):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read_symbol_series(path, **options)

    def test_rotator_run_series(self, tmp_path, capsys):
        out = tmp_path / "episode"
        assert main(["rotator", "run", "--eta", "0.5", "--steps", "300", "--out", str(out)]) == 0
        path = out / "series.csv"
        # csv.writer ends its rows with \r\n, and the final action is blank
        assert path.read_bytes().endswith(b",\r\n")
        series, sensor_alphabet, action_alphabet = self.read(
            path, sensor_binner=SENSOR_BINNER, action_binner=ACTION_BINNER
        )
        assert len(series) == 300
        assert (sensor_alphabet.size, action_alphabet.size) == (30, 30)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        np.testing.assert_array_equal(
            series.sensors, SENSOR_BINNER.index([float(row[1]) for row in rows])
        )
        np.testing.assert_array_equal(
            series.actions, ACTION_BINNER.index([float(row[2]) for row in rows[:-1]])
        )

    def test_integer_symbols(self, tmp_path):
        path = tmp_path / "ints.csv"
        path.write_text("t,s,a\n0,0,1\n1, +2 ,0\n\n2,4,3\n3,1,7\n")
        series, sensor_alphabet, action_alphabet = self.read(path)
        np.testing.assert_array_equal(series.sensors, [0, 2, 4, 1])
        np.testing.assert_array_equal(series.actions, [1, 0, 3])
        # the dropped trailing action still sizes the inferred alphabet
        assert (sensor_alphabet.size, action_alphabet.size) == (5, 8)

    def test_mixed_integer_and_real_columns(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("t,s,a\n0,3,-0.95\n1,0,0.5\n2,7,\n")
        series, sensor_alphabet, action_alphabet = self.read(
            path, sensor_size=8, action_binner=ACTION_BINNER
        )
        np.testing.assert_array_equal(series.sensors, [3, 0, 7])
        np.testing.assert_array_equal(series.actions, [0, 22])
        assert (sensor_alphabet.size, action_alphabet.size) == (8, 30)

    def test_one_data_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t,s,a\n0,2.5,")
        series, _, _ = self.read(path, sensor_binner=SENSOR_BINNER, action_size=3)
        np.testing.assert_array_equal(series.sensors, [9])
        assert len(series) == 0

    @pytest.mark.parametrize("block_rows", [1, 2, estimation.BLOCK_ROWS])
    def test_blank_rows_filling_a_block(self, tmp_path, monkeypatch, block_rows):
        # loadtxt warns on a block without data, so such a block is skipped
        monkeypatch.setattr(estimation, "BLOCK_ROWS", block_rows)
        path = tmp_path / "blank-block.csv"
        path.write_text("t,s,a\n" + "0,1,1\n" * block_rows + "\n" * block_rows + "1,2,\n")
        series, _, _ = self.read(path)
        np.testing.assert_array_equal(series.sensors, [1] * block_rows + [2])
        np.testing.assert_array_equal(series.actions, [1] * block_rows)


class TestReaderMemory:
    ROWS = 200_000

    def test_peak_stays_near_the_int64_series(self, tmp_path):
        # a real-valued file as `rotator run` writes series.csv, with a blank final action
        rng = np.random.default_rng(0)
        path = tmp_path / "series.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("t", "s", "a"))
            writer.writerows(
                zip(
                    (0.01 * np.arange(self.ROWS)).tolist(),
                    rng.uniform(0.0, 8.0, self.ROWS).tolist(),
                    [*rng.uniform(-1.0, 1.0, self.ROWS - 1).tolist(), ""],
                )
            )
        tracemalloc.start()
        try:
            series, _, _ = read_symbol_series(
                path, sensor_binner=SENSOR_BINNER, action_binner=ACTION_BINNER
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == self.ROWS - 1
        # the series holds 16 bytes a row; holding every parsed float beside
        # it would take 32, and parsing the whole body at once took 48
        assert peak / self.ROWS < 32


# (file text, reader options, why the fast path hands the file to the row loop)
FALLBACKS = {
    "quoted-cell-with-comma": (
        't,s,a\n"0,1.5,2.5,",9,0.5\n1,2,\n',
        {"sensor_binner": SENSOR_BINNER, "action_binner": ACTION_BINNER},
    ),
    "whitespace-only-row": ("t,s,a\n0,1,1\n \t \n1,2,\n", {}),
    "blank-cells-row": ("t,s,a\n0,1,1\n , ,\n1,2,\n", {}),
    "blank-last-line": ("t,s,a\n0,1,1\n1,2,\n\n", {}),
    "short-row": ("t,s,a\n0,1,1\n1,2\n2,1,\n", {}),
    "header-only": ("t,s,a\n", {}),
    "bad-header": ("t,x,a\n0,1,1\n1,2,\n", {}),
    "byte-order-mark": ("\ufefft,s,a\n0,1,1\n1,2,\n", {}),
    "underscore-in-number": ("t,s,a\n0,1_0,1\n1,2,\n", {}),
    "float-in-integer-column": ("t,s,a\n0,3.0,1\n1,2,\n", {}),
    "integer-beyond-int64": ("t,s,a\n0,99999999999999999999,1\n1,2,\n", {}),
    "negative-symbol": ("t,s,a\n0,-1,1\n1,2,\n", {}),
    "out-of-alphabet": ("t,s,a\n0,5,1\n1,2,\n", {"sensor_size": 3}),
    "out-of-alphabet-final-action": ("t,s,a\n0,1,1\n1,2,3\n", {"action_size": 3}),
    "non-finite-real": ("t,s,a\n0,1e400,0.5\n1,2,\n", {"sensor_binner": SENSOR_BINNER}),
    "unparsable-real": ("t,s,a\n0,1,x\n1,2,\n", {"action_binner": ACTION_BINNER}),
    "interior-empty-action": ("t,s,a\n0,1,\n1,2,0\n2,0,\n", {}),
    "empty-file": ("", {}),
}


class TestFallback:
    """Every file the C reader cannot take exactly goes to the row loop."""

    @pytest.mark.parametrize("text, options", FALLBACKS.values(), ids=FALLBACKS.keys())
    def test_row_loop_reads_it(self, tmp_path, text, options):
        path = tmp_path / "series.csv"
        path.write_text(text)
        assert fast_columns(path, options) is None
        assert outcome(read_symbol_series, path, options) == outcome(
            read_by_row_loop, path, options
        )

    def test_quoted_cell_is_read_as_csv_reads_it(self, tmp_path):
        # split at every comma, the row would read s = 1.5, a = 2.5
        text, options = FALLBACKS["quoted-cell-with-comma"]
        path = tmp_path / "series.csv"
        path.write_text(text)
        series, _, _ = read_symbol_series(path, **options)
        np.testing.assert_array_equal(series.sensors, SENSOR_BINNER.index([9.0, 2.0]))
        np.testing.assert_array_equal(series.actions, ACTION_BINNER.index([0.5]))

    def test_last_line_longer_than_two_scan_chunks(self, tmp_path, monkeypatch):
        # the last two 4-character chunks hold only "7,7,7,7" of the last line
        monkeypatch.setattr(estimation, "SCAN_CHUNK", 4)
        path = tmp_path / "series.csv"
        path.write_text("t,s,a\n0,1,1\n1,2,0,7,7,7,7")
        assert fast_columns(path, {}) is None
        series, _, _ = read_symbol_series(path)
        np.testing.assert_array_equal(series.sensors, [1, 2])
        np.testing.assert_array_equal(series.actions, [1])

    @pytest.mark.parametrize(
        "text",
        [
            "t,s,a\n0,1,1\n\n\n1,2,0\n\n2,0,\n",
            "t,s,a\r\n0,1,1\r\n1,2,0\r\n2,0,\r\n",
            "t,s,a\r0,1,1\r1,2,0\r\n2,0,",
            "T , S,A,extra\n0, 1 ,+1,9,9\n1,2,0\n2,0,1,x\n",
            "t,s,a\n0,1,1\n1,2, \t\n",
        ],
        ids=["blank-rows", "crlf", "lone-cr", "spaces-signs-extra-columns", "final-action-spaces"],
    )
    def test_tolerated_layouts_stay_on_the_c_path(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        assert fast_columns(path, {}) is not None
        assert outcome(read_symbol_series, path, {}) == outcome(read_by_row_loop, path, {})


INTEGER_ODDITIES = [
    "-1", "+3", " 2 ", "007", "1_0", "3.0", "", " ", "x",
    "99999999999999999999", "-99999999999999999999",
]
REAL_ODDITIES = [
    "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "1_0", "+3", " 2.5 ", "3", "", "x",
]


@st.composite
def csv_files(draw):
    """A t,s,a file that may break any rule, with the reader options for it."""
    real = draw(st.tuples(st.booleans(), st.booleans()))
    messy = draw(st.booleans())
    # a file without oddities may still hold blank rows, which both readers skip
    blank_rows = not messy and draw(st.booleans())

    def cell(column):
        # in a messy file, one cell in eight is an oddity
        if messy and draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(REAL_ODDITIES if real[column] else INTEGER_ODDITIES))
        return draw(st.floats(-2.0, 10.0).map(repr) if real[column] else st.integers(0, 6).map(str))

    def row():
        t = draw(st.sampled_from(["0", "3", "1", "-2.5", "", "t"]))
        s, a = cell(0), cell(1)
        layout = "row"
        if messy:
            layout = draw(
                st.sampled_from(
                    ["row"] * 12 + ["blank", "spaces", "blank-cells", "short", "long", "quoted"]
                )
            )
        elif blank_rows:
            layout = draw(st.sampled_from(["row", "row", "blank"]))
        if layout == "blank":
            return ""
        if layout == "spaces":
            return " \t "
        if layout == "blank-cells":
            return " , ,"
        if layout == "short":
            return draw(st.sampled_from([f"{t},{s}", t]))
        if layout == "long":
            return f"{t},{s},{a},{draw(st.sampled_from(['9', '', 'x,y']))}"
        if layout == "quoted":
            # the first holds commas inside quotes, with other values than the row's
            return draw(
                st.sampled_from(
                    [f'"{t},{cell(0)},{cell(1)},",{s},{a}', f'{t},"{s}",{a}', f'{t},"{s},{a}",{a}']
                )
            )
        return f"{t},{s},{a}"

    header = "t,s,a"
    if messy:
        header = draw(st.sampled_from(["t,s,a", "T, S ,A", "t,s,a,x", "\ufefft,s,a", "t,s", "s,t,a"]))
    rows = [header] + [row() for _ in range(draw(st.integers(0, 6)))]
    final = row()
    if draw(st.booleans()) and final.count(",") >= 2:
        final = final[: final.rindex(",") + 1]
    rows.append(final)
    endings = ["\n", "\r\n", "\r"] if messy else ["\n", "\r\n"]
    text = "".join(line + draw(st.sampled_from(endings)) for line in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if messy and draw(st.booleans()):
        text += "\n" * draw(st.integers(1, 2))

    options = {}
    for column, name, binner in ((0, "sensor", SENSOR_BINNER), (1, "action", ACTION_BINNER)):
        if real[column]:
            options[f"{name}_binner"] = binner
        elif draw(st.booleans()):
            options[f"{name}_size"] = draw(st.integers(1, 8))
    return text, options


def cli_flags(options):
    flags = []
    for name in ("sensor", "action"):
        if f"{name}_binner" in options:
            binner = options[f"{name}_binner"]
            flags.append(f"--{name}-bins={binner.low}:{binner.high}:{binner.bins}")
        if f"{name}_size" in options:
            flags.append(f"--{name}-size={options[f'{name}_size']}")
    return flags


def assert_same_bits(fast_arrays, slow_arrays):
    for fast, slow in zip(fast_arrays, slow_arrays, strict=True):
        assert fast.dtype == slow.dtype
        assert fast.tobytes() == slow.tobytes()


class TestFastMatchesRowLoop:
    @given(csv_files())
    @settings(max_examples=500, deadline=None)
    def test_same_series_or_same_error(self, drawn):
        self.check(drawn)

    # blocks of 1 and 2 lines put blank and whitespace-only rows, blocks of
    # blank rows alone, the blank final action and unparsable cells on block edges
    @pytest.mark.parametrize("block_rows", [1, 2])
    @given(drawn=csv_files())
    @settings(max_examples=500, deadline=None)
    def test_same_series_or_same_error_on_block_edges(self, block_rows, drawn):
        with mock.patch.object(estimation, "BLOCK_ROWS", block_rows):
            self.check(drawn)

    def check(self, drawn):
        text, options = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_bytes(text.encode())
            columns = fast_columns(path, options)
            expected = outcome(read_by_row_loop, path, options)
            event("row loop raised" if isinstance(expected, str) else "row loop read it")
            event("fast path declined" if columns is None else "fast path read it")
            assert outcome(read_symbol_series, path, options) == expected
            if columns is not None:
                specs = column_specs(options)
                # the C reader's values are the row loop's, bit for bit, and so are the symbols
                blocks = estimation._value_blocks(path, *estimation._scan(path), specs)
                parsed = [np.concatenate(parts) for parts in zip(*blocks)]
                assert_same_bits(parsed, estimation._row_values(path, specs))
                assert_same_bits(columns, estimation._read_rows(path, specs))
            if isinstance(expected, str):
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                    assert main(["measure", "--input", str(path), *cli_flags(options)]) == 2
                assert stderr.getvalue().splitlines()[-1] == f"error: {expected}"
