import contextlib
import csv
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from collections import Counter
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
    count_transitions,
    estimate,
    estimate_arrays,
    joint_from_model,
    read_transition_counts,
)
from morphocomp.measures import INTRINSIC_MEASURES, IntrinsicModel, checked_rows, intrinsic_values
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

    @pytest.mark.parametrize("bins", [2.5, 3.0, None])
    def test_bins_must_be_an_integer(self, bins):
        with pytest.raises(ValueError, match="whole number of bins"):
            Binner(0.0, 1.0, bins)

    def test_numpy_integer_bins_give_their_alphabet(self):
        assert Binner(0.0, 1.0, np.int64(3)).alphabet() == Alphabet(3)

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

    @pytest.mark.parametrize(
        "sensors, actions, message",
        [
            ([0.5, 1.7, 2.9], [0, 1], r"sensors\[0\] is 0.5,"),
            ([0, 1, 2], [0.2, 1.99], r"actions\[0\] is 0.2,"),
            (np.array([0.0, np.nan]), [1], r"sensors\[1\] is nan,"),
            ([0, 1], [np.inf], r"actions\[0\] is inf,"),
            ([1, 2**70], [0], r"sensors\[1\] is 1180591620717411303424,"),
            ([0, 2.0**63], [0], r"sensors\[1\] is 9.223372036854776e\+18,"),
            (np.array([0, 2**63], dtype=np.uint64), [0], r"sensors\[1\] is 9223372036854775808,"),
        ],
    )
    def test_symbols_must_be_whole_numbers_within_int64(self, sensors, actions, message):
        with pytest.raises(DataError, match=message + " not a whole number within int64"):
            SymbolSeries(sensors, actions)

    def test_integral_floats_and_empty_lists_are_accepted(self):
        series = SymbolSeries([1.0, 2.0, -0.0], [3.0, 0.0])
        np.testing.assert_array_equal(series.sensors, [1, 2, 0])
        assert series.actions.dtype == np.int64
        assert len(SymbolSeries([0], [])) == 0

    def test_int64_symbols_are_taken_as_they_are(self):
        sensors, actions = np.array([0, 3, 1]), np.array([2, 0])
        series = SymbolSeries(sensors, actions)
        assert series.sensors is sensors and series.actions is actions


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

    def test_action_beyond_its_alphabet_rejected(self):
        series = SymbolSeries([0, 1], [2])
        with pytest.raises(DataError, match="^action symbol 2 outside alphabet of size 2$"):
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
        arrays = estimate_arrays(count_transitions(sensors, actions, n_s, n_a))
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

    def test_composed_joint_is_checked_once(self, monkeypatch):
        rng = np.random.default_rng(0)
        series = SymbolSeries(rng.integers(0, 5, 201), rng.integers(0, 4, 200))
        model = estimate(series, Alphabet(5), Alphabet(4))
        names, check_probs = [], prob.check_probs

        def counted(arr, name, whole=False):
            names.append(name)
            return check_probs(arr, name, whole)

        monkeypatch.setattr(prob, "check_probs", counted)
        joint_from_model(model)
        assert names == ["joint"]


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
        counts = read_transition_counts(path, sensor=3, action=2)
        assert_counts(counts, [0, 2, 1], [1, 0], 3, 2)

    def test_trailing_action_dropped_without_final_row(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,1\n1,2,0\n2,1,1\n")
        counts = read_transition_counts(path, sensor=3, action=2)
        assert_counts(counts, [0, 2, 1], [1, 0], 3, 2)

    def test_alphabets_inferred(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,1\n1,4,0\n2,1,\n")
        assert read_transition_counts(path).shape == (5, 2, 5)

    def test_real_columns_binned(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0.1,-0.9\n1,7.9,0.9\n2,4.0,\n")
        options = {"sensor": Binner(0.0, 8.0, 30), "action": Binner(-1.0, 1.0, 30)}
        _, (sensors, actions) = row_loop_columns(path, column_specs(options))
        np.testing.assert_array_equal(sensors, [0, 29, 15])
        np.testing.assert_array_equal(actions, [1, 28])
        assert_counts(read_transition_counts(path, **options), [0, 29, 15], [1, 28], 30, 30)

    def test_symbol_exceeding_declared_alphabet(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,0\n1,31,1\n2,1,\n")
        with pytest.raises(DataError, match="31"):
            read_transition_counts(path, sensor=30, action=2)

    def test_real_value_without_binner(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0.5,0\n1,1,\n")
        with pytest.raises(DataError, match="binner"):
            read_transition_counts(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "time,sensor,action\n0,0,0\n")
        with pytest.raises(DataError, match="header"):
            read_transition_counts(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DataError):
            read_transition_counts(path)

    def test_interior_empty_action_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,s,a\n0,0,\n1,1,0\n2,0,\n")
        with pytest.raises(DataError, match="empty action"):
            read_transition_counts(path)

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-99999999999999999999"])
    @pytest.mark.parametrize("column", ["s", "a"])
    def test_symbol_beyond_int64_names_its_line(self, tmp_path, cell, column):
        row = f"1,{cell},0" if column == "s" else f"1,0,{cell}"
        path = self.write(tmp_path, f"t,s,a\n0,0,1\n{row}\n2,1,\n")
        with pytest.raises(DataError, match=rf":3: column {column} symbol {cell} "):
            read_transition_counts(path)

    @pytest.mark.parametrize(
        "cell, options, message",
        [
            ("x", {}, "column s holds 'x'"),
            ("nan", {"sensor": Binner(0.0, 8.0, 30)}, "non-finite value in column s"),
            ("-1", {}, "negative symbol in column s"),
            ("7", {"sensor": 3}, "column s symbol 7 does not fit"),
        ],
        ids=["unparsable", "non-finite", "negative", "out-of-alphabet"],
    )
    def test_messages_name_the_file_line_past_blank_rows(self, tmp_path, cell, options, message):
        # the bad cell sits on line 5, after two blank lines
        path = self.write(tmp_path, f"t,s,a\n0,0,1\n\n\n1,{cell},0\n2,1,\n")
        with pytest.raises(DataError, match=rf":5: {message}"):
            read_transition_counts(path, **options)

    @pytest.mark.parametrize("column, row", [("s", "1,x,0.2"), ("a", "1,0.7,x")])
    def test_unparsable_real_names_its_line(self, tmp_path, column, row):
        # the `x` sits on line 4, after one blank line
        path = self.write(tmp_path, f"t,s,a\n0,0.5,0.1\n\n{row}\n2,1.5,\n")
        binners = {"sensor": Binner(0.0, 8.0, 30), "action": Binner(-1.0, 1.0, 30)}
        message = rf"series.csv:4: column {column}: could not convert string to float: 'x'$"
        with pytest.raises(DataError, match=message):
            read_transition_counts(path, **binners)

    def test_oversized_cell_names_its_line(self, tmp_path):
        # csv.reader refuses a cell over its field size limit
        path = self.write(tmp_path, f"t,s,a\n0,0,1\n1,{'1' * 200_000},0\n2,1,\n")
        with pytest.raises(DataError, match=r"series.csv:3: field larger than field limit"):
            read_transition_counts(path)

    def test_oversized_cell_past_a_taken_block_names_its_line(self, tmp_path, monkeypatch):
        # the C reader takes line 2, and csv reads the block of line 3
        monkeypatch.setattr(estimation, "BLOCK_ROWS", 1)
        path = self.write(tmp_path, f"t,s,a\n0,0,1\n1,{'1' * 200_000},0\n2,1,\n")
        with pytest.raises(DataError, match=r"series.csv:3: field larger than field limit"):
            read_transition_counts(path)

    def test_line_numbers_count_the_lines_of_a_quoted_cell(self, tmp_path):
        # the quoted t cell spans lines 2 and 3, so the `x` sits on line 4
        path = self.write(tmp_path, 't,s,a\n"0\n",1,1\n1,x,0\n2,1,\n')
        message = f"{path}:4: column s holds 'x'; real-valued columns need a binner"
        with pytest.raises(DataError) as exc_info:
            read_transition_counts(path)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("block_rows", [2, estimation.BLOCK_ROWS])
    def test_line_numbers_past_a_quoted_cell_and_skipped_lines(
        self, tmp_path, monkeypatch, block_rows
    ):
        # with blocks of 2 lines the C reader takes lines 2-3 and the row loop resumes at line 4,
        # whose quoted t cell spans lines 4 and 5; the `x` sits on line 6
        monkeypatch.setattr(estimation, "BLOCK_ROWS", block_rows)
        path = self.write(tmp_path, 't,s,a\n0,1,1\n1,1,1\n"2\n",1,1\n3,x,0\n4,1,\n')
        with pytest.raises(DataError) as exc_info:
            read_transition_counts(path)
        message = f"{path}:6: column s holds 'x'; real-valued columns need a binner"
        assert str(exc_info.value) == message

    def test_a_bad_byte_past_an_earlier_fault_leaves_it_first(self, tmp_path):
        # the short row on line 3 sits in the same 8 KB of text as the bad byte on line 5
        path = tmp_path / "series.csv"
        path.write_bytes(b"t,s,a\n0,1,1\n1,2\n2,1,0\n3,\xff1,0\n4,1,\n")
        with pytest.raises(DataError) as exc_info:
            read_transition_counts(path)
        assert str(exc_info.value) == f"{path}:3: expected 3 columns, got 2"

    # the C reader reads neither the `t` column nor a header past `a`, so it declines a bad byte there
    @pytest.mark.parametrize(
        "header, rows_before, newline, row, line",
        [
            (b"t,s,a", 0, "\n", b"0,\xff1,0", 2),
            (b"t,s,a", 200_000, "\r\n", b"0,\xff1,0", 200_002),
            (b"t,s,a,x\xff", 0, "\n", b"0,1,0", 1),
            (b"t,s,a", 3, "\n", b"\xff3,1,0", 5),
        ],
        ids=["line-2", "past-first-block", "header", "t-cell"],
    )
    def test_invalid_utf8_names_its_line(
        self, tmp_path, capsys, header, rows_before, newline, row, line
    ):
        body = "".join(f"{t},1,0{newline}" for t in range(rows_before))
        assert line < estimation.BLOCK_ROWS or rows_before > estimation.BLOCK_ROWS
        path = tmp_path / "series.csv"
        path.write_bytes(header + f"{newline}{body}".encode() + row + b"\n1,2,\n")
        message = f"{path}:{line}: not valid UTF-8"
        with pytest.raises(DataError) as exc_info:
            read_transition_counts(path)
        assert str(exc_info.value) == message
        assert main(["measure", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # a quoted cell hands the file to the row loop
    @pytest.mark.parametrize("t", ["0", '"0"'], ids=["c-reader", "row-loop"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, capsys, t):
        path = tmp_path / "series.csv"
        path.write_bytes(f"\ufefft,s,a\n{t},1,1\n1,2,\n".encode())
        assert (fast_columns(path, {}) is None) == (t != "0")
        assert_counts(read_transition_counts(path), [1, 2], [1], 3, 2)
        assert main(["measure", "--input", str(path), "--sensor-size", "3"]) == 0
        assert main(["measure", "--input", str(path)]) == 0
        assert "error" not in capsys.readouterr().err


SENSOR_BINNER = Binner(0.0, 8.0, 30)
ACTION_BINNER = Binner(-1.0, 1.0, 30)


def column_specs(options):
    """The specs of the sensor and action columns in reader options."""
    return options.get("sensor"), options.get("action")


def decline(*args):
    """A C reader that declines every block."""
    raise ValueError("declined")


def values_of(values, specs):
    """`_symbols` passing a block's values through."""
    return values


def read_by_row_loop(path, **options):
    """`read_transition_counts` with the numpy fast path left out."""
    with mock.patch.object(estimation, "_value_block", decline):
        return read_transition_counts(path, **options)


def row_loop_columns(path, specs):
    """The value and the symbol columns the row loop takes from a whole file."""
    with mock.patch.multiple(estimation, _value_block=decline, _symbols=values_of):
        blocks = list(estimation._symbol_blocks(Path(path), specs))
    values = tuple(np.concatenate(column) for column in zip(*blocks))
    return values, estimation._symbols(values, specs)


def whole_counts(path, options):
    """The reference count table: the row loop's whole columns counted at once.

    An inferred alphabet is sized by its column's largest symbol + 1, the
    final action included, or 1 with no symbol.
    """
    specs = column_specs(options)
    _, columns = row_loop_columns(path, specs)
    n_s, n_a = (
        spec.bins if isinstance(spec, Binner) else spec if spec is not None
        else int(symbols.max()) + 1 if len(symbols) else 1
        for symbols, spec in zip(columns, specs)
    )
    sensors, actions = columns
    return count_transitions(sensors, actions[: len(sensors) - 1], n_s, n_a)


def outcome(read, path, options):
    """What a reader makes of a file: its int64 count table as nested lists, or the DataError text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            counts = read(path, **options)
        except DataError as exc:
            return str(exc)
    assert counts.dtype == np.int64
    return counts.tolist()


def assert_counts(counts, sensors, actions, n_s, n_a):
    """The table is the int64 count of the series `sensors`, `actions` in the given alphabets."""
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(
        counts, count_transitions(np.array(sensors), np.array(actions, dtype=np.int64), n_s, n_a)
    )


class Declined(Exception):
    """The C reader handed a file to the row loop."""


def fast_columns(path, options, symbols=estimation._symbols):
    """The columns the C reader takes from a whole file, as `symbols` gives them.

    None if it hands a block on, or if the file has no t,s,a header with a
    data row after it, which csv reads before either parser runs.
    """

    def row_loop(*args):
        raise Declined

    with mock.patch.multiple(estimation, _row_block=row_loop, _symbols=symbols):
        try:
            blocks = list(estimation._symbol_blocks(Path(path), column_specs(options)))
        except (Declined, DataError):
            return None
    return tuple(np.concatenate(column) for column in zip(*blocks))


class TestFastPath:
    """Well-formed files are parsed by numpy's C reader, never by the row loop."""

    @pytest.fixture(autouse=True)
    def no_row_loop(self, monkeypatch):
        def row_loop(*args):
            raise AssertionError("the row loop ran on a well-formed file")

        monkeypatch.setattr(estimation, "_row_block", row_loop)

    def read(self, path, **options):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read_transition_counts(path, **options)

    def test_rotator_run_series(self, tmp_path, capsys):
        out = tmp_path / "episode"
        assert main(["rotator", "run", "--eta", "0.5", "--steps", "300", "--out", str(out)]) == 0
        path = out / "series.csv"
        # csv.writer ends its rows with \r\n, and the final action is blank
        assert path.read_bytes().endswith(b",\r\n")
        options = {"sensor": SENSOR_BINNER, "action": ACTION_BINNER}
        counts = self.read(path, **options)
        assert counts.shape == (30, 30, 30)
        assert counts.sum() == 300
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        sensors = SENSOR_BINNER.index([float(row[1]) for row in rows])
        actions = ACTION_BINNER.index([float(row[2]) for row in rows[:-1]])
        assert_same_bits(fast_columns(path, options), (sensors, actions))
        assert_counts(counts, sensors, actions, 30, 30)

    def test_integer_symbols(self, tmp_path):
        path = tmp_path / "ints.csv"
        path.write_text("t,s,a\n0,0,1\n1, +2 ,0\n\n2,4,3\n3,1,7\n")
        # the trailing action is not counted, but it still sizes the inferred alphabet
        assert_counts(self.read(path), [0, 2, 4, 1], [1, 0, 3], 5, 8)

    def test_mixed_integer_and_real_columns(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("t,s,a\n0,3,-0.95\n1,0,0.5\n2,7,\n")
        counts = self.read(path, sensor=8, action=ACTION_BINNER)
        assert_counts(counts, [3, 0, 7], [0, 22], 8, 30)

    def test_one_data_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t,s,a\n0,2.5,")
        options = {"sensor": SENSOR_BINNER, "action": 3}
        assert_counts(self.read(path, **options), [9], [], 30, 3)
        sensors, actions = fast_columns(path, options)
        np.testing.assert_array_equal(sensors, [9])
        assert len(actions) == 0

    @pytest.mark.parametrize("block_rows", [1, 2, estimation.BLOCK_ROWS])
    def test_blank_rows_filling_a_block(self, tmp_path, monkeypatch, block_rows):
        # loadtxt warns on a block without data, so such a block is skipped
        monkeypatch.setattr(estimation, "BLOCK_ROWS", block_rows)
        path = tmp_path / "blank-block.csv"
        path.write_text("t,s,a\n" + "0,1,1\n" * block_rows + "\n" * block_rows + "1,2,\n")
        assert_counts(self.read(path), [1] * block_rows + [2], [1] * block_rows, 3, 2)


def write_symbols(path, sensors, actions):
    """A t,s,a file of integer symbols; the last row leaves `a` blank if there is one action fewer."""
    cells = [*map(str, actions), *[""] * (len(sensors) - len(actions))]
    path.write_text("t,s,a\n" + "".join(f"{t},{s},{a}\n" for t, (s, a) in enumerate(zip(sensors, cells))))


class TestTransitionCounts:
    @settings(max_examples=100, deadline=None)
    @given(
        n_s=st.integers(1, 6),
        n_a=st.integers(1, 6),
        symbols=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40),
        final_blank=st.booleans(),
    )
    def test_block_sums_equal_the_whole_series_count(self, n_s, n_a, symbols, final_blank):
        sensors = [s % n_s for s, _ in symbols]
        # a file whose last action is not blank ends in an action with no successor
        actions = [a % n_a for _, a in symbols][: len(symbols) - final_blank]
        whole = count_transitions(np.array(sensors), np.array(actions[: len(sensors) - 1]), n_s, n_a)
        # the transition triples counted one by one, as the oracle
        expected = np.zeros((n_s, n_a, n_s), dtype=np.int64)
        for transition, count in Counter(zip(sensors, actions, sensors[1:])).items():
            expected[transition] = count
        assert whole.dtype == np.int64
        np.testing.assert_array_equal(whole, expected)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            write_symbols(path, sensors, actions)
            for block_rows in (1, 2, 8_192):
                with mock.patch.object(estimation, "BLOCK_ROWS", block_rows):
                    counts = read_transition_counts(path, sensor=n_s, action=n_a)
                assert counts.dtype == np.int64
                np.testing.assert_array_equal(counts, whole)

    # unchecked, each is counted at a wrong cell: (2, 1, 1), (2, 1, 2) and (1, 0, 1) of the table
    @pytest.mark.parametrize(
        "sensors, actions, message",
        [
            ([0, 1], [5], "action symbol 5 outside alphabet of size 2"),
            ([-1, 1], [1], "sensor symbol -1 outside alphabet of size 3"),
            ([0, 7], [1], "sensor symbol 7 outside alphabet of size 3"),
        ],
        ids=["action-too-large", "negative-sensor", "sensor-too-large"],
    )
    def test_symbols_outside_the_alphabets_are_rejected(self, sensors, actions, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            count_transitions(np.array(sensors), np.array(actions), 3, 2)

    # unchecked, the empty series raised IndexError, extra actions were dropped
    # and too few raised numpy's broadcast error
    @pytest.mark.parametrize(
        "sensors, actions",
        [([], []), ([0, 1], [0, 1, 1]), ([0, 1, 1], [0])],
        ids=["empty", "extra-actions", "too-few-actions"],
    )
    def test_lengths_that_do_not_pair_are_rejected(self, sensors, actions):
        message = f"^{len(sensors)} sensor symbols with {len(actions)} actions; expected one extra sensor observation$"
        with pytest.raises(DataError, match=message):
            count_transitions(np.array(sensors, dtype=np.int64), np.array(actions, dtype=np.int64), 3, 2)

    @pytest.mark.parametrize("block_rows", [1, 2])
    def test_a_file_declined_past_its_first_block_is_counted_once(
        self, tmp_path, monkeypatch, block_rows
    ):
        # the C reader takes the first blocks, then declines the underscore on line 5
        monkeypatch.setattr(estimation, "BLOCK_ROWS", block_rows)
        path = tmp_path / "series.csv"
        path.write_text("t,s,a\n0,0,1\n1,1,0\n2,0,1\n3,1_0,0\n4,2,\n")
        for options in ({}, {"sensor": 11, "action": 2}):
            counts = read_transition_counts(path, **options)
            assert_counts(counts, [0, 1, 0, 10, 2], [1, 0, 1, 0], 11, 2)
            assert counts.sum() == 4


    def test_the_row_loop_reads_only_the_declined_block(self, tmp_path, monkeypatch):
        # blocks of 2 lines: the C reader takes lines 2-9, and declines line 10 for its quote
        monkeypatch.setattr(estimation, "BLOCK_ROWS", 2)
        sensors, actions = [0, 1, 2, 2, 0, 1, 1, 2, 0], [1, 0, 1, 1, 0, 0, 1, 0]
        rows = [f"{t},{s},{a}\n" for t, (s, a) in enumerate(zip(sensors, actions))]
        path = tmp_path / "series.csv"
        path.write_text("t,s,a\n" + "".join(rows) + '"8",0,\n')
        taken, reader = [], csv.reader

        class CountingReader:
            """csv.reader, keeping each row it yields."""

            def __init__(self, *args, **kwargs):
                self.reader = reader(*args, **kwargs)

            def __iter__(self):
                return self

            def __next__(self):
                taken.append(next(self.reader))
                return taken[-1]

            @property
            def line_num(self):
                return self.reader.line_num

        monkeypatch.setattr(csv, "reader", CountingReader)
        counts = read_transition_counts(path, sensor=3, action=2)
        assert taken == [["t", "s", "a"], ["8", "0", ""]]
        whole = count_transitions(np.array(sensors), np.array(actions), 3, 2)
        np.testing.assert_array_equal(counts, whole)
        assert counts.sum() == 8


@st.composite
def growing_files(draw):
    """An integer t,s,a file whose symbols may climb from block to block.

    Returns the text, the reader options, which size at most one column,
    the sensor and the action column (with the final action, if it is not
    blank) and the `BLOCK_ROWS` to read the file with.
    """
    rows = draw(st.integers(1, 24))
    climbs = draw(st.tuples(st.sampled_from([0, 1, 3]), st.sampled_from([0, 1, 2])))
    sensors = [draw(st.integers(0, 3)) + climbs[0] * t for t in range(rows)]
    actions = [draw(st.integers(0, 2)) + climbs[1] * t for t in range(rows - 1)]
    final = draw(st.sampled_from(["blank", "largest", "drawn"]))
    if final == "largest":
        # not counted, but it sizes an inferred action alphabet
        actions.append(max(actions, default=0) + draw(st.integers(1, 4)))
    elif final == "drawn":
        actions.append(draw(st.integers(0, 2)))
    cells = [*map(str, actions), *[""] * (rows - len(actions))]
    lines = [f"{t},{s},{a}" for t, (s, a) in enumerate(zip(sensors, cells))]
    if draw(st.booleans()):
        # the C reader declines the quoted cell's block, and the row loop reads on from there
        row = draw(st.integers(0, rows - 1))
        lines[row] = f'"{row}"' + lines[row][len(str(row)) :]
    options = {}
    sized = draw(st.sampled_from([None, "sensor", "action"]))
    if sized is not None:
        column = sensors if sized == "sensor" else actions
        options[sized] = max(column, default=0) + 1 + draw(st.integers(0, 2))
    return "t,s,a\n" + "\n".join(lines) + "\n", options, sensors, actions, draw(st.integers(1, 7))


class TestGrowingCounts:
    """An inferred alphabet's table grows block by block to the whole file counted at max + 1."""

    @given(drawn=growing_files())
    @settings(max_examples=300, deadline=None)
    def test_counts_and_report_equal_the_whole_file_counted(self, drawn):
        text, options, sensors, actions, block_rows = drawn
        n_s = options.get("sensor", max(sensors) + 1)
        n_a = options.get("action", max(actions, default=0) + 1)
        steps = len(sensors) - 1
        whole = count_transitions(np.array(sensors), np.array(actions[:steps], dtype=np.int64), n_s, n_a)
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_text(text)
            with mock.patch.object(estimation, "BLOCK_ROWS", block_rows):
                counts = read_transition_counts(path, **options)
                argv = ["measure", "--input", str(path), "--format", "json", *cli_flags(options)]
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
        assert counts.shape == whole.shape
        assert counts.tobytes() == whole.tobytes()
        try:
            (values,) = checked_rows(intrinsic_values(*estimate_arrays(whole), INTRINSIC_MEASURES))
        except prob.ComputeError as exc:
            # a one-symbol alphabet, as a one-row file's blank action gives
            event("measures undefined")
            assert (code, stderr.getvalue()) == (3, f"error: {exc}\n")
            return
        metadata = {"input": str(path), "transitions": steps, "sensor_alphabet": n_s, "action_alphabet": n_a}
        report = json.dumps({"values": values, "metadata": metadata}, indent=2, sort_keys=True)
        assert (code, stdout.getvalue()) == (0, report + "\n")

    # a symbol too large for memory exits at its block, before a fault in a later block is read;
    # after a first block of one small row, it exits as the table would grow
    @pytest.mark.parametrize(
        "block_rows, lead, error",
        [
            (1, "", "a 100000000001 x 1 x 100000000001 model (|S|: inferred from column s; "
             "|A|: inferred from column a) needs 80000000001600000000008 bytes of float64, "),
            (1, "0,0,1\n", "a 100000000001 x 2 x 100000000001 model (|S|: inferred from column s; "
             "|A|: inferred from column a) needs 160000000003200000000016 bytes of float64, "),
            # the fault shares the symbol's block, which is parsed before it is counted
            (estimation.BLOCK_ROWS, "", "{path}:3: column s holds 'x'; real-valued columns need a binner"),
        ],
        ids=["first-block", "growing", "same-block"],
    )
    def test_a_symbol_too_large_for_memory_exits_at_its_block(
        self, tmp_path, monkeypatch, capsys, block_rows, lead, error
    ):
        monkeypatch.setattr(estimation, "BLOCK_ROWS", block_rows)
        path = tmp_path / "series.csv"
        path.write_text(f"t,s,a\n{lead}0,100000000000,0\n1,x,1\n2,1,\n")
        assert main(["measure", "--input", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: " + error.format(path=path))
        assert line.endswith(" bytes of physical memory" if block_rows == 1 else "binner")


def write_real_series(path, rows, quoted=None):
    """A real-valued file as `rotator run` writes series.csv, with a blank final action.

    `quoted` ("first" or "last") quotes every cell of the first or the last data row.
    """
    rng = np.random.default_rng(0)
    body = list(
        zip(
            (0.01 * np.arange(rows)).tolist(),
            rng.uniform(0.0, 8.0, rows).tolist(),
            [*rng.uniform(-1.0, 1.0, rows - 1).tolist(), ""],
        )
    )
    with path.open("w", newline="") as handle:
        writer, quoting = csv.writer(handle), csv.writer(handle, quoting=csv.QUOTE_ALL)
        writer.writerow(("t", "s", "a"))
        if quoted == "first":
            quoting.writerow(body[0])
            writer.writerows(body[1:])
        elif quoted == "last":
            writer.writerows(body[:-1])
            quoting.writerow(body[-1])
        else:
            writer.writerows(body)


def traced_peak(read, *args, **kwargs):
    """The result of a reader call and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = read(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    ROWS = 200_000
    BINNERS = {"sensor": SENSOR_BINNER, "action": ACTION_BINNER}

    @pytest.mark.parametrize("quoted", ["first", "last"])
    def test_counting_a_declined_file_holds_one_block(self, tmp_path, quoted):
        peaks = []
        for rows in (20_000, 200_000):
            path = tmp_path / f"series-{rows}.csv"
            write_real_series(path, rows, quoted)
            counts, peak = traced_peak(read_transition_counts, path, **self.BINNERS)
            assert counts.sum() == rows - 1
            peaks.append(peak)
        # about 2.3 MB for both; holding the rows read by the row loop, 5 and 47 MB
        assert peaks[1] < 1.1 * peaks[0]

    def test_a_bad_byte_on_the_last_line_holds_one_block(self, tmp_path):
        clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
        write_real_series(clean, self.ROWS)
        text = clean.read_bytes()
        last = text.rindex(b"\n", 0, -1) + 1
        bad.write_bytes(text[:last] + b"\xff" + text[last:])
        counts, clean_peak = traced_peak(read_transition_counts, clean, **self.BINNERS)
        assert counts.sum() == self.ROWS - 1

        def message(path):
            with pytest.raises(DataError) as exc_info:
                read_transition_counts(path, **self.BINNERS)
            return str(exc_info.value)

        text, peak = traced_peak(message, bad)
        assert text == f"{bad}:{self.ROWS + 1}: not valid UTF-8"
        # about 2 MB for both; decoding the whole file again to find the line took 40 MB
        assert peak < 1.5 * clean_peak


# (file text, reader options, why the fast path hands the file to the row loop)
FALLBACKS = {
    "quoted-cell-with-comma": (
        't,s,a\n"0,1.5,2.5,",9,0.5\n1,2,\n',
        {"sensor": SENSOR_BINNER, "action": ACTION_BINNER},
    ),
    "whitespace-only-row": ("t,s,a\n0,1,1\n \t \n1,2,\n", {}),
    "blank-cells-row": ("t,s,a\n0,1,1\n , ,\n1,2,\n", {}),
    "blank-last-line": ("t,s,a\n0,1,1\n1,2,\n\n", {}),
    "short-row": ("t,s,a\n0,1,1\n1,2\n2,1,\n", {}),
    "header-only": ("t,s,a\n", {}),
    "bad-header": ("t,x,a\n0,1,1\n1,2,\n", {}),
    "underscore-in-number": ("t,s,a\n0,1_0,1\n1,2,\n", {}),
    "float-in-integer-column": ("t,s,a\n0,3.0,1\n1,2,\n", {}),
    "integer-beyond-int64": ("t,s,a\n0,99999999999999999999,1\n1,2,\n", {}),
    "negative-symbol": ("t,s,a\n0,-1,1\n1,2,\n", {}),
    "out-of-alphabet": ("t,s,a\n0,5,1\n1,2,\n", {"sensor": 3}),
    "out-of-alphabet-final-action": ("t,s,a\n0,1,1\n1,2,3\n", {"action": 3}),
    "non-finite-real": ("t,s,a\n0,1e400,0.5\n1,2,\n", {"sensor": SENSOR_BINNER}),
    "unparsable-real": ("t,s,a\n0,1,x\n1,2,\n", {"action": ACTION_BINNER}),
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
        assert outcome(read_transition_counts, path, options) == outcome(
            read_by_row_loop, path, options
        )

    def test_quoted_cell_is_read_as_csv_reads_it(self, tmp_path):
        # split at every comma, the row would read s = 1.5, a = 2.5
        text, options = FALLBACKS["quoted-cell-with-comma"]
        path = tmp_path / "series.csv"
        path.write_text(text)
        _, (sensors, actions) = row_loop_columns(path, column_specs(options))
        np.testing.assert_array_equal(sensors, SENSOR_BINNER.index([9.0, 2.0]))
        np.testing.assert_array_equal(actions, ACTION_BINNER.index([0.5]))
        assert_counts(read_transition_counts(path, **options), sensors, actions, 30, 30)

    @pytest.mark.parametrize(
        "text",
        [
            "t,s,a\n0,1,1\n\n\n1,2,0\n\n2,0,\n",
            "t,s,a\r\n0,1,1\r\n1,2,0\r\n2,0,\r\n",
            "t,s,a\r0,1,1\r1,2,0\r\n2,0,",
            "T , S,A,extra\n0, 1 ,+1,9,9\n1,2,0\n2,0,1,x\n",
            "t,s,a\n0,1,1\n1,2, \t\n",
            "t,s,a\n0,1,1\n1,2,0,7,7,7,7",
        ],
        ids=[
            "blank-rows",
            "crlf",
            "lone-cr",
            "spaces-signs-extra-columns",
            "final-action-spaces",
            "long-last-line",
        ],
    )
    def test_tolerated_layouts_stay_on_the_c_path(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        assert fast_columns(path, {}) is not None
        assert outcome(read_transition_counts, path, {}) == outcome(read_by_row_loop, path, {})


class TestBlockFallback:
    """csv parses the blocks loadtxt declines, and loadtxt every other block."""

    @pytest.fixture(autouse=True)
    def blocks_of_two_lines(self, monkeypatch):
        monkeypatch.setattr(estimation, "BLOCK_ROWS", 2)

    def read(self, tmp_path, text, **options):
        """The outcome of a file read in blocks of 2 lines, and the loadtxt and csv block calls."""
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        with (
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt,
            mock.patch.object(estimation, "_row_block", wraps=estimation._row_block) as row_block,
        ):
            counts = outcome(read_transition_counts, path, options)
        return counts, loadtxt.call_count, row_block.call_count

    def test_blocks_after_a_quoted_first_row_go_to_loadtxt(self, tmp_path):
        # lines 2-3 go to csv for the quote, and loadtxt parses lines 4-5, 6-7 and 8-9
        sensors, actions = [0, 1, 2, 2, 0, 1, 1, 2], [1, 0, 1, 1, 0, 0, 1]
        rows = [f"{t},{s},{a}\n" for t, (s, a) in enumerate(zip(sensors, [*actions, ""]))]
        rows[0] = '"0"' + rows[0][1:]
        counts, loadtxt_calls, row_block_calls = self.read(tmp_path, "t,s,a\n" + "".join(rows))
        whole = count_transitions(np.array(sensors), np.array(actions), 3, 2)
        assert counts == whole.tolist()
        assert (loadtxt_calls, row_block_calls) == (3, 1)

    def test_a_quoted_cell_across_a_block_edge_is_one_row(self, tmp_path):
        # the s cell opens on line 3, the last of the first block, and closes on line 4
        text = 't,s,a\n0,1,1\n1,"2\n",0\n2,0,1\n3,1,\n'
        counts, loadtxt_calls, row_block_calls = self.read(tmp_path, text)
        assert counts == count_transitions(np.array([1, 2, 0, 1]), np.array([1, 0, 1]), 3, 2).tolist()
        # csv read on through the lookahead line 4, and loadtxt takes lines 5-6
        assert (loadtxt_calls, row_block_calls) == (1, 1)
        counts, *_ = self.read(tmp_path, text.replace("3,1,", "3,x,"))
        assert counts.endswith(":6: column s holds 'x'; real-valued columns need a binner")

    @pytest.mark.parametrize(
        "tail, expected",
        [
            ("\n\n\n", count_transitions(np.array([1, 2]), np.array([1]), 3, 2).tolist()),
            ("\n\n2,0,\n", ":3: empty action before the final row"),
        ],
        ids=["blank-lines-to-eof", "data-row-after-blank-lines"],
    )
    def test_a_blank_action_ending_a_block(self, tmp_path, tail, expected):
        # the blank action on line 3 ends the first block; blank lines fill the next
        counts, _, row_block_calls = self.read(tmp_path, "t,s,a\n0,1,1\n1,2,\n" + tail)
        assert counts == expected if isinstance(expected, list) else counts.endswith(expected)
        # csv read on past the blank lines, so no other block is left
        assert row_block_calls == 1

    def test_a_crlf_inside_a_quoted_cell_reads_as_lf(self, tmp_path):
        # universal newlines end the file's lines, so csv sees the CRLF inside the quotes as LF
        path = tmp_path / "series.csv"
        path.write_bytes(b't,s,a\r\n0,"1\r\n2",0\r\n1,2,\r\n')
        with pytest.raises(DataError) as exc_info:
            read_transition_counts(path)
        assert str(exc_info.value) == f"{path}:3: column s holds '1\\n2'; real-valued columns need a binner"


class TestOneRead:
    """`measure` opens its input once, whichever parser takes each block."""

    @pytest.mark.parametrize(
        "text, options, opens, code",
        [
            # with an inferred alphabet or both sizes given, `measure` counts as it reads
            ("t,s,a\n0,1,1\n1,2,0\n2,0,\n", {}, 1, 0),
            ("t,s,a\n0,1,1\n1,2,0\n2,0,\n", {"sensor": 3, "action": 2}, 1, 0),
            (*FALLBACKS["quoted-cell-with-comma"], 1, 0),
            # a byte that is not UTF-8 is found as the row loop reads, not by reading the file again
            ("t,s,a\n0,1,1\n1,\udcff2,0\n2,0,\n", {}, 1, 2),
        ],
        ids=["c-reader-series", "c-reader-counts", "declined", "bad-byte"],
    )
    def test_measure_opens_its_input(self, tmp_path, capsys, text, options, opens, code):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        opened = []
        original = Path.open

        def counting_open(self, *args, **kwargs):
            if self == path:
                opened.append(args)
            return original(self, *args, **kwargs)

        with mock.patch.object(Path, "open", counting_open):
            assert main(["measure", "--input", str(path), *cli_flags(options)]) == code
        assert len(opened) == opens


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
            options[name] = binner
        elif draw(st.booleans()):
            options[name] = draw(st.integers(1, 8))
    return text, options


def cli_flags(options):
    flags = []
    for name in ("sensor", "action"):
        spec = options.get(name)
        if isinstance(spec, Binner):
            flags.append(f"--{name}-bins={spec.low}:{spec.high}:{spec.bins}")
        elif spec is not None:
            flags.append(f"--{name}-size={spec}")
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
            assert outcome(read_transition_counts, path, options) == expected
            self.check_counts(path, options, expected)
            if columns is not None:
                specs = column_specs(options)
                # the C reader's values are the row loop's, bit for bit, and so are the symbols
                parsed = fast_columns(path, options, values_of)
                values, symbols = row_loop_columns(path, specs)
                assert_same_bits(parsed, values)
                assert_same_bits(columns, symbols)
            if isinstance(expected, str):
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                    assert main(["measure", "--input", str(path), *cli_flags(options)]) == 2
                assert stderr.getvalue().splitlines()[-1] == f"error: {expected}"

    @staticmethod
    def check_counts(path, options, expected):
        """The block-wise counts are the row loop's columns counted whole, sizes inferred or given."""
        if isinstance(expected, str):
            return
        whole = whole_counts(path, options)
        assert expected == whole.tolist()
        # each integer column's alphabet given the size inferred for it
        sized = dict(options)
        for name, size in zip(("sensor", "action"), whole.shape):
            if not isinstance(options.get(name), Binner):
                sized[name] = size
        assert outcome(read_transition_counts, path, sized) == expected


@st.composite
def faulty_files(draw, faults):
    """A valid t,s,a file with `faults` faults on distinct drawn data rows.

    Returns the text, the reader options, and for each fault its file line
    and the text the reader's DataError gives after the file name.  A byte
    that is not UTF-8 is in the text as the surrogate that surrogateescape
    decodes it to.
    """
    real = draw(st.tuples(st.booleans(), st.booleans()))
    sizes = [None if real[column] else draw(st.none() | st.integers(1, 6)) for column in (0, 1)]
    rows = draw(st.integers(faults + 1, 12))

    def valid(column):
        if real[column]:
            return repr(draw(st.floats(-2.0, 10.0)))
        return str(draw(st.integers(0, (sizes[column] or 7) - 1)))

    table = [[str(t), valid(0), valid(1)] for t in range(rows)]
    if draw(st.booleans()):
        table[-1][2] = ""
    details, bad_t = {}, set()
    fault_rows = st.lists(st.integers(0, rows - 1), min_size=faults, max_size=faults, unique=True)
    for row in draw(fault_rows):
        kinds = [("short-row", None), ("bad-byte", None)] + [("empty-action", 1)] * (row < rows - 1)
        for column in (0, 1):
            kinds.append(("unparsable", column))
            if real[column]:
                kinds.append(("non-finite", column))
            else:
                kinds += [("negative", column), ("beyond-int64", column)]
                kinds += [("out-of-alphabet", column)] * (sizes[column] is not None)
        kind, column = draw(st.sampled_from(kinds))
        name = "sa"[column] if column is not None else None
        if kind == "short-row":
            table[row] = table[row][:2]
            details[row] = "expected 3 columns, got 2"
            continue
        if kind == "bad-byte":
            # in the t, s or a cell
            index = draw(st.integers(0, 2))
            table[row][index] = "\udcff" + table[row][index]
            details[row] = "not valid UTF-8"
            if index == 0:
                bad_t.add(row)
            continue
        if kind == "empty-action":
            cell, details[row] = "", "empty action before the final row"
        elif kind == "unparsable":
            cell = "x"
            if real[column]:
                details[row] = f"column {name}: could not convert string to float: 'x'"
            else:
                details[row] = f"column {name} holds 'x'; real-valued columns need a binner"
        elif kind == "non-finite":
            cell = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
            details[row] = f"non-finite value in column {name}"
        elif kind == "negative":
            cell = str(draw(st.integers(-9, -1)))
            details[row] = f"negative symbol in column {name}"
        elif kind == "beyond-int64":
            cell = draw(st.sampled_from(["9223372036854775808", "-9223372036854775809", "9" * 20]))
            details[row] = f"column {name} symbol {cell} does not fit in 64 bits"
        else:
            cell = str(draw(st.integers(sizes[column], sizes[column] + 9)))
            size = sizes[column]
            details[row] = f"column {name} symbol {cell} does not fit alphabet of size {size}"
        table[row][1 + column] = cell

    # blank lines, quoted cells and a quoted cell spanning two lines move the file lines
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text, line, faults_at = "t,s,a" + newline, 1, []
    for row, cells in enumerate(table):
        layout = draw(st.sampled_from(["plain"] * 4 + ["blank-before", "quoted", "two-line"]))
        if layout == "blank-before":
            text, line = text + newline, line + 1
        if layout == "quoted":
            cells = [f'"{cells[0]}"', *cells[1:]]
        if layout == "two-line":
            cells = [f'"{cells[0]}\n"', *cells[1:]]
        text += ",".join(cells) + newline
        line += 1 + (layout == "two-line")
        if row in details:
            # a bad byte is named on its own line, the first of a two-line t cell
            faults_at.append((line - (layout == "two-line" and row in bad_t), details[row]))
    if draw(st.booleans()):
        text = text.removesuffix(newline)

    options = {}
    for column, name, binner in ((0, "sensor", SENSOR_BINNER), (1, "action", ACTION_BINNER)):
        if real[column]:
            options[name] = binner
        elif sizes[column] is not None:
            options[name] = sizes[column]
    return text, options, faults_at


class TestFaultOrder:
    """A file's DataError names its first faulty line, with the message that fault has alone."""

    # blocks of 1 and 2 lines put faults on block edges and past the first block
    @pytest.mark.parametrize("block_rows", [1, 2, estimation.BLOCK_ROWS])
    @given(drawn=faulty_files(1))
    @settings(max_examples=200, deadline=None)
    def test_one_fault_keeps_its_message(self, block_rows, drawn):
        self.check(block_rows, drawn)

    @pytest.mark.parametrize("block_rows", [1, 2, estimation.BLOCK_ROWS])
    @given(drawn=faulty_files(2))
    @settings(max_examples=200, deadline=None)
    def test_of_two_faults_the_earlier_line_is_named(self, block_rows, drawn):
        self.check(block_rows, drawn)

    @staticmethod
    def check(block_rows, drawn):
        text, options, faults_at = drawn
        line, detail = min(faults_at)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            with mock.patch.object(estimation, "BLOCK_ROWS", block_rows):
                with pytest.raises(DataError) as exc_info:
                    read_transition_counts(path, **options)
            assert str(exc_info.value) == f"{path}:{line}: {detail}"
