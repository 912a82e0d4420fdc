import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel2, random_kernel3
from morphocomp.estimation import (
    Binner,
    DataError,
    SymbolSeries,
    estimate,
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

    def test_alphabet_labels(self):
        alphabet = Binner(0.0, 1.0, 2).alphabet()
        assert alphabet.size == 2
        assert alphabet.labels == ("[0,0.5)", "[0.5,1)")


class TestSymbolSeries:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            SymbolSeries([0, 1, 0], [0, 1, 0])

    def test_negative_symbols(self):
        with pytest.raises(DataError):
            SymbolSeries([0, -1], [0])

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


class TestJointFromModel:
    def test_uniform_model_gives_uniform_joint(self):
        s, a = Alphabet(2), Alphabet(2)
        model = IntrinsicModel(
            Distribution.uniform(s), Kernel2.uniform(s, a), Kernel3.uniform(s, a, s)
        )
        np.testing.assert_allclose(joint_from_model(model).probs, 1 / 8)

    def test_deterministic_loop_support(self):
        s = Alphabet(2)
        model = IntrinsicModel(
            Distribution(s, [0.5, 0.5]),
            Kernel2.deterministic(s, s, [0, 1]),
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
