import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from morphocomp import rotator
from morphocomp.cli import main
from morphocomp.estimation import SymbolSeries, estimate
from morphocomp.measures import (
    INTRINSIC_MEASURES,
    IntrinsicModel,
    checked_columns,
    intrinsic_measures,
    rows_of,
)
from morphocomp.prob import Alphabet, Distribution, Joint3, Kernel2, Kernel3
from morphocomp.rotator import (
    ACTION_BINNER,
    SENSOR_BINNER,
    NumericalError,
    RotatorConfig,
    control_force,
    run_episode,
    sweep,
    _lockstep,
    _rk4,
    _simulate_batch,
    action_alphabet,
    sensor_alphabet,
)

CFG = RotatorConfig()
HEAVY = RotatorConfig(friction=0.37, mass=1.3, length=0.7, gravity=9.7)


def fine_step_reference(theta, theta_dot, f, cfg, duration, h=1e-6):
    """Independent integration at a tiny fixed step, used as the oracle."""
    steps = int(round(duration / h))
    for _ in range(steps):
        def accel(th, om):
            return (f - cfg.friction * cfg.length * om - cfg.mass * cfg.gravity * math.sin(th)) / (
                cfg.mass * cfg.length
            )

        k1v = accel(theta, theta_dot)
        k2v = accel(theta + 0.5 * h * theta_dot, theta_dot + 0.5 * h * k1v)
        k2x = theta_dot + 0.5 * h * k1v
        k3v = accel(theta + 0.5 * h * k2x, theta_dot + 0.5 * h * k2v)
        k3x = theta_dot + 0.5 * h * k2v
        k4v = accel(theta + h * k3x, theta_dot + h * k3v)
        k4x = theta_dot + h * k3v
        theta += (h / 6) * (theta_dot + 2 * k2x + 2 * k3x + k4x)
        theta_dot += (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return theta, theta_dot


def integrate_reference(theta, theta_dot, f, cfg):
    """One control period of RK4 written out with a fresh array per operation: the oracle of `_rk4`'s bits."""
    h = cfg.control_dt / rotator.RK4_SUBSTEPS
    fl, mg, ml = cfg.friction * cfg.length, cfg.mass * cfg.gravity, cfg.mass * cfg.length
    for _ in range(rotator.RK4_SUBSTEPS):
        k1v = (f - fl * theta_dot - mg * np.sin(theta)) / ml
        k2x = theta_dot + 0.5 * h * k1v
        k2v = (f - fl * k2x - mg * np.sin(theta + 0.5 * h * theta_dot)) / ml
        k3x = theta_dot + 0.5 * h * k2v
        k3v = (f - fl * k3x - mg * np.sin(theta + 0.5 * h * k2x)) / ml
        k4x = theta_dot + h * k3v
        k4v = (f - fl * k4x - mg * np.sin(theta + h * k3x)) / ml
        theta = theta + (h / 6.0) * (theta_dot + 2.0 * k2x + 2.0 * k3x + k4x)
        theta_dot = theta_dot + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return theta, theta_dot


def started_stepper(cfg, theta, theta_dot, lanes=1):
    """`_rk4(cfg, lanes)` started at (theta, theta_dot), each a float or a lane array."""
    y, advance = _rk4(cfg, lanes)
    y[0], y[1] = theta, theta_dot
    return y, advance


reference_configs = st.builds(
    RotatorConfig,
    friction=st.floats(0.0, 5.0),
    mass=st.floats(0.1, 10.0),
    length=st.floats(0.1, 10.0),
    gravity=st.floats(0.0, 20.0),
    control_dt=st.one_of(st.sampled_from([0.01, 0.05]), st.floats(1e-4, 0.1)),
)


def check_stepper_against_reference(data, lanes, k, cfg):
    """Advance one `_rk4` stepper k times and require `integrate_reference`'s bits after each call.

    Each force, angle and velocity is a float or a lane array, so broadcast,
    mixed and all-lane calls are drawn.
    """
    value = st.floats(-50.0, 50.0)
    either = st.one_of(value, arrays(np.float64, lanes, elements=value))
    theta, theta_dot = data.draw(either), data.draw(either)
    y, advance = started_stepper(cfg, theta, theta_dot, lanes)
    expected = np.empty_like(y)
    for _ in range(k):
        f = data.draw(either)
        advance(f)
        theta, theta_dot = integrate_reference(theta, theta_dot, f, cfg)
        expected[0], expected[1] = theta, theta_dot
        assert np.array_equal(y.view(np.int64), expected.view(np.int64))


def free_swing_energy_drift(seconds):
    """Relative energy change of the unforced pendulum after `seconds`.

    Starts at the target velocity and steps one lane with `_rk4`'s stepper
    in 0.01 s control periods, as the simulator does.
    """
    m, l, g = CFG.mass, CFG.length, CFG.gravity

    def energy(theta, theta_dot):
        # kinetic plus potential
        return 0.5 * m * l**2 * theta_dot**2 - m * g * l * np.cos(theta)

    y, advance = started_stepper(CFG, 0.0, 2 * math.pi)
    start = energy(*y)
    for _ in range(100 * seconds):
        advance(0.0)
    return float(abs(energy(*y) - start)[0] / abs(start[0]))


class TestDynamics:
    def test_equilibrium_is_stationary(self):
        theta = 0.4
        y, advance = started_stepper(CFG, theta, 0.0)
        advance(CFG.mass * CFG.gravity * math.sin(theta))
        assert y[0, 0] == pytest.approx(theta, abs=1e-12)
        assert y[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_fine_step_reference(self):
        y, advance = started_stepper(CFG, 0.0, 2 * math.pi)
        advance(0.0)
        ref_theta, ref_theta_dot = fine_step_reference(0.0, 2 * math.pi, 0.0, CFG, 0.01)
        assert y[0, 0] == pytest.approx(ref_theta, abs=1e-8)
        assert y[1, 0] == pytest.approx(ref_theta_dot, abs=1e-8)

    def test_matches_reference_with_force_and_friction(self):
        cfg = RotatorConfig(friction=0.3)
        y, advance = started_stepper(cfg, 1.0, 3.0)
        advance(4.0)
        ref = fine_step_reference(1.0, 3.0, 4.0, cfg, 0.01)
        assert y[0, 0] == pytest.approx(ref[0], abs=1e-8)
        assert y[1, 0] == pytest.approx(ref[1], abs=1e-8)

    @pytest.mark.parametrize(
        "cfg, dt, expected",
        [
            (CFG, 0.01, {
                "scalar": (["0x1.0151342ba2d60p-4"], ["0x1.91ed3c236ad9fp+2"]),
                "lanes": (
                    ["0x1.0222e6e05865bp-4", "0x1.077a48ff6279cp+0", "-0x1.409a3de59b196p+1"],
                    ["0x1.947c7ce6c8dd7p+2", "0x1.6bbc40f3a7d9ep+1", "-0x1.c4130c0b48f0ap-2"],
                ),
            }),
            (CFG, 0.05, {
                "scalar": (["0x1.406466550b6b0p-2"], ["0x1.8d3e31df3c573p+2"]),
                "lanes": (
                    ["0x1.45807efe5b101p-2", "0x1.214895db0ef99p+0", "-0x1.424505ec7bbaep+1"],
                    ["0x1.99fe0380aaf62p+2", "0x1.19039e54a9d5bp+1", "-0x1.aef3c9a107871p-3"],
                ),
            }),
            (HEAVY, 0.01, {
                "scalar": (["0x1.00ef1d1c27a6dp-4"], ["0x1.90b3f8f4cf513p+2"]),
                "lanes": (
                    ["0x1.01d5532ec45d5p-4", "0x1.0769e4a243b5fp+0", "-0x1.40960fc1c9b29p+1"],
                    ["0x1.9382f5627d7a5p+2", "0x1.6554fa456e010p+1", "-0x1.aa032c55c804bp-2"],
                ),
            }),
            (HEAVY, 0.05, {
                "scalar": (["0x1.3d96b70a0c10cp-2"], ["0x1.859e0eb76d13ap+2"]),
                "lanes": (
                    ["0x1.432c359d466a8p-2", "0x1.1fafab210f011p+0", "-0x1.41de50684bdaep+1"],
                    ["0x1.93816e719f739p+2", "0x1.f2506c098425ap+0", "-0x1.612641dc0abacp-4"],
                ),
            }),
        ],
    )
    def test_integrate_bits_are_pinned(self, cfg, dt, expected):
        # every product and sum of the RK4 step, friction term included, in a fixed order
        inputs = {
            "scalar": (0.0, 2 * math.pi, 0.0),
            "lanes": (
                np.array([0.0, 1.0, -2.5]),
                np.array([2 * math.pi, 3.0, -0.5]),
                np.array([4.0, -7.5, 0.0]),
            ),
        }
        for name, (theta, theta_dot, f) in inputs.items():
            y, advance = started_stepper(replace(cfg, control_dt=dt), theta, theta_dot, np.size(theta))
            advance(f)
            bits = tuple([float(x).hex() for x in row] for row in y)
            assert bits == expected[name], name

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 300), reference_configs)
    def test_integrate_matches_reference_bits(self, data, lanes, cfg):
        # one control period, as the simulator steps each lane batch
        check_stepper_against_reference(data, lanes, 1, cfg)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 300), st.integers(1, 8), reference_configs)
    def test_stepper_matches_chained_reference_bits(self, data, lanes, k, cfg):
        # one stepper advanced k times: a buffer carried stale from one step to the next shows here
        check_stepper_against_reference(data, lanes, k, cfg)

    def test_energy_conserved_without_force(self):
        seconds = 50
        assert free_swing_energy_drift(seconds) < 1e-6 * seconds

    def test_divergence_reported(self):
        cfg = RotatorConfig(f_max=1e308, steps=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                _simulate_batch(cfg, [np.random.SeedSequence(0)])

    def test_divergence_names_the_diverging_lane(self):
        # beta = 7 exceeds the velocity error at rest, so lane 0 never pushes;
        # lane 1's 1e308 force overflows the integration
        cfg = RotatorConfig(f_max=1e308)
        seqs = [np.random.SeedSequence(seed) for seed in (0, 1)]
        lanes = _lockstep(cfg, np.zeros(2), np.array([7.0, 0.0]), [3, 4], seqs)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^eta=0, beta=0, run=4: integration diverged at control step \d+ "):
                list(lanes)


class TestController:
    def test_spin_up_from_rest(self):
        # sensor zero: response is the full error plus the minimum strength,
        # clamped and scaled to the maximum force
        g_clamped, f = control_force(0.0, RotatorConfig(), beta=0.0)
        assert g_clamped == 1.0
        assert f == 10.0

    def test_response_formula_by_hand(self):
        # sensor 5.6, deadband 0.5: error 0.683 exceeds the deadband, so
        # g = 0.683 - 0.5 + 0.25 and the force is ten times that
        cfg = RotatorConfig(beta=0.5)
        g_clamped, f = control_force(5.6, cfg, cfg.beta)
        expected_g = (2 * math.pi - 5.6) - 0.5 + 0.25
        assert g_clamped == pytest.approx(expected_g)
        assert f == pytest.approx(expected_g * 10.0)

    def test_deadband_silences_output(self):
        cfg = RotatorConfig(beta=2.0)
        _, f = control_force(2 * math.pi - 1.0, cfg, cfg.beta)
        assert f == 0.0

    def test_deadband_boundary_is_active(self):
        cfg = RotatorConfig(beta=2.0)
        _, f = control_force(2 * math.pi - 2.0, cfg, cfg.beta)
        assert f != 0.0

    def test_zero_sensor_counts_as_positive(self):
        # a small target keeps the response inside the clamp, exposing the
        # sign convention at exactly zero
        cfg = RotatorConfig(beta=1.0, theta_dot_target=1.5)
        g_zero, _ = control_force(0.0, cfg, cfg.beta)
        g_neg, _ = control_force(-1e-12, cfg, cfg.beta)
        assert g_zero == pytest.approx(1.5 - 1.0 + 0.25, abs=1e-9)
        assert g_neg == pytest.approx(1.0, abs=1e-9)  # sign flip saturates the clamp

    @pytest.mark.parametrize(
        "cfg, sign",
        [
            (RotatorConfig(theta_dot_target=1e308, f_min=1e308), 1.0),
            (RotatorConfig(theta_dot_target=-1e308, beta=1e308), -1.0),
        ],
    )
    def test_response_beyond_the_float_range_clips_to_its_limit(self, cfg, sign):
        # the response overflows to +-inf, whose exact clip is +-1; an overflow warning is an error here
        g_clamped, f = control_force(0.0, cfg, cfg.beta)
        assert (g_clamped, f) == (sign, sign * cfg.f_max)

    def test_controller_draws_noise(self):
        cfg = RotatorConfig(eta=0.25, steps=50)
        velocities, sensors, g_clamped, forces = _simulate_batch(
            cfg, [np.random.SeedSequence(3)]
        )
        assert np.all(sensors != velocities)
        assert np.abs(sensors - velocities).max() <= 0.25 * cfg.theta_dot_target
        again = _simulate_batch(cfg, [np.random.SeedSequence(3)])
        np.testing.assert_array_equal(sensors, again[1])
        g_direct, f_direct = control_force(sensors[:, :-1], cfg, cfg.beta)
        np.testing.assert_array_equal(g_clamped, g_direct)
        np.testing.assert_array_equal(forces, f_direct)

    def test_noiseless_controller_is_exact(self):
        cfg = RotatorConfig(eta=0.0, beta=0.5, steps=50)
        velocities, sensors, _, forces = _simulate_batch(cfg, [np.random.SeedSequence(0)])
        np.testing.assert_array_equal(sensors, velocities)
        _, f_direct = control_force(velocities[:, :-1], cfg, cfg.beta)
        np.testing.assert_array_equal(forces, f_direct)


class TestEpisodes:
    def test_same_seed_same_series(self):
        cfg = RotatorConfig(eta=0.3, beta=1.0, steps=400, seed=42)
        first_row, first = run_episode(cfg)
        second_row, second = run_episode(cfg)
        assert first_row == second_row
        for first_arr, second_arr in zip(first, second, strict=True):
            np.testing.assert_array_equal(first_arr, second_arr)

    def test_batch_rows_independent_of_batch_size(self):
        cfg = RotatorConfig(eta=0.3, beta=1.0, steps=300)
        seq = np.random.SeedSequence(5)
        solo = _simulate_batch(cfg, [seq])
        other = np.random.SeedSequence(6)
        paired = _simulate_batch(cfg, [seq, other])
        for solo_arr, paired_arr in zip(solo, paired):
            np.testing.assert_array_equal(solo_arr[0], paired_arr[0])

    def test_shapes_and_alignment(self):
        cfg = RotatorConfig(steps=250, beta=2.0)
        row, (velocities, sensor_values, g_clamped, forces) = run_episode(cfg)
        assert list(row) == list(INTRINSIC_MEASURES)
        assert velocities.shape == sensor_values.shape == (251,)
        assert g_clamped.shape == forces.shape == (250,)

    def test_wide_deadband_goes_silent(self):
        # after spin-up the wheel coasts inside the deadband for the rest of
        # a full-length episode
        cfg = RotatorConfig(eta=0.0, beta=2.0, steps=5000)
        _, (_, _, _, forces) = run_episode(cfg)
        assert np.any(forces[:200] != 0.0)
        assert np.all(forces[300:] == 0.0)

    def test_tight_control_tracks_target(self):
        # gravity ripples the velocity around the target once per revolution;
        # the mean sits near the target with a bounded ripple
        cfg = RotatorConfig(eta=0.0, beta=0.0, steps=1000)
        _, (velocities, _, _, _) = run_episode(cfg)
        settled = velocities[300:]
        assert settled.mean() == pytest.approx(2 * math.pi, abs=0.5)
        assert np.abs(settled - 2 * math.pi).max() < 2.0

    def test_noiseless_sensor_equals_velocity(self):
        cfg = RotatorConfig(eta=0.0, beta=2.0, steps=200)
        _, (velocities, sensor_values, _, _) = run_episode(cfg)
        np.testing.assert_array_equal(sensor_values, velocities)

    def test_binned_symbols_match_raw_streams(self):
        cfg = RotatorConfig(eta=0.2, beta=1.0, steps=200, seed=9)
        row, (velocities, _, _, forces) = run_episode(cfg)
        symbols = SENSOR_BINNER.index(velocities), ACTION_BINNER.index(forces / cfg.f_max)
        series = SymbolSeries(*symbols)
        model = estimate(series, sensor_alphabet(), action_alphabet())
        assert row == intrinsic_measures(model)


class TestSweep:
    def test_grid_order_metadata_and_determinism(self):
        cfg = RotatorConfig(steps=200, seed=21)
        reports = list(sweep([0.0, 0.2], [0.0, 1.0], runs_per_cell=2, cfg=cfg))
        assert [(r["eta"], r["beta"]) for r in reports] == [
            (0.0, 0.0),
            (0.0, 1.0),
            (0.2, 0.0),
            (0.2, 1.0),
        ]
        assert all(r["runs"] == 2 for r in reports)
        again = list(sweep([0.0, 0.2], [0.0, 1.0], runs_per_cell=2, cfg=cfg))
        assert len(again) == 4
        for first, second in zip(reports, again):
            assert first == second

    def test_one_shot_grid_iterators_sweep_every_cell(self):
        cfg = RotatorConfig(steps=50, seed=5)
        rows = list(sweep(iter([0.0, 0.1]), iter([0.0]), 1, cfg))
        assert [(r["eta"], r["beta"]) for r in rows] == [(0.0, 0.0), (0.1, 0.0)]
        assert rows == list(sweep([0.0, 0.1], [0.0], 1, cfg))

    @pytest.mark.parametrize("eta, beta", [([], [0.0]), ([0.0], [])], ids=["eta", "beta"])
    def test_empty_grid_rejected(self, eta, beta):
        with pytest.raises(ValueError, match="^sweep grids must be non-empty$"):
            sweep(eta, beta, runs_per_cell=1, cfg=RotatorConfig(steps=100))

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError):
            sweep([0.0], [0.0], runs_per_cell=0, cfg=RotatorConfig(steps=100))

    def test_bad_grid_rejected_before_any_cell_runs(self):
        cfg = RotatorConfig(steps=100)
        for eta, beta in (([0.0, -0.1], [0.0]), ([0.0], [0.5, float("nan")])):
            with pytest.raises(ValueError, match="eta and beta must be non-negative|beta must be finite"):
                sweep(eta, beta, runs_per_cell=1, cfg=cfg)

    def test_diverging_lane_names_its_cell(self, tmp_path, capsys):
        # beta = 7 exceeds the velocity error at rest, so the noiseless cell
        # never pushes; the noisy cell's sensor leaves the deadband and its
        # 1e308 force overflows the integration
        cfg = RotatorConfig(f_max=1e308, steps=20)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^eta=0.25, beta=7, run=\d: integration diverged at control step \d+ "):
                list(sweep([0.0, 0.25], [7.0], runs_per_cell=2, cfg=cfg))
            config = tmp_path / "diverge.cfg"
            config.write_text("version = 1\nf_max = 1e308\n")
            out = tmp_path / "sweep"
            code = main([
                "rotator", "sweep", "--config", str(config), "--eta", "0", "0.25",
                "--beta", "7", "--runs", "2", "--steps", "20", "--out", str(out),
            ])
        assert code == 3
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: eta=0.25, beta=7, run=")
        assert not (out / "rotator_sweep.csv").exists()

    def test_values_lie_in_range(self):
        reports = sweep([0.4], [0.3], runs_per_cell=2, cfg=RotatorConfig(steps=300, seed=2))
        for report in reports:
            for name in INTRINSIC_MEASURES:
                assert 0.0 <= report[name] <= 1.0


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        from morphocomp.rotator import CONFIG_VERSION, load_config

        cfg = RotatorConfig(eta=0.25, beta=1.75, steps=1234, seed=9, friction=0.1)
        path = tmp_path / "rotator.cfg"
        lines = [f"version = {CONFIG_VERSION}"]
        lines += [f"{field.name} = {getattr(cfg, field.name)!r}" for field in fields(RotatorConfig)]
        path.write_text("\n".join(lines) + "\n")
        assert load_config(path) == cfg

    def test_partial_file_uses_defaults(self, tmp_path):
        from morphocomp.rotator import load_config

        path = tmp_path / "partial.cfg"
        path.write_text("version = 1\nbeta = 2.0  # coast\n\nseed = 4\n")
        cfg = load_config(path)
        assert cfg.beta == 2.0
        assert cfg.seed == 4
        assert cfg.steps == 5000

    def test_byte_order_mark_is_skipped(self, tmp_path):
        from morphocomp.rotator import load_config

        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfversion = 1\nbeta = 2.0\n")
        assert load_config(path) == RotatorConfig(beta=2.0)

    def test_reject_missing_version(self, tmp_path):
        from morphocomp.estimation import DataError
        from morphocomp.rotator import load_config

        path = tmp_path / "bad.cfg"
        path.write_text("beta = 2.0\n")
        with pytest.raises(DataError, match="version"):
            load_config(path)

    def test_reject_unknown_key(self, tmp_path):
        from morphocomp.estimation import DataError
        from morphocomp.rotator import load_config

        path = tmp_path / "bad.cfg"
        path.write_text("version = 1\nbetaa = 2.0\n")
        with pytest.raises(DataError, match="betaa"):
            load_config(path)

    def test_reject_bad_value_and_duplicates(self, tmp_path):
        from morphocomp.estimation import DataError
        from morphocomp.rotator import load_config

        path = tmp_path / "bad.cfg"
        path.write_text("version = 1\nbeta = wide\n")
        with pytest.raises(DataError, match="beta"):
            load_config(path)
        path.write_text("version = 1\nbeta = 1\nbeta = 2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_config(path)
        path.write_text("version = 1\nbeta = nan\n")
        with pytest.raises(DataError, match="beta must be finite"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"version = 1\nbeta 2.0\n", ":2: expected `key = value`"),
            (b"version = 2\nbeta = 2.0\n", ": unsupported config version '2'"),
            (b"version = 1\nbeta = 2.0\xff\n", ":2: not valid UTF-8"),
            (b"\xef\xbb\xbfversion = 1\nbeta = 2.0\xff\n", ":2: not valid UTF-8"),
            # str.splitlines numbers the lines: a form feed ends one
            (b"version = 1\x0cseed = 4\n# caf\xe9\n", ":3: not valid UTF-8"),
            (b"version = 1\nbeta 2.0\nseed = \xff4\n", ":2: expected `key = value`"),
        ],
        ids=[
            "no-equals-sign",
            "version-2",
            "byte-not-utf-8",
            "byte-not-utf-8-after-byte-order-mark",
            "byte-not-utf-8-in-comment-after-form-feed",
            "byte-not-utf-8-after-earlier-fault",
        ],
    )
    def test_reject_malformed_line_and_future_version(self, tmp_path, text, message):
        from morphocomp.estimation import DataError
        from morphocomp.rotator import load_config

        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        with pytest.raises(DataError) as caught:
            load_config(path)
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == f"{path}{message}"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f_max": 0.0},
            {"control_dt": 0.0},
            {"steps": 0},
            {"eta": -0.1},
            {"beta": -0.1},
            {"seed": -1},
            {"beta": float("nan")},
            {"eta": float("nan")},
            {"eta": float("inf")},
            {"eta": 9e307},
            {"eta": 1.0, "theta_dot_target": 1e308},
            {"f_max": float("inf")},
            {"control_dt": float("nan")},
            {"friction": float("-inf")},
            {"mass": 0.0},
            {"mass": -1.0},
            {"length": 0.0},
            {"length": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RotatorConfig(**kwargs)


def per_cell_rows(eta_grid, beta_grid, runs, cfg):
    """The sweep's rows computed cell by cell, as `sweep` did before its lanes were batched.

    Each cell simulates all its runs, eta = 0 included, as one batch at the
    cell's config, measures each run through the validated objects of
    `estimate`, and sums the runs' measures in run order.
    """
    rows = []
    for ei, eta in enumerate(eta_grid):
        for bi, beta in enumerate(beta_grid):
            seqs = [np.random.SeedSequence((cfg.seed, ei, bi, r)) for r in range(runs)]
            cell = replace(cfg, eta=eta, beta=beta)
            velocities, _, _, forces = _simulate_batch(cell, seqs)
            totals = dict.fromkeys(INTRINSIC_MEASURES, 0.0)
            for v, f in zip(velocities, forces):
                series = SymbolSeries(SENSOR_BINNER.index(v), ACTION_BINNER.index(f / cell.f_max))
                values = intrinsic_measures(estimate(series, sensor_alphabet(), action_alphabet()))
                for name in INTRINSIC_MEASURES:
                    totals[name] += values[name]
            means = {name: np.array([totals[name] / runs]) for name in INTRINSIC_MEASURES}
            rows.append(row_bits({"eta": eta, "beta": beta, **next(rows_of([checked_columns(means)]))}))
    return rows


def row_bits(row):
    """A row's cell and values; hex keeps every bit, and the sign of zero."""
    cell = (row["eta"], row["beta"])
    return cell, {name: row[name].hex() for name in INTRINSIC_MEASURES}


ETAS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.5)), min_size=1, max_size=3)
BETAS = st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3)


class TestSweepEqualsCells:
    """The lockstep grid batch against cell-by-cell simulation."""

    @settings(max_examples=12, deadline=None)
    @given(
        eta_grid=ETAS,
        beta_grid=BETAS,
        runs=st.integers(1, 3),
        steps=st.integers(20, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(eta_grid=[0.0, 0.3], beta_grid=[0.0, 1.0], runs=3, steps=40, seed=0)
    def test_rows_bitwise_equal_cells_alone_for_any_chunking(
        self, eta_grid, beta_grid, runs, steps, seed
    ):
        cfg = RotatorConfig(steps=steps, seed=seed)
        alone = per_cell_rows(eta_grid, beta_grid, runs, cfg)
        for chunk in (1, 3, rotator.SWEEP_CHUNK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rotator, "SWEEP_CHUNK", chunk)
                rows = [row_bits(report) for report in sweep(eta_grid, beta_grid, runs, cfg)]
            assert rows == alone

    def test_sweep_builds_no_validated_object(self, monkeypatch, tmp_path):
        built = []
        for cls in (Distribution, Kernel2, Kernel3, Joint3, IntrinsicModel):

            def counted(self, validate=cls.__post_init__):
                built.append(type(self).__name__)
                validate(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        assert len(list(sweep([0.0, 0.3], [0.0, 1.0], 2, RotatorConfig(steps=40)))) == 4
        assert built == []
        # nor does any CLI command
        monkeypatch.chdir(tmp_path)
        bins = ["--sensor-bins", "0:8:30", "--action-bins=-1:1:30"]
        for argv in (
            ["rotator", "run", "--eta", "0.2", "--steps", "40", "--out", "run"],
            ["measure", "--input", "run/series.csv", *bins, "--out", "measure"],
            ["rotator", "sweep", "--eta", "0", "0.3", "--beta", "0", "1", "--runs", "2",
             "--steps", "40", "--out", "sweep"],
            ["binary-sweep", "--phi", "0", "1", "--psi", "0", "2", "--mu", "0", "--out", "binary"],
        ):
            assert main(argv) == 0
            assert built == [], argv
        # the count sees the objects that `estimate` builds
        estimate(SymbolSeries([0, 1], [0]), Alphabet(2), Alphabet(2))
        assert sorted(built) == ["Distribution", "IntrinsicModel", "Kernel2", "Kernel3"]

    def test_cell_measures_is_a_one_cell_sweep(self):
        cfg = RotatorConfig(steps=50, seed=4)
        values = rotator.cell_measures(cfg, 0.3, 1.0, runs=2)
        (report,) = sweep([0.3], [1.0], 2, cfg)
        assert row_bits({**report, **values}) == row_bits(report)

    @pytest.mark.parametrize(
        "eta, beta, expected",
        [
            (0.0, 2.0, {
                "asoc_a": "0x1.e792b60f0cc23p-1",
                "asoc_w": "0x1.563d028e76f8dp-2",
                "c_a": "0x1.fd47f38ab5b51p-1",
                "c_w": "0x1.2e85b822f245fp-2",
            }),
            (0.5, 0.0, {
                "asoc_a": "0x1.de4593bee2decp-1",
                "asoc_w": "0x1.69c6f4b8777ecp-2",
                "c_a": "0x1.f96cbdc2ab477p-1",
                "c_w": "0x1.183e0fa0edee9p-2",
            }),
        ],
    )
    def test_cell_measures_bits_are_pinned(self, eta, beta, expected):
        values = rotator.cell_measures(RotatorConfig(steps=200, seed=3), eta, beta, runs=3)
        assert {name: value.hex() for name, value in values.items()} == expected

    def test_held_records_keep_their_values(self):
        # every yielded array is its own, not a view of the stepper's state
        cfg = RotatorConfig(steps=50)

        def records():
            seqs = [np.random.SeedSequence(seed) for seed in (7, 8)]
            return _lockstep(cfg, np.array([0.3, 0.0]), np.array([1.0, 0.0]), range(2), seqs)

        held = list(records())
        read = [[None if x is None else x.copy() for x in step] for step in records()]
        assert len(held) == len(read) == cfg.steps + 1
        for kept, fresh in zip(held, read):
            for x, want in zip(kept, fresh):
                assert (x is None and want is None) or np.array_equal(x.view(np.int64), want.view(np.int64))

    def test_lane_does_not_depend_on_its_neighbours(self):
        cfg = RotatorConfig(steps=200)

        def steps_of_lane(lane, eta, beta, seeds):
            seqs = [np.random.SeedSequence(seed) for seed in seeds]
            records = _lockstep(cfg, np.array(eta), np.array(beta), range(len(seeds)), seqs)
            return [tuple(None if x is None else x[lane] for x in step) for step in records]

        alone = steps_of_lane(0, [0.3], [1.0], [7])
        beside = steps_of_lane(1, [0.0, 0.3, 0.5], [0.0, 1.0, 2.0], [8, 7, 9])
        assert len(alone) == len(beside) == cfg.steps + 1
        for solo, batched in zip(alone, beside):
            assert [None if x is None else x.hex() for x in solo] == [
                None if x is None else x.hex() for x in batched
            ]
