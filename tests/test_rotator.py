import math

import numpy as np
import pytest

from morphocomp.rotator import (
    ACTION_BINNER,
    SENSOR_BINNER,
    NumericalError,
    RotatorConfig,
    control_force,
    run_episode,
    sweep,
    total_energy,
    _integrate,
    _simulate_batch,
)

CFG = RotatorConfig()


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


def free_swing_energy_drift(seconds):
    """Relative energy change of the unforced pendulum after `seconds`.

    Starts at the target velocity and steps one length-1 lane through
    `_integrate` in 0.01 s control periods, as the simulator does.
    """
    theta, theta_dot = np.zeros(1), np.full(1, 2 * math.pi)
    start = total_energy(theta, theta_dot, CFG)
    for _ in range(100 * seconds):
        theta, theta_dot = _integrate(theta, theta_dot, 0.0, CFG, 0.01)
    return float(abs(total_energy(theta, theta_dot, CFG) - start)[0] / abs(start[0]))


class TestDynamics:
    def test_equilibrium_is_stationary(self):
        theta = 0.4
        f = CFG.mass * CFG.gravity * math.sin(theta)
        moved_theta, moved_theta_dot = _integrate(theta, 0.0, f, CFG, 0.01)
        assert moved_theta == pytest.approx(theta, abs=1e-12)
        assert moved_theta_dot == pytest.approx(0.0, abs=1e-12)

    def test_matches_fine_step_reference(self):
        stepped = _integrate(0.0, 2 * math.pi, 0.0, CFG, 0.01)
        ref_theta, ref_theta_dot = fine_step_reference(0.0, 2 * math.pi, 0.0, CFG, 0.01)
        assert stepped[0] == pytest.approx(ref_theta, abs=1e-8)
        assert stepped[1] == pytest.approx(ref_theta_dot, abs=1e-8)

    def test_matches_reference_with_force_and_friction(self):
        cfg = RotatorConfig(friction=0.3)
        stepped = _integrate(np.array([1.0]), np.array([3.0]), 4.0, cfg, 0.01)
        ref = fine_step_reference(1.0, 3.0, 4.0, cfg, 0.01)
        assert stepped[0][0] == pytest.approx(ref[0], abs=1e-8)
        assert stepped[1][0] == pytest.approx(ref[1], abs=1e-8)

    def test_energy_conserved_without_force(self):
        seconds = 50
        assert free_swing_energy_drift(seconds) < 1e-6 * seconds

    def test_divergence_reported(self):
        cfg = RotatorConfig(f_max=1e308, steps=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                _simulate_batch(cfg, [np.random.SeedSequence(0)])


class TestController:
    def test_spin_up_from_rest(self):
        # sensor zero: response is the full error plus the minimum strength,
        # clamped and scaled to the maximum force
        g_clamped, f = control_force(0.0, RotatorConfig(beta=0.0))
        assert g_clamped == 1.0
        assert f == 10.0

    def test_response_formula_by_hand(self):
        # sensor 5.6, deadband 0.5: error 0.683 exceeds the deadband, so
        # g = 0.683 - 0.5 + 0.25 and the force is ten times that
        cfg = RotatorConfig(beta=0.5)
        g_clamped, f = control_force(5.6, cfg)
        expected_g = (2 * math.pi - 5.6) - 0.5 + 0.25
        assert g_clamped == pytest.approx(expected_g)
        assert f == pytest.approx(expected_g * 10.0)

    def test_deadband_silences_output(self):
        cfg = RotatorConfig(beta=2.0)
        _, f = control_force(2 * math.pi - 1.0, cfg)
        assert f == 0.0

    def test_deadband_boundary_is_active(self):
        cfg = RotatorConfig(beta=2.0)
        _, f = control_force(2 * math.pi - 2.0, cfg)
        assert f != 0.0

    def test_zero_sensor_counts_as_positive(self):
        # a small target keeps the response inside the clamp, exposing the
        # sign convention at exactly zero
        cfg = RotatorConfig(beta=1.0, theta_dot_target=1.5)
        g_zero, _ = control_force(0.0, cfg)
        g_neg, _ = control_force(-1e-12, cfg)
        assert g_zero == pytest.approx(1.5 - 1.0 + 0.25, abs=1e-9)
        assert g_neg == pytest.approx(1.0, abs=1e-9)  # sign flip saturates the clamp

    def test_controller_draws_noise(self):
        cfg = RotatorConfig(eta=0.25, steps=50)
        velocities, sensors, g_clamped, forces = _simulate_batch(
            cfg, [np.random.SeedSequence(3)]
        )
        assert np.all(sensors != velocities)
        assert np.abs(sensors - velocities).max() <= 0.25 * cfg.theta_dot_target
        again = _simulate_batch(cfg, [np.random.SeedSequence(3)])
        np.testing.assert_array_equal(sensors, again[1])
        g_direct, f_direct = control_force(sensors[:, :-1], cfg)
        np.testing.assert_array_equal(g_clamped, g_direct)
        np.testing.assert_array_equal(forces, f_direct)

    def test_noiseless_controller_is_exact(self):
        cfg = RotatorConfig(eta=0.0, beta=0.5, steps=50)
        velocities, sensors, _, forces = _simulate_batch(cfg, [np.random.SeedSequence(0)])
        np.testing.assert_array_equal(sensors, velocities)
        _, f_direct = control_force(velocities[:, :-1], cfg)
        np.testing.assert_array_equal(forces, f_direct)


class TestEpisodes:
    def test_same_seed_same_series(self):
        cfg = RotatorConfig(eta=0.3, beta=1.0, steps=400, seed=42)
        first = run_episode(cfg)
        second = run_episode(cfg)
        np.testing.assert_array_equal(first.series.sensors, second.series.sensors)
        np.testing.assert_array_equal(first.series.actions, second.series.actions)
        np.testing.assert_array_equal(first.forces, second.forces)

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
        episode = run_episode(cfg)
        assert len(episode.series.sensors) == 251
        assert len(episode.series.actions) == 250
        assert episode.velocities.shape == (251,)
        assert episode.forces.shape == (250,)

    def test_wide_deadband_goes_silent(self):
        # after spin-up the wheel coasts inside the deadband for the rest of
        # a full-length episode
        cfg = RotatorConfig(eta=0.0, beta=2.0, steps=5000)
        episode = run_episode(cfg)
        assert np.any(episode.forces[:200] != 0.0)
        assert np.all(episode.forces[300:] == 0.0)

    def test_tight_control_tracks_target(self):
        # gravity ripples the velocity around the target once per revolution;
        # the mean sits near the target with a bounded ripple
        cfg = RotatorConfig(eta=0.0, beta=0.0, steps=1000)
        episode = run_episode(cfg)
        settled = episode.velocities[300:]
        assert settled.mean() == pytest.approx(2 * math.pi, abs=0.5)
        assert np.abs(settled - 2 * math.pi).max() < 2.0

    def test_noiseless_sensor_equals_velocity(self):
        cfg = RotatorConfig(eta=0.0, beta=2.0, steps=200)
        episode = run_episode(cfg)
        np.testing.assert_array_equal(episode.sensor_values, episode.velocities)

    def test_binned_symbols_match_raw_streams(self):
        cfg = RotatorConfig(eta=0.2, beta=1.0, steps=200, seed=9)
        episode = run_episode(cfg)
        np.testing.assert_array_equal(
            episode.series.sensors, SENSOR_BINNER.index(episode.velocities)
        )
        np.testing.assert_array_equal(
            episode.series.actions, ACTION_BINNER.index(episode.forces / cfg.f_max)
        )


class TestSweep:
    def test_grid_order_metadata_and_determinism(self):
        cfg = RotatorConfig(steps=200, seed=21)
        reports = sweep([0.0, 0.2], [0.0, 1.0], runs_per_cell=2, cfg=cfg)
        assert [(r.metadata["eta"], r.metadata["beta"]) for r in reports] == [
            (0.0, 0.0),
            (0.0, 1.0),
            (0.2, 0.0),
            (0.2, 1.0),
        ]
        assert all(r.metadata["runs"] == 2 for r in reports)
        again = sweep([0.0, 0.2], [0.0, 1.0], runs_per_cell=2, cfg=cfg)
        for first, second in zip(reports, again):
            assert first.values == second.values

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError):
            sweep([0.0], [0.0], runs_per_cell=0, cfg=RotatorConfig(steps=100))

    def test_values_lie_in_range(self):
        reports = sweep([0.4], [0.3], runs_per_cell=2, cfg=RotatorConfig(steps=300, seed=2))
        for report in reports:
            for value in report.values.values():
                assert 0.0 <= value <= 1.0


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        from morphocomp.rotator import load_config, write_config

        cfg = RotatorConfig(eta=0.25, beta=1.75, steps=1234, seed=9, friction=0.1)
        path = tmp_path / "rotator.cfg"
        write_config(path, cfg)
        assert load_config(path) == cfg

    def test_partial_file_uses_defaults(self, tmp_path):
        from morphocomp.rotator import load_config

        path = tmp_path / "partial.cfg"
        path.write_text("version = 1\nbeta = 2.0  # coast\n\nseed = 4\n")
        cfg = load_config(path)
        assert cfg.beta == 2.0
        assert cfg.seed == 4
        assert cfg.steps == 5000

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
            {"f_max": float("inf")},
            {"control_dt": float("nan")},
            {"friction": float("-inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RotatorConfig(**kwargs)
