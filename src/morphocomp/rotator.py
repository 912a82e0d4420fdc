"""Rotating-pendulum plant with a threshold velocity controller.

A point mass on a rigid arm is driven to rotate at a target angular
velocity.  The controller reads a noise-corrupted velocity sensor every
control period and applies a torque-like force for the whole period; with
a wide deadband the wheel mostly coasts on its own inertia, with a zero
deadband it is micromanaged at every step.

Episodes are recorded as binned symbol streams for the estimator: the
angular velocity at each control instant paired with the normalised force
actually applied.  The sensor noise perturbs the controller's input (and
thereby decouples the action from the state, which is what lets the
measures tell the two influences apart), while the recorded velocity
stream stays clean; recording the corrupted readings instead would erase
the state-to-state information that the measures quantify.

Plant model:  m l theta'' + friction l theta' + m g sin(theta) = f,
integrated with fixed-step RK4 at one tenth of the control period, the
force held constant over each period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .estimation import Binner, DataError, SymbolSeries, estimate
from .measures import INTRINSIC_MEASURES, MeasureReport, intrinsic_measures
from .prob import Alphabet

TWO_PI = 2.0 * math.pi

# Binning used throughout: velocity sensor on [0, 8], normalised action
# (applied force over maximum force) on [-1, 1], 30 bins each.
SENSOR_BINNER = Binner(0.0, 8.0, 30)
ACTION_BINNER = Binner(-1.0, 1.0, 30)

RK4_SUBSTEPS = 10

_INT_FIELDS = {"steps", "seed"}


class NumericalError(FloatingPointError):
    """Integration produced a non-finite state."""


@dataclass(frozen=True)
class RotatorConfig:
    f_max: float = 10.0
    f_min: float = 0.25
    theta_dot_target: float = TWO_PI
    mass: float = 1.0
    length: float = 1.0
    gravity: float = 9.81
    friction: float = 0.0
    eta: float = 0.0  # sensor noise amplitude as a fraction of the target velocity
    beta: float = 0.0  # controller deadband half-width
    steps: int = 5000  # control updates per episode
    control_dt: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name not in _INT_FIELDS and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.f_max <= 0:
            raise ValueError("f_max must be positive")
        if self.control_dt <= 0:
            raise ValueError("control_dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.eta < 0 or self.beta < 0:
            raise ValueError("eta and beta must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


CONFIG_VERSION = 1


def write_config(path, cfg: RotatorConfig) -> None:
    """Write a config as versioned `key = value` lines."""
    lines = [f"version = {CONFIG_VERSION}"]
    for field in fields(RotatorConfig):
        lines.append(f"{field.name} = {getattr(cfg, field.name)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_config(path) -> RotatorConfig:
    """Read a `key = value` config file; `#` starts a comment.

    The file must carry a supported `version` entry; unknown keys are
    rejected so typos do not silently fall back to defaults.
    """
    path = Path(path)
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected `key = value`")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    version = entries.pop("version", None)
    if version is None:
        raise DataError(f"{path}: missing version entry")
    if version != str(CONFIG_VERSION):
        raise DataError(f"{path}: unsupported config version {version!r}")
    known = {field.name for field in fields(RotatorConfig)}
    kwargs = {}
    for key, value in entries.items():
        if key not in known:
            raise DataError(f"{path}: unknown key {key!r}")
        try:
            kwargs[key] = int(value) if key in _INT_FIELDS else float(value)
        except ValueError:
            raise DataError(f"{path}: bad value {value!r} for {key}") from None
    try:
        return RotatorConfig(**kwargs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _acceleration(theta, theta_dot, f, cfg: RotatorConfig):
    m, l, g = cfg.mass, cfg.length, cfg.gravity
    return (f - cfg.friction * l * theta_dot - m * g * np.sin(theta)) / (m * l)


def _integrate(theta, theta_dot, f, cfg: RotatorConfig, dt: float, substeps: int = RK4_SUBSTEPS):
    """Advance (theta, theta_dot) by dt under constant force f.  Array-safe."""
    h = dt / substeps
    for _ in range(substeps):
        k1v = _acceleration(theta, theta_dot, f, cfg)
        k1x = theta_dot
        k2v = _acceleration(theta + 0.5 * h * k1x, theta_dot + 0.5 * h * k1v, f, cfg)
        k2x = theta_dot + 0.5 * h * k1v
        k3v = _acceleration(theta + 0.5 * h * k2x, theta_dot + 0.5 * h * k2v, f, cfg)
        k3x = theta_dot + 0.5 * h * k2v
        k4v = _acceleration(theta + h * k3x, theta_dot + h * k3v, f, cfg)
        k4x = theta_dot + h * k3v
        theta = theta + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        theta_dot = theta_dot + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return theta, theta_dot


def control_force(sensor, cfg: RotatorConfig):
    """Controller response to a sensor reading.  Array-safe.

    Returns (g_clamped, f): the response clipped to [-1, 1], and the force
    actually applied, which is zero whenever the velocity error lies inside
    the deadband.  Outside it the response is the error, reduced by the
    deadband width and topped up by a minimum strength, both carrying the
    sign of the sensor value (sign(0) counts as +1).
    """
    error = cfg.theta_dot_target - np.asarray(sensor, dtype=np.float64)
    sign = np.where(np.asarray(sensor) >= 0, 1.0, -1.0)
    g = error - sign * cfg.beta + sign * cfg.f_min
    g_clamped = np.clip(g, -1.0, 1.0)
    f = np.where(np.abs(error) >= cfg.beta, g_clamped * cfg.f_max, 0.0)
    return g_clamped, f


def total_energy(theta, theta_dot, cfg: RotatorConfig):
    """Kinetic plus potential energy of the free pendulum."""
    m, l, g = cfg.mass, cfg.length, cfg.gravity
    return 0.5 * m * l**2 * np.asarray(theta_dot) ** 2 - m * g * l * np.cos(theta)


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    series: SymbolSeries
    times: np.ndarray  # control-step times, length steps
    velocities: np.ndarray  # angular velocity at control instants, length steps + 1
    sensor_values: np.ndarray  # noisy controller input, length steps + 1
    g_clamped: np.ndarray  # normalised controller response, length steps
    forces: np.ndarray  # applied force, length steps


def _simulate_batch(cfg: RotatorConfig, seed_seqs):
    """Run len(seed_seqs) episodes in lockstep.  Returns raw transients.

    Episodes differ only through their sensor-noise streams, drawn once per
    run up front, so a batch result for one seed is bit-identical to a
    single run with that seed.
    """
    runs = len(seed_seqs)
    steps = cfg.steps
    noise = np.empty((runs, steps + 1))
    for r, seq in enumerate(seed_seqs):
        rng = np.random.default_rng(seq)
        noise[r] = rng.uniform(-cfg.eta, cfg.eta, size=steps + 1)
    noise *= cfg.theta_dot_target

    theta = np.zeros(runs)
    theta_dot = np.zeros(runs)
    velocities = np.empty((runs, steps + 1))
    sensors = np.empty((runs, steps + 1))
    g_clamped = np.empty((runs, steps))
    forces = np.empty((runs, steps))
    for t in range(steps):
        s = theta_dot + noise[:, t]
        g, f = control_force(s, cfg)
        velocities[:, t] = theta_dot
        sensors[:, t] = s
        g_clamped[:, t] = g
        forces[:, t] = f
        theta, theta_dot = _integrate(theta, theta_dot, f, cfg, cfg.control_dt)
        if not np.isfinite(theta_dot).all():
            raise NumericalError(
                f"integration diverged at control step {t} (t = {t * cfg.control_dt:g} s)"
            )
    velocities[:, steps] = theta_dot
    sensors[:, steps] = theta_dot + noise[:, steps]
    return velocities, sensors, g_clamped, forces


def _to_series(velocities: np.ndarray, forces: np.ndarray, cfg: RotatorConfig) -> SymbolSeries:
    return SymbolSeries(
        SENSOR_BINNER.index(velocities),
        ACTION_BINNER.index(forces / cfg.f_max),
    )


def run_episode(cfg: RotatorConfig) -> EpisodeResult:
    """Simulate one episode from rest, returning symbols and raw transients."""
    velocities, sensors, g_clamped, forces = _simulate_batch(
        cfg, [np.random.SeedSequence(cfg.seed)]
    )
    times = np.arange(cfg.steps) * cfg.control_dt
    return EpisodeResult(
        series=_to_series(velocities[0], forces[0], cfg),
        times=times,
        velocities=velocities[0],
        sensor_values=sensors[0],
        g_clamped=g_clamped[0],
        forces=forces[0],
    )


def sensor_alphabet() -> Alphabet:
    return SENSOR_BINNER.alphabet()


def action_alphabet() -> Alphabet:
    return ACTION_BINNER.alphabet()


def episode_measures(series: SymbolSeries, names=INTRINSIC_MEASURES) -> dict[str, float]:
    """Estimate a model from one episode and evaluate the intrinsic measures."""
    model = estimate(series, sensor_alphabet(), action_alphabet())
    return intrinsic_measures(model, names)


def cell_measures(
    cfg: RotatorConfig,
    eta: float,
    beta: float,
    runs: int,
    eta_index: int = 0,
    beta_index: int = 0,
    names=INTRINSIC_MEASURES,
) -> dict[str, float]:
    """Average the intrinsic measures over `runs` episodes of one (eta, beta) cell.

    Per-run seeds derive from (master seed, eta index, beta index, run index),
    so any cell is reproducible in isolation and cells are independent.
    """
    cell_cfg = replace(cfg, eta=eta, beta=beta)
    seqs = [
        np.random.SeedSequence((cfg.seed, eta_index, beta_index, r))
        for r in range(runs)
    ]
    velocities, _, _, forces = _simulate_batch(cell_cfg, seqs)
    totals = dict.fromkeys(names, 0.0)
    for r in range(runs):
        values = episode_measures(_to_series(velocities[r], forces[r], cell_cfg), names)
        for name in names:
            totals[name] += values[name]
    return {name: totals[name] / runs for name in names}


def sweep(
    eta_values,
    beta_values,
    runs_per_cell: int,
    cfg: RotatorConfig,
) -> list[MeasureReport]:
    """Grid of averaged measure reports, rows ordered by (eta, beta)."""
    if runs_per_cell < 1:
        raise ValueError("runs_per_cell must be at least 1")
    reports = []
    for ei, eta in enumerate(eta_values):
        for bi, beta in enumerate(beta_values):
            values = cell_measures(cfg, eta, beta, runs_per_cell, ei, bi)
            reports.append(
                MeasureReport(
                    values,
                    metadata={
                        "eta": float(eta),
                        "beta": float(beta),
                        "runs": runs_per_cell,
                        "seed": cfg.seed,
                        "steps": cfg.steps,
                    },
                )
            )
    return reports
