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
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from .estimation import Binner, DataError, SymbolSeries, estimate_arrays
from .measures import INTRINSIC_MEASURES, checked_rows, intrinsic_values
from .prob import Alphabet, ComputeError

TWO_PI = 2.0 * math.pi

# Binning used throughout: velocity sensor on [0, 8], normalised action
# (applied force over maximum force) on [-1, 1], 30 bins each.
SENSOR_BINNER = Binner(0.0, 8.0, 30)
ACTION_BINNER = Binner(-1.0, 1.0, 30)

RK4_SUBSTEPS = 10

# Episodes stepped together in a sweep: 41 MB of noise and 10 MB of symbols at 5,000 steps.
SWEEP_CHUNK = 1024

_INT_FIELDS = {"steps", "seed"}


class NumericalError(ComputeError, FloatingPointError):
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


def _integrate(theta, theta_dot, f, cfg: RotatorConfig, dt: float):
    """Advance (theta, theta_dot) by dt under constant force f.  Array-safe."""
    h = dt / RK4_SUBSTEPS
    for _ in range(RK4_SUBSTEPS):
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


def control_force(sensor, cfg: RotatorConfig, beta):
    """Controller response to a sensor reading, with deadband `beta`.

    Array-safe, `beta` per lane too.  Returns (g_clamped, f): the response
    clipped to [-1, 1], and the force actually applied, which is zero whenever
    the velocity error lies inside the deadband.  Outside it the response is
    the error, reduced by the deadband width and topped up by a minimum
    strength, both carrying the sign of the sensor value (sign(0) counts as +1).
    """
    error = cfg.theta_dot_target - np.asarray(sensor, dtype=np.float64)
    sign = np.where(np.asarray(sensor) >= 0, 1.0, -1.0)
    g = error - sign * beta + sign * cfg.f_min
    g_clamped = np.clip(g, -1.0, 1.0)
    f = np.where(np.abs(error) >= beta, g_clamped * cfg.f_max, 0.0)
    return g_clamped, f


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    series: SymbolSeries
    times: np.ndarray  # control-step times, length steps
    velocities: np.ndarray  # angular velocity at control instants, length steps + 1
    sensor_values: np.ndarray  # noisy controller input, length steps + 1
    g_clamped: np.ndarray  # normalised controller response, length steps
    forces: np.ndarray  # applied force, length steps


def _lockstep(cfg: RotatorConfig, eta, beta, run, seed_seqs):
    """Step episodes from rest in lockstep, lane i being run run[i] at eta[i] and beta[i].

    Yields (theta_dot, sensor, g_clamped, force) lane arrays at each control instant,
    with no action (None) at the last.  Each lane draws its noise from seed_seqs[i]
    up front, so it is bit-identical whatever runs beside it.
    """
    noise = np.empty((len(seed_seqs), cfg.steps + 1))
    for i, seq in enumerate(seed_seqs):
        noise[i] = np.random.default_rng(seq).uniform(-eta[i], eta[i], size=cfg.steps + 1)
    noise *= cfg.theta_dot_target
    theta, theta_dot = np.zeros((2, len(seed_seqs)))
    for t in range(cfg.steps):
        s = theta_dot + noise[:, t]
        g, f = control_force(s, cfg, beta)
        yield theta_dot, s, g, f
        theta, theta_dot = _integrate(theta, theta_dot, f, cfg, cfg.control_dt)
        finite = np.isfinite(theta) & np.isfinite(theta_dot)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericalError(
                f"eta={eta[i]:g}, beta={beta[i]:g}, run={int(run[i])}: integration diverged "
                f"at control step {t} (t = {t * cfg.control_dt:g} s)"
            )
    yield theta_dot, theta_dot + noise[:, cfg.steps], None, None


def _simulate_batch(cfg: RotatorConfig, seed_seqs):
    """Raw transients (velocities, sensors, g_clamped, forces) of one run per seed at cfg."""
    runs = len(seed_seqs)
    velocities, sensors = np.empty((2, runs, cfg.steps + 1))
    g_clamped, forces = np.empty((2, runs, cfg.steps))
    lanes = _lockstep(cfg, np.full(runs, cfg.eta), np.full(runs, cfg.beta), range(runs), seed_seqs)
    for t, (v, s, g, f) in enumerate(lanes):
        velocities[:, t], sensors[:, t] = v, s
        if f is not None:
            g_clamped[:, t], forces[:, t] = g, f
    return velocities, sensors, g_clamped, forces


def run_episode(cfg: RotatorConfig) -> EpisodeResult:
    """Simulate one episode from rest, returning symbols and raw transients."""
    batch = _simulate_batch(cfg, [np.random.SeedSequence(cfg.seed)])
    velocities, sensors, g_clamped, forces = (transient[0] for transient in batch)
    series = SymbolSeries(SENSOR_BINNER.index(velocities), ACTION_BINNER.index(forces / cfg.f_max))
    times = np.arange(cfg.steps) * cfg.control_dt
    return EpisodeResult(series, times, velocities, sensors, g_clamped, forces)


def sensor_alphabet() -> Alphabet:
    return SENSOR_BINNER.alphabet()


def action_alphabet() -> Alphabet:
    return ACTION_BINNER.alphabet()


def _lane_values(cfg: RotatorConfig, lanes) -> np.ndarray:
    """Measures of each (eta, beta, eta index, beta index, run) lane, one row per lane.

    The lanes step together, binned into int8 symbols as they go.  Lane i is
    seeded from (master seed, eta index, beta index, run) alone.
    """
    eta, beta, _, _, run = np.array(lanes, dtype=np.float64).T
    seqs = [np.random.SeedSequence((cfg.seed, *lane[2:])) for lane in lanes]
    sensors = np.empty((len(lanes), cfg.steps + 1), dtype=np.int8)  # 30 bins each
    actions = np.empty((len(lanes), cfg.steps), dtype=np.int8)
    for t, (v, _, _, f) in enumerate(_lockstep(cfg, eta, beta, run, seqs)):
        sensors[:, t] = SENSOR_BINNER.index(v)
        if f is not None:
            actions[:, t] = ACTION_BINNER.index(f / cfg.f_max)
    values = np.empty((len(lanes), len(INTRINSIC_MEASURES)))
    for i, (s, a) in enumerate(zip(sensors, actions)):
        measured = intrinsic_values(*estimate_arrays(s, a, SENSOR_BINNER.bins, ACTION_BINNER.bins))
        values[i] = [measured[name][0] for name in INTRINSIC_MEASURES]
    return values


def _cell_reports(cfg: RotatorConfig, cells, runs: int) -> Iterator[dict]:
    """One row per cell: eta, beta, runs and its lane values' range-checked run-order means.

    Lanes are measured cell-major.  Every run of an eta = 0 cell is the same
    episode, so that cell has one lane, counted `runs` times.
    """
    lanes = [(*cell, r) for cell in cells for r in range(runs if cell[0] else 1)]
    chunks = (lanes[i : i + SWEEP_CHUNK] for i in range(0, len(lanes), SWEEP_CHUNK))
    lane_values = chain.from_iterable(_lane_values(cfg, chunk) for chunk in chunks)
    for eta, beta, _, _ in cells:
        values = islice(lane_values, runs) if eta else [next(lane_values)] * runs
        means = sum(values, 0.0) / runs
        (row,) = checked_rows(dict(zip(INTRINSIC_MEASURES, means[:, None])))
        yield {"eta": float(eta), "beta": float(beta), "runs": runs, **row}


def cell_measures(cfg: RotatorConfig, eta: float, beta: float, runs: int) -> dict[str, float]:
    """Average the intrinsic measures over `runs` episodes of one (eta, beta) cell.

    A one-cell :func:`sweep`, so run r is seeded from (master seed, 0, 0, r).
    """
    row = next(sweep([eta], [beta], runs, cfg))
    return {name: row[name] for name in INTRINSIC_MEASURES}


def sweep(eta_values, beta_values, runs_per_cell: int, cfg: RotatorConfig) -> Iterator[dict]:
    """Averaged rows over a grid checked whole up front, yielded in (eta, beta) order.

    Per-run seeds derive from (master seed, eta index, beta index, run index),
    so cells are independent.
    """
    if runs_per_cell < 1:
        raise ValueError("runs_per_cell must be at least 1")
    eta_values, beta_values = tuple(eta_values), tuple(beta_values)
    if not (eta_values and beta_values):
        raise ValueError("sweep grids must be non-empty")
    for eta, beta in zip_longest(eta_values, beta_values, fillvalue=0.0):
        replace(cfg, eta=eta, beta=beta)  # raises on any value a cell's config rejects
    cells = [(e, b, ei, bi) for ei, e in enumerate(eta_values) for bi, b in enumerate(beta_values)]
    return _cell_reports(cfg, cells, runs_per_cell)
