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
import re
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from .estimation import Binner, DataError, count_transitions, estimate_arrays
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
        if self.mass <= 0 or self.length <= 0:
            raise ValueError("mass and length must be positive")
        if self.control_dt <= 0:
            raise ValueError("control_dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.eta < 0 or self.beta < 0:
            raise ValueError("eta and beta must be non-negative")
        if not math.isfinite(2.0 * self.eta * self.theta_dot_target):
            raise ValueError(f"noise span 2 * eta * theta_dot_target overflows at eta = {self.eta!r}")
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
    text = path.read_text(encoding="utf-8-sig", errors="surrogateescape")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if re.search("[\udc80-\udcff]", raw):  # how surrogateescape reads a bad byte
            raise DataError(f"{path}:{lineno}: not valid UTF-8")
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


def _rk4(cfg: RotatorConfig, lanes: int):
    """An RK4 stepper for `lanes` lanes: the state y = (theta, theta_dot), at rest, and `advance`.

    `advance(f)` moves y, shape (2, lanes), on by one control period under
    constant force f, in place.  RK4 on theta' = theta_dot: each stage's
    velocity is both the angle's slope and the velocity at which that stage's
    acceleration is taken, so a stage's (velocity, acceleration) rows are its
    slope k of y.  A stage's acceleration is ((f - fl*v) - mg*sin(angle)) / ml,
    the next stage is y + c*k, and a substep ends at
    y + (h/6) * (((k1 + 2*k2) + 2*k3) + k4), each rounded in that order.  The
    buffers, their views and the constants are made once per stepper; every
    substep's 37 ufunc calls write into them, each ufunc a local name and its
    out passed by position, as a module lookup or a keyword costs more per call.
    """
    h = cfg.control_dt / RK4_SUBSTEPS
    fl, mg, ml = cfg.friction * cfg.length, cfg.mass * cfg.gravity, cfg.mass * cfg.length
    # 0-d arrays, as a ufunc converts a Python float operand on every call
    fl, mg, ml, half, whole, two, sixth = map(np.array, (fl, mg, ml, 0.5 * h, h, 2.0, h / 6.0))
    stages = np.zeros((4, 3, lanes))  # per stage: angle, velocity, acceleration
    y, slopes = stages[0, :2], stages[:, 1:]
    k1, k2, k3, k4 = slopes
    rows = [list(stage) for stage in stages]
    moves = [(c, slopes[n], stages[n + 1, :2]) for n, c in enumerate((half, half, whole))]
    plan = list(zip_longest(rows, moves))
    # the acceleration passes between buffers: numpy is slow to write one element over its input
    drag, net, sine = (np.empty(lanes) for _ in range(3))
    step, total = np.empty((2, 2, lanes))
    multiply, subtract, add, divide, sin = np.multiply, np.subtract, np.add, np.divide, np.sin

    def advance(f):
        for _ in range(RK4_SUBSTEPS):
            for (angle, v, a), move in plan:
                multiply(fl, v, drag)
                subtract(f, drag, net)
                sin(angle, sine)
                multiply(mg, sine, drag)
                subtract(net, drag, sine)
                divide(sine, ml, a)
                if move:
                    c, slope, following = move
                    multiply(c, slope, step)
                    add(y, step, following)
            multiply(two, k2, total)
            add(k1, total, total)
            multiply(two, k3, step)
            add(total, step, total)
            add(total, k4, total)
            multiply(sixth, total, total)
            add(y, total, y)

    return y, advance


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
    with np.errstate(over="ignore"):  # a response beyond the float range clips to +-1
        g = error - sign * beta + sign * cfg.f_min
    g_clamped = np.clip(g, -1.0, 1.0)
    f = np.where(np.abs(error) >= beta, g_clamped * cfg.f_max, 0.0)
    return g_clamped, f


def _lockstep(cfg: RotatorConfig, eta, beta, run, seed_seqs):
    """Step episodes from rest in lockstep, lane i being run run[i] at eta[i] and beta[i].

    Yields fresh (theta_dot, sensor, g_clamped, force) lane arrays at each control
    instant, with no action (None) at the last.  Each lane draws its noise from
    seed_seqs[i] up front, so it is bit-identical whatever runs beside it.
    """
    noise = np.empty((len(seed_seqs), cfg.steps + 1))
    for i, seq in enumerate(seed_seqs):
        # + 0.0 makes the high of an eta of -0.0 0.0, not below its low; other etas keep their bits
        noise[i] = np.random.default_rng(seq).uniform(-eta[i], eta[i] + 0.0, size=cfg.steps + 1)
    noise *= cfg.theta_dot_target
    y, advance = _rk4(cfg, len(seed_seqs))
    for t in range(cfg.steps):
        theta_dot = y[1].copy()  # the stepper moves y in place
        s = theta_dot + noise[:, t]
        g, f = control_force(s, cfg, beta)
        yield theta_dot, s, g, f
        # a diverging step raises NumericalError below, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            advance(f)
        if not np.isfinite(y).all():
            i = int(np.argmin(np.isfinite(y).all(axis=0)))
            raise NumericalError(
                f"eta={eta[i]:g}, beta={beta[i]:g}, run={int(run[i])}: integration diverged "
                f"at control step {t} (t = {t * cfg.control_dt:g} s)"
            )
    yield y[1].copy(), y[1] + noise[:, cfg.steps], None, None


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


def _episode_values(sensors, actions) -> dict[str, np.ndarray]:
    """The intrinsic measures of one episode's binned symbols, each an array of one value."""
    counts = count_transitions(sensors, actions, SENSOR_BINNER.bins, ACTION_BINNER.bins)
    return intrinsic_values(*estimate_arrays(counts))


def run_episode(cfg: RotatorConfig) -> tuple[dict[str, float], tuple[np.ndarray, ...]]:
    """One episode from rest: its range-checked measure row and `_simulate_batch` transients."""
    batch = _simulate_batch(cfg, [np.random.SeedSequence(cfg.seed)])
    velocities, _, _, forces = transients = tuple(transient[0] for transient in batch)
    symbols = SENSOR_BINNER.index(velocities), ACTION_BINNER.index(forces / cfg.f_max)
    (row,) = checked_rows(_episode_values(*symbols))
    return row, transients


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
        measured = _episode_values(s, a)
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
