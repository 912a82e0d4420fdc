"""Model estimation from recorded sensor/action streams.

The estimator starts every conditional cell at the uniform distribution and
folds observations in one at a time; the closed form after n observations of
a cell is (count + 1/|target|) / (n + 1).  Unvisited cells therefore stay
uniform, which keeps all divergences in the measures finite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measures import IntrinsicModel
from .prob import Alphabet, Distribution, Joint3, Kernel2, Kernel3, compose_joint


class DataError(ValueError):
    """Malformed input data (NaN samples, bad CSV rows, out-of-range symbols)."""


@dataclass(frozen=True, eq=False)
class SymbolSeries:
    """Time-ordered recording of one episode.

    actions[t] was emitted after observing sensors[t] and before sensors[t+1],
    so there is exactly one more sensor symbol than action symbols.
    """

    sensors: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        sensors = np.asarray(self.sensors, dtype=np.int64)
        actions = np.asarray(self.actions, dtype=np.int64)
        if sensors.ndim != 1 or actions.ndim != 1:
            raise DataError("symbol series must be one-dimensional")
        if len(sensors) != len(actions) + 1:
            raise DataError(
                f"{len(sensors)} sensor symbols with {len(actions)} actions; "
                "expected one extra sensor observation"
            )
        if (sensors < 0).any() or (len(actions) and (actions < 0).any()):
            raise DataError("symbol indices must be non-negative")
        sensors.setflags(write=False)
        actions.setflags(write=False)
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "actions", actions)

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class Binner:
    """Equal-width binning of a real interval, out-of-range values clamped."""

    low: float
    high: float
    bins: int

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"binner needs low < high, got [{self.low}, {self.high}]")
        if self.bins < 1:
            raise ValueError("binner needs at least one bin")

    def index(self, value):
        """Bin index floor(bins * (v - low)/(high - low)), clamped to range.

        Intervals are half-open with the top bin closed, so edges land
        deterministically.  Accepts scalars or arrays.
        """
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise DataError("cannot bin non-finite values")
        raw = np.floor(self.bins * (arr - self.low) / (self.high - self.low))
        idx = np.clip(raw, 0, self.bins - 1).astype(np.int64)
        return int(idx) if np.isscalar(value) or arr.ndim == 0 else idx

    def alphabet(self) -> Alphabet:
        width = (self.high - self.low) / self.bins
        labels = tuple(
            f"[{self.low + i * width:g},{self.low + (i + 1) * width:g})"
            for i in range(self.bins)
        )
        return Alphabet(self.bins, labels)


def _check_bounds(symbols: np.ndarray, alphabet: Alphabet, what: str) -> None:
    if len(symbols) and int(symbols.max()) >= alphabet.size:
        raise DataError(
            f"{what} symbol {int(symbols.max())} outside alphabet of size {alphabet.size}"
        )


def estimate(
    series: SymbolSeries, sensor_alphabet: Alphabet, action_alphabet: Alphabet
) -> IntrinsicModel:
    """Estimate sensor prior, policy and world model from one recording.

    Every conditional cell carries a uniform pseudo-observation, so after n
    hits of a cell the estimate is (count + 1/|target|) / (n + 1); the prior
    p(s) is estimated the same way from the current-sensor stream.
    """
    _check_bounds(series.sensors, sensor_alphabet, "sensor")
    _check_bounds(series.actions, action_alphabet, "action")
    n_s, n_a = sensor_alphabet.size, action_alphabet.size
    s_now = series.sensors[:-1]
    s_next = series.sensors[1:]
    a = series.actions

    transitions = np.zeros((n_s, n_a, n_s))
    np.add.at(transitions, (s_now, a, s_next), 1.0)
    visits_sa = transitions.sum(axis=2)
    world = (transitions + 1.0 / n_s) / (visits_sa + 1.0)[:, :, None]

    pairs = np.zeros((n_s, n_a))
    np.add.at(pairs, (s_now, a), 1.0)
    visits_s = pairs.sum(axis=1)
    policy = (pairs + 1.0 / n_a) / (visits_s + 1.0)[:, None]

    counts = np.bincount(s_now, minlength=n_s).astype(np.float64)
    prior = (counts + 1.0 / n_s) / (len(s_now) + 1.0)

    return IntrinsicModel(
        Distribution(sensor_alphabet, prior),
        Kernel2(sensor_alphabet, action_alphabet, policy),
        Kernel3(sensor_alphabet, action_alphabet, sensor_alphabet, world),
    )


def joint_from_model(model: IntrinsicModel) -> Joint3:
    """Full joint p(s, a, s') = p(s) p(a|s) p(s'|s,a)."""
    return compose_joint(model.sensor_prior, model.policy, model.world_model)


def read_symbol_series(
    path,
    sensor_binner: Binner | None = None,
    action_binner: Binner | None = None,
    sensor_size: int | None = None,
    action_size: int | None = None,
) -> tuple[SymbolSeries, Alphabet, Alphabet]:
    """Read a `t,s,a` CSV into a SymbolSeries plus its two alphabets.

    Columns `s`/`a` hold either integer symbols (alphabet size given or
    inferred as max+1) or reals, which require the corresponding binner.
    The last row may leave `a` empty to record the final sensor reading;
    otherwise the trailing action has no observed successor and is dropped.
    """
    path = Path(path)
    sensor_raw: list[str] = []
    action_raw: list[tuple[int, str]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip().lower() for h in header]
        if header[:3] != ["t", "s", "a"]:
            raise DataError(f"{path}: expected header t,s,a, got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            sensor_raw.append(row[1].strip())
            action_raw.append((lineno, row[2].strip()))
    if not sensor_raw:
        raise DataError(f"{path}: no data rows")

    final_blank = action_raw[-1][1] == ""
    if final_blank:
        action_raw = action_raw[:-1]
    for lineno, cell in action_raw:
        if cell == "":
            raise DataError(f"{path}:{lineno}: empty action before the final row")

    sensors, sensor_alphabet = _parse_column(
        path, sensor_raw, sensor_binner, sensor_size, "s"
    )
    actions, action_alphabet = _parse_column(
        path, [cell for _, cell in action_raw], action_binner, action_size, "a"
    )
    if not final_blank:
        # no successor recorded for the last action
        actions = actions[:-1]
    return SymbolSeries(sensors, actions), sensor_alphabet, action_alphabet


def _parse_column(path, cells, binner, size, name):
    if binner is not None:
        try:
            values = np.array([float(cell) for cell in cells])
        except ValueError as exc:
            raise DataError(f"{path}: column {name}: {exc}") from None
        if not np.isfinite(values).all():
            row = int(np.argmax(~np.isfinite(values))) + 2
            raise DataError(f"{path}:{row}: non-finite value in column {name}")
        return binner.index(values), binner.alphabet()
    symbols = np.empty(len(cells), dtype=np.int64)
    for i, cell in enumerate(cells):
        try:
            symbols[i] = int(cell)
        except ValueError:
            raise DataError(
                f"{path}:{i + 2}: column {name} holds {cell!r}; real-valued "
                "columns need a binner"
            ) from None
        except OverflowError:
            raise DataError(
                f"{path}:{i + 2}: column {name} symbol {cell} does not fit in 64 bits"
            ) from None
    if (symbols < 0).any():
        row = int(np.argmax(symbols < 0)) + 2
        raise DataError(f"{path}:{row}: negative symbol in column {name}")
    if size is None:
        size = int(symbols.max()) + 1 if len(symbols) else 1
    elif len(symbols) and int(symbols.max()) >= size:
        row = int(np.argmax(symbols == symbols.max())) + 2
        raise DataError(
            f"{path}:{row}: column {name} symbol {int(symbols.max())} does not "
            f"fit alphabet of size {size}"
        )
    return symbols, Alphabet(size)
