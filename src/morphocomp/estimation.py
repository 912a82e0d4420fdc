"""Model estimation from recorded sensor/action streams.

The estimator starts every conditional cell at the uniform distribution and
folds observations in one at a time; the closed form after n observations of
a cell is (count + 1/|target|) / (n + 1).  Unvisited cells therefore stay
uniform, which keeps all divergences in the measures finite.

:func:`estimate_arrays` computes the model on plain arrays, as the checked
tables that the measures' array core takes; `measure` and the rotator
estimate and measure each episode that way, building no objects.
:func:`estimate` checks a series' symbols against its alphabets and builds
the validated objects of the public API from the same unchecked tables, so
their constructors check each table once.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .measures import IntrinsicModel
from .prob import Alphabet, Distribution, Joint3, Kernel2, Kernel3, check_probs, compose_joint


# characters per read when the CSV fast path scans a file for quotes and line ends;
# a text read holds several copies of its chunk at once (bytes, decoded, newline-translated)
SCAN_CHUNK = 1 << 18
# data lines per np.loadtxt call when the fast path parses a file.  A block
# holds its lines, parsed values and binning temporaries at once, about 230
# bytes a line, while each call costs about 60 us beyond its lines: 8,192
# lines hold about 2 MB and add under 1% to the parse of a long file
BLOCK_ROWS = 8192


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
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError(f"binner bounds must be finite, got [{self.low}, {self.high}]")
        if not self.low < self.high:
            raise ValueError(f"binner needs low < high, got [{self.low}, {self.high}]")
        if self.bins < 1:
            raise ValueError("binner needs at least one bin")
        if not math.isfinite(self.bins * (self.high - self.low)):
            raise ValueError(f"binner width of [{self.low}, {self.high}] x {self.bins} bins overflows")

    def index(self, value):
        """Bin index floor(bins * (v - low)/(high - low)) of v clipped to [low, high].

        Half-open intervals with the top bin closed, so edges land deterministically;
        the clip keeps the product finite.  Accepts scalars or arrays.
        """
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise DataError("cannot bin non-finite values")
        # clipped inline, so numpy reuses the temporary copy's buffer for the arithmetic
        raw = np.floor(
            self.bins * (np.clip(arr, self.low, self.high) - self.low) / (self.high - self.low)
        )
        idx = np.clip(raw, 0, self.bins - 1).astype(np.int64)
        return int(idx) if np.isscalar(value) or arr.ndim == 0 else idx

    def alphabet(self) -> Alphabet:
        return Alphabet(self.bins)


def _tables(sensors: np.ndarray, actions: np.ndarray, n_s: int, n_a: int):
    """The unchecked prior (S,), policy (S,A) and world model (S,A,S) of one recording."""
    # narrow symbols are widened for the index arithmetic; int64 ones are not copied
    sensors, actions = (symbols.astype(np.int64, copy=False) for symbols in (sensors, actions))
    triples = (sensors[:-1] * n_a + actions) * n_s + sensors[1:]
    transitions = np.bincount(triples, minlength=n_s * n_a * n_s).reshape(n_s, n_a, n_s)
    visits_sa = transitions.sum(axis=2).astype(np.float64)
    world = (transitions + 1.0 / n_s) / (visits_sa + 1.0)[:, :, None]
    visits_s = visits_sa.sum(axis=1)
    policy = (visits_sa + 1.0 / n_a) / (visits_s + 1.0)[:, None]
    prior = (visits_s + 1.0 / n_s) / (len(actions) + 1.0)
    return prior, policy, world


def estimate_arrays(sensors: np.ndarray, actions: np.ndarray, n_s: int, n_a: int):
    """Estimate sensor prior, policy and world model from one recording.

    Every conditional cell carries a uniform pseudo-observation, so after n
    hits of a cell the estimate is (count + 1/|target|) / (n + 1); the prior
    p(s) is estimated the same way from the current-sensor stream.  Takes
    integer symbols in range(n_s) and range(n_a), and returns the prior
    (1,S), policy (1,S,A) and world model (1,S,A,S), checked as
    `measures.intrinsic_values` takes them.
    """
    tables = zip(_tables(sensors, actions, n_s, n_a), ("distribution", "kernel", "kernel"))
    return tuple(check_probs(table[None], name) for table, name in tables)


def estimate(
    series: SymbolSeries, sensor_alphabet: Alphabet, action_alphabet: Alphabet
) -> IntrinsicModel:
    """The model of :func:`estimate_arrays` as validated objects, its symbols checked first."""
    s, a = sensor_alphabet, action_alphabet
    for symbols, alphabet, what in ((series.sensors, s, "sensor"), (series.actions, a, "action")):
        if len(symbols) and int(symbols.max()) >= alphabet.size:
            top = int(symbols.max())
            raise DataError(f"{what} symbol {top} outside alphabet of size {alphabet.size}")
    prior, policy, world = _tables(series.sensors, series.actions, s.size, a.size)
    return IntrinsicModel(Distribution(s, prior), Kernel2(s, a, policy), Kernel3(s, a, s, world))


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

    A well-formed file is parsed by numpy's C reader, `BLOCK_ROWS` lines at
    a time, each block binned straight into the int64 symbol arrays, so the
    reader holds little more than the 16 bytes per row of the series.  Any
    other file goes through the row loop, whose DataError names the file
    line at fault.
    """
    path = Path(path)
    specs = ((sensor_binner, sensor_size), (action_binner, action_size))
    return _series(_read_fast(path, specs) or _read_rows(path, specs), specs)


def _series(columns, specs):
    """The series and alphabets of checked sensor and action symbols."""
    sensors, actions = columns
    sensor_alphabet, action_alphabet = (
        _alphabet(symbols, *spec) for symbols, spec in zip(columns, specs)
    )
    if len(actions) == len(sensors):
        # no successor recorded for the last action
        actions = actions[:-1]
    return SymbolSeries(sensors, actions), sensor_alphabet, action_alphabet


def _alphabet(symbols, binner, size):
    if binner is not None:
        return binner.alphabet()
    if size is None:
        size = int(symbols.max()) + 1 if len(symbols) else 1
    return Alphabet(size)


def _symbols(values, binner):
    """The symbols of one column's checked values: bin indices, or the integers as read."""
    return values if binner is None else binner.index(values)


def _accepted(values, binner, size) -> bool:
    """Whether the row loop takes these values of one column without a DataError."""
    if binner is not None:
        return bool(np.isfinite(values).all())
    return not len(values) or (values.min() >= 0 and (size is None or values.max() < size))


def _read_fast(path, specs):
    """Sensor and action symbols of a well-formed file, parsed by `np.loadtxt`.

    Returns None, leaving the file to the row loop, if `_scan` declines the
    file, a row is short or whitespace-only, a cell is one loadtxt cannot
    parse, or a value is one the row loop rejects.  Each parsed block is
    checked, then binned into symbol arrays sized by the scan's line count.
    """
    try:
        scanned = _scan(path)
        if scanned is None:
            return None
        symbols = np.empty((len(specs), scanned[0]), dtype=np.int64)
        ends = [0] * len(specs)
        for block in _value_blocks(path, *scanned, specs):
            for column, (values, (binner, size)) in enumerate(zip(block, specs)):
                if not _accepted(values, binner, size):
                    return None
                start = ends[column]
                ends[column] += len(values)
                symbols[column, start : ends[column]] = _symbols(values, binner)
    except ValueError:
        return None
    return tuple(row[:end] for row, end in zip(symbols, ends))


def _scan(path):
    """The data-line count and last-line cells of a file `np.loadtxt` may parse.

    Returns None if the file holds a quote (csv splits quoted cells,
    loadtxt does not), a bad header, no data line, or a blank or short
    last line.  The text is read `SCAN_CHUNK` characters at a time, and
    only the last two chunks are held.
    """
    # universal newlines end lines where csv.reader does: \n, \r\n, lone \r
    with path.open(encoding="utf-8") as handle:
        lines, previous, tail = 0, "", ""
        for chunk in iter(partial(handle.read, SCAN_CHUNK), ""):
            if '"' in chunk:
                return None
            lines += chunk.count("\n")
            previous, tail = tail, chunk
        lines += not tail.endswith("\n")
        # the last line is whole in the last two chunks unless it is
        # longer than a chunk; then they hold no line end before it
        body = (previous + tail).removesuffix("\n")
        if lines < 2 or "\n" not in body:
            return None
        last = body[body.rfind("\n") + 1 :].split(",")
        handle.seek(0)
        header = handle.readline().split(",")
    if len(last) < 3 or [cell.strip().lower() for cell in header[:3]] != ["t", "s", "a"]:
        return None
    return lines - 1, last


def _value_blocks(path, rows, last, specs):
    """Sensor and action values of the `rows` data lines, `BLOCK_ROWS` lines per loadtxt call.

    `last` holds the cells of the last line.  Its action may be blank, so
    it is parsed with that cell set to 0, which is then dropped.  A block of
    blank lines alone, which loadtxt skips, yields nothing.  Raises
    ValueError on a row or cell loadtxt cannot parse.
    """
    final_blank = not last[2].strip()
    if final_blank:
        last = [*last[:2], "0", *last[3:]]
    kinds = [np.int64 if binner is None else np.float64 for binner, _ in specs]
    with path.open(encoding="utf-8") as handle:
        handle.readline()
        lines = chain(islice(handle, rows - 1), [",".join(last)])
        for start in range(0, rows, BLOCK_ROWS):
            block = list(islice(lines, BLOCK_ROWS))
            if block.count("\n") == len(block):
                # loadtxt would warn that it found no data
                continue
            values = np.loadtxt(
                block,
                dtype=list(zip("sa", kinds)),
                delimiter=",",
                usecols=(1, 2),
                comments=None,
                ndmin=1,
            )
            final = final_blank and start + BLOCK_ROWS >= rows
            yield values["s"], values["a"][:-1] if final else values["a"]


def _read_rows(path, specs):
    """Sensor and action symbols of a file parsed row by row; a DataError names the file line."""
    return tuple(
        _symbols(values, binner) for values, (binner, _) in zip(_row_values(path, specs), specs)
    )


def _row_values(path, specs):
    """Sensor and action values parsed row by row; a DataError names the file line."""
    # the file line of each data row, so messages name lines past blank rows
    linenos: list[int] = []
    sensor_raw: list[str] = []
    action_raw: list[str] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            header = [h.strip().lower() for h in header]
            if header[:3] != ["t", "s", "a"]:
                raise DataError(f"{path}: expected header t,s,a, got {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < 3:
                    raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
                linenos.append(lineno)
                sensor_raw.append(row[1].strip())
                action_raw.append(row[2].strip())
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}:{_first_bad_utf8_line(path)}: not valid UTF-8") from None
    if not sensor_raw:
        raise DataError(f"{path}: no data rows")

    if action_raw[-1] == "":
        action_raw.pop()
    if "" in action_raw:
        lineno = linenos[action_raw.index("")]
        raise DataError(f"{path}:{lineno}: empty action before the final row")
    return tuple(
        _parse_column(path, cells, linenos, *spec, name)
        for cells, spec, name in zip((sensor_raw, action_raw), specs, "sa")
    )


def _first_bad_utf8_line(path) -> int:
    r"""The file line (\n, \r\n and lone \r end one) of the first byte that is not UTF-8."""
    # surrogateescape decodes each bad byte to one of U+DC80..U+DCFF
    text = path.read_bytes().decode("utf-8", errors="surrogateescape")
    head = text[: re.search("[\udc80-\udcff]", text).start()]
    return head.count("\n") + head.count("\r") - head.count("\r\n") + 1


def _parse_column(path, cells, linenos, binner, size, name):
    """Checked values of one column; cells[i] sits on file line linenos[i]."""
    if binner is not None:
        remaining = iter(cells)
        try:
            values = np.array([float(cell) for cell in remaining])
        except ValueError as exc:
            # the failing cell is the last one taken from `remaining`
            row = linenos[len(cells) - 1 - sum(1 for _ in remaining)]
            raise DataError(f"{path}:{row}: column {name}: {exc}") from None
        if not np.isfinite(values).all():
            row = linenos[int(np.argmax(~np.isfinite(values)))]
            raise DataError(f"{path}:{row}: non-finite value in column {name}")
        return values
    symbols = np.empty(len(cells), dtype=np.int64)
    for i, cell in enumerate(cells):
        try:
            symbols[i] = int(cell)
        except ValueError:
            raise DataError(
                f"{path}:{linenos[i]}: column {name} holds {cell!r}; real-valued "
                "columns need a binner"
            ) from None
        except OverflowError:
            raise DataError(
                f"{path}:{linenos[i]}: column {name} symbol {cell} does not fit in 64 bits"
            ) from None
    if (symbols < 0).any():
        row = linenos[int(np.argmax(symbols < 0))]
        raise DataError(f"{path}:{row}: negative symbol in column {name}")
    if size is not None and len(symbols) and int(symbols.max()) >= size:
        row = linenos[int(np.argmax(symbols == symbols.max()))]
        raise DataError(
            f"{path}:{row}: column {name} symbol {int(symbols.max())} does not "
            f"fit alphabet of size {size}"
        )
    return symbols
