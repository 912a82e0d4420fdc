"""Model estimation from recorded sensor/action streams.

The estimator starts every conditional cell at the uniform distribution and
folds observations in one at a time; the closed form after n observations of
a cell is (count + 1/|target|) / (n + 1).  Unvisited cells therefore stay
uniform, which keeps all divergences in the measures finite.

The model is a function of the (S, A, S) transition counts alone
(:func:`count_transitions`).  :func:`estimate_arrays` computes it from
counts, as the checked tables that the measures' array core takes;
`measure` and the rotator count and measure each episode that way,
building no objects; a symbol outside its alphabet raises DataError.
:func:`read_transition_counts` counts a CSV block by block as it is
parsed, growing the table as larger symbols arrive when a size is
inferred, so its memory does not grow with the series: numpy's C reader
parses ASCII blocks, and a csv row loop those it declines, where a byte
that is not UTF-8 is a fault in file order.  :func:`estimate` builds the
public API's validated objects from the same unchecked tables, so their
constructors check each table once.
"""

from __future__ import annotations

import csv
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain, groupby, islice
from pathlib import Path

import numpy as np

from .measures import IntrinsicModel
from .prob import Alphabet, Distribution, Joint3, Kernel2, Kernel3, check_probs, compose_joint


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
        sensors = _symbol_column(self.sensors, "sensors")
        actions = _symbol_column(self.actions, "actions")
        _check_lengths(sensors, actions)
        if (sensors < 0).any() or (len(actions) and (actions < 0).any()):
            raise DataError("symbol indices must be non-negative")
        sensors.setflags(write=False)
        actions.setflags(write=False)
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "actions", actions)

    def __len__(self) -> int:
        return len(self.actions)


def _check_lengths(sensors, actions):
    """Raise DataError unless there is exactly one more sensor symbol than actions."""
    if len(sensors) != len(actions) + 1:
        raise DataError(
            f"{len(sensors)} sensor symbols with {len(actions)} actions; expected one extra sensor observation"
        )


def _symbol_column(values, column: str) -> np.ndarray:
    """One column of symbols as int64; input not of signed integer dtype must hold whole numbers."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DataError("symbol series must be one-dimensional")
    if arr.dtype.kind != "i":
        try:
            real = arr.astype(np.float64)
        except (TypeError, ValueError, OverflowError):
            raise DataError(f"{column} must be whole numbers within int64") from None
        bad = ~(np.isfinite(real) & (real == np.floor(real)) & (np.abs(real) < 2.0**63))
        if bad.any():
            index = int(np.argmax(bad))
            raise DataError(f"{column}[{index}] is {arr[index]}, not a whole number within int64")
    return arr.astype(np.int64, copy=False)


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
        try:
            operator.index(self.bins)
        except TypeError:
            raise ValueError(f"binner needs a whole number of bins, got {self.bins!r}") from None
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


def count_transitions(sensors: np.ndarray, actions: np.ndarray, n_s: int, n_a: int) -> np.ndarray:
    """The (S, A, S) int64 table of how often each transition (s, a, s') occurs in one recording.

    Takes integer symbols; actions[t] leads from sensors[t] to sensors[t+1].
    A symbol outside range(n_s) or range(n_a), or mismatched lengths, raise DataError.
    """
    _check_lengths(sensors, actions)
    for symbols, size, what in ((sensors, n_s, "sensor"), (actions, n_a, "action")):
        for symbol in (symbols.min(), symbols.max()) if len(symbols) else ():
            if not 0 <= symbol < size:
                raise DataError(f"{what} symbol {symbol} outside alphabet of size {size}")
    return _count_blocks([(sensors, actions)], n_s, n_a)


def _count_blocks(blocks, n_s, n_a, check=None):
    """The transition counts of a series given as consecutive (sensors, actions) blocks.

    A block may hold as many actions as sensors; its last action then leads
    to the next block's first sensor, or, in the last block, to nothing and
    is not counted.  A size of None is inferred as the largest symbol + 1,
    or 1 with none: the table grows, zero-padded, as blocks with larger
    symbols arrive.  `check(n_s, n_a)` runs before each allocation of it.
    """
    sizes = [1 if size is None else size for size in (n_s, n_a)]
    inferred = [axis for axis, size in enumerate((n_s, n_a)) if size is None]
    counts = np.zeros((0, 0, 0), dtype=np.int64)
    if not inferred:
        counts = _grown(counts, sizes, check)
    edge = ()
    for block in blocks:
        # narrow symbols are widened for the index arithmetic; int64 ones are not copied
        sensors, actions = block = [symbols.astype(np.int64, copy=False) for symbols in block]
        for axis in inferred:
            sizes[axis] = max(sizes[axis], int(block[axis].max(initial=-1)) + 1)
        if any(map(operator.gt, sizes, counts.shape)):
            counts = _grown(counts, sizes, check)
        _, width_a, width_s = counts.shape
        if edge:
            counts[(*edge, sensors[0])] += 1
        steps = len(sensors) - 1
        index = (sensors[:-1] * width_a + actions[:steps]) * width_s + sensors[1:]
        np.add.at(counts.reshape(-1), index, 1)
        edge = (sensors[-1], actions[-1]) if len(actions) > steps else ()
    n_s, n_a = sizes
    return counts if counts.shape == (n_s, n_a, n_s) else counts[:n_s, :n_a, :n_s].copy()


def _grown(counts, sizes, check):
    """The table zero-padded to hold `sizes`; an axis grows by half at least, so it is copied rarely."""
    if check is not None:
        check(*sizes)
    held = counts.shape[:2]
    n_s, n_a = (old if size <= old else max(size, old * 3 // 2) for size, old in zip(sizes, held))
    grown = np.zeros((n_s, n_a, n_s), dtype=np.int64)
    grown[: held[0], : held[1], : held[0]] = counts
    return grown


def _tables(counts: np.ndarray):
    """The unchecked prior (S,), policy (S,A) and world model (S,A,S) of a count table."""
    n_s, n_a, _ = counts.shape
    visits_sa = counts.sum(axis=2).astype(np.float64)
    world = (counts + 1.0 / n_s) / (visits_sa + 1.0)[:, :, None]
    visits_s = visits_sa.sum(axis=1)
    policy = (visits_sa + 1.0 / n_a) / (visits_s + 1.0)[:, None]
    prior = (visits_s + 1.0 / n_s) / (counts.sum() + 1.0)
    return prior, policy, world


def estimate_arrays(counts: np.ndarray):
    """Estimate sensor prior, policy and world model from a recording's transition counts.

    Every conditional cell carries a uniform pseudo-observation, so after n
    hits of a cell the estimate is (count + 1/|target|) / (n + 1); the prior
    p(s) is estimated the same way from the current-sensor stream.  Takes
    the (S, A, S) table of :func:`count_transitions`, and returns the prior
    (1,S), policy (1,S,A) and world model (1,S,A,S), checked as
    `measures.intrinsic_values` takes them.
    """
    tables = zip(_tables(counts), ("distribution", "kernel", "kernel"))
    return tuple(check_probs(table[None], name) for table, name in tables)


def estimate(
    series: SymbolSeries, sensor_alphabet: Alphabet, action_alphabet: Alphabet
) -> IntrinsicModel:
    """The model of :func:`estimate_arrays` as validated objects, its symbols checked as counted."""
    s, a = sensor_alphabet, action_alphabet
    counts = count_transitions(series.sensors, series.actions, s.size, a.size)
    prior, policy, world = _tables(counts)
    return IntrinsicModel(Distribution(s, prior), Kernel2(s, a, policy), Kernel3(s, a, s, world))


def joint_from_model(model: IntrinsicModel) -> Joint3:
    """Full joint p(s, a, s') = p(s) p(a|s) p(s'|s,a)."""
    return compose_joint(model.sensor_prior, model.policy, model.world_model)


def read_transition_counts(path, sensor=None, action=None, *, check=None) -> np.ndarray:
    """The :func:`count_transitions` table of a `t,s,a` CSV, counted block by block as it is parsed.

    The `sensor` and `action` specs describe columns `s` and `a`: a `Binner`
    bins real values into its `bins` symbols, an int is the alphabet size of
    integer symbols, and None infers that size as max+1.  The last row may
    leave `a` blank; a trailing action that is not blank has no successor
    and is not counted, but sizes an inferred alphabet.  The reader holds
    the table and one block of `BLOCK_ROWS` lines, however long the file.
    `check(n_s, n_a)` runs before each allocation of the table: with both
    sizes known, before the file is read.
    """
    specs = (sensor, action)
    n_s, n_a = (spec.bins if isinstance(spec, Binner) else spec for spec in specs)
    return _count_blocks(_symbol_blocks(Path(path), specs), n_s, n_a, check)


def _symbols(block, specs):
    """The symbols of a block's checked values: bin indices, or the integers as read."""
    return tuple(spec.index(v) if isinstance(spec, Binner) else v for v, spec in zip(block, specs))


def _rejected(values, spec):
    """Which values of one column are faults: non-finite reals, symbols outside the alphabet."""
    if isinstance(spec, Binner):
        return ~np.isfinite(values)
    return (values < 0) | (values >= spec if spec is not None else False)


def _symbol_blocks(path, specs):
    """Checked (sensors, actions) symbol blocks of a file, in file order.

    The file is opened once and csv reads its header.  Each block of
    `BLOCK_ROWS` lines after it is parsed by `np.loadtxt` (`_value_block`),
    or by csv (`_row_block`) if loadtxt declines it, and is checked and
    binned on its own.  A DataError names the first file line at fault.
    """
    # universal newlines end lines where csv.reader does: \n, \r\n, lone \r
    with path.open(encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(_utf8_lines(handle))
        try:
            header = next(reader, None)
        except (csv.Error, _NotUtf8) as exc:
            # csv has not counted the line with a bad byte
            raise DataError(f"{path}:{reader.line_num + isinstance(exc, _NotUtf8)}: {exc}") from None
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip().lower() for h in header]
        if header[:3] != ["t", "s", "a"]:
            raise DataError(f"{path}: expected header t,s,a, got {','.join(header)}")
        lineno, pending, rows = reader.line_num + 1, handle.readline(), False
        while pending:
            # rebinding first frees the previous block's lines, so one block is held at a time
            block = [pending]
            block += islice(handle, BLOCK_ROWS - 1)
            pending = handle.readline()
            try:
                values, used = _value_block(block, not pending, specs), len(block)
            except ValueError:
                # csv may read on past the block, through the lookahead line
                lines = chain(block, [pending] if pending else [], handle)
                values, used = _row_block(path, lines, lineno, specs)
                if used > len(block):
                    pending = handle.readline()
            lineno += used
            if len(values[0]):
                rows = True
                yield _symbols(values, specs)
    if not rows:
        raise DataError(f"{path}: no data rows")


def _value_block(block, last, specs):
    """Sensor and action values of a block of data lines, parsed by `np.loadtxt`.

    A blank last action of the `last` block is parsed as 0 and dropped.
    Raises ValueError, declining the block, on a quote (csv splits quoted
    cells, loadtxt does not), a character beyond ASCII (loadtxt would pass
    a bad byte in `t`), a blank, whitespace-only or short last line, a cell
    loadtxt cannot parse, or a `_rejected` value.
    """
    if '"' in (text := "".join(block)) or not text.isascii():
        raise ValueError("quoted cell or a character beyond ASCII")
    if block.count("\n") == len(block):
        return (), ()  # blank lines alone, on which loadtxt would warn that it found no data
    final_blank = False
    if last:
        cells = block[-1].split(",")
        if len(cells) < 3:
            raise ValueError("blank or short last line")
        final_blank = not cells[2].strip()
        if final_blank:
            # a new list, as csv reads the block's own lines if loadtxt declines it
            block = [*block[:-1], ",".join([*cells[:2], "0", *cells[3:]])]
    kinds = [np.float64 if isinstance(spec, Binner) else np.int64 for spec in specs]
    values = np.loadtxt(
        block,
        dtype=list(zip("sa", kinds)),
        delimiter=",",
        usecols=(1, 2),
        comments=None,
        ndmin=1,
    )
    values = values["s"], values["a"][:-1] if final_blank else values["a"]
    if any(_rejected(column, spec).any() for column, spec in zip(values, specs)):
        raise ValueError("a non-finite value or a symbol outside its alphabet")
    return values


def _row_block(path, lines, lineno, specs):
    """Checked sensor and action values of a block's data rows, parsed by csv, and the lines read.

    `lines` are the block's lines, from file line `lineno` on, then the
    rest of the file.  csv reads `BLOCK_ROWS` of them, and reads on only
    while a quoted cell is open, or while the last data row leaves `a`
    blank, to the next data row or EOF: a blank action is a fault only
    before the last data row.  A byte that is not UTF-8 is a fault on its
    own line, in file order (`_utf8_lines`).
    """
    linenos, sensors, actions, fault = [], [], [], None
    reader = csv.reader(_utf8_lines(lines))
    try:
        for row in reader:
            if any(map(str.strip, row)):
                # csv counts the lines it read, so a quoted cell may span lines
                line = lineno - 1 + reader.line_num
                if len(row) < 3:
                    fault = f"{line}: expected 3 columns, got {len(row)}"
                    break
                linenos.append(line)
                sensors.append(row[1].strip())
                actions.append(row[2].strip())
            if reader.line_num >= BLOCK_ROWS and (not actions or actions[-1]):
                break
        else:
            if actions and not actions[-1]:
                actions.pop()
    except (csv.Error, _NotUtf8) as exc:
        fault = f"{lineno - 1 + reader.line_num + isinstance(exc, _NotUtf8)}: {exc}"
    # a fault on an earlier row comes first
    values = _row_values(path, linenos, (sensors, actions), specs)
    if fault is not None:
        raise DataError(f"{path}:{fault}")
    return values, reader.line_num


class _NotUtf8(Exception):
    """Raised on taking a line that holds a byte that is not UTF-8, before csv.reader counts it."""


def _utf8_lines(lines):
    """Lines decoded with surrogateescape, up to one with a bad byte; ASCII lines pass unchecked."""
    for is_ascii, lines in groupby(lines, str.isascii):
        if is_ascii:
            yield from lines
            continue
        for line in lines:
            if re.search("[\udc80-\udcff]", line):  # how surrogateescape reads a bad byte
                raise _NotUtf8("not valid UTF-8")
            yield line


def _row_values(path, linenos, columns, specs):
    """Checked values of a block's cells, cells[i] on file line linenos[i]; faults in file order."""
    # on one line, an empty action comes first, then the sensor cell, then the action cell
    faults = [(columns[1].index(""), "empty action before the final row")] if "" in columns[1] else []
    parsed = [_parse_column(cells, spec, name) for cells, spec, name in zip(columns, specs, "sa")]
    faults += [fault for _, fault in parsed if fault]
    if faults:
        index, message = min(faults, key=operator.itemgetter(0))
        raise DataError(f"{path}:{linenos[index]}: {message}")
    return tuple(values for values, _ in parsed)


def _parse_column(cells, spec, name):
    """The values of one column's cells, and the index and message of its first fault, or None."""
    binned = isinstance(spec, Binner)
    kind, dtype = (float, np.float64) if binned else (int, np.int64)
    remaining, fault = iter(cells), None
    try:
        values = np.fromiter(map(kind, remaining), dtype, len(cells))
    except (ValueError, OverflowError) as exc:
        # the failing cell is the last one taken from `remaining`
        index = len(cells) - 1 - sum(1 for _ in remaining)
        values, cell = np.fromiter(map(kind, cells[:index]), dtype, index), cells[index]
        if binned:
            fault = index, f"column {name}: {exc}"
        elif isinstance(exc, OverflowError):
            fault = index, f"column {name} symbol {cell} does not fit in 64 bits"
        else:
            fault = index, f"column {name} holds {cell!r}; real-valued columns need a binner"
    bad = _rejected(values, spec)
    if bad.any():
        # the cells before a failing one are earlier
        index = int(np.argmax(bad))
        if binned:
            fault = index, f"non-finite value in column {name}"
        elif values[index] < 0:
            fault = index, f"negative symbol in column {name}"
        else:
            fault = index, f"column {name} symbol {values[index]} does not fit alphabet of size {spec}"
    return values, fault
