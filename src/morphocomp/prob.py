"""Exact probability primitives on finite alphabets.

Distributions, conditional kernels and three-variable joints are stored as
dense float64 arrays and validated on construction.  Alphabets in this
package are small (at most a few dozen symbols), so everything is dense.
All objects are immutable after construction and all operations are pure
functions; values can be shared freely across threads.

Zero handling follows the usual information-theoretic conventions:
terms with p = 0 contribute nothing to divergences (0 * ln 0 = 0), while
p > 0 against q = 0 is reported as a :class:`SupportError` instead of
silently returning infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Row sums within SUM_EXACT_TOL of one pass through untouched; deviations up
# to SUM_REJECT_TOL are silently renormalised (float accumulation from long
# sampling runs); anything larger is a construction error.
SUM_EXACT_TOL = 1e-12
SUM_REJECT_TOL = 1e-9


class DimensionError(ValueError):
    """Alphabets or array shapes of the operands do not line up."""


class InvalidDistributionError(ValueError):
    """Negative or non-finite entries, or a (row) sum too far from one."""


class DegenerateAlphabetError(ValueError):
    """A normaliser ln|alphabet| would be zero (single-symbol alphabet)."""


class SupportError(ValueError):
    """q has zero mass where p is positive; carries the offending index."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


def _normalized(arr: np.ndarray, axis, name: str) -> np.ndarray:
    sums = arr.sum(axis=axis, keepdims=True)
    dev = np.abs(sums - 1.0)
    if (dev > SUM_REJECT_TOL).any():
        raise InvalidDistributionError(
            f"{name} sums deviate from 1 by up to {dev.max():.3e} "
            f"(reject threshold {SUM_REJECT_TOL:.0e})"
        )
    if (dev > SUM_EXACT_TOL).any():
        # fix only the rows that actually drifted
        arr = arr / np.where(dev > SUM_EXACT_TOL, sums, 1.0)
    return arr


def _validate(obj, field: str, shape: tuple, sum_axis, name: str) -> None:
    """Check, normalise and freeze the array `obj.<field>` in place.

    The one validation path of every probability object: finite and
    non-negative entries, the shape its alphabets imply, sums over
    `sum_axis` within the tolerances of :func:`_normalized`, read-only.
    """
    arr = np.array(getattr(obj, field), dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidDistributionError(f"{name} contains non-finite entries")
    if (arr < 0).any():
        raise InvalidDistributionError(f"{name} contains negative entries")
    if arr.shape != shape:
        raise DimensionError(f"{name} of shape {arr.shape}, expected {shape}")
    arr = _normalized(arr, axis=sum_axis, name=name)
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set, optionally with human-readable labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise DimensionError(f"alphabet size must be >= 1, got {self.size}")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.size:
                raise DimensionError(
                    f"{len(labels)} labels for alphabet of size {self.size}"
                )
            object.__setattr__(self, "labels", labels)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over an :class:`Alphabet`."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        _validate(self, "probs", (self.alphabet.size,), -1, "distribution")

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Distribution":
        return cls(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))

    @classmethod
    def point(cls, alphabet: Alphabet, index: int) -> "Distribution":
        probs = np.zeros(alphabet.size)
        probs[index] = 1.0
        return cls(alphabet, probs)


@dataclass(frozen=True, eq=False)
class Kernel2:
    """Conditional table p(y|x): one distribution over `target` per source symbol."""

    source: Alphabet
    target: Alphabet
    rows: np.ndarray  # shape (|source|, |target|)

    def __post_init__(self):
        _validate(self, "rows", (self.source.size, self.target.size), -1, "kernel")

    @classmethod
    def uniform(cls, source: Alphabet, target: Alphabet) -> "Kernel2":
        rows = np.full((source.size, target.size), 1.0 / target.size)
        return cls(source, target, rows)

    @classmethod
    def deterministic(
        cls, source: Alphabet, target: Alphabet, mapping: Sequence[int]
    ) -> "Kernel2":
        """Dirac rows: symbol x maps to mapping[x] with probability one."""
        rows = np.zeros((source.size, target.size))
        rows[np.arange(source.size), np.asarray(mapping, dtype=int)] = 1.0
        return cls(source, target, rows)


@dataclass(frozen=True, eq=False)
class Kernel3:
    """Conditional table p(z|x,y) over two conditioning alphabets."""

    source1: Alphabet
    source2: Alphabet
    target: Alphabet
    entries: np.ndarray  # shape (|source1|, |source2|, |target|)

    def __post_init__(self):
        shape = (self.source1.size, self.source2.size, self.target.size)
        _validate(self, "entries", shape, -1, "kernel")

    @classmethod
    def uniform(cls, source1: Alphabet, source2: Alphabet, target: Alphabet) -> "Kernel3":
        entries = np.full(
            (source1.size, source2.size, target.size), 1.0 / target.size
        )
        return cls(source1, source2, target, entries)


@dataclass(frozen=True, eq=False)
class Joint3:
    """Full joint p(x,y,z) over three finite alphabets."""

    x: Alphabet
    y: Alphabet
    z: Alphabet
    probs: np.ndarray  # shape (|x|, |y|, |z|)

    def __post_init__(self):
        _validate(self, "probs", (self.x.size, self.y.size, self.z.size), None, "joint")


def compose_joint(prior: Distribution, policy: Kernel2, kernel: Kernel3) -> Joint3:
    """Assemble p(x,y,z) = p(x) p(y|x) p(z|x,y)."""
    if policy.source != prior.alphabet:
        raise DimensionError("policy source alphabet differs from prior alphabet")
    if kernel.source1 != prior.alphabet or kernel.source2 != policy.target:
        raise DimensionError("kernel conditioning alphabets differ from prior/policy")
    probs = prior.probs[:, None, None] * policy.rows[:, :, None] * kernel.entries
    return Joint3(prior.alphabet, policy.target, kernel.target, probs)


def kl(p: Distribution, q: Distribution) -> float:
    """Relative entropy D(p||q) in nats.

    Terms with p[i] = 0 contribute zero.  p[i] > 0 against q[i] = 0 raises
    :class:`SupportError` rather than returning infinity: in this package q
    is always a coarse-graining of the process that generated p, so a true
    support violation indicates an estimation bug upstream.
    """
    if p.alphabet != q.alphabet:
        raise DimensionError("kl requires both distributions on one alphabet")
    pv, qv = p.probs, q.probs
    violated = (pv > 0) & (qv == 0)
    if violated.any():
        index = int(np.argmax(violated))
        raise SupportError(
            f"q has zero mass at index {index} where p[{index}] = {pv[index]:g}",
            index=index,
        )
    mask = pv > 0
    value = float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))
    return value if value > 0.0 else 0.0


def conditional_mutual_information(joint: Joint3, source: int, given: int) -> float:
    """I(Z; source | given) in nats, with Z fixed as axis 2.

    Equals sum_{x,y,z} p(x,y,z) ln[ p(z|x,y) / p(z|given) ] for
    (source, given) = (1, 0) or (0, 1).
    """
    if {source, given} != {0, 1}:
        raise ValueError("source/given must be axes 0 and 1 in either order")
    P = joint.probs
    p_xy = P.sum(axis=2)
    if given == 0:
        p_g = P.sum(axis=(1, 2))[:, None, None]
        p_gz = P.sum(axis=1)[:, None, :]
    else:
        p_g = P.sum(axis=(0, 2))[None, :, None]
        p_gz = P.sum(axis=0)[None, :, :]
    num = P * p_g
    den = p_xy[:, :, None] * p_gz
    ratio = np.ones_like(P)
    np.divide(num, den, out=ratio, where=P > 0)
    value = float(np.sum(P * np.log(ratio), where=P > 0))
    return value if value > 0.0 else 0.0


def chain(first: Kernel2, second: Kernel2) -> Kernel2:
    """Compose kernels: p(z|x) = sum_y p(z|y) p(y|x)."""
    if first.target != second.source:
        raise DimensionError("chained kernels must share the middle alphabet")
    return Kernel2(first.source, second.target, first.rows @ second.rows)


def entropy_normalizer(alphabet: Alphabet) -> float:
    """ln|alphabet|, rejecting the degenerate single-symbol case."""
    if alphabet.size < 2:
        raise DegenerateAlphabetError(
            "measures are undefined on a single-symbol alphabet (ln 1 = 0)"
        )
    return math.log(alphabet.size)
