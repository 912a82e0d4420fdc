"""Exact probability primitives on finite alphabets.

Distributions, conditional kernels and three-variable joints are stored as
dense float64 arrays and validated on construction.  Alphabets in this
package are small (at most a few dozen symbols), so everything is dense.
All objects are immutable after construction and all operations are pure
functions; values can be shared freely across threads.  The one state is
:func:`log_ratio_sum`'s scratch, a per-thread buffer (``threading.local``)
that it forms large tables in and never hands out, so threads measuring at
once neither share it nor wait on one another.

The checks and the arithmetic that the measures batch (``check_probs``,
``compose_arrays``, ``cmi_arrays``) work on stacks of tables with a leading
batch axis; the objects and their functions use them with a batch of one.

Zero handling follows the usual information-theoretic conventions:
terms with p = 0 contribute nothing to divergences (0 * ln 0 = 0), while
p > 0 against q = 0 is reported as a :class:`SupportError` instead of
silently returning infinity.  Every divergence and conditional mutual
information in the package takes its logarithm in :func:`log_ratio_sum`,
which skips the zero terms and sums a table from the logarithms of the
ratio's factors where their products under- or overflow, and reports a
support violation through :func:`raise_first`.  That fault and every other
numerical one raised in the package is a :class:`ComputeError`, which
names the table at fault in a stack.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

# Row sums within SUM_EXACT_TOL of one pass through untouched; deviations up
# to SUM_REJECT_TOL are silently renormalised (float accumulation from long
# sampling runs); anything larger is a construction error.
SUM_EXACT_TOL = 1e-12
SUM_REJECT_TOL = 1e-9


class ComputeError(Exception):
    """A numerical fault; `index` is the entry and `batch` the stacked table at fault, or None."""

    def __init__(self, message: str, index=None, batch=None):
        super().__init__(message)
        self.index, self.batch = index, batch


class DimensionError(ComputeError, ValueError):
    """Alphabets or array shapes of the operands do not line up."""


class InvalidDistributionError(ComputeError, ValueError):
    """Negative or non-finite entries, or a (row) sum too far from one."""


class DegenerateAlphabetError(ComputeError, ValueError):
    """A normaliser ln|alphabet| would be zero (single-symbol alphabet)."""


class SupportError(ComputeError, ValueError):
    """q has zero mass where p is positive; carries the offending index."""


def _normalized(arr: np.ndarray, axis, name: str) -> np.ndarray:
    sums = arr.sum(axis=axis, keepdims=True)
    dev = np.abs(sums - 1.0)
    if (dev > SUM_REJECT_TOL).any():
        raise_first(
            dev > SUM_REJECT_TOL,
            f"{name} sums deviate from 1 by up to {dev.max():.3e} "
            f"(reject threshold {SUM_REJECT_TOL:.0e})",
            InvalidDistributionError,
        )
    if (dev > SUM_EXACT_TOL).any():
        # fix only the rows that actually drifted
        arr = arr / np.where(dev > SUM_EXACT_TOL, sums, 1.0)
    return arr


def check_probs(arr: np.ndarray, name: str, whole: bool = False) -> np.ndarray:
    """Validate a stack of probability tables with a leading batch axis.

    Entries must be finite and non-negative; each row (the last axis), or
    each whole table after the batch axis when `whole`, must sum to one
    within the tolerances of :func:`_normalized`.  Returns the array,
    renormalised where it drifted.
    """
    if not np.isfinite(arr).all():
        message = f"{name} contains non-finite entries"
        raise_first(~np.isfinite(arr), message, InvalidDistributionError)
    if (arr < 0).any():
        raise_first(arr < 0, f"{name} contains negative entries", InvalidDistributionError)
    axis = tuple(range(1, arr.ndim)) if whole else -1
    return _normalized(arr, axis=axis, name=name)


# tables under this many bytes are allocated afresh on each call; larger ones are formed in
# the scratch, so that the measures of one model after another do not make the C library
# return and fault in the same pages again
SCRATCH_FLOOR = 64 * 1024


class _Scratch(threading.local):
    """This thread's float64 buffers of :func:`log_ratio_sum`, one per slot."""

    def __init__(self):
        self.slots = [None, None]


_SCRATCH = _Scratch()


def _scratch(slot: int, shape: tuple) -> np.ndarray:
    """A float64 table of `shape` in this thread's buffer `slot`, or a new one under the floor.

    The buffer is replaced when it is too small, and let go when the table
    needs under a quarter of it, so it holds no more than four times the
    largest table of the latest calls.
    """
    size = math.prod(shape)
    if 8 * size < SCRATCH_FLOOR:
        return np.empty(shape)
    slots = _SCRATCH.slots
    if slots[slot] is None or not size <= slots[slot].size <= 4 * size:
        slots[slot] = None  # the old buffer goes before the new one is made
        slots[slot] = np.empty(size)
    return slots[slot][:size].reshape(shape)


def log_ratio_sum(weights, num, den, where, axis) -> np.ndarray:
    """Sum of weights * ln(num / den) over `axis`, on the entries `where` holds.

    `num` and `den` are float64 arrays or tuples of factors, and all operands
    broadcast to one shape.  Entries outside `where` are never divided and
    add nothing, which is the 0 * ln 0 = 0 convention when `where` is the
    support of the weights.  The ratio is formed from the products of the
    factors; a sum that is not finite because a product under- or
    overflowed is summed again from the logarithms of the factors.  The
    ratio, its logarithm and the weighted terms are formed in place in the
    calling thread's scratch, and a denominator of several factors in a
    second buffer; the result is a new array.
    """
    nums, dens = (factors if isinstance(factors, tuple) else (factors,) for factors in (num, den))
    shape = np.broadcast_shapes(*map(np.shape, (weights, where, *nums, *dens)))

    def weighted_log(factor, out=None):
        return np.multiply(weights, np.log(factor, out=out), out=out)

    ratio = _scratch(0, shape)
    with np.errstate(all="ignore"):
        # factors are multiplied left to right in a buffer; reduce takes a lone one as it is
        numerator = reduce(partial(np.multiply, out=ratio), nums)
        denominator = (
            dens[0] if len(dens) == 1 else reduce(partial(np.multiply, out=_scratch(1, shape)), dens)
        )
        np.divide(numerator, denominator, out=ratio, where=where)
        value = np.sum(weighted_log(ratio, out=ratio), axis=axis, where=where)
        redo = ~np.isfinite(value)
        if redo.any():
            terms = reduce(np.add, map(weighted_log, nums)) - reduce(np.add, map(weighted_log, dens))
            value[redo] = np.sum(terms, axis=axis, where=where)[redo]
    return value


def raise_first(mask: np.ndarray, message: str, error=SupportError) -> None:
    """Raise `error` at the first true entry of a stacked mask, if any.

    The error's `batch` is the entry's leading-axis index.  Its `index` leaves
    out the batch axis and is an int when one axis remains; `message` is
    formatted with it as ``{index}``.
    """
    if mask.any():
        first = np.argwhere(mask)[0]
        index = tuple(int(i) for i in first[1:])
        index = index[0] if len(index) == 1 else index
        raise error(message.format(index=index), index=index, batch=int(first[0]))


def _validate(obj, field: str, shape: tuple, name: str, whole: bool = False) -> None:
    """Check, normalise and freeze the array `obj.<field>` in place.

    The one validation path of every probability object: the shape its
    alphabets imply, then :func:`check_probs` as a batch of one, read-only.
    Only a read-only float64 array that owns its data is kept uncopied.
    """
    arr = getattr(obj, field)
    frozen = isinstance(arr, np.ndarray) and arr.dtype == np.float64 and not arr.flags.writeable
    if not (frozen and arr.flags.owndata):
        arr = np.array(arr, dtype=np.float64)
    if arr.shape != shape:
        raise DimensionError(f"{name} of shape {arr.shape}, expected {shape}")
    arr = check_probs(arr[None], name, whole)[0]
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set {0, ..., size - 1}."""

    size: int

    def __post_init__(self):
        try:
            operator.index(self.size)
        except TypeError:
            raise DimensionError(f"alphabet size must be an integer, got {self.size!r}") from None
        if self.size < 1:
            raise DimensionError(f"alphabet size must be >= 1, got {self.size}")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over an :class:`Alphabet`."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        _validate(self, "probs", (self.alphabet.size,), "distribution")


@dataclass(frozen=True, eq=False)
class Kernel2:
    """Conditional table p(y|x): one distribution over `target` per source symbol."""

    source: Alphabet
    target: Alphabet
    rows: np.ndarray  # shape (|source|, |target|)

    def __post_init__(self):
        _validate(self, "rows", (self.source.size, self.target.size), "kernel")


@dataclass(frozen=True, eq=False)
class Kernel3:
    """Conditional table p(z|x,y) over two conditioning alphabets."""

    source1: Alphabet
    source2: Alphabet
    target: Alphabet
    entries: np.ndarray  # shape (|source1|, |source2|, |target|)

    def __post_init__(self):
        shape = (self.source1.size, self.source2.size, self.target.size)
        _validate(self, "entries", shape, "kernel")


@dataclass(frozen=True, eq=False)
class Joint3:
    """Full joint p(x,y,z) over three finite alphabets."""

    x: Alphabet
    y: Alphabet
    z: Alphabet
    probs: np.ndarray  # shape (|x|, |y|, |z|)

    def __post_init__(self):
        _validate(self, "probs", (self.x.size, self.y.size, self.z.size), "joint", whole=True)


def compose_arrays(prior: np.ndarray, policy: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Stacked joints p(x,y,z) = p(x) p(y|x) p(z|x,y), checked as whole tables.

    prior (B,X), policy (B,X,Y) and kernel (B,X,Y,Z) give joints (B,X,Y,Z).
    """
    probs = prior[:, :, None, None] * policy[:, :, :, None] * kernel
    return check_probs(probs, "joint", whole=True)


def compose_joint(prior: Distribution, policy: Kernel2, kernel: Kernel3) -> Joint3:
    """Assemble p(x,y,z) = p(x) p(y|x) p(z|x,y)."""
    if policy.source != prior.alphabet:
        raise DimensionError("policy source alphabet differs from prior alphabet")
    if kernel.source1 != prior.alphabet or kernel.source2 != policy.target:
        raise DimensionError("kernel conditioning alphabets differ from prior/policy")
    # compose_arrays' product without its check: the constructor checks the joint once
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
    pv, qv = p.probs[None], q.probs[None]
    raise_first((pv > 0) & (qv == 0), "q has zero mass at index {index} where p[{index}] > 0")
    value = float(log_ratio_sum(pv, pv, qv, pv > 0, axis=1)[0])
    return value if value > 0.0 else 0.0


def cmi_arrays(P: np.ndarray, given: int, shared=None) -> np.ndarray:
    """I(Z; source | given) in nats for stacked joints P of shape (B,X,Y,Z).

    Axis `given` (0 for X, 1 for Y, counted after the batch axis) is
    conditioned on and the other is the source; equals
    sum_{x,y,z} p(x,y,z) ln[ p(z|x,y) / p(z|given) ] for each joint.
    `shared` is P's :func:`cmi_shared`, which both axes use; it is
    computed here when None.
    """
    p_xy, support = cmi_shared(P) if shared is None else shared
    if given == 0:
        p_g = P.sum(axis=(2, 3))[:, :, None, None]
        p_gz = P.sum(axis=2)[:, :, None, :]
    else:
        p_g = P.sum(axis=(1, 3))[:, None, :, None]
        p_gz = P.sum(axis=1)[:, None, :, :]
    value = log_ratio_sum(P, (P, p_g), (p_xy[:, :, :, None], p_gz), support, axis=(1, 2, 3))
    return np.where(value > 0.0, value, 0.0)


def cmi_shared(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The marginal p(x,y) (B,X,Y) and the support P > 0 of stacked joints P, for :func:`cmi_arrays`."""
    return P.sum(axis=3), P > 0


def conditional_mutual_information(joint: Joint3, given: int) -> float:
    """I(Z; source | given) in nats, with Z fixed as axis 2 and source the other axis.

    Equals sum_{x,y,z} p(x,y,z) ln[ p(z|x,y) / p(z|given) ] for given 0 or 1.
    """
    if given not in (0, 1):
        raise ValueError(f"given must be axis 0 or 1, got {given!r}")
    return float(cmi_arrays(joint.probs[None], given)[0])


def log_size(size: int) -> float:
    """ln(size), rejecting the degenerate single-symbol case."""
    if size < 2:
        raise DegenerateAlphabetError(
            "measures are undefined on a single-symbol alphabet (ln 1 = 0)"
        )
    return math.log(size)
