"""Closed-form binary sensorimotor loop for validating the measures.

All variables live on the signed binary alphabet {-1, +1}.  Each transition
map is a two-point softmax whose sharpness is one scalar parameter, so the
loop interpolates smoothly between fully random and fully deterministic:

  world kernel   a(w'|w,a)  ~ exp(phi w'w + psi w'a)   phi: state coupling,
                                                       psi: action coupling
  sensor map     b(s|w)     ~ exp(zeta s w)
  policy         pi(a|s)    ~ exp(mu a s)
  state prior    p(w)       ~ exp(tau w)

Everything downstream (joints, estimated-model equivalents, measure values)
is evaluated exactly; no sampling is involved.  The ``*_arrays`` functions
evaluate a stack of parameter points at once (leading batch axis B), which
is how a sweep runs; ``point_measures`` is a sweep of one point.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .measures import action_effect, checked_columns, intrinsic_values, rows_of, world_effect
from .prob import ComputeError, check_probs, compose_arrays, raise_first

SIGNS = np.array([-1.0, 1.0])

# Sweep defaults: surfaces over [0, 5] as plotted, with 20 standing in for
# "effectively deterministic" (the softmax is then within 5e-18 of a Dirac).
DEFAULT_GRID = tuple(np.linspace(0.0, 5.0, 51))
DEFAULT_MU_VALUES = (0.0, 1.0, 20.0)
STRICT = 20.0

# Grid points per array pass of a sweep.  A chunk of 1,024 peaks at about
# 1.1 MB of arrays and columns (tracemalloc) and runs near the speed of one pass
# over all 7,803 points of the default grid, which would peak at about 5.7 MB.
SWEEP_CHUNK = 1024


def _check_params(phi, psi, zeta, mu, tau) -> None:
    """Reject couplings that are not finite and non-negative, or a non-finite bias.

    Each argument is a scalar or an array of values.
    """
    for name, values in (("phi", phi), ("psi", psi), ("zeta", zeta), ("mu", mu), ("tau", tau)):
        values = np.asarray(values, dtype=np.float64)
        if name == "tau":
            bad, requirement = ~np.isfinite(values), "finite"
        else:
            bad, requirement = ~(np.isfinite(values) & (values >= 0)), "finite and non-negative"
        if bad.any():
            raise ValueError(f"{name} must be {requirement}, got {values[bad][0]:g}")


def _two_point(x: np.ndarray) -> np.ndarray:
    """Softmax of the logits (-x, x) on a new last axis; weights 1 and exp(-2|x|) cannot overflow."""
    with np.errstate(over="ignore"):
        small = np.exp(-2.0 * np.abs(x))
    pair = np.stack([small, np.ones_like(small)], axis=-1) / (1.0 + small)[..., None]
    return np.where(x[..., None] >= 0, pair, pair[..., ::-1])


def kernel_arrays(phi, psi, zeta, mu, tau):
    """The four transition maps at a batch of B points, as checked arrays.

    Takes parameter arrays that broadcast to shape (B,) and returns the
    world kernel (B,2,2,2), sensor map (B,2,2), policy (B,2,2) and prior (B,2).
    """
    params = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (phi, psi, zeta, mu, tau))
    phi, psi, zeta, mu, tau = np.broadcast_arrays(*params)
    w = SIGNS
    # two couplings may sum to an infinite logit, whose limit _two_point takes exactly
    with np.errstate(over="ignore"):
        world_logit = phi[:, None, None] * w[:, None] + psi[:, None, None] * w
    alpha = check_probs(_two_point(world_logit), "kernel")
    beta = check_probs(_two_point(zeta[:, None] * w), "kernel")
    pi = check_probs(_two_point(mu[:, None] * w), "kernel")
    p_w = check_probs(_two_point(tau), "distribution")
    return alpha, beta, pi, p_w


def world_joint_arrays(alpha, beta, pi, p_w) -> np.ndarray:
    """Exact single-step joints p(w, a, w') of a batch of loops, (B,2,2,2)."""
    sensor_to_action = check_probs(np.matmul(beta, pi), "kernel")  # p(a|w), the sensor summed out
    return compose_arrays(p_w, sensor_to_action, alpha)


def intrinsic_model_arrays(alpha, beta, pi, p_w):
    """Sensor-level models (p(s), p(a|s), p(s'|s,a)) of a batch of loops.

    The sensor-conditional world model marginalises the hidden state:
    p(s'|s,a) = sum_{w,w'} b(s'|w') a(w'|w,a) b(s|w) p(w) / p(s), which is
    exactly what a perfect estimator would converge to.
    """
    p_s = np.matmul(p_w[:, None, :], beta)[:, 0, :]
    raise_first(p_s == 0, "sensor symbol {index} has zero marginal probability")
    joint_rows = np.einsum("bw,bws,bwau,but->bsat", p_w, beta, alpha, beta)
    world = joint_rows / p_s[:, :, None, None]
    return check_probs(p_s, "distribution"), pi, check_probs(world, "kernel")


def _columns(phi, psi, mu, zeta: float, tau: float) -> dict[str, list[float]]:
    """The columns of the points (phi[i], psi[i], mu[i]) at one zeta and tau, in one array pass."""
    maps = kernel_arrays(phi, psi, zeta, mu, tau)
    joint = world_joint_arrays(*maps)
    values = {"mc_a": action_effect(joint), "mc_w": world_effect(joint)}
    values.update(intrinsic_values(*intrinsic_model_arrays(*maps)))
    return {"phi": phi.tolist(), "psi": psi.tolist(), "mu": mu.tolist(), **checked_columns(values)}


def point_measures(phi: float, psi: float, mu: float, zeta: float, tau: float) -> dict:
    """The row of the six swept measures at one point, evaluated exactly: a one-point sweep."""
    return next(sweep([phi], [psi], [mu], zeta, tau))


def sweep(
    phi_values=DEFAULT_GRID,
    psi_values=DEFAULT_GRID,
    mu_values=DEFAULT_MU_VALUES,
    zeta: float = STRICT,
    tau: float = 0.0,
) -> Iterator[dict[str, float]]:
    """Measure surfaces over a (phi, psi, mu) grid: the rows of :func:`sweep_columns`, in grid order."""
    return rows_of(sweep_columns(phi_values, psi_values, mu_values, zeta, tau))


def sweep_columns(phi_values, psi_values, mu_values, zeta: float, tau: float) -> Iterator[dict]:
    """The sweep's phi, psi, mu and six measures as lists, one dict of columns per chunk.

    The grid is checked whole up front.  Its points are then evaluated
    :data:`SWEEP_CHUNK` at a time in array passes, in grid order, their values
    range-checked as arrays.  A failing chunk's error names the first point,
    in grid order, that fails the first check to fail in its array pass;
    another point may fail a later check too.
    """
    axes = [np.array(tuple(values), dtype=np.float64) for values in (phi_values, psi_values, mu_values)]
    if not all(axis.size for axis in axes):
        raise ValueError("sweep grids must be non-empty")
    _check_params(axes[0], axes[1], zeta, axes[2], tau)
    return _sweep_chunks(axes, float(zeta), float(tau))


def _sweep_chunks(axes, zeta: float, tau: float) -> Iterator[dict]:
    shape = tuple(axis.size for axis in axes)
    total = int(np.prod(shape))
    for start in range(0, total, SWEEP_CHUNK):
        i, j, k = np.unravel_index(np.arange(start, min(start + SWEEP_CHUNK, total)), shape)
        phi, psi, mu = axes[0][i], axes[1][j], axes[2][k]
        try:
            columns = _columns(phi, psi, mu, zeta, tau)
        except ComputeError as exc:
            b = exc.batch
            exc.args = (f"phi={phi[b]:g}, psi={psi[b]:g}, mu={mu[b]:g}: {exc}", *exc.args[1:])
            raise
        yield columns
