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

from .measures import (
    ConsistencyError,
    MeasureReport,
    action_effect,
    intrinsic_values,
    world_effect,
)
from .prob import (
    InvalidDistributionError,
    SupportError,
    chain_arrays,
    check_probs,
    compose_arrays,
    raise_first,
)

SIGNS = np.array([-1.0, 1.0])

# Sweep defaults: surfaces over [0, 5] as plotted, with 20 standing in for
# "effectively deterministic" (the softmax is then within 5e-18 of a Dirac).
DEFAULT_GRID = tuple(np.linspace(0.0, 5.0, 51))
DEFAULT_MU_VALUES = (0.0, 1.0, 20.0)
STRICT = 20.0

# Grid points per array pass of a sweep.  A chunk of 1,024 holds about 2 MB
# of arrays and reports at a time and runs near the speed of one pass over
# all 7,803 points of the default grid, which would hold about 9 MB.
SWEEP_CHUNK = 1024

# What a grid point's evaluation raises on a degenerate loop.
POINT_ERRORS = (InvalidDistributionError, SupportError, ConsistencyError)


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


def _softmax_last(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def kernel_arrays(phi, psi, zeta, mu, tau):
    """The four transition maps at a batch of B points, as checked arrays.

    Takes parameter arrays that broadcast to shape (B,) and returns the
    world kernel (B,2,2,2), sensor map (B,2,2), policy (B,2,2) and prior (B,2).
    """
    params = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (phi, psi, zeta, mu, tau))
    phi, psi, zeta, mu, tau = np.broadcast_arrays(*params)
    w = SIGNS
    world_logits = (
        phi[:, None, None, None] * w * w[:, None, None]
        + psi[:, None, None, None] * w * w[:, None]
    )
    alpha = check_probs(_softmax_last(world_logits), "kernel")
    beta = check_probs(_softmax_last(zeta[:, None, None] * w * w[:, None]), "kernel")
    pi = check_probs(_softmax_last(mu[:, None, None] * w * w[:, None]), "kernel")
    p_w = check_probs(_softmax_last(tau[:, None] * w), "distribution")
    return alpha, beta, pi, p_w


def world_joint_arrays(alpha, beta, pi, p_w) -> np.ndarray:
    """Exact single-step joints p(w, a, w') of a batch of loops, (B,2,2,2)."""
    sensor_to_action = chain_arrays(beta, pi)  # p(a|w), the sensor summed out
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


def _reports(phi, psi, mu, zeta: float, tau: float) -> list[MeasureReport]:
    """Reports for the points (phi[i], psi[i], mu[i]) at one zeta and tau, in one array pass."""
    maps = kernel_arrays(phi, psi, zeta, mu, tau)
    joint = world_joint_arrays(*maps)
    values = {"mc_a": action_effect(joint), "mc_w": world_effect(joint)}
    values.update(intrinsic_values(*intrinsic_model_arrays(*maps)))
    columns = {name: value.tolist() for name, value in values.items()}
    return [
        MeasureReport(
            {name: column[i] for name, column in columns.items()},
            metadata={"phi": p, "psi": s, "mu": m, "zeta": zeta, "tau": tau},
        )
        for i, (p, s, m) in enumerate(zip(phi.tolist(), psi.tolist(), mu.tolist()))
    ]


def point_measures(phi: float, psi: float, mu: float, zeta: float, tau: float) -> MeasureReport:
    """All six swept measures at one parameter point, evaluated exactly."""
    _check_params(phi, psi, zeta, mu, tau)
    phi, psi, mu = (np.array([v], dtype=np.float64) for v in (phi, psi, mu))
    return _reports(phi, psi, mu, float(zeta), float(tau))[0]


def _raise_first_failure(phi, psi, mu, zeta: float, tau: float) -> None:
    """Evaluate the points one at a time; the first that fails raises, named."""
    for p, s, m in zip(phi.tolist(), psi.tolist(), mu.tolist()):
        try:
            point_measures(p, s, m, zeta, tau)
        except POINT_ERRORS as exc:
            exc.args = (f"phi={p:g}, psi={s:g}, mu={m:g}: {exc}", *exc.args[1:])
            raise


def sweep(
    phi_values=DEFAULT_GRID,
    psi_values=DEFAULT_GRID,
    mu_values=DEFAULT_MU_VALUES,
    zeta: float = STRICT,
    tau: float = 0.0,
) -> Iterator[MeasureReport]:
    """Measure surfaces over a (phi, psi, mu) grid, rows in grid order.

    The grid is checked whole up front.  Its points are then evaluated
    :data:`SWEEP_CHUNK` at a time in array passes, and the reports are
    yielded chunk by chunk.  A failing chunk's error names its first
    failing point.
    """
    axes = [np.array(tuple(values), dtype=np.float64) for values in (phi_values, psi_values, mu_values)]
    if not all(axis.size for axis in axes):
        raise ValueError("sweep grids must be non-empty")
    _check_params(axes[0], axes[1], zeta, axes[2], tau)
    return _sweep_chunks(axes, float(zeta), float(tau))


def _sweep_chunks(axes, zeta: float, tau: float) -> Iterator[MeasureReport]:
    shape = tuple(axis.size for axis in axes)
    total = int(np.prod(shape))
    for start in range(0, total, SWEEP_CHUNK):
        i, j, k = np.unravel_index(np.arange(start, min(start + SWEEP_CHUNK, total)), shape)
        phi, psi, mu = axes[0][i], axes[1][j], axes[2][k]
        try:
            reports = _reports(phi, psi, mu, zeta, tau)
        except POINT_ERRORS:
            _raise_first_failure(phi, psi, mu, zeta, tau)
            raise
        yield from reports
