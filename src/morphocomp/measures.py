"""Quantifications of morphological computation on a sensorimotor loop.

Two families are implemented, each normalised to [0, 1] with 0 meaning the
controller fully accounts for the behaviour and 1 meaning the body and
environment do.

Concept 1 (inverse to the action's influence on the next state):
  * ``mc_a``    on world-level joints p(w, a, w')
  * ``asoc_a``  on sensor-level joints p(s, a, s')
  * ``c_a``     interventional variant for reactive policies
  * ``c_a_deliberative``  interventional variant conditioning on an
    internal controller state instead of the sensor

Concept 2 (proportional to the world's influence on itself):
  * ``mc_w``    on world-level joints
  * ``asoc_w``  on sensor-level joints
  * ``c_w``     divergence from a world model with the state-to-state
    influence severed

World-level and sensor-level entry points are deliberately distinct even
though the arithmetic coincides: empirical callers never see the true world
state and must not conflate the two readings.

Each measure has one implementation, an array core on stacks of checked
tables with a leading batch axis: joints (B,X,Y,Z), or models given as
prior p(s) (B,S), policy p(a|s) (B,S,A) and world model p(s'|s,a)
(B,S,A,S).  A batch of models, such as the points of a binary sweep, is
measured in one pass.  The functions on validated objects (``mc_a`` ...
``c_w``, ``intrinsic_measures``) call the core with a batch of one.  The
sweeps and the CLI report through ``checked_columns``, one range check per array.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .prob import (
    ComputeError,
    DimensionError,
    Distribution,
    Joint3,
    Kernel2,
    Kernel3,
    check_probs,
    cmi_arrays,
    cmi_shared,
    compose_arrays,
    log_ratio_sum,
    log_size,
    raise_first,
)

# Values may stray this far outside [0, 1] from float accumulation before
# `checked_columns` treats them as evidence of a bug.
RANGE_TOL = 1e-9

# The two forms of c_a are algebraically identical; a larger gap signals an
# implementation or estimation fault.
DUAL_FORM_TOL = 1e-9


class ConsistencyError(ComputeError, RuntimeError):
    """Two quantities that must agree by construction do not."""


@dataclass(frozen=True, eq=False)
class IntrinsicModel:
    """Everything an agent can estimate about its own loop.

    sensor_prior p(s), policy p(a|s) and world_model p(s'|s,a), with the
    next-sensor alphabet equal to the current-sensor alphabet.
    """

    sensor_prior: Distribution
    policy: Kernel2  # sensor -> action
    world_model: Kernel3  # (sensor, action) -> next sensor

    def __post_init__(self):
        s = self.sensor_prior.alphabet
        if self.policy.source != s or self.world_model.source1 != s:
            raise DimensionError("policy/world model must condition on the sensor alphabet")
        if self.world_model.source2 != self.policy.target:
            raise DimensionError("world model action alphabet differs from policy output")
        if self.world_model.target != s:
            raise DimensionError("world model must map back into the sensor alphabet")

    @property
    def sensor_alphabet(self):
        return self.sensor_prior.alphabet

    @property
    def action_alphabet(self):
        return self.policy.target


def checked_columns(values: dict[str, np.ndarray]) -> dict[str, list[float]]:
    """Named value arrays with a leading batch axis as lists, checked in the order given.

    A NaN, or a value more than :data:`RANGE_TOL` outside [0, 1], raises
    ConsistencyError with `batch` set to its row; any other value is clamped
    as min(max(v, 0.0), 1.0) clamps it, so a -0.0 stays -0.0.
    """
    columns = {}
    for name, value in values.items():
        bad = ~((value >= -RANGE_TOL) & (value <= 1.0 + RANGE_TOL))
        if bad.any():
            b = int(np.argmax(bad))
            raise ConsistencyError(
                f"measure {name} = {float(value[b])!r} is outside [0, 1] beyond tolerance",
                batch=b,
            )
        columns[name] = np.where(value < 0.0, 0.0, np.where(value > 1.0, 1.0, value)).tolist()
    return columns


def rows_of(chunks: Iterable[dict[str, list]]) -> Iterator[dict]:
    """The rows of chunks of equal-length named columns, each a dict in column order."""
    return (dict(zip(chunk, row)) for chunk in chunks for row in zip(*chunk.values()))


def _square_log_size(P: np.ndarray) -> float:
    if P.shape[1] != P.shape[3]:
        raise DimensionError(
            "current-state and next-state axes must share one alphabet"
        )
    return log_size(P.shape[3])


def action_effect(P: np.ndarray, shared=None) -> np.ndarray:
    """1 - I(Z; Y | X) / ln|Z| for stacked joints P of shape (B,X,Y,Z).

    The first concept (the action's missing effect) behind :func:`mc_a` and
    :func:`asoc_a`, one value per joint; `shared` as in :func:`cmi_arrays`.
    """
    return 1.0 - cmi_arrays(P, 0, shared) / _square_log_size(P)


def world_effect(P: np.ndarray, shared=None) -> np.ndarray:
    """I(Z; X | Y) / ln|Z| for stacked joints P of shape (B,X,Y,Z).

    The second concept (the world's own effect) behind :func:`mc_w` and
    :func:`asoc_w`, one value per joint; `shared` as in :func:`cmi_arrays`.
    """
    return cmi_arrays(P, 1, shared) / _square_log_size(P)


def mc_a(joint: Joint3) -> float:
    """Morphological computation as the missing action effect, world level.

    1 - I(W'; A | W) / ln|W| on a joint p(w, a, w').
    """
    return float(action_effect(joint.probs[None])[0])


def mc_w(joint: Joint3) -> float:
    """Morphological computation as the world's own effect, world level.

    I(W'; W | A) / ln|W| on a joint p(w, a, w').
    """
    return float(world_effect(joint.probs[None])[0])


def asoc_a(joint: Joint3) -> float:
    """Sensor-level reading of :func:`mc_a` on a joint p(s, a, s')."""
    return float(action_effect(joint.probs[None])[0])


def asoc_w(joint: Joint3) -> float:
    """Sensor-level reading of :func:`mc_w` on a joint p(s, a, s')."""
    return float(world_effect(joint.probs[None])[0])


def _do_a(prior: np.ndarray, world: np.ndarray) -> np.ndarray:
    return check_probs(np.einsum("bs,bsat->bat", prior, world), "kernel")


def _do_s(policy: np.ndarray, rows_a: np.ndarray) -> np.ndarray:
    return check_probs(np.matmul(policy, rows_a), "kernel")


def _action_prior(prior: np.ndarray, policy: np.ndarray) -> np.ndarray:
    return check_probs(np.matmul(prior[:, None, :], policy)[:, 0, :], "distribution")


def _cif(K: np.ndarray, prior: np.ndarray) -> np.ndarray:
    weights = prior[:, :, None] * K
    mixture = np.matmul(prior[:, None, :], K)
    value = log_ratio_sum(weights, K, mixture, weights > 0, axis=(1, 2))
    return np.where(value > 0.0, value, 0.0)


def _model_arrays(model: IntrinsicModel):
    return (
        model.sensor_prior.probs[None],
        model.policy.rows[None],
        model.world_model.entries[None],
    )


def do_a(model: IntrinsicModel) -> Kernel2:
    """Interventional kernel p(s'|do(a)) = sum_s p(s'|s,a) p(s).

    Identifiable from observational data because the action screens off the
    sensor on the path into the next sensor state.
    """
    prior, _, world = _model_arrays(model)
    return Kernel2(model.action_alphabet, model.sensor_alphabet, _do_a(prior, world)[0])


def do_s(model: IntrinsicModel) -> Kernel2:
    """Interventional kernel p(s'|do(s)) = sum_a p(a|s) p(s'|do(a))."""
    prior, policy, world = _model_arrays(model)
    rows = _do_s(policy, _do_a(prior, world))[0]
    return Kernel2(model.sensor_alphabet, model.sensor_alphabet, rows)


def action_prior(model: IntrinsicModel) -> Distribution:
    """Marginal action distribution p(a) = sum_s p(s) p(a|s)."""
    prior, policy, _ = _model_arrays(model)
    return Distribution(model.action_alphabet, _action_prior(prior, policy)[0])


def cif(kernel: Kernel2, prior: Distribution) -> float:
    """Causal information flow from the intervened variable into the target.

    sum_x p(x) sum_z k(z|x) ln[ k(z|x) / sum_x' p(x') k(z|x') ], the mutual
    information of the post-intervention joint p(x) k(z|x).
    """
    if kernel.source != prior.alphabet:
        raise DimensionError("cif prior must range over the kernel's source alphabet")
    return float(_cif(kernel.rows[None], prior.probs[None])[0])


def _c_a(prior: np.ndarray, policy: np.ndarray, world: np.ndarray) -> np.ndarray:
    log_n = log_size(prior.shape[1])
    rows_a = _do_a(prior, world)
    rows_s = _do_s(policy, rows_a)
    p_a = _action_prior(prior, policy)

    flow_form = 1.0 + (_cif(rows_s, prior) - _cif(rows_a, p_a)) / log_n

    weights = prior[:, :, None] * policy  # p(s, a)
    div = _interventional_divergence(weights, rows_a, rows_s)
    kl_form = 1.0 - div / log_n

    disagree = np.abs(flow_form - kl_form) > DUAL_FORM_TOL
    if disagree.any():
        b = int(np.argmax(disagree))
        raise ConsistencyError(
            f"causal-measure forms disagree: flow {float(flow_form[b])!r} "
            f"vs kl {float(kl_form[b])!r}",
            batch=b,
        )
    return kl_form


def c_a(model: IntrinsicModel) -> float:
    """Causal measure of the missing action effect for a reactive policy.

    Evaluates both equivalent forms,
      1 + (CIF(S -> S') - CIF(A -> S')) / ln|S|   and
      1 - D(p(s'|do(a)) || p(s'|do(s))) / ln|S|  weighted by p(s,a),
    checks that they agree to :data:`DUAL_FORM_TOL` and returns the value.
    """
    return float(_c_a(*_model_arrays(model))[0])


def _interventional_divergence(
    weights: np.ndarray, rows_a: np.ndarray, rows_c: np.ndarray
) -> np.ndarray:
    """sum_{c,a} w(c,a) sum_z rows_a(z|a) ln[ rows_a(z|a) / rows_c(z|c) ].

    weights has shape (B, C, A); rows_a (B, A, Z); rows_c (B, C, Z).
    """
    p = rows_a[:, None, :, :]
    q = rows_c[:, :, None, :]
    active = (weights[:, :, :, None] > 0) & (p > 0)
    raise_first(
        active & (q == 0),
        "intervened-on-state kernel has zero mass where the action kernel "
        "is positive at (c, a, z) = {index}",
    )
    inner = log_ratio_sum(p, p, q, active, axis=3)
    return np.sum(weights * inner, axis=(1, 2))


def c_a_deliberative(
    controller_prior: Distribution,
    controller_policy: Kernel2,
    do_c_kernel: Kernel2,
    do_a_kernel: Kernel2,
) -> float:
    """Causal measure of the missing action effect for a non-reactive agent.

    The internal controller state takes the sensor's role:
    1 - (1/ln|S|) sum_{c,a} p(c,a) sum_s' p(s'|do(a)) ln[p(s'|do(a))/p(s'|do(c))],
    with p(c,a) = p(c) p(a|c).
    """
    if controller_policy.source != controller_prior.alphabet:
        raise DimensionError("controller policy must condition on the controller alphabet")
    if do_c_kernel.source != controller_prior.alphabet:
        raise DimensionError("do(c) kernel must range over the controller alphabet")
    if do_a_kernel.source != controller_policy.target:
        raise DimensionError("do(a) kernel must range over the action alphabet")
    if do_c_kernel.target != do_a_kernel.target:
        raise DimensionError("both interventional kernels must share the target alphabet")

    joint_ca = controller_prior.probs[:, None] * controller_policy.rows
    log_n = log_size(do_a_kernel.target.size)
    div = _interventional_divergence(
        joint_ca[None], do_a_kernel.rows[None], do_c_kernel.rows[None]
    )
    return float(1.0 - div[0] / log_n)


def _c_w(prior: np.ndarray, policy: np.ndarray, world: np.ndarray) -> np.ndarray:
    log_n = log_size(prior.shape[1])
    p_next_given_s = np.einsum("bsa,bsat->bst", policy, world)
    p_a = np.matmul(prior[:, None, :], policy)[:, 0, :]
    raise_first(
        (p_a == 0) & (policy.max(axis=1) > 0),
        "action {index} has policy mass but zero marginal probability",
    )
    numer = np.einsum("bsat,bsa,bs->bat", world, policy, prior)
    p_next_given_a = np.divide(
        numer, p_a[:, :, None], out=np.zeros_like(numer), where=p_a[:, :, None] > 0
    )
    severed = np.matmul(policy, p_next_given_a)  # ptilde(s'|s)

    row_dev = np.abs(severed.sum(axis=2) - 1.0)
    if (row_dev > RANGE_TOL).any():
        b = int(np.argmax((row_dev > RANGE_TOL).any(axis=1)))
        raise ConsistencyError(
            f"severed world model rows sum to 1 +/- {row_dev[b].max():.3e}",
            batch=b,
        )

    weights = prior[:, :, None] * p_next_given_s
    active = weights > 0
    raise_first(
        active & (severed == 0),
        "severed world model has zero mass on an observed transition (s, s') = {index}",
    )
    value = log_ratio_sum(weights, p_next_given_s, severed, active, axis=(1, 2))
    # unlike the clamp of _cif and cmi_arrays, this one keeps a -0.0 sum
    return np.where(0.0 > value, 0.0, value) / log_n


def c_w(model: IntrinsicModel) -> float:
    """Morphological computation as conditional dependence of the world on itself.

    Compares the predicted next-sensor conditional p(s'|s) against the same
    quantity recomputed under the assumption that the world state has no
    direct influence on its successor,
      ptilde(s'|s) = sum_a p(a|s) sum_s'' p(s'|s'',a) p(a|s'') p(s'') / p(a),
    and returns D(p(s'|s) || ptilde(s'|s)) / ln|S| under the prior p(s).
    """
    return float(_c_w(*_model_arrays(model))[0])


INTRINSIC_MEASURES = ("asoc_a", "asoc_w", "c_a", "c_w")


def _sensor_effects(prior, policy, world, names) -> dict[str, np.ndarray]:
    """Those of asoc_a and asoc_w in `names`, from one joint whose p(x,y) and support they share.

    The joint is let go on return, before the interventional measures run.
    """
    joint = compose_arrays(prior, policy, world)
    shared = cmi_shared(joint)
    effects = {"asoc_a": action_effect, "asoc_w": world_effect}
    return {name: effect(joint, shared) for name, effect in effects.items() if name in names}


def intrinsic_values(
    prior: np.ndarray, policy: np.ndarray, world: np.ndarray, names=INTRINSIC_MEASURES
) -> dict[str, np.ndarray]:
    """A named subset of the intrinsic measures on stacked models, one value per model.

    prior (B,S), policy (B,S,A) and world (B,S,A,S) must already be checked
    probability tables (see :func:`check_probs`).
    """
    values: dict[str, np.ndarray] = {}
    sensor_effects = None
    for name in names:
        if name in ("asoc_a", "asoc_w"):
            if sensor_effects is None:
                sensor_effects = _sensor_effects(prior, policy, world, names)
            values[name] = sensor_effects[name]
        elif name == "c_a":
            values[name] = _c_a(prior, policy, world)
        elif name == "c_w":
            values[name] = _c_w(prior, policy, world)
        else:
            raise ValueError(f"{name!r} is not an intrinsic measure")
    return values


def intrinsic_measures(
    model: IntrinsicModel, names=INTRINSIC_MEASURES
) -> dict[str, float]:
    """Evaluate a named subset of the intrinsic measures on one model."""
    values = intrinsic_values(*_model_arrays(model), names)
    return {name: float(value[0]) for name, value in values.items()}
