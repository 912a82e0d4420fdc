"""Metamorphic relations of the intrinsic measures, which hold by their definitions.

Each relation compares the measures of two models (or two recordings) that
must give the same values, so it needs no stored number and catches a
fault that a formula and its brute-force twin would share: a label-order
dependence, a wrong alphabet-size normaliser, a mis-strided count table.
Models are drawn in batches, with zeros in the policy and world rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morphocomp.estimation import count_transitions, estimate_arrays
from morphocomp.measures import INTRINSIC_MEASURES, intrinsic_values
from morphocomp.prob import check_probs

TOL = 1e-12
BATCH = 8  # models measured together in one draw

SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(2, 5)


def sparse_rows(rng, shape):
    """Random probability rows over the last axis, about a third of the entries zero."""
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    kept = rng.random(shape) < 0.7
    # one entry of each row always stays
    np.put_along_axis(kept, rng.integers(shape[-1], size=(*shape[:-1], 1)), True, axis=-1)
    rows *= kept
    return check_probs(rows / rows.sum(axis=-1, keepdims=True), "kernel")


def drawn_models(rng, n_s, n_a):
    """A batch of checked models: prior (B,S), policy (B,S,A) and world model (B,S,A,S)."""
    prior = check_probs(rng.dirichlet(np.ones(n_s), size=BATCH), "distribution")
    return prior, sparse_rows(rng, (BATCH, n_s, n_a)), sparse_rows(rng, (BATCH, n_s, n_a, n_s))


def assert_same_measures(model, other):
    values, others = intrinsic_values(*model), intrinsic_values(*other)
    for name in INTRINSIC_MEASURES:
        np.testing.assert_allclose(others[name], values[name], rtol=0, atol=TOL, err_msg=name)


@settings(max_examples=300, deadline=None)
@given(SEEDS, SIZES, SIZES)
def test_relabelling_sensors_and_actions(seed, n_s, n_a):
    rng = np.random.default_rng(seed)
    prior, policy, world = drawn_models(rng, n_s, n_a)
    s, a = rng.permutation(n_s), rng.permutation(n_a)
    relabelled = (
        prior[:, s],
        policy[:, s][:, :, a],
        world[:, s][:, :, a][:, :, :, s],
    )
    assert_same_measures((prior, policy, world), relabelled)


@settings(max_examples=300, deadline=None)
@given(SEEDS, SIZES, SIZES)
def test_action_with_zero_policy_mass(seed, n_s, n_a):
    rng = np.random.default_rng(seed)
    prior, policy, world = drawn_models(rng, n_s, n_a)
    at = rng.integers(n_a + 1)
    # the unused action's world rows may be any distribution
    extended = (
        prior,
        np.insert(policy, at, 0.0, axis=2),
        np.insert(world, at, sparse_rows(rng, (BATCH, n_s, n_s)), axis=2),
    )
    assert_same_measures((prior, policy, world), extended)


@settings(max_examples=300, deadline=None)
@given(SEEDS, SIZES, SIZES, st.integers(1, 300))
def test_permuting_a_series_symbols(seed, n_s, n_a, steps):
    rng = np.random.default_rng(seed)
    sensors = rng.choice(n_s, size=steps + 1, p=rng.dirichlet(np.ones(n_s)))
    actions = rng.choice(n_a, size=steps, p=rng.dirichlet(np.ones(n_a)))
    s, a = rng.permutation(n_s), rng.permutation(n_a)
    counts = count_transitions(sensors, actions, n_s, n_a)
    permuted = count_transitions(s[sensors], a[actions], n_s, n_a)
    # symbol i is renamed s[i] (or a[i]), so count (i, j, k) moves to (s[i], a[j], s[k])
    np.testing.assert_array_equal(permuted[np.ix_(s, a, s)], counts)
    assert_same_measures(estimate_arrays(counts), estimate_arrays(permuted))


@settings(max_examples=300, deadline=None)
@given(SEEDS, SIZES, SIZES)
def test_c_w_at_most_asoc_w(seed, n_s, n_a):
    # p(s'|s) and the severed ptilde(s'|s) are p(a|s)-mixtures of p(s'|s,a) and
    # p(s'|a), so joint convexity of relative entropy bounds c_w by asoc_w
    values = intrinsic_values(*drawn_models(np.random.default_rng(seed), n_s, n_a))
    assert np.all(values["c_w"] <= values["asoc_w"] + TOL)


def test_drawn_models_have_zeros_in_their_rows():
    _, policy, world = drawn_models(np.random.default_rng(0), 4, 3)
    assert (policy == 0).any() and (world == 0).any()
