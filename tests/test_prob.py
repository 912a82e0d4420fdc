import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distribution, random_joint
from morphocomp import prob
from morphocomp.prob import (
    Alphabet,
    ComputeError,
    DimensionError,
    Distribution,
    InvalidDistributionError,
    Joint3,
    Kernel2,
    Kernel3,
    SupportError,
    check_probs,
    compose_joint,
    conditional_mutual_information,
    kl,
    log_ratio_sum,
    raise_first,
)

B = Alphabet(2)


def binary_loop_tables(phi, psi, zeta, mu, tau):
    """Two-point softmax tables written out directly, as an independent oracle."""
    w = np.array([-1.0, 1.0])
    alpha = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            e = np.exp(phi * w * w[i] + psi * w * w[j])
            alpha[i, j] = e / e.sum()
    beta = np.empty((2, 2))
    pi = np.empty((2, 2))
    for i in range(2):
        e = np.exp(zeta * w * w[i])
        beta[i] = e / e.sum()
        e = np.exp(mu * w * w[i])
        pi[i] = e / e.sum()
    e = np.exp(tau * w)
    return alpha, beta, pi, e / e.sum()


class TestConstructors:
    def test_alphabet_rejects_size_zero(self):
        with pytest.raises(DimensionError):
            Alphabet(0)

    @pytest.mark.parametrize("size", [2.5, 3.0, np.float64(3.0), "3"])
    def test_alphabet_size_must_be_an_integer(self, size):
        with pytest.raises(DimensionError, match="alphabet size must be an integer"):
            Alphabet(size)

    def test_alphabet_takes_numpy_integers(self):
        assert Alphabet(np.int64(3)) == Alphabet(3)

    def test_distribution_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            Distribution(B, [1.1, -0.1])

    def test_distribution_rejects_nan(self):
        with pytest.raises(InvalidDistributionError):
            Distribution(B, [np.nan, 1.0])

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            Distribution(B, [0.5, 0.5 + 2e-9])

    def test_distribution_renormalizes_small_drift(self):
        d = Distribution(B, [0.5, 0.5 + 5e-10])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_distribution_keeps_tiny_drift_untouched(self):
        values = np.array([0.5, 0.5 + 5e-13])
        d = Distribution(B, values)
        np.testing.assert_array_equal(d.probs, values)

    def test_distribution_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Distribution(Alphabet(3), [0.5, 0.5])

    def test_kernel_rows_validated(self):
        with pytest.raises(InvalidDistributionError):
            Kernel2(B, B, [[0.5, 0.5], [0.9, 0.2]])

    def test_joint_global_sum_validated(self):
        with pytest.raises(InvalidDistributionError):
            Joint3(B, B, B, np.full((2, 2, 2), 0.2))

    def test_arrays_are_immutable(self):
        d = Distribution(B, np.full(2, 0.5))
        with pytest.raises(ValueError):
            d.probs[0] = 0.3


class TestComposeAndMarginal:
    def test_uniform_everything_gives_uniform_joint(self):
        joint = compose_joint(
            Distribution(B, np.full(2, 0.5)),
            Kernel2(B, B, np.full((2, 2), 0.5)),
            Kernel3(B, B, B, np.full((2, 2, 2), 0.5)),
        )
        np.testing.assert_allclose(joint.probs, 1 / 8)

    def test_point_prior_restricts_support(self, rng):
        prior = Distribution(B, [0.0, 1.0])
        policy = Kernel2(B, B, rng.dirichlet(np.ones(2), size=2))
        kernel = Kernel3(B, B, B, rng.dirichlet(np.ones(2), size=(2, 2)))
        joint = compose_joint(prior, policy, kernel)
        np.testing.assert_array_equal(joint.probs[0], 0.0)

    def test_marginal_recovers_prior(self, rng):
        prior = random_distribution(rng, Alphabet(3))
        policy = Kernel2(Alphabet(3), B, rng.dirichlet(np.ones(2), size=3))
        kernel = Kernel3(Alphabet(3), B, B, rng.dirichlet(np.ones(2), size=(3, 2)))
        joint = compose_joint(prior, policy, kernel)
        np.testing.assert_allclose(joint.probs.sum(axis=(1, 2)), prior.probs, atol=1e-15)

    def test_joint_bits_equal_compose_arrays(self, rng):
        prior = random_distribution(rng, Alphabet(3))
        policy = Kernel2(Alphabet(3), B, rng.dirichlet(np.ones(2), size=3))
        kernel = Kernel3(Alphabet(3), B, Alphabet(4), rng.dirichlet(np.ones(4), size=(3, 2)))
        joint = compose_joint(prior, policy, kernel)
        stacked = prob.compose_arrays(prior.probs[None], policy.rows[None], kernel.entries[None])
        assert joint.probs.tobytes() == stacked[0].tobytes()

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionError):
            compose_joint(
                Distribution(Alphabet(3), np.full(3, 1 / 3)),
                Kernel2(B, B, np.full((2, 2), 0.5)),
                Kernel3(B, B, B, np.full((2, 2, 2), 0.5)),
            )

    def test_kernel_alphabet_mismatch(self):
        with pytest.raises(DimensionError, match="kernel conditioning alphabets differ") as caught:
            compose_joint(
                Distribution(B, np.full(2, 0.5)),
                Kernel2(B, B, np.full((2, 2), 0.5)),
                Kernel3(Alphabet(3), B, B, np.full((3, 2, 2), 0.5)),
            )
        assert isinstance(caught.value, ValueError)


class TestCondition:
    """Conditionals read off a composed joint by summing `joint.probs`."""

    def test_binary_loop_action_drive(self):
        # with only the action coupling switched on the next state copies the action
        alpha, beta, pi, p_w = binary_loop_tables(0.0, 5.0, 20.0, 0.0, 0.0)
        joint = compose_joint(
            Distribution(B, p_w),
            Kernel2(B, B, beta @ pi),
            Kernel3(B, B, B, alpha),
        )
        p_yz = joint.probs.sum(axis=0)
        np.testing.assert_allclose(p_yz / p_yz.sum(axis=1, keepdims=True), np.eye(2), atol=1e-4)


class TestKl:
    def test_identical_is_exactly_zero(self):
        p = Distribution(B, [0.3, 0.7])
        assert kl(p, p) == 0.0

    def test_single_term_value(self):
        p = Distribution(B, [1.0, 0.0])
        q = Distribution(B, [0.5, 0.5])
        assert kl(p, q) == pytest.approx(math.log(2), abs=1e-15)

    def test_support_violation_carries_index(self):
        p = Distribution(B, [0.5, 0.5])
        q = Distribution(B, [1.0, 0.0])
        with pytest.raises(SupportError) as exc_info:
            kl(p, q)
        assert exc_info.value.index == 1

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionError):
            kl(Distribution(B, np.full(2, 0.5)), Distribution(Alphabet(3), np.full(3, 1 / 3)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_non_negative_on_random_pairs(self, seed, size):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet(size)
        p = random_distribution(rng, alphabet)
        q = random_distribution(rng, alphabet)
        assert kl(p, q) >= 0.0


class TestLogRatioSum:
    def test_skips_entries_outside_where(self):
        weights = np.array([[0.5, 0.5, 0.0]])
        num = np.array([[0.5, 0.5, 0.0]])
        den = np.array([[0.25, 0.75, 0.0]])
        value = log_ratio_sum(weights, num, den, weights > 0, axis=1)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(expected, abs=1e-15)

    def test_operands_broadcast(self):
        rows = np.array([[[0.2, 0.8], [0.6, 0.4]]])
        mixture = rows.mean(axis=1, keepdims=True)
        value = log_ratio_sum(rows, rows, mixture, rows > 0, axis=(1, 2))
        expected = sum(
            rows[0, x, z] * math.log(rows[0, x, z] / mixture[0, 0, z])
            for x in range(2)
            for z in range(2)
        )
        assert value[0] == pytest.approx(expected, abs=1e-15)

    def test_factors_give_the_bits_of_their_products(self):
        rng = np.random.default_rng(3)
        P = rng.dirichlet(np.ones(24)).reshape(1, 2, 3, 4)
        p_g = P.sum(axis=(2, 3))[:, :, None, None]
        p_xy = P.sum(axis=3)[:, :, :, None]
        p_gz = P.sum(axis=2)[:, :, None, :]
        factored = log_ratio_sum(P, (P, p_g), (p_xy, p_gz), P > 0, axis=(1, 2, 3))
        product = log_ratio_sum(P, P * p_g, p_xy * p_gz, P > 0, axis=(1, 2, 3))
        assert factored.tobytes() == product.tobytes()

    def test_table_whose_products_underflow_or_overflow_is_summed_from_factors(self):
        # table 0's products underflow to 0 / 0 and table 2's overflow to
        # inf / inf, though every factor and every ratio is a normal number
        scale = np.array([1e-200, 1.0, 1e200])[:, None]
        weights = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        num = (scale * [[1.0, 2.0]], scale * [[3.0, 1.0]])
        den = (scale * [[4.0, 1.0]], scale * [[1.0, 8.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = log_ratio_sum(weights, num, den, weights > 0, axis=1)
        ratios = np.array([3.0 / 4.0, 2.0 / 8.0])
        for table in (0, 2):
            expected = sum(w * math.log(r) for w, r in zip(weights[table], ratios) if w)
            assert value[table] == pytest.approx(expected, rel=1e-15)
        # the finite table keeps the bits of the product form
        with np.errstate(over="ignore"):
            products = num[0] * num[1], den[0] * den[1]
        assert value[1].tobytes() == log_ratio_sum(weights, *products, weights > 0, 1)[1].tobytes()

    def test_logarithm_taken_only_here(self):
        # every ratio site routes through log_ratio_sum, so an underflow
        # guard on the logarithm has exactly one place to live
        body = inspect.getsource(log_ratio_sum)
        assert body.count("np.log(") == 1
        sites = {
            path.name: path.read_text().count("np.log(")
            for path in sorted(Path(prob.__file__).parent.glob("*.py"))
        }
        sites["prob.py"] -= 1
        assert sites == dict.fromkeys(sites, 0)


class TestRaiseFirst:
    def test_clear_mask_does_not_raise(self):
        raise_first(np.zeros((2, 3), dtype=bool), "never {index}")

    def test_single_axis_index_is_an_int(self):
        mask = np.array([[False, False], [False, True]])
        with pytest.raises(SupportError, match=r"^at 1$") as exc_info:
            raise_first(mask, "at {index}")
        assert exc_info.value.index == 1

    def test_index_leaves_out_the_batch_axis(self):
        mask = np.zeros((3, 2, 4), dtype=bool)
        mask[2, 1, 3] = mask[2, 1, 0] = True
        with pytest.raises(SupportError, match=r"^at \(1, 0\)$") as exc_info:
            raise_first(mask, "at {index}")
        assert exc_info.value.index == (1, 0)

    def test_batch_names_the_table_at_fault(self):
        mask = np.zeros((4, 2, 3), dtype=bool)
        mask[2, 1, 2] = mask[2, 0, 1] = True
        with pytest.raises(SupportError, match=r"^at \(0, 1\)$") as exc_info:
            raise_first(mask, "at {index}")
        assert exc_info.value.batch == 2
        assert exc_info.value.index == (0, 1)

    def test_error_class_is_chosen_by_the_caller(self):
        with pytest.raises(InvalidDistributionError) as exc_info:
            raise_first(np.array([[False], [True]]), "bad", InvalidDistributionError)
        assert isinstance(exc_info.value, ComputeError)
        assert exc_info.value.batch == 1


class TestCheckProbsNamesTheTable:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "kernel contains non-finite entries"),
            (-0.5, "kernel contains negative entries"),
            (0.9, "kernel sums deviate from 1 by up to"),
        ],
        ids=["non-finite", "negative", "sum"],
    )
    def test_batch_is_the_faulty_table(self, bad, message):
        stack = np.full((4, 3, 2), 0.5)
        stack[2, 1, 0] = bad
        with pytest.raises(InvalidDistributionError, match=f"^{message}") as exc_info:
            check_probs(stack, "kernel")
        assert exc_info.value.batch == 2

    def test_whole_table_sum_names_its_table(self):
        stack = np.full((3, 2, 2), 0.25)
        stack[1] *= 1.1
        with pytest.raises(InvalidDistributionError) as exc_info:
            check_probs(stack, "joint", whole=True)
        assert exc_info.value.batch == 1

    def test_objects_report_a_batch_of_one(self):
        with pytest.raises(InvalidDistributionError) as exc_info:
            Distribution(B, [np.nan, 1.0])
        assert exc_info.value.batch == 0


class TestConditionalMutualInformation:
    def test_independent_target_gives_zero(self, rng):
        px = rng.dirichlet(np.ones(2))
        py = rng.dirichlet(np.ones(2))
        pz = rng.dirichlet(np.ones(2))
        joint = Joint3(B, B, B, px[:, None, None] * py[None, :, None] * pz[None, None, :])
        assert conditional_mutual_information(joint, given=0) == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_copy_gives_log2(self):
        # z copies y, x independent, everything uniform: brute-force over the
        # eight cells gives ln 2 exactly
        probs = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                probs[x, y, y] = 0.25
        joint = Joint3(B, B, B, probs)
        value = conditional_mutual_information(joint, given=0)
        assert value == pytest.approx(math.log(2), abs=1e-15)

    def test_fully_random_loop_gives_zero(self):
        alpha, beta, pi, p_w = binary_loop_tables(0.0, 0.0, 20.0, 0.0, 0.0)
        joint = compose_joint(
            Distribution(B, p_w), Kernel2(B, B, beta @ pi), Kernel3(B, B, B, alpha)
        )
        assert conditional_mutual_information(joint, given=0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_kl_expectation(self, rng):
        # definitional cross-check: I(Z;Y|X) as an expectation of row KLs
        for _ in range(40):
            joint = random_joint(rng, 3, 2, 3)
            direct = conditional_mutual_information(joint, given=0)
            p_xy = joint.probs.sum(axis=2)
            expectation = 0.0
            for x in range(3):
                p_x = joint.probs[x].sum()
                row_x = Distribution(joint.z, joint.probs[x].sum(axis=0) / p_x)
                for y in range(2):
                    if p_xy[x, y] == 0:
                        continue
                    row_xy = Distribution(joint.z, joint.probs[x, y] / p_xy[x, y])
                    expectation += p_xy[x, y] * kl(row_xy, row_x)
            assert direct == pytest.approx(expectation, abs=1e-12)

    def test_bounded_by_log_alphabet(self, rng):
        for _ in range(20):
            joint = random_joint(rng, 2, 3, 4)
            value = conditional_mutual_information(joint, given=1)
            assert 0.0 <= value <= math.log(4) + 1e-12

    def test_axis_validation(self, rng):
        joint = random_joint(rng, 2, 2, 2)
        with pytest.raises(ValueError):
            conditional_mutual_information(joint, given=2)


class TestChainAndRoundTrip:
    def test_compose_condition_recovers_policy(self, rng):
        # round trip: the policy can be read back off the joint wherever the
        # conditioning state has mass
        prior = random_distribution(rng, Alphabet(3))
        policy = Kernel2(Alphabet(3), B, rng.dirichlet(np.ones(2), size=3))
        kernel = Kernel3(Alphabet(3), B, Alphabet(3), rng.dirichlet(np.ones(3), size=(3, 2)))
        joint = compose_joint(prior, policy, kernel)
        p_xy = joint.probs.sum(axis=2)
        p_x = p_xy.sum(axis=1, keepdims=True)
        assert (p_x > 0).all()
        np.testing.assert_allclose(p_xy / p_x, policy.rows, atol=1e-12)
