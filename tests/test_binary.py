from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphocomp import binary
from morphocomp.binary import (
    intrinsic_model_arrays,
    kernel_arrays,
    point_measures,
    sweep,
    world_joint_arrays,
)
from morphocomp.measures import ConsistencyError, mc_a, mc_w
from morphocomp.prob import Alphabet, Joint3, SupportError

B = Alphabet(2)


def reference_tables(phi, psi, zeta, mu, tau):
    """Direct evaluation of the softmax maps, independent of the module."""
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


def point(phi, psi, zeta=binary.STRICT, mu=0.0, tau=0.0):
    """The four transition maps of one parameter point, as a batch of one."""
    return kernel_arrays(phi, psi, zeta, mu, tau)


class TestKernels:
    def test_all_zero_parameters_give_uniform_maps(self):
        alpha, beta, pi, p_w = point(0, 0, zeta=0, mu=0, tau=0)
        np.testing.assert_array_equal(alpha[0], 0.5)
        np.testing.assert_array_equal(beta[0], 0.5)
        np.testing.assert_array_equal(pi[0], 0.5)
        np.testing.assert_array_equal(p_w[0], 0.5)

    def test_sharp_policy_is_a_copy(self):
        _, _, pi, _ = point(0, 0, mu=20)
        np.testing.assert_allclose(pi[0], np.eye(2), atol=5e-18)

    def test_matches_reference_formulas(self):
        alpha, beta, pi, p_w = point(1.3, 0.4, zeta=2.0, mu=0.7, tau=0.2)
        ref_alpha, ref_beta, ref_pi, ref_pw = reference_tables(1.3, 0.4, 2.0, 0.7, 0.2)
        np.testing.assert_allclose(alpha[0], ref_alpha, atol=1e-15)
        np.testing.assert_allclose(beta[0], ref_beta, atol=1e-15)
        np.testing.assert_allclose(pi[0], ref_pi, atol=1e-15)
        np.testing.assert_allclose(p_w[0], ref_pw, atol=1e-15)

    def test_balanced_couplings_mix_copy_and_coin(self):
        # equal state and action couplings: the state is copied when it agrees
        # with the action, otherwise the next state is a fair coin
        alpha = point(5, 5)[0][0]
        for i in range(2):
            np.testing.assert_allclose(alpha[i, i], np.eye(2)[i], atol=1e-8)
            np.testing.assert_array_equal(alpha[i, 1 - i], 0.5)

    def test_large_parameters_do_not_overflow(self):
        alpha = point(800, 0)[0][0]
        assert np.isfinite(alpha).all()
        np.testing.assert_allclose(alpha[1, 0], [0.0, 1.0], atol=1e-300)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            point_measures(-1.0, 0.0, 0.0, binary.STRICT, 0.0)


class TestWorldJoint:
    def test_fully_random_loop_is_uniform(self):
        joint = world_joint_arrays(*point(0, 0, zeta=0, mu=0, tau=0))[0]
        np.testing.assert_allclose(joint, 1 / 8, atol=1e-15)

    def test_state_coupling_makes_diagonal_marginal(self):
        # evaluated from the reference tables: with only the state coupling,
        # p(w, w') concentrates on the diagonal at one half each
        joint = world_joint_arrays(*point(5, 0))[0]
        marginal_ww = joint.sum(axis=1)
        ref_alpha, ref_beta, ref_pi, ref_pw = reference_tables(5, 0, 20, 0, 0)
        expected = np.einsum(
            "w,wa,wau->wu", ref_pw, ref_beta @ ref_pi, ref_alpha
        )
        np.testing.assert_allclose(marginal_ww, expected, atol=1e-15)
        np.testing.assert_allclose(np.diag(marginal_ww), [0.5, 0.5], atol=1e-4)

    def test_strong_bias_concentrates_on_one_state(self):
        joint = world_joint_arrays(*point(1, 1, tau=20))[0]
        assert joint[0].sum() == pytest.approx(0.0, abs=1e-17)
        assert joint[1].sum() == pytest.approx(1.0, abs=1e-15)


class TestIntrinsicModel:
    def test_sharp_sensor_reproduces_world_kernel(self):
        maps = point(2.0, 1.0)
        prior, _, world = intrinsic_model_arrays(*maps)
        np.testing.assert_allclose(prior[0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(world[0], maps[0][0], atol=1e-8)

    def test_blind_sensor_removes_state_information(self):
        _, _, world = intrinsic_model_arrays(*point(3.0, 1.0, zeta=0.0))
        np.testing.assert_allclose(world[0, 0], world[0, 1], atol=1e-15)

    def test_action_coupling_copies_action(self):
        _, _, world = intrinsic_model_arrays(*point(0.0, 5.0))
        for a in range(2):
            np.testing.assert_allclose(
                world[0, :, a, :], np.tile(np.eye(2)[a], (2, 1)), atol=1e-4
            )

    def test_rows_normalised_for_generic_parameters(self):
        _, _, world = intrinsic_model_arrays(*point(1.7, 0.3, zeta=1.1, mu=0.9, tau=0.4))
        np.testing.assert_allclose(world[0].sum(axis=2), 1.0, atol=1e-12)

    def test_degenerate_sensor_marginal_rejected(self):
        with pytest.raises(SupportError):
            intrinsic_model_arrays(*point(1, 1, zeta=800, tau=800))


class TestMeasureSurfaces:
    def test_four_parameter_corners(self):
        maximal = point_measures(20, 0, 0.0, 20.0, 0.0)
        assert maximal["mc_a"] >= 0.999 and maximal["mc_w"] >= 0.999
        minimal = point_measures(0, 20, 0.0, 20.0, 0.0)
        assert minimal["mc_a"] <= 0.001 and minimal["mc_w"] <= 0.001
        split = point_measures(0, 0, 0.0, 20.0, 0.0)
        assert split["mc_a"] == pytest.approx(1.0, abs=1e-12)
        assert split["mc_w"] == pytest.approx(0.0, abs=1e-12)
        mixed = point_measures(20, 20, 0.0, 20.0, 0.0)
        assert mixed["mc_a"] < 1 - 1e-3 and mixed["mc_w"] > 1e-3

    def test_sharp_policy_splits_concepts(self):
        for phi, psi in [(0, 0), (5, 0), (0, 5), (5, 5), (2, 3)]:
            report = point_measures(phi, psi, 20.0, 20.0, 0.0)
            assert report["mc_a"] >= 0.999
            assert report["mc_w"] <= 0.001

    def test_intrinsic_tracks_world_level_with_sharp_sensor(self):
        for phi in np.linspace(0, 5, 5):
            for psi in np.linspace(0, 5, 5):
                for mu in (0.0, 2.5, 5.0):
                    report = point_measures(float(phi), float(psi), float(mu), 20.0, 0.0)
                    assert abs(report["asoc_a"] - report["mc_a"]) <= 0.02
                    assert abs(report["asoc_w"] - report["mc_w"]) <= 0.02

    def test_action_coupling_erodes_first_concept(self):
        # along psi with no state coupling and a random policy the first
        # concept decays monotonically while the second stays at zero
        values = [point_measures(0.0, psi, 0.0, 20.0, 0.0) for psi in np.linspace(0, 5, 11)]
        mc_a_line = [v["mc_a"] for v in values]
        assert all(a >= b - 1e-12 for a, b in zip(mc_a_line, mc_a_line[1:]))
        assert mc_a_line[0] - mc_a_line[-1] > 0.9
        assert all(v["mc_w"] <= 1e-9 for v in values)

    def test_sign_flip_symmetry(self):
        # with an unbiased prior nothing distinguishes the two symbols
        for maps in [point(2, 1), point(0.5, 3, mu=1.2)]:
            joint = Joint3(B, B, B, world_joint_arrays(*maps)[0])
            flipped = Joint3(B, B, B, joint.probs[::-1, ::-1, ::-1].copy())
            np.testing.assert_allclose(joint.probs, flipped.probs, atol=1e-15)
            assert mc_a(flipped) == pytest.approx(mc_a(joint), abs=1e-12)
            assert mc_w(flipped) == pytest.approx(mc_w(joint), abs=1e-12)

    def test_sweep_grid_order_and_determinism(self):
        grid = list(sweep((0.0, 1.0), (0.0,), (0.0, 20.0), zeta=20.0, tau=0.0))
        assert len(grid) == 4
        keys = [(r.metadata["phi"], r.metadata["psi"], r.metadata["mu"]) for r in grid]
        assert keys == [(0.0, 0.0, 0.0), (0.0, 0.0, 20.0), (1.0, 0.0, 0.0), (1.0, 0.0, 20.0)]
        again = list(sweep((0.0, 1.0), (0.0,), (0.0, 20.0), zeta=20.0, tau=0.0))
        for first, second in zip(grid, again):
            assert first.values == second.values

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep((), (0.0,), (0.0,))

    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_out_of_range_value_names_its_point(self, monkeypatch, chunk):
        # only phi = 3, the fourth point, reports an mc_a above one
        def kernel_arrays(phi, *rest):
            chunk_phi[:] = [np.asarray(phi)]
            return original_kernels(phi, *rest)

        def action_effect(joint):
            return np.where(chunk_phi[0] == 3.0, 2.0, original(joint))

        chunk_phi = [None]
        original, original_kernels = binary.action_effect, binary.kernel_arrays
        monkeypatch.setattr(binary, "kernel_arrays", kernel_arrays)
        monkeypatch.setattr(binary, "action_effect", action_effect)
        monkeypatch.setattr(binary, "SWEEP_CHUNK", chunk)
        with pytest.raises(ConsistencyError, match=r"^phi=3, psi=0, mu=0: measure mc_a = 2.0 "):
            list(sweep((0, 1, 2, 3, 4), (0,), (0,)))


def row_bits(report):
    """A report's grid point and values; hex keeps the sign of zero."""
    point = tuple(report.metadata[k] for k in ("phi", "psi", "mu"))
    return point, {name: value.hex() for name, value in report.values.items()}


COUPLINGS = st.lists(st.floats(0.0, 25.0), min_size=1, max_size=4)


class TestSweepEqualsPoints:
    """The chunked array sweep against one-point evaluation."""

    @settings(max_examples=25, deadline=None)
    @given(
        phi=COUPLINGS,
        psi=COUPLINGS,
        mu=COUPLINGS,
        zeta=st.floats(0.0, 25.0),
        tau=st.floats(-5.0, 5.0),
    )
    def test_rows_bitwise_equal_points_alone_for_any_chunking(self, phi, psi, mu, zeta, tau):
        alone = [
            row_bits(point_measures(p, s, m, zeta, tau)) for p, s, m in product(phi, psi, mu)
        ]
        for chunk in (1, 3, binary.SWEEP_CHUNK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(binary, "SWEEP_CHUNK", chunk)
                rows = [row_bits(report) for report in sweep(phi, psi, mu, zeta=zeta, tau=tau)]
            assert rows == alone
