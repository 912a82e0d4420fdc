import math
import re

import numpy as np
import pytest

from conftest import random_distribution, random_joint, random_kernel2, random_kernel3, random_model
from morphocomp.measures import (
    ConsistencyError,
    IntrinsicModel,
    MeasureReport,
    action_prior,
    asoc_a,
    asoc_w,
    c_a,
    c_a_deliberative,
    c_w,
    cif,
    do_a,
    do_s,
    intrinsic_measures,
    intrinsic_values,
    mc_a,
    mc_w,
)
from morphocomp.estimation import estimate, joint_from_model
from morphocomp.prob import (
    Alphabet,
    DegenerateAlphabetError,
    DimensionError,
    Distribution,
    Joint3,
    Kernel2,
    Kernel3,
    SupportError,
)
from test_estimation import random_series

B = Alphabet(2)


# ---------------------------------------------------------------------------
# brute-force oracles: literal definitional sums, no shared code with the
# implementations under test
# ---------------------------------------------------------------------------

def brute_action_effect(P):
    """1 - (1/ln n) * sum p(x,y,z) ln[p(z|x,y)/p(z|x)] by explicit loops."""
    nx, ny, nz = P.shape
    total = 0.0
    for x in range(nx):
        p_x = P[x].sum()
        for y in range(ny):
            p_xy = P[x, y].sum()
            for z in range(nz):
                if P[x, y, z] == 0:
                    continue
                p_z_xy = P[x, y, z] / p_xy
                p_z_x = P[x, :, z].sum() / p_x
                total += P[x, y, z] * math.log(p_z_xy / p_z_x)
    return 1.0 - total / math.log(nz)


def brute_world_effect(P):
    """(1/ln n) * sum p(x,y,z) ln[p(z|x,y)/p(z|y)] by explicit loops."""
    nx, ny, nz = P.shape
    total = 0.0
    for x in range(nx):
        for y in range(ny):
            p_xy = P[x, y].sum()
            p_y = P[:, y, :].sum()
            for z in range(nz):
                if P[x, y, z] == 0:
                    continue
                p_z_xy = P[x, y, z] / p_xy
                p_z_y = P[:, y, z].sum() / p_y
                total += P[x, y, z] * math.log(p_z_xy / p_z_y)
    return total / math.log(nz)


def brute_cif(rows, prior):
    mixture = [sum(prior[x] * rows[x][z] for x in range(len(prior))) for z in range(rows.shape[1])]
    total = 0.0
    for x in range(len(prior)):
        for z in range(rows.shape[1]):
            if prior[x] > 0 and rows[x, z] > 0:
                total += prior[x] * rows[x, z] * math.log(rows[x, z] / mixture[z])
    return total


def brute_c_a(model):
    """1 - (1/ln n) sum_{s,a} p(s) p(a|s) D(p(.|do(a)) || p(.|do(s))) by explicit loops."""
    p = model.sensor_prior.probs
    pi = model.policy.rows
    world = model.world_model.entries
    n, m = pi.shape
    do_a = [[sum(p[s] * world[s, a, t] for s in range(n)) for t in range(n)] for a in range(m)]
    do_s = [[sum(pi[s, a] * do_a[a][t] for a in range(m)) for t in range(n)] for s in range(n)]
    total = 0.0
    for s in range(n):
        for a in range(m):
            for t in range(n):
                if p[s] * pi[s, a] > 0 and do_a[a][t] > 0:
                    total += p[s] * pi[s, a] * do_a[a][t] * math.log(do_a[a][t] / do_s[s][t])
    return 1.0 - total / math.log(n)


def brute_c_w(model):
    p = model.sensor_prior.probs
    pi = model.policy.rows
    world = model.world_model.entries
    n = p.size
    p_a = [sum(p[s] * pi[s, a] for s in range(n)) for a in range(pi.shape[1])]
    total = 0.0
    for s in range(n):
        for t in range(n):
            direct = sum(pi[s, a] * world[s, a, t] for a in range(pi.shape[1]))
            severed = sum(
                pi[s, a]
                * sum(world[u, a, t] * pi[u, a] * p[u] for u in range(n))
                / p_a[a]
                for a in range(pi.shape[1])
            )
            if p[s] > 0 and direct > 0:
                total += p[s] * direct * math.log(direct / severed)
    return total / math.log(n)


class TestConceptMeasuresAgainstBruteForce:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3)])
    def test_random_joints(self, rng, shape):
        for _ in range(50):
            joint = random_joint(rng, *shape)
            assert mc_a(joint) == pytest.approx(brute_action_effect(joint.probs), abs=1e-12)
            assert mc_w(joint) == pytest.approx(brute_world_effect(joint.probs), abs=1e-12)
            assert asoc_a(joint) == pytest.approx(brute_action_effect(joint.probs), abs=1e-12)
            assert asoc_w(joint) == pytest.approx(brute_world_effect(joint.probs), abs=1e-12)

    def test_joint_with_structural_zeros(self, rng):
        probs = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        probs[0, 1, :] = 0.0
        joint = Joint3(B, B, B, probs / probs.sum())
        assert mc_a(joint) == pytest.approx(brute_action_effect(joint.probs), abs=1e-12)
        assert mc_w(joint) == pytest.approx(brute_world_effect(joint.probs), abs=1e-12)

    def test_deterministic_policy_collapse(self, rng):
        # action a bijective function of the state: the action channel carries
        # no extra information, so the first concept saturates and the second
        # one vanishes
        for n in (2, 3, 4):
            states = Alphabet(n)
            mapping = rng.permutation(n)
            policy = Kernel2(states, states, np.eye(n)[mapping])
            prior = random_distribution(rng, states)
            kernel = random_kernel3(rng, states, states, states)
            probs = prior.probs[:, None, None] * policy.rows[:, :, None] * kernel.entries
            joint = Joint3(states, states, states, probs)
            assert mc_a(joint) == pytest.approx(1.0, abs=1e-9)
            assert mc_w(joint) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_alphabet_rejected(self):
        joint = Joint3(Alphabet(1), B, Alphabet(1), np.full((1, 2, 1), 0.5))
        with pytest.raises(DegenerateAlphabetError):
            mc_a(joint)


class TestInterventionalKernels:
    def test_do_a_collapses_when_world_ignores_state(self, rng):
        s, a = Alphabet(3), Alphabet(2)
        by_action = rng.dirichlet(np.ones(3), size=2)
        world = Kernel3(s, a, s, np.broadcast_to(by_action, (3, 2, 3)).copy())
        model = IntrinsicModel(random_distribution(rng, s), random_kernel2(rng, s, a), world)
        np.testing.assert_allclose(do_a(model).rows, by_action, atol=1e-15)

    def test_do_a_with_point_prior(self, rng):
        s, a = Alphabet(3), Alphabet(2)
        world = random_kernel3(rng, s, a, s)
        model = IntrinsicModel(Distribution(s, np.eye(3)[1]), random_kernel2(rng, s, a), world)
        np.testing.assert_allclose(do_a(model).rows, world.entries[1], atol=1e-15)

    def test_do_s_mixture_identity(self, rng):
        # matrix identity: each do(s) row is the policy mixture of do(a) rows
        model = random_model(rng, 4, 3)
        rows_a = do_a(model).rows
        rows_s = do_s(model).rows
        explicit = np.array(
            [
                sum(model.policy.rows[s, a] * rows_a[a] for a in range(3))
                for s in range(4)
            ]
        )
        np.testing.assert_allclose(rows_s, explicit, atol=1e-12)

    def test_do_s_uniform_policy_averages(self, rng):
        s, a = Alphabet(3), Alphabet(3)
        model = IntrinsicModel(
            random_distribution(rng, s),
            Kernel2(s, a, np.full((3, 3), 1 / 3)),
            random_kernel3(rng, s, a, s),
        )
        np.testing.assert_allclose(
            do_s(model).rows, np.tile(do_a(model).rows.mean(axis=0), (3, 1)), atol=1e-15
        )


class TestCif:
    def test_identical_rows_give_zero(self):
        kernel = Kernel2(B, B, [[0.3, 0.7], [0.3, 0.7]])
        assert cif(kernel, Distribution(B, np.full(2, 0.5))) == 0.0

    def test_identity_kernel_uniform_prior(self):
        kernel = Kernel2(B, B, np.eye(2))
        assert cif(kernel, Distribution(B, np.full(2, 0.5))) == pytest.approx(math.log(2), abs=1e-15)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            s = Alphabet(4)
            kernel = random_kernel2(rng, s, Alphabet(3))
            prior = random_distribution(rng, s)
            assert cif(kernel, prior) == pytest.approx(
                brute_cif(kernel.rows, prior.probs), abs=1e-12
            )

    def test_bounded_by_target_entropy(self, rng):
        for _ in range(20):
            kernel = random_kernel2(rng, Alphabet(5), Alphabet(3))
            prior = random_distribution(rng, Alphabet(5))
            assert cif(kernel, prior) <= math.log(3) + 1e-12


class TestCausalActionMeasure:
    def test_world_ignoring_action_gives_one(self, rng):
        s, a = Alphabet(3), Alphabet(2)
        by_state = rng.dirichlet(np.ones(3), size=3)
        world = Kernel3(s, a, s, np.repeat(by_state[:, None, :], 2, axis=1))
        model = IntrinsicModel(random_distribution(rng, s), random_kernel2(rng, s, a), world)
        assert c_a(model) == pytest.approx(1.0, abs=1e-12)

    def test_dual_forms_agree_on_random_models(self, rng):
        # c_a raises internally if the flow form and the divergence form part
        # ways; also pin the value to the explicit formula
        for _ in range(100):
            model = random_model(rng, 4, 3)
            value = c_a(model)
            rows_a, rows_s = do_a(model).rows, do_s(model).rows
            weights = model.sensor_prior.probs[:, None] * model.policy.rows
            div = sum(
                weights[s, a] * rows_a[a, t] * math.log(rows_a[a, t] / rows_s[s, t])
                for s in range(4)
                for a in range(3)
                for t in range(4)
                if weights[s, a] > 0 and rows_a[a, t] > 0
            )
            assert value == pytest.approx(1.0 - div / math.log(4), abs=1e-12)
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_flow_inequality(self, rng):
        # flow out of the state never exceeds flow out of the action
        for _ in range(100):
            model = random_model(rng, 3, 4)
            flow_s = cif(do_s(model), model.sensor_prior)
            flow_a = cif(do_a(model), action_prior(model))
            assert flow_s <= flow_a + 1e-9


class TestCausalDeliberativeMeasure:
    def test_reactive_reduction_matches_c_a(self, rng):
        for _ in range(20):
            model = random_model(rng, 3, 2)
            value = c_a_deliberative(model.sensor_prior, model.policy, do_s(model), do_a(model))
            assert value == pytest.approx(c_a(model), abs=1e-9)

    def test_matched_kernels_give_one(self):
        ctrl = Alphabet(2)
        prior = Distribution(ctrl, np.full(2, 0.5))
        policy = Kernel2(ctrl, ctrl, np.eye(2))
        rows = Kernel2(ctrl, B, [[0.8, 0.2], [0.3, 0.7]])
        assert c_a_deliberative(prior, policy, rows, rows) == pytest.approx(1.0, abs=1e-15)

    def test_two_state_brute_force(self):
        ctrl, act, sens = Alphabet(2), Alphabet(2), Alphabet(2)
        prior = Distribution(ctrl, [0.6, 0.4])
        policy = Kernel2(ctrl, act, [[0.9, 0.1], [0.2, 0.8]])
        rows_a = np.array([[0.7, 0.3], [0.4, 0.6]])
        rows_c = np.array([[0.6, 0.4], [0.5, 0.5]])
        joint_ca = prior.probs[:, None] * policy.rows
        expected = 1.0 - sum(
            joint_ca[c, a] * rows_a[a, t] * math.log(rows_a[a, t] / rows_c[c, t])
            for c in range(2)
            for a in range(2)
            for t in range(2)
        ) / math.log(2)
        value = c_a_deliberative(
            prior, policy, Kernel2(ctrl, sens, rows_c), Kernel2(act, sens, rows_a)
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_support_violation(self):
        ctrl = Alphabet(2)
        prior = Distribution(ctrl, np.full(2, 0.5))
        policy = Kernel2(ctrl, ctrl, np.full((2, 2), 0.5))
        rows_c = Kernel2(ctrl, B, np.eye(2))
        rows_a = Kernel2(ctrl, B, np.full((2, 2), 0.5))
        with pytest.raises(SupportError):
            c_a_deliberative(prior, policy, rows_c, rows_a)


def uniform_dist(n):
    return Distribution(Alphabet(n), np.full(n, 1 / n))


def uniform_kernel2(n_source, n_target):
    return Kernel2(Alphabet(n_source), Alphabet(n_target), np.full((n_source, n_target), 1 / n_target))


def uniform_kernel3(n_source1, n_source2, n_target):
    shape = (n_source1, n_source2, n_target)
    return Kernel3(*map(Alphabet, shape), np.full(shape, 1 / n_target))


class TestAlphabetChecks:
    """Each alphabet mismatch raises a DimensionError (a ValueError) that names it."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: IntrinsicModel(uniform_dist(3), uniform_kernel2(2, 2), uniform_kernel3(3, 2, 3)),
             "policy/world model must condition on the sensor alphabet"),
            (lambda: IntrinsicModel(uniform_dist(2), uniform_kernel2(2, 3), uniform_kernel3(2, 2, 2)),
             "world model action alphabet differs from policy output"),
            (lambda: IntrinsicModel(uniform_dist(2), uniform_kernel2(2, 2), uniform_kernel3(2, 2, 3)),
             "world model must map back into the sensor alphabet"),
            (lambda: mc_a(Joint3(Alphabet(2), Alphabet(2), Alphabet(3), np.full((2, 2, 3), 1 / 12))),
             "current-state and next-state axes must share one alphabet"),
            (lambda: cif(uniform_kernel2(2, 2), uniform_dist(3)),
             "cif prior must range over the kernel's source alphabet"),
            (lambda: c_a_deliberative(
                uniform_dist(2), uniform_kernel2(3, 2), uniform_kernel2(2, 2), uniform_kernel2(2, 2)),
             "controller policy must condition on the controller alphabet"),
            (lambda: c_a_deliberative(
                uniform_dist(2), uniform_kernel2(2, 2), uniform_kernel2(3, 2), uniform_kernel2(2, 2)),
             "do(c) kernel must range over the controller alphabet"),
            (lambda: c_a_deliberative(
                uniform_dist(2), uniform_kernel2(2, 3), uniform_kernel2(2, 2), uniform_kernel2(2, 2)),
             "do(a) kernel must range over the action alphabet"),
            (lambda: c_a_deliberative(
                uniform_dist(2), uniform_kernel2(2, 2), uniform_kernel2(2, 2), uniform_kernel2(2, 3)),
             "both interventional kernels must share the target alphabet"),
        ],
        ids=[
            "model-policy-source",
            "model-world-action",
            "model-world-target",
            "mc_a-non-square-joint",
            "cif-prior",
            "deliberative-policy-source",
            "deliberative-do-c-source",
            "deliberative-do-a-source",
            "deliberative-targets",
        ],
    )
    def test_mismatch_is_a_named_dimension_error(self, call, message):
        with pytest.raises(DimensionError, match=re.escape(message)) as caught:
            call()
        assert isinstance(caught.value, ValueError)


class TestConditionalIndependenceMeasure:
    def test_world_ignoring_state_gives_zero(self, rng):
        s, a = Alphabet(3), Alphabet(2)
        by_action = rng.dirichlet(np.ones(3), size=2)
        world = Kernel3(s, a, s, np.broadcast_to(by_action, (3, 2, 3)).copy())
        model = IntrinsicModel(random_distribution(rng, s), random_kernel2(rng, s, a), world)
        assert c_w(model) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            model = random_model(rng, 3, 2)
            assert c_w(model) == pytest.approx(brute_c_w(model), abs=1e-12)

    def test_never_exceeds_associative_reading(self, rng):
        # mixing with the policy can only lose divergence (joint convexity)
        for _ in range(50):
            model = random_model(rng, 4, 3)
            assert c_w(model) <= asoc_w(joint_from_model(model)) + 1e-12

        # estimated models, as the rotator cells produce them; series this
        # short leave (s, a) cells at the uniform pseudo-count
        s, a = Alphabet(4), Alphabet(3)
        unvisited = 0
        for _ in range(50):
            series = random_series(rng, int(rng.integers(1, 30)), s.size, a.size)
            visited = np.zeros((s.size, a.size), dtype=bool)
            visited[series.sensors[:-1], series.actions] = True
            unvisited += int((~visited).sum())
            model = estimate(series, s, a)
            assert c_w(model) <= asoc_w(joint_from_model(model)) + 1e-12
        assert unvisited > 0

    def test_unreachable_action_rejected(self):
        s = Alphabet(2)
        model_args = (
            Distribution(s, [1.0, 0.0]),
            Kernel2(s, s, [[1.0, 0.0], [0.0, 1.0]]),
            Kernel3(s, s, s, np.full((2, 2, 2), 0.5)),
        )
        with pytest.raises(SupportError):
            c_w(IntrinsicModel(*model_args))


class TestStackedModels:
    """The array core on a stack of models, as the batched callers use it."""

    def test_stack_equals_each_model_alone(self, rng):
        s, a = Alphabet(4), Alphabet(3)
        series = [random_series(rng, int(rng.integers(1, 30)), s.size, a.size) for _ in range(25)]
        # series this short leave (s, a) cells at the uniform pseudo-count
        unvisited = 0
        for one in series:
            visited = np.zeros((s.size, a.size), dtype=bool)
            visited[one.sensors[:-1], one.actions] = True
            unvisited += int((~visited).sum())
        assert unvisited > 0
        models = [estimate(one, s, a) for one in series]
        stacked = intrinsic_values(
            np.stack([model.sensor_prior.probs for model in models]),
            np.stack([model.policy.rows for model in models]),
            np.stack([model.world_model.entries for model in models]),
        )
        for i, model in enumerate(models):
            alone = intrinsic_measures(model)
            # hex keeps the sign of zero, so equal strings mean equal bits
            assert {k: v.hex() for k, v in alone.items()} == {
                k: float(stacked[k][i]).hex() for k in alone
            }
            joint = joint_from_model(model).probs
            assert alone["asoc_a"] == pytest.approx(brute_action_effect(joint), abs=1e-12)
            assert alone["asoc_w"] == pytest.approx(brute_world_effect(joint), abs=1e-12)
            assert alone["c_a"] == pytest.approx(brute_c_a(model), abs=1e-12)
            assert alone["c_w"] == pytest.approx(brute_c_w(model), abs=1e-12)


class TestMeasureReport:
    def test_band_clamping(self):
        report = MeasureReport({"mc_a": -1e-10, "c_w": 1.0 + 1e-10})
        assert report["mc_a"] == 0.0
        assert report["c_w"] == 1.0

    def test_out_of_band_rejected(self):
        with pytest.raises(ConsistencyError):
            MeasureReport({"mc_a": 1.1})

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            MeasureReport({"mystery": 0.5})

    def test_intrinsic_selection(self, rng):
        model = random_model(rng)
        values = intrinsic_measures(model, ("c_w", "asoc_a"))
        assert set(values) == {"c_w", "asoc_a"}
        with pytest.raises(ValueError):
            intrinsic_measures(model, ("mc_a",))
