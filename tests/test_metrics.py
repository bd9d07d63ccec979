import math
from contextlib import nullcontext

import numpy as np
import pytest

from qsdkit import (
    INCONCLUSIVE,
    JointDistribution,
    Povm,
    ProblemSpec,
    PureState,
    confidences,
    depolarize,
    error_to_success,
    joint_distribution,
    lp_distance,
    outcome_stats,
)
from qsdkit.metrics import _conditionals
from qsdkit.states import (CONDITIONING_MASS_FLOOR, JOINT_NEGATIVE_TOL, JOINT_SUM_TOL,
                           SUCCESS_MASS_FLOOR)
from conftest import random_density, random_povm


def basis_problem(dim=2):
    states = [PureState(np.eye(dim)[i]) for i in range(dim)]
    return ProblemSpec.from_states(states)


def basis_povm(dim=2):
    elements = tuple(np.diag(np.eye(dim)[i]).astype(complex) for i in range(dim))
    return Povm(dim, elements, tuple(range(dim)))


class TestJointDistribution:
    def test_orthogonal_states_matching_pvm(self):
        spec = basis_problem(2)
        jd = joint_distribution(spec, basis_povm(2), 0.0)
        np.testing.assert_allclose(jd.entries, [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]],
                                   atol=1e-14)

    def test_fully_depolarized_rows_identical(self, rng):
        states = [random_density(8, rng) for _ in range(3)]
        spec = ProblemSpec.from_states(states)
        povm = random_povm(8, 3, rng)
        jd = joint_distribution(spec, povm, 1.0)
        np.testing.assert_allclose(jd.entries[0], jd.entries[1], atol=1e-12)
        np.testing.assert_allclose(jd.entries[0], jd.entries[2], atol=1e-12)
        assert abs(jd.entries[0].sum() - 1.0 / 3.0) < 1e-12

    def test_entries_sum_to_one_random(self, rng):
        for _ in range(20):
            d = int(rng.choice([2, 4]))
            k = int(rng.integers(2, 4))
            spec = ProblemSpec.from_states([random_density(d, rng) for _ in range(k)],
                                           priors=rng.dirichlet(np.ones(k)))
            povm = random_povm(d, k, rng, inconclusive=bool(rng.integers(0, 2)))
            jd = joint_distribution(spec, povm, float(rng.uniform(0, 1)))
            assert abs(jd.entries.sum() - 1.0) < 1e-8

    def test_matches_depolarized_trace_loop(self, rng):
        # The noise-linear table agrees with tracing each explicitly
        # depolarized state against each element, exactly so when lam = 0
        # or 1 leaves nothing to mix.
        for d in (2, 4, 8, 16):
            k = 3
            spec = ProblemSpec.from_states([random_density(d, rng) for _ in range(k)],
                                           priors=rng.dirichlet(np.ones(k)))
            povm = random_povm(d, k, rng, inconclusive=True)
            columns = [povm.element(j) for j in range(k)] + [povm.element(INCONCLUSIVE)]
            for lam in (0.0, 1e-6, 1e-3, 0.3, 1.0):
                want = np.zeros((k, k + 1))
                for i, (p, rho) in enumerate(zip(spec.priors, spec.states)):
                    noisy = depolarize(rho, lam).matrix
                    for j, elem in enumerate(columns):
                        want[i, j] = p * float(np.trace(noisy @ elem).real)
                got = joint_distribution(spec, povm, lam).entries
                if lam in (0.0, 1.0):
                    np.testing.assert_array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) < 1e-15

    def test_default_level_is_the_instance_noise(self, rng):
        spec = ProblemSpec.from_states([random_density(4, rng) for _ in range(2)],
                                       noise_lambda=0.2)
        povm = random_povm(4, 2, rng, inconclusive=True)
        np.testing.assert_array_equal(joint_distribution(spec, povm).entries,
                                      joint_distribution(spec, povm, 0.2).entries)

    @pytest.mark.parametrize("lam", [-1e-3, 1.5, math.nan])
    def test_noise_level_out_of_range_rejected(self, lam):
        with pytest.raises(ValueError, match="noise level"):
            joint_distribution(basis_problem(2), basis_povm(2), lam)

    def test_dimension_mismatch(self, rng):
        spec = basis_problem(2)
        with pytest.raises(ValueError):
            joint_distribution(spec, random_povm(4, 2, rng), 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            JointDistribution(np.ones((2, 2)) / 4.0)

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_negative_entry_threshold(self, scale, raises):
        eps = scale * JOINT_NEGATIVE_TOL
        entries = np.array([[0.5, 0.0, -eps], [eps, 0.5, 0.0]])
        with pytest.raises(ValueError, match="negative joint") if raises else nullcontext():
            JointDistribution(entries)

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_sum_threshold(self, scale, raises):
        entries = np.array([[0.5, 0.0, 0.0], [0.0, 0.5 + scale * JOINT_SUM_TOL, 0.0]])
        with pytest.raises(ValueError, match="expected 1") if raises else nullcontext():
            JointDistribution(entries)

    def test_nan_entry(self):
        entries = np.array([[0.5, np.nan, 0.0], [0.0, 0.5, 0.0]])
        with pytest.raises(ValueError):
            JointDistribution(entries)


class TestOutcomeStats:
    def test_diagonal_only(self):
        jd = joint_distribution(basis_problem(2), basis_povm(2), 0.0)
        stats = outcome_stats(jd)
        assert stats.p_err == pytest.approx(0.0, abs=1e-14)
        assert stats.p_inc == pytest.approx(0.0, abs=1e-14)
        assert stats.p_succ == pytest.approx(1.0, abs=1e-12)

    def test_components_sum_to_total(self, rng):
        spec = ProblemSpec.from_states([random_density(4, rng) for _ in range(3)])
        povm = random_povm(4, 3, rng, inconclusive=True)
        jd = joint_distribution(spec, povm, 0.2)
        stats = outcome_stats(jd)
        assert abs(stats.p_succ + stats.p_err + stats.p_inc - jd.entries.sum()) < 1e-10

    def test_error_to_success_fully_mixed_is_k_minus_one(self, rng):
        # Equal priors, conclusive POVM, maximally depolarized states.
        for k, d in ((2, 2), (3, 8), (4, 4)):
            spec = ProblemSpec.from_states([random_density(d, rng) for _ in range(k)])
            povm = random_povm(d, k, rng)
            ratio = error_to_success(joint_distribution(spec, povm, 1.0))
            assert abs(ratio - (k - 1)) < 1e-6

    def test_error_to_success_infinite_sentinel(self):
        spec = basis_problem(2)
        all_inc = Povm(2, (np.zeros((2, 2), complex), np.zeros((2, 2), complex),
                           np.eye(2, dtype=complex)), (0, 1, INCONCLUSIVE))
        assert error_to_success(joint_distribution(spec, all_inc, 0.0)) == math.inf

    @pytest.mark.parametrize("scale, infinite", [(0.5, True), (2.0, False)])
    def test_success_mass_floor(self, scale, infinite):
        p_succ = scale * SUCCESS_MASS_FLOOR
        jd = JointDistribution(np.array([[p_succ, 0.25, 0.25 - p_succ], [0.25, 0.0, 0.25]]))
        assert (error_to_success(jd) == math.inf) == infinite


class TestLpDistance:
    def test_identical(self):
        jd = joint_distribution(basis_problem(2), basis_povm(2), 0.0)
        assert lp_distance(jd, jd, 1) == 0.0
        assert lp_distance(jd, jd, 2) == 0.0

    def test_single_entry_delta(self):
        a = JointDistribution(np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]))
        b = JointDistribution(np.array([[0.4, 0.1, 0.0], [0.0, 0.5, 0.0]]))
        assert lp_distance(a, b, 1) == pytest.approx(0.2)
        assert lp_distance(a, b, 2) == pytest.approx(math.sqrt(2 * 0.1 ** 2))

    def test_triangle_inequality(self, rng):
        spec = ProblemSpec.from_states([random_density(4, rng) for _ in range(3)])
        jds = [joint_distribution(spec, random_povm(4, 3, rng, inconclusive=True), 0.1)
               for _ in range(3)]
        for ell in (1, 2):
            d01 = lp_distance(jds[0], jds[1], ell)
            d12 = lp_distance(jds[1], jds[2], ell)
            d02 = lp_distance(jds[0], jds[2], ell)
            assert d02 <= d01 + d12 + 1e-12

    def test_unsupported_norm(self):
        jd = joint_distribution(basis_problem(2), basis_povm(2), 0.0)
        with pytest.raises(ValueError):
            lp_distance(jd, jd, 3)


class TestConfidences:
    def test_perfect_discrimination(self):
        given_state, given_outcome = confidences(basis_problem(2), basis_povm(2), 0.0)
        np.testing.assert_allclose(given_state, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(given_outcome, [1.0, 1.0], atol=1e-12)

    def test_uniform_guessing(self, rng):
        # Pi_i = I/k with equal priors: posterior of each outcome is 1/k.
        k, d = 3, 4
        spec = ProblemSpec.from_states([random_density(d, rng) for _ in range(k)])
        povm = Povm(d, tuple(np.eye(d, dtype=complex) / k for _ in range(k)),
                    tuple(range(k)))
        given_state, given_outcome = confidences(spec, povm, 0.0)
        np.testing.assert_allclose(given_outcome, np.full(k, 1.0 / k), atol=1e-12)

    def test_vacuous_when_no_mass(self):
        spec = basis_problem(2)
        all_inc = Povm(2, (np.zeros((2, 2), complex), np.zeros((2, 2), complex),
                           np.eye(2, dtype=complex)), (0, 1, INCONCLUSIVE))
        given_state, given_outcome = confidences(spec, all_inc, 0.0)
        np.testing.assert_allclose(given_state, [1.0, 1.0])
        np.testing.assert_allclose(given_outcome, [1.0, 1.0])

    @pytest.mark.parametrize("scale, vacuous", [(0.5, True), (2.0, False)])
    def test_conditioning_mass_floor(self, scale, vacuous):
        # State 0's conclusive row and outcome 0's column both hold the mass m,
        # half of it a hit.
        m = scale * CONDITIONING_MASS_FLOOR
        jd = JointDistribution(np.array([[m / 2, m / 2, 0.5 - m], [m / 2, 0.25, 0.25 - m / 2]]))
        given_state, given_outcome = _conditionals(jd)
        expected = 1.0 if vacuous else 0.5
        assert given_state[0] == expected and given_outcome[0] == expected


@pytest.mark.parametrize("call, message", [
    (lambda: lp_distance(JointDistribution(np.full((2, 3), 1 / 6)),
                         JointDistribution(np.full((3, 4), 1 / 12)), 1),
     "different shapes"),
    (lambda: joint_distribution(basis_problem(2), random_povm(2, 3, np.random.default_rng(1)),
                                0.0),
     "POVM identifies 3 states, instance has 2"),
])
def test_rejected_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
