import json
import math
import re
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from qsdkit import (
    INCONCLUSIVE,
    DensityMatrix,
    DepolarizingChannel,
    Povm,
    ProblemSpec,
    PureState,
    apply_depolarizing,
    density_of,
    make_benchmark_two_qubit_states,
    make_coherent_state,
    make_single_qubit_pair,
)
from qsdkit.serialize import read_problem
from qsdkit.states import MAX_QUBITS, POVM_HERMITIAN_TOL, PRIOR_SUM_TOL, STATE_NORM_TOL
from conftest import random_density

ZERO = {"type": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
ONE = {"type": "pure", "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}


class TestDepolarizing:
    def test_lambda_zero_is_identity(self, rng):
        rho = random_density(4, rng)
        out = apply_depolarizing(DepolarizingChannel(0.0, 4), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_lambda_one_fully_depolarizes(self, rng):
        rho = random_density(8, rng)
        out = apply_depolarizing(DepolarizingChannel(1.0, 8), rho)
        np.testing.assert_allclose(out.matrix, np.eye(8) / 8, atol=1e-15)

    def test_half_on_ground_state(self):
        rho = density_of(PureState(np.array([1.0, 0.0])))
        out = apply_depolarizing(DepolarizingChannel(0.5, 2), rho)
        np.testing.assert_allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-15)

    def test_preserves_state_invariants(self, rng):
        # Hermiticity, trace, PSD survive for random states and noise levels.
        for _ in range(100):
            d = int(rng.choice([2, 4, 8]))
            lam = float(rng.uniform(0.0, 1.0))
            out = apply_depolarizing(DepolarizingChannel(lam, d), random_density(d, rng))
            m = out.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(m)[0] > -1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_depolarizing(DepolarizingChannel(0.1, 4), random_density(2, rng))

    def test_bad_level(self):
        with pytest.raises(ValueError):
            DepolarizingChannel(1.5, 2)


class TestCoherentStates:
    def test_vacuum(self):
        psi = make_coherent_state(0.0, 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_alpha_one_two_qubits(self):
        psi = make_coherent_state(1.0, 2)
        raw = np.array([1.0, 1.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)])
        np.testing.assert_allclose(psi.amplitudes, raw / np.linalg.norm(raw), atol=1e-14)

    def test_truncated_overlap_matches_series(self):
        # Independent construction straight from the series c_n = a^n/sqrt(n!).
        def series(alpha, levels):
            v = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(levels)])
            return v / np.linalg.norm(v)

        a, b = 1.0, np.exp(2j * np.pi / 3.0)
        expected = np.vdot(series(a, 8), series(b, 8))
        got = make_coherent_state(a, 3).overlap(make_coherent_state(b, 3))
        assert abs(got - expected) < 1e-12

    def test_unit_norm_across_truncations(self):
        # Up to 6 qubits = 64 levels; the multiplicative accumulation keeps
        # the series finite where naive factorials would not.
        for alpha in (0.3, 1.0, 2.0 + 1.0j, np.exp(-1j * np.pi / 3.0)):
            for n in (1, 2, 3, 4, 5, 6):
                psi = make_coherent_state(alpha, n)
                assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            make_coherent_state(1.0, 0)

    @pytest.mark.parametrize("num_qubits", [MAX_QUBITS + 1, 10 ** 18])
    def test_rejects_too_many_qubits(self, num_qubits):
        # Checked before 2**num_qubits levels are allocated.
        with pytest.raises(ValueError, match=f"^num_qubits must be in 1..{MAX_QUBITS}, "
                                             f"got {num_qubits}$"):
            make_coherent_state(1.0, num_qubits)


class TestBenchmarkTwoQubit:
    def test_zero_amplitudes_give_basis_states(self):
        states = make_benchmark_two_qubit_states((0.0, 0.0, 0.0))
        for i, psi in enumerate(states):
            expected = np.zeros(4)
            expected[i] = 1.0
            np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_pairwise_overlap(self):
        s = make_benchmark_two_qubit_states((0.2, 0.5, 0.7))
        expected = (0.2 * 0.5) / math.sqrt(1.04 * 1.25)
        assert abs(s[0].overlap(s[1]) - expected) < 1e-14

    def test_unit_norms(self, rng):
        for _ in range(10):
            a = tuple(rng.uniform(-2, 2, size=3))
            for psi in make_benchmark_two_qubit_states(a):
                assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


class TestSingleQubitPair:
    def test_overlap(self):
        zero, plus = make_single_qubit_pair()
        assert abs(zero.overlap(plus) - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_unit_norm_and_density(self):
        for psi in make_single_qubit_pair():
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15
            assert abs(np.trace(density_of(psi).matrix).real - 1.0) < 1e-15


class TestDensityOf:
    def test_ground_state(self):
        np.testing.assert_allclose(
            density_of(PureState(np.array([1.0, 0.0]))).matrix, np.diag([1.0, 0.0]))

    def test_plus_state(self):
        plus = make_single_qubit_pair()[1]
        np.testing.assert_allclose(density_of(plus).matrix, np.full((2, 2), 0.5),
                                   atol=1e-15)

    def test_rank_one_projector(self, rng):
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(a / np.linalg.norm(a))
        m = density_of(psi).matrix
        assert abs(np.trace(m).real - 1.0) < 1e-12
        np.testing.assert_allclose(m @ m, m, atol=1e-12)


class TestValidation:
    def test_pure_state_norm(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_pure_state_norm_threshold(self, scale, raises):
        amplitudes = np.array([math.sqrt(1.0 + scale * STATE_NORM_TOL), 0.0])
        with pytest.raises(ValueError, match="not normalized") if raises else nullcontext():
            PureState(amplitudes)

    def test_pure_state_nan(self):
        # A NaN norm fails the normalization check rather than passing it.
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([np.nan, 0.0]))
        # alpha**n overflows, and the renormalized amplitudes are all NaN.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="not normalized"):
            make_coherent_state(1e200, 3)

    @pytest.mark.parametrize("alpha, num_qubits", [(1e200, 3), (1e100, 2), (math.nan, 2)])
    def test_coherent_state_non_finite_norm(self, alpha, num_qubits):
        # A term overflows, the finite terms' norm overflows, or alpha is NaN:
        # a ValueError naming both arguments, and no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"not normalized: alpha={alpha!r}, num_qubits={num_qubits}")):
                make_coherent_state(alpha, num_qubits)

    def test_pure_state_length(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_not_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_density_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_not_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    def test_density_nan(self, entry):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[entry] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_problem_priors_must_sum_to_one(self, rng):
        states = (random_density(2, rng), random_density(2, rng))
        with pytest.raises(ValueError):
            ProblemSpec(states, np.array([0.7, 0.7]))

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_problem_prior_sum_threshold(self, rng, scale, raises):
        states = (random_density(2, rng), random_density(2, rng))
        priors = np.array([0.5, 0.5 + scale * PRIOR_SUM_TOL])
        with pytest.raises(ValueError, match="sum to 1") if raises else nullcontext():
            ProblemSpec(states, priors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_problem_priors_must_be_finite(self, rng, bad):
        states = (random_density(2, rng), random_density(2, rng))
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec(states, np.array([bad, 1.0]))

    def test_problem_mixed_dims(self, rng):
        with pytest.raises(ValueError):
            ProblemSpec((random_density(2, rng), random_density(4, rng)),
                        np.array([0.5, 0.5]))

    def test_povm_completeness(self):
        with pytest.raises(ValueError):
            Povm(2, (np.eye(2) * 0.5, np.eye(2) * 0.4), (0, 1))

    def test_povm_not_psd(self):
        with pytest.raises(ValueError):
            Povm(2, (np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])), (0, 1))

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_povm_hermitian_threshold(self, scale, raises):
        # Element 0 gains scale * POVM_HERMITIAN_TOL below its diagonal only.
        element = np.diag([1.0, 0.0]).astype(complex)
        element[1, 0] = scale * POVM_HERMITIAN_TOL
        with pytest.raises(ValueError, match="not Hermitian") if raises else nullcontext():
            Povm(2, (element, np.diag([0.0, 1.0])), (0, 1))

    def test_povm_nan(self):
        element = np.diag([1.0, 0.0]).astype(complex)
        element[0, 1] = np.nan
        with pytest.raises(ValueError):
            Povm(2, (element, np.diag([0.0, 1.0])), (0, 1))

    def test_povm_duplicate_inconclusive(self):
        third = np.eye(2) / 3.0
        with pytest.raises(ValueError):
            Povm(2, (third, third, third), (0, INCONCLUSIVE, INCONCLUSIVE))

    def test_povm_labels_must_cover_states(self):
        with pytest.raises(ValueError):
            Povm(2, (np.eye(2) * 0.5, np.eye(2) * 0.5), (0, 2))

    def test_immutable_arrays(self):
        psi = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


def read_problem_text(tmp_path, payload):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload))
    return read_problem(path)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda tmp: read_problem_text(tmp, {"num_qubits": 1, "states": [ZERO]}),
                 ValueError, "at least two states", id="problem-file-one-state"),
    pytest.param(lambda tmp: read_problem_text(tmp, {"num_qubits": 1, "states": [ZERO, ONE],
                                                     "priors": [1.0]}),
                 ValueError, "one prior per state", id="problem-file-prior-count"),
    pytest.param(lambda tmp: read_problem_text(tmp, {"num_qubits": 1, "states": [ZERO, ONE],
                                                     "priors": [1.5, -0.5]}),
                 ValueError, "nonnegative", id="problem-file-negative-prior"),
    pytest.param(lambda tmp: read_problem_text(tmp, {"num_qubits": 2, "states": [
        {"type": "benchmark2q", "a": [0.2, 0.5]}]}),
                 ValueError, r"states\[0\]: need exactly three amplitudes",
                 id="problem-file-two-amplitudes"),
    pytest.param(lambda tmp: PureState(np.eye(2)[0]).overlap(PureState(np.eye(4)[0])),
                 ValueError, "dimension mismatch", id="overlap-dims"),
    pytest.param(lambda tmp: DensityMatrix(np.eye(2, 3)),
                 ValueError, "must be square", id="density-not-square"),
    pytest.param(lambda tmp: DepolarizingChannel(0.1, 0),
                 ValueError, "dim must be >= 1", id="channel-dim-zero"),
    pytest.param(lambda tmp: Povm(0, (), ()),
                 ValueError, "dim >= 1 and at least one element", id="povm-empty"),
    pytest.param(lambda tmp: Povm(2, (), ()),
                 ValueError, "dim >= 1 and at least one element", id="povm-no-elements"),
    pytest.param(lambda tmp: Povm(2, (np.eye(2),), (0,)).element(1),
                 KeyError, "1", id="povm-missing-label"),
])
def test_rejected_input(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
