import math
import re

import numpy as np
import pytest

from qsdkit import (
    INCONCLUSIVE,
    RESIDUAL,
    DensityMatrix,
    DilationResult,
    Povm,
    ProblemSpec,
    PureState,
    build_isometry,
    build_isometry_generic,
    complete_to_unitary,
    decompose_rank1,
    depolarize,
    dilate,
    dilated_joint_distribution,
    joint_distribution,
    make_single_qubit_pair,
    simulate_measurement,
    solve_scheme,
    truncate,
    verify_dilation,
)
from qsdkit.cli import _bench_spec
from qsdkit.serialize import read_isometry, write_isometry
from qsdkit.states import RANK1_TOL
from conftest import random_density, random_povm, random_problem, random_pure


def basis_pvm(dim):
    return Povm(dim, tuple(np.diag(np.eye(dim)[i]).astype(complex) for i in range(dim)),
                tuple(range(dim)))


def reconstruct(dec, element):
    """Sum of the rank-1 pieces of ``dec`` belonging to one element."""
    out = np.zeros((dec.dim, dec.dim), dtype=complex)
    for t in dec.terms:
        if t.element == element:
            out += np.outer(t.vector, t.vector.conj())
    return out


def trine_povm():
    vs = [np.array([math.cos(t), math.sin(t)]) for t in
          (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
    elements = tuple((2.0 / 3.0) * np.outer(v, v).astype(complex) for v in vs)
    return Povm(2, elements, (0, 1, 2))


class TestDecompose:
    def test_basis_pvm(self):
        dec = decompose_rank1(basis_pvm(4))
        assert dec.total_rank == 4
        assert dec.per_element_rank == (1, 1, 1, 1)
        assert all(abs(t.sigma - 1.0) < 1e-12 for t in dec.terms)

    def test_trine_reconstruction(self):
        dec = decompose_rank1(trine_povm())
        assert dec.per_element_rank == (1, 1, 1)
        assert all(abs(t.sigma - 2.0 / 3.0) < 1e-12 for t in dec.terms)
        total = sum(reconstruct(dec, i) for i in range(3))
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_degenerate_spectrum(self):
        uniform = Povm(2, (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2),
                       (0, 1))
        dec = decompose_rank1(uniform)
        assert dec.per_element_rank == (2, 2)
        assert all(abs(t.sigma - 0.5) < 1e-12 for t in dec.terms)

    def test_keep_all_mode(self):
        dec = decompose_rank1(trine_povm(), rank_tol=None)
        assert dec.total_rank == 6  # every eigenpair of every element
        np.testing.assert_allclose(sum(reconstruct(dec, i) for i in range(3)),
                                   np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("factor, ranks", [(0.5, (1, 1)), (2.0, (2, 1))])
    def test_default_rank_tol(self, factor, ranks):
        eps = factor * RANK1_TOL
        povm = Povm(2, (np.diag([1.0, eps]), np.diag([0.0, 1.0 - eps])), (0, 1))
        assert decompose_rank1(povm).per_element_rank == ranks

    def test_sigmas_sorted_within_elements(self, rng):
        dec = decompose_rank1(random_povm(8, 3, rng))
        for elem in range(3):
            sigmas = [t.sigma for t in dec.terms if t.element == elem]
            assert sigmas == sorted(sigmas, reverse=True)


class TestTruncate:
    def test_zero_delta_identity(self, rng):
        dec = decompose_rank1(random_povm(4, 2, rng))
        assert truncate(dec, 0.0).total_rank == dec.total_rank

    def test_infinite_delta_empties(self):
        dec = decompose_rank1(trine_povm())
        assert truncate(dec, math.inf).total_rank == 0

    @pytest.mark.parametrize("delta", [-1e-3, math.nan])
    def test_negative_or_nan_delta_rejected(self, delta):
        dec = decompose_rank1(trine_povm())
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            truncate(dec, delta)
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            dilate(trine_povm(), delta)

    def test_probability_shift_bounded_by_discarded_mass(self, rng):
        povm = random_povm(4, 3, rng)
        dec = decompose_rank1(povm)
        delta = 0.3
        kept = truncate(dec, delta)
        discarded = sum(t.sigma for t in dec.terms) - sum(t.sigma for t in kept.terms)
        exact = build_isometry(dec)
        trunc = build_isometry(kept)
        for _ in range(5):
            psi = random_pure(4, rng)
            p_exact = simulate_measurement(exact, psi).probabilities
            p_trunc = simulate_measurement(trunc, psi).probabilities
            for lbl in range(3):
                assert abs(p_exact[lbl] - p_trunc[lbl]) <= discarded + 1e-12


class TestBuildIsometry:
    def test_basis_pvm_identity_embedding(self):
        dil = build_isometry(decompose_rank1(basis_pvm(4)))
        assert dil.target_qubits == 2
        assert dil.ancilla_qubits == 0
        # Permutation of the identity: each row a basis vector.
        np.testing.assert_allclose(np.abs(dil.isometry), np.eye(4), atol=1e-12)

    def test_trine_one_ancilla(self):
        dil = build_isometry(decompose_rank1(trine_povm()))
        assert dil.total_rank == 3
        assert dil.target_qubits == 2
        gram = dil.isometry.conj().T @ dil.isometry
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
        assert dil.outcome_map == (0, 1, 2, RESIDUAL)

    def test_empty_decomposition_rejected(self):
        dec = truncate(decompose_rank1(trine_povm()), math.inf)
        with pytest.raises(ValueError):
            build_isometry(dec)

    def test_random_povm_isometry(self, rng):
        for _ in range(10):
            d = int(rng.choice([2, 4, 8]))
            k = int(rng.integers(2, 5))
            povm = random_povm(d, k, rng, inconclusive=bool(rng.integers(0, 2)))
            dil = dilate(povm)
            gram = dil.isometry.conj().T @ dil.isometry
            assert np.max(np.abs(gram - np.eye(d))) < 1e-10


class TestDilationResult:
    @pytest.mark.parametrize("shape, outcome_map", [
        pytest.param((0, 0), (), id="0x0"),
        pytest.param((1, 0), (0,), id="1x0"),
        pytest.param((0, 1), (), id="0x1"),
        pytest.param((2, 2, 1), (0, 1), id="3-d"),
    ])
    def test_empty_or_non_matrix_isometry_rejected(self, shape, outcome_map):
        with pytest.raises(ValueError, match=re.escape(
                f"isometry needs a nonempty 2-D shape, got {shape}")):
            DilationResult(np.zeros(shape), outcome_map, 0.0)

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_negative_or_nan_delta_rejected(self, delta):
        with pytest.raises(ValueError, match=f"delta must be nonnegative, got {delta}"):
            DilationResult(np.eye(2), (0, 1), delta)

    def test_outcome_map_stored_as_tuple(self):
        listed = DilationResult(np.eye(2), [0, 1], 0.0)
        assert listed.outcome_map == (0, 1)
        assert listed == DilationResult(np.eye(2), (0, 1), 0.0)


class TestGenericDilation:
    def test_basis_pvm_comparison(self):
        povm = basis_pvm(2)
        gen = build_isometry_generic(povm)
        minimal = build_isometry(decompose_rank1(povm))
        assert gen.total_rank == 4  # k*d
        assert minimal.target_dim == 2
        assert gen.target_dim == 4

    def test_trine_comparison(self):
        gen = build_isometry_generic(trine_povm())
        minimal = build_isometry(decompose_rank1(trine_povm()))
        assert gen.total_rank == 6
        assert gen.target_qubits == 3
        assert minimal.target_qubits == 2

    def test_generic_is_isometry(self, rng):
        povm = random_povm(4, 3, rng)
        gen = build_isometry_generic(povm)
        gram = gen.isometry.conj().T @ gen.isometry
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_generic_probabilities_match(self, rng):
        povm = random_povm(4, 3, rng)
        gen = build_isometry_generic(povm)
        report = verify_dilation(gen, povm, num_states=5)
        assert report.max_probability_deviation < 1e-10

    def test_slot_layout(self, rng):
        # Row r of sqrt(Pi_i) fills basis slot r*k + i; slots past k*d are residual.
        povm = random_povm(2, 3, rng)
        gen = build_isometry_generic(povm)
        k = len(povm.elements)
        assert gen.total_rank == 6 and gen.target_qubits == 3
        assert gen.outcome_map[6:] == (RESIDUAL, RESIDUAL)
        assert not gen.isometry[6:].any()
        for i, elem in enumerate(povm.elements):
            w, u = np.linalg.eigh(elem)
            root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
            for r in range(povm.dim):
                np.testing.assert_allclose(gen.isometry[r * k + i], root[r], atol=1e-12)
                assert gen.outcome_map[r * k + i] == povm.labels[i]

    def test_strictly_smaller_register_for_low_rank_optimum(self):
        # The optimal minimum-error POVM for the two-qubit benchmark ensemble
        # has rank-2 elements, so the rank-based register is strictly smaller
        # than the generic k*d construction.
        from qsdkit import ProblemSpec, make_benchmark_two_qubit_states, solve_scheme

        spec = ProblemSpec.from_states(make_benchmark_two_qubit_states((0.2, 0.5, 0.7)))
        povm = solve_scheme(spec, "med").povm
        minimal = build_isometry(decompose_rank1(povm))
        generic = build_isometry_generic(povm)
        assert minimal.total_rank == 6
        assert minimal.target_dim < generic.target_dim
        report = verify_dilation(minimal, povm, states=spec.states)
        assert report.max_probability_deviation < 1e-7


class TestVerify:
    def test_exact_trine(self):
        povm = trine_povm()
        report = verify_dilation(build_isometry(decompose_rank1(povm)), povm)
        assert report.isometry_deviation < 1e-10
        assert report.max_probability_deviation < 1e-10

    def test_identity_pvm_zero_deviation(self):
        povm = basis_pvm(2)
        report = verify_dilation(build_isometry(decompose_rank1(povm)), povm)
        assert report.isometry_deviation < 1e-14
        assert report.max_probability_deviation < 1e-14


class TestSimulate:
    def test_basis_pvm_ground_state(self):
        dil = build_isometry(decompose_rank1(basis_pvm(2)))
        result = simulate_measurement(dil, PureState(np.array([1.0, 0.0])))
        assert result.probabilities[0] == pytest.approx(1.0, abs=1e-14)
        assert result.probabilities[1] == pytest.approx(0.0, abs=1e-14)

    def test_trine_on_maximally_mixed(self):
        dil = build_isometry(decompose_rank1(trine_povm()))
        result = simulate_measurement(dil, DensityMatrix(np.eye(2) / 2.0))
        for lbl in range(3):
            assert result.probabilities[lbl] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_exact_dilation_matches_traces(self, rng):
        for _ in range(5):
            povm = random_povm(4, 3, rng, inconclusive=True)
            dil = dilate(povm)
            rho = random_density(4, rng)
            result = simulate_measurement(dil, rho)
            for lbl, elem in zip(povm.labels, povm.elements):
                expected = float(np.trace(rho.matrix @ elem).real)
                assert abs(result.probabilities[lbl] - expected) < 1e-10

    def test_seeded_sampling_deterministic(self, rng):
        dil = build_isometry(decompose_rank1(trine_povm()))
        rho = DensityMatrix(np.eye(2) / 2.0)
        a = simulate_measurement(dil, rho, shots=1024, seed=42)
        b = simulate_measurement(dil, rho, shots=1024, seed=42)
        assert a.counts == b.counts
        assert sum(a.counts.values()) == 1024

    def test_large_sample_within_binomial_bounds(self, rng):
        dil = build_isometry(decompose_rank1(trine_povm()))
        psi = random_pure(2, rng)
        shots = 10 ** 6
        result = simulate_measurement(dil, psi, shots=shots, seed=7)
        for lbl in range(3):
            p = result.probabilities[lbl]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) * shots)
            assert abs(result.counts[lbl] - p * shots) <= 5 * sigma

    def test_residual_collects_truncation_deficit(self, rng):
        povm = random_povm(4, 3, rng)
        dec = truncate(decompose_rank1(povm), 0.2)
        dil = build_isometry(dec)
        psi = random_pure(4, rng)
        result = simulate_measurement(dil, psi)
        total = sum(result.probabilities.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert result.probabilities[RESIDUAL] > 0.0

    def test_dimension_mismatch(self):
        dil = build_isometry(decompose_rank1(basis_pvm(2)))
        with pytest.raises(ValueError):
            simulate_measurement(dil, PureState(np.array([1.0, 0, 0, 0])))

    def test_negative_shots_rejected(self):
        dil = build_isometry(decompose_rank1(trine_povm()))
        with pytest.raises(ValueError, match="shots must be nonnegative"):
            simulate_measurement(dil, DensityMatrix(np.eye(2) / 2.0), shots=-5)


class TestCompleteToUnitary:
    def test_identity_embedding_gives_identity(self):
        dil = build_isometry(decompose_rank1(basis_pvm(4)))
        u = complete_to_unitary(dil)
        # Rows may be permuted by term ordering, but for the basis PVM the
        # isometry is the identity up to phases, so U is unitary and acts
        # identically on measurement statistics.
        np.testing.assert_allclose(u[:, :4], dil.isometry, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_trine_unitary_reproduces_probabilities(self, rng):
        dil = build_isometry(decompose_rank1(trine_povm()))
        u = complete_to_unitary(dil)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
        psi = random_pure(2, rng)
        embedded = np.zeros(4, dtype=complex)
        embedded[:2] = psi.amplitudes
        out = u @ embedded
        probs = np.abs(out) ** 2
        result = simulate_measurement(dil, psi)
        for b, lbl in enumerate(dil.outcome_map):
            if lbl != RESIDUAL:
                assert abs(probs[b] - simulate_probab(dil, psi, b)) < 1e-10

    def test_random_povm_determinant(self, rng):
        povm = random_povm(4, 3, rng)
        u = complete_to_unitary(dilate(povm))
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-8

    def test_truncated_isometry_reorthonormalized(self, rng):
        povm = random_povm(4, 3, rng)
        dil = build_isometry(truncate(decompose_rank1(povm), 0.2))
        u = complete_to_unitary(dil)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(dil.target_dim), atol=1e-10)


def simulate_probab(dil, psi, basis_index):
    amp = dil.isometry @ psi.amplitudes
    return float(abs(amp[basis_index]) ** 2)


class TestDilatedJointDistribution:
    @pytest.mark.parametrize("inconclusive", [False, True])
    def test_exact_dilation_matches_povm(self, rng, inconclusive):
        for _ in range(4):
            spec = random_problem(rng, dim=4)
            povm = random_povm(4, spec.num_states, rng, inconclusive=inconclusive)
            dil = dilate(povm)
            for lam in (0.0, 1e-3, 1.0):
                got = dilated_joint_distribution(spec, dil, lam).entries
                want = joint_distribution(spec, povm, lam).entries
                assert np.max(np.abs(got - want)) < 1e-12

    def test_truncated_inconclusive_column_collects_residual(self, rng):
        spec = random_problem(rng, k=3, dim=4, lam=0.05)
        povm = random_povm(4, 3, rng, inconclusive=True)
        dec = truncate(decompose_rank1(povm, rank_tol=None), 0.15)
        dil = build_isometry(dec)
        assert dec.total_rank < 16
        jd = dilated_joint_distribution(spec, dil)
        v = dil.isometry
        inc_index = povm.labels.index(INCONCLUSIVE)
        deficits = []
        for i, (p, rho) in enumerate(zip(spec.priors, spec.noisy_states())):
            r = rho.matrix
            deficit = 1.0 - float(np.trace(v @ r @ v.conj().T).real)
            inc_mass = float(np.trace(r @ reconstruct(dec, inc_index)).real)
            assert jd.entries[i, -1] == pytest.approx(p * (inc_mass + deficit), abs=1e-12)
            for j in range(3):
                kept = float(np.trace(r @ reconstruct(dec, j)).real)
                assert jd.entries[i, j] == pytest.approx(p * kept, abs=1e-12)
            deficits.append(deficit)
        assert max(deficits) > 1e-3

    def test_truncated_away_label_reads_zero(self):
        povm = Povm(2, (np.diag([1.0, 0.99]).astype(complex), np.diag([0.0, 0.01]).astype(complex)),
                    (0, 1))
        dil = dilate(povm, delta=0.05)
        assert 1 not in dil.outcome_map
        spec = ProblemSpec.from_states([PureState(np.array([0.0, 1.0])),
                                        PureState(np.array([1.0, 0.0]))])
        jd = dilated_joint_distribution(spec, dil)
        np.testing.assert_allclose(jd.entries, [[0.495, 0.0, 0.005], [0.5, 0.0, 0.0]],
                                   atol=1e-12)

    def test_label_beyond_problem_rejected(self):
        dil = dilate(trine_povm())
        spec = ProblemSpec.from_states([PureState(np.array([1.0, 0.0])),
                                        PureState(np.array([0.0, 1.0]))])
        with pytest.raises(ValueError, match="label 2"):
            dilated_joint_distribution(spec, dil)

    def test_residual_key_present_for_exact_dilation(self):
        dil = dilate(basis_pvm(2))
        assert RESIDUAL not in dil.outcome_map
        probs = simulate_measurement(dil, PureState(np.array([1.0, 0.0]))).probabilities
        assert list(probs) == [0, 1, RESIDUAL]
        assert probs[RESIDUAL] == pytest.approx(0.0, abs=1e-14)

    def test_noise_linear_table_matches_depolarized_states(self, rng):
        # The rates mix the clean states' rows with the row of I/d; they
        # must agree with tables of explicitly depolarized states.
        spec = random_problem(rng, k=3, dim=4)
        povm = random_povm(4, 3, rng, inconclusive=True)
        dil = dilate(povm, delta=0.15)
        assert dil.total_rank < 16
        k = spec.num_states
        for lam in (0.0, *np.geomspace(1e-6, 1.0, 9)):
            want = np.zeros((k, k + 1))
            for i, (p, rho) in enumerate(zip(spec.priors, spec.states)):
                probs = simulate_measurement(dil, depolarize(rho, lam)).probabilities
                for lbl, prob in probs.items():
                    want[i, k if lbl in (INCONCLUSIVE, RESIDUAL) else lbl] += p * prob
            got = dilated_joint_distribution(spec, dil, lam).entries
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("lam", [-1e-3, 1.5])
    def test_noise_level_out_of_range_rejected(self, lam):
        spec = ProblemSpec.from_states([PureState(np.array([1.0, 0.0])),
                                        PureState(np.array([0.0, 1.0]))])
        with pytest.raises(ValueError, match="noise level"):
            dilated_joint_distribution(spec, dilate(basis_pvm(2)), lam)


@pytest.fixture(scope="module")
def med_povms():
    """The MED POVMs of the |0>,|+> pair and of the 2-qubit coherent triple."""
    specs = (ProblemSpec.from_states(make_single_qubit_pair()), _bench_spec(2, 0.01))
    return [solve_scheme(spec, "med").povm for spec in specs]


class TestCut:
    """The cut a decomposition was made at travels with it into the isometry."""

    @pytest.mark.parametrize("delta", [0.0, 1e-4, 0.2])
    @pytest.mark.parametrize("which", [0, 1])
    def test_three_steps_equal_dilate(self, med_povms, which, delta):
        povm = med_povms[which]
        dil = build_isometry(truncate(decompose_rank1(povm, rank_tol=None), delta))
        assert dil == dilate(povm, delta)
        assert dil.delta == delta

    def test_default_rank_tol_is_the_cut(self, med_povms):
        for povm in med_povms:
            assert decompose_rank1(povm).delta == RANK1_TOL
            assert build_isometry(decompose_rank1(povm)).delta == RANK1_TOL
            assert decompose_rank1(povm, rank_tol=None).delta == 0.0
            assert decompose_rank1(povm, rank_tol=-1.0).delta == 0.0

    def test_generic_cuts_nothing(self, med_povms):
        for povm in med_povms:
            assert build_isometry_generic(povm).delta == 0.0

    def test_truncating_twice_keeps_the_larger_cut(self, med_povms):
        dec = decompose_rank1(med_povms[1], rank_tol=None)
        for first, second in ((1e-4, 0.2), (0.2, 1e-4)):
            twice = truncate(truncate(dec, first), second)
            assert twice.delta == 0.2
            assert twice == truncate(dec, 0.2)
        assert truncate(decompose_rank1(med_povms[1]), 0.0).delta == RANK1_TOL

    def test_kept_and_dropped_pieces_straddle_the_cut(self, med_povms):
        dec = decompose_rank1(med_povms[1], rank_tol=None)
        cut = truncate(dec, 0.2)
        dropped = [t for t in dec.terms if t not in cut.terms]
        assert dropped and cut.terms
        assert all(t.sigma <= cut.delta for t in dropped)
        assert all(t.sigma >= cut.delta for t in cut.terms)

    def test_file_keeps_the_cut(self, med_povms, tmp_path):
        dil = build_isometry(truncate(decompose_rank1(med_povms[1], rank_tol=None), 0.2))
        path = tmp_path / "iso.json"
        write_isometry(path, dil)
        reread = read_isometry(path)
        assert reread.delta == 0.2
        assert reread == dil
