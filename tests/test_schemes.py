import dataclasses
import math
import re

import numpy as np
import pytest

from qsdkit import (
    INCONCLUSIVE,
    DecodeError,
    DensityMatrix,
    ProblemSpec,
    PureState,
    brute_force_qubit_povm,
    SCHEME_NAMES,
    build_crossqsd,
    build_med,
    build_scheme,
    confidences,
    decode_povm,
    density_of,
    depolarize,
    joint_distribution,
    make_benchmark_two_qubit_states,
    make_single_qubit_pair,
    outcome_stats,
    scheme_value,
    solve,
    solve_scheme,
    uqsd_reference,
)
from qsdkit import schemes
from qsdkit.cli import _bench_spec
from qsdkit.solver import ConeProgram, PsdCone, Solution, smat, svec
from qsdkit.states import COMPLEMENT_TOL, DECODE_COMPLETENESS_TOL, SUPPORT_TOL, UQSD_KERNEL_TOL
from conftest import random_problem
from test_solver import mixed_spec

HELSTROM_ZERO_PLUS = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
UQSD_ZERO_PLUS = 1.0 - 1.0 / math.sqrt(2.0)


def zero_plus_spec(lam=0.0):
    return ProblemSpec.from_states(make_single_qubit_pair(), noise_lambda=lam)


def bench2q_spec(lam=0.0):
    return ProblemSpec.from_states(make_benchmark_two_qubit_states((0.2, 0.5, 0.7)),
                                   noise_lambda=lam)


def orthogonal_pair():
    return ProblemSpec.from_states([PureState(np.array([1.0, 0.0])),
                                    PureState(np.array([0.0, 1.0]))])


class TestMed:
    def test_orthogonal_states(self):
        assert solve_scheme(orthogonal_pair(), "med").value == pytest.approx(1.0, abs=1e-7)

    def test_zero_plus_matches_bloch_scan(self):
        res = solve_scheme(zero_plus_spec(), "med")
        assert res.value == pytest.approx(HELSTROM_ZERO_PLUS, abs=1e-7)
        scan = brute_force_qubit_povm(zero_plus_spec(), "med", grid=200)
        assert res.value >= scan - 1e-6

    def test_benchmark_two_qubit_conditionals(self):
        spec = bench2q_spec()
        res = solve_scheme(spec, "med")
        jd = joint_distribution(spec, res.povm, 0.0)
        cond = [jd.entries[i, i] / spec.priors[i] for i in range(3)]
        np.testing.assert_allclose(cond, [0.99547, 0.98188, 0.98059], atol=1e-3)

    def test_decoded_povm_is_valid(self, rng):
        res = solve_scheme(random_problem(rng), "med")
        assert res.povm.num_conclusive == res.scheme.num_states


class TestMedPlus:
    def test_matches_med_and_kills_inconclusive(self, rng):
        for _ in range(8):
            spec = random_problem(rng)
            med = solve_scheme(spec, "med")
            plus = solve_scheme(spec, "med_plus")
            assert abs(med.value - plus.value) <= 1e-5
            assert float(np.trace(plus.povm.element(INCONCLUSIVE)).real) <= 1e-3

    def test_orthogonal_states(self):
        res = solve_scheme(orthogonal_pair(), "med_plus")
        assert res.value == pytest.approx(1.0, abs=1e-7)
        assert np.linalg.norm(res.povm.element(INCONCLUSIVE)) < 1e-6


class TestUqsd:
    def test_zero_plus(self):
        res = solve_scheme(zero_plus_spec(), "uqsd")
        assert res.value == pytest.approx(UQSD_ZERO_PLUS, abs=1e-7)
        # Conclusive outcomes never misidentify.
        jd = joint_distribution(zero_plus_spec(), res.povm, 0.0)
        assert jd.entries[0, 1] < 1e-9
        assert jd.entries[1, 0] < 1e-9

    def test_identical_full_rank_states(self, rng):
        rho = depolarize(density_of(make_single_qubit_pair()[0]), 0.3)
        spec = ProblemSpec((rho, rho), np.array([0.5, 0.5]))
        res = solve_scheme(spec, "uqsd")
        assert res.value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(res.povm.element(INCONCLUSIVE), np.eye(2), atol=1e-9)

    def test_orthogonal_states(self):
        res = solve_scheme(orthogonal_pair(), "uqsd")
        assert res.value == pytest.approx(1.0, abs=1e-7)

    def test_noisy_states_force_all_inconclusive(self, rng):
        spec = zero_plus_spec(lam=0.05)
        res = solve_scheme(spec, "uqsd")
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_empty_kernels_decode_as_zero_elements(self):
        # Two pure states and a rank-3 mixed state in d=4: only the mixed
        # state's element has a kernel to live in (rank 2), so the scheme
        # holds two element blocks and decode fills in elements 0 and 1.
        e = np.eye(4)
        mixed = DensityMatrix(np.diag([0.0, 1.0, 1.0, 1.0]) / 3.0)
        spec = ProblemSpec((density_of(PureState(e[0])),
                            density_of(PureState((e[0] + e[1]) / math.sqrt(2.0))), mixed),
                           np.full(3, 1.0 / 3.0))
        scheme = build_scheme(spec, "uqsd")
        offsets, carriers = zip(*scheme.element_blocks)
        assert len(offsets) == 2
        assert carriers[0].shape == (4, 2) and carriers[1] is None
        assert scheme.labels == (2, INCONCLUSIVE)
        povm = decode_povm(scheme, solve(scheme.program))
        assert povm.labels == (0, 1, 2, INCONCLUSIVE)
        assert not povm.elements[0].any() and not povm.elements[1].any()
        np.testing.assert_allclose(sum(povm.elements), np.eye(4), atol=1e-10)
        jd = joint_distribution(spec, povm, 0.0).entries
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert jd[i, j] < 1e-9


class TestFrio:
    def test_rate_zero_reduces_to_med(self):
        spec = zero_plus_spec()
        frio = solve_scheme(spec, "frio", rate=0.0)
        assert frio.value == pytest.approx(HELSTROM_ZERO_PLUS, abs=1e-6)

    def test_rate_one_forces_inconclusive(self):
        spec = zero_plus_spec()
        res = solve_scheme(spec, "frio", rate=1.0)
        assert res.value == pytest.approx(0.0, abs=1e-7)
        np.testing.assert_allclose(res.povm.element(INCONCLUSIVE), np.eye(2), atol=1e-5)

    def test_half_rate_against_grid_search(self):
        spec = zero_plus_spec()
        res = solve_scheme(spec, "frio", rate=0.5)
        scan = brute_force_qubit_povm(spec, "frio", grid=60, rate=0.5)
        assert scan <= res.value + 1e-6
        # The inconclusive rate constraint holds on the decoded POVM.
        jd = joint_distribution(spec, res.povm, 0.0)
        assert outcome_stats(jd).p_inc >= 0.5 - 1e-6

    @pytest.mark.parametrize("lam,rate,p_succ,p_err", [
        (0.0, 0.1, 0.782, 0.118),
        (0.0, 0.5, 0.478, 0.022),
        (0.1, 0.4, 0.527, 0.073),
    ])
    def test_rate_sweep_reference_values_pair(self, lam, rate, p_succ, p_err):
        # Frozen reference values for the |0>,|+> ensemble at matched
        # construction/evaluation noise (three-decimal precision).
        spec = zero_plus_spec(lam=lam)
        res = solve_scheme(spec, "frio", rate=rate)
        stats = outcome_stats(joint_distribution(spec, res.povm, lam))
        assert stats.p_succ == pytest.approx(p_succ, abs=5e-4)
        assert stats.p_err == pytest.approx(p_err, abs=5e-4)

    @pytest.mark.parametrize("rate,p_succ,p_err", [
        (0.1, 0.897, 0.003),
        (0.2, 0.800, 0.000),
    ])
    def test_rate_sweep_reference_values_bench2q(self, rate, p_succ, p_err):
        spec = bench2q_spec()
        res = solve_scheme(spec, "frio", rate=rate)
        stats = outcome_stats(joint_distribution(spec, res.povm, 0.0))
        assert stats.p_succ == pytest.approx(p_succ, abs=5e-4)
        assert stats.p_err == pytest.approx(p_err, abs=5e-4)


class TestCrossQsd:
    def test_vacuous_bounds_reduce_to_med(self):
        spec = bench2q_spec()
        med = solve_scheme(spec, "med")
        cross = solve_scheme(spec, "crossqsd", alpha=np.ones(3), beta=np.ones(3))
        assert abs(cross.value - med.value) <= 1e-5

    def test_confidence_bounds_hold(self):
        spec = bench2q_spec(lam=0.01)
        alpha = np.full(3, 0.05)
        beta = np.full(3, 0.05)
        res = solve_scheme(spec, "crossqsd", alpha=alpha, beta=beta)
        given_state, given_outcome = confidences(spec, res.povm, 0.01)
        assert np.all(given_state >= 1.0 - alpha - 1e-5)
        assert np.all(given_outcome >= 1.0 - beta - 1e-5)

    def test_unreachable_posterior_bound_goes_inconclusive(self):
        # Overlapping states cannot reach a 99.9% posterior, so the only
        # feasible measurements have (numerically) zero conclusive mass; the
        # confidence constraints are then vacuous and everything lands in
        # the inconclusive outcome.
        from qsdkit import make_coherent_state

        alphas = [1.0, np.exp(-1j * np.pi / 3.0), np.exp(-2j * np.pi / 3.0)]
        spec = ProblemSpec.from_states([make_coherent_state(a, 3) for a in alphas],
                                       noise_lambda=0.01)
        res = solve_scheme(spec, "crossqsd", alpha=np.full(3, 0.2),
                           beta=np.full(3, 1e-3))
        jd = joint_distribution(spec, res.povm, 0.01)
        stats = outcome_stats(jd)
        assert stats.p_succ <= 1e-6
        assert stats.p_inc >= 1.0 - 1e-6
        # Confidence bounds are only meaningful above the conditioning-mass
        # floor; nothing exceeds it here.
        assert float(jd.entries[:, :3].sum()) <= 1e-8 * 3

    def test_unreachable_posterior_copies_stay_inconclusive(self):
        # The same program and seven copies with each nonzero entry of c moved
        # one ulp (the perturbation of tools/iteration_spread.py).  Every
        # posterior matrix p_i rho_i - (1 - beta_i) sum_j p_j rho_j is negative
        # definite, so no conclusive element gets a block and every draw has
        # exactly zero conclusive mass.
        spec = _bench_spec(3, 0.01)
        scheme = build_scheme(spec, "crossqsd", alpha=0.2, beta=1e-3)
        assert scheme.labels == (INCONCLUSIVE,)
        program = scheme.program
        for seed in [None] + list(range(7)):
            copy = program
            if seed is not None:
                rng = np.random.default_rng(seed)
                direction = np.where(rng.random(program.c.size) < 0.5, -np.inf, np.inf)
                c = np.where(program.c != 0.0, np.nextafter(program.c, direction), program.c)
                copy = dataclasses.replace(program, c=c)
            solution = solve(copy)
            assert solution.status == "optimal"
            jd = joint_distribution(spec, decode_povm(scheme, solution), 0.01)
            assert float(jd.entries[:, :3].sum()) <= 1e-8 * 3
            assert outcome_stats(jd).p_succ == 0.0

    @pytest.mark.parametrize("inst", ["ens", "tri2", "tri3", "tri4"])
    def test_reachable_elements_keep_their_blocks(self, inst):
        spec = bench2q_spec() if inst == "ens" else _bench_spec(int(inst[-1]), 0.01)
        scheme = build_scheme(spec, "crossqsd", alpha=0.1, beta=0.1)
        assert scheme.labels == (0, 1, 2, INCONCLUSIVE)
        assert len(scheme.program.A) == 6

    @pytest.mark.parametrize("top, blocks", [(-1.5e-9, 0), (-0.5e-9, 1)])
    def test_unreachable_posterior_threshold(self, top, blocks):
        # rho_0 = |0><0| and rho_1 = I/2 at equal priors: the posterior matrix
        # of element 0 has top eigenvalue (3 beta - 1) / 4.
        spec = ProblemSpec((density_of(PureState(np.array([1.0, 0.0]))),
                            DensityMatrix(np.eye(2) / 2.0)), np.array([0.5, 0.5]))
        beta = (4.0 * top + 1.0) / 3.0
        scheme = build_scheme(spec, "crossqsd", alpha=1.0, beta=[beta, 1.0])
        assert scheme.labels.count(0) == blocks
        assert scheme.labels[-2:] == (1, INCONCLUSIVE)
        assert solve_scheme(spec, "crossqsd", alpha=1.0, beta=[beta, 1.0]).solution.status \
            == "optimal"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            solve_scheme(zero_plus_spec(), "crossqsd", alpha=np.array([0.5]),
                         beta=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_nan_bound_rejected(self, key):
        params = {"alpha": np.full(2, 0.1), "beta": np.full(2, 0.1)}
        params[key][1] = np.nan
        with pytest.raises(ValueError, match="must lie in"):
            build_scheme(zero_plus_spec(), "crossqsd", **params)

    def test_scalar_bounds_apply_to_every_state(self):
        spec = bench2q_spec(0.01)
        scalar = build_scheme(spec, "crossqsd", alpha=0.2, beta=0.05).program
        vector = build_scheme(spec, "crossqsd", alpha=np.full(3, 0.2),
                              beta=np.full(3, 0.05)).program
        np.testing.assert_array_equal(scalar.A, vector.A)
        np.testing.assert_array_equal(scalar.c, vector.c)

    @pytest.mark.parametrize("inst", ["ens", "tri2", "tri3"])
    def test_builder_broadcasts_scalar_bounds(self, inst):
        spec = bench2q_spec(0.01) if inst == "ens" else _bench_spec(int(inst[-1]), 0.01)
        k = spec.num_states
        assert build_crossqsd(spec, 0.1, 0.2) == build_crossqsd(spec, np.full(k, 0.1),
                                                                np.full(k, 0.2))
        with pytest.raises(ValueError, match="one alpha and one beta per state"):
            build_crossqsd(spec, np.array([0.1]), 0.2)


class TestFitSchemes:
    def test_minl1_recovers_achievable_reference(self):
        spec = bench2q_spec()
        ref = uqsd_reference(spec)
        res = solve_scheme(spec, "minl1", reference=ref)
        assert res.value <= 1e-6
        jd = joint_distribution(spec, res.povm, 0.0)
        assert float(np.abs(jd.entries - ref.entries).sum()) <= 1e-6

    def test_minl1_objective_self_consistent_under_noise(self):
        spec = bench2q_spec(lam=0.01)
        ref = uqsd_reference(spec)
        res = solve_scheme(spec, "minl1", reference=ref)
        jd = joint_distribution(spec, res.povm, 0.01)
        recomputed = float(np.abs(jd.entries - ref.entries).sum())
        assert res.value >= -1e-9
        assert abs(res.value - recomputed) <= 1e-6

    def test_minss_nonnegative_and_bounded(self):
        spec = bench2q_spec(lam=0.01)
        ref = uqsd_reference(spec)
        l1 = solve_scheme(spec, "minl1", reference=ref)
        ss = solve_scheme(spec, "minss", reference=ref)
        assert ss.value >= -1e-9
        assert l1.value >= -1e-9
        max_dev = float(np.abs(joint_distribution(spec, l1.povm, 0.01).entries
                               - ref.entries).max())
        assert l1.value <= 12 * (max_dev + 1e-9)

    def test_meco_matches_uqsd_noiseless(self):
        spec = bench2q_spec()
        ref = uqsd_reference(spec)
        uqsd = solve_scheme(spec, "uqsd")
        meco = solve_scheme(spec, "meco", reference=ref)
        assert meco.value == pytest.approx(uqsd.value, abs=1e-6)
        jd = joint_distribution(spec, meco.povm, 0.0)
        np.testing.assert_allclose(np.diag(jd.entries[:, :3]),
                                   np.diag(ref.entries[:, :3]), atol=1e-6)

    def test_meco_near_minl1_under_small_noise(self):
        spec = bench2q_spec(lam=1e-3)
        ref = uqsd_reference(spec)
        l1 = solve_scheme(spec, "minl1", reference=ref)
        meco = solve_scheme(spec, "meco", reference=ref)
        ps_l1 = outcome_stats(joint_distribution(spec, l1.povm, 1e-3)).p_succ
        ps_meco = outcome_stats(joint_distribution(spec, meco.povm, 1e-3)).p_succ
        assert abs(ps_l1 - ps_meco) <= 1e-3

    def test_meco_zero_offdiagonal_reference_feasible(self):
        spec = bench2q_spec(lam=1e-3)
        ref = uqsd_reference(spec)  # off-diagonal conclusive entries are zero
        res = solve_scheme(spec, "meco", reference=ref)
        assert res.value <= float(np.trace(ref.entries[:, :3])) + 1e-6

    def test_meco_impossible_reference_surfaces_infeasibility(self):
        # This reference demands Tr(rho_0' Pi_1) >= 0.9 and
        # Tr(rho_0' Pi_2) >= 0.45, exceeding the row budget Tr(rho_0') = 1,
        # so no POVM satisfies it.
        from qsdkit import JointDistribution, build_fit_meco, decode_povm, solve
        from qsdkit.solver import INFEASIBLE

        ref = JointDistribution(np.array([
            [0.0, 0.30, 0.15, 0.05],
            [0.30, 0.0, 0.0, 0.05],
            [0.15, 0.0, 0.0, 0.0],
        ]))
        scheme = build_fit_meco(bench2q_spec(lam=1e-3), ref)
        solution = solve(scheme.program, tol=1e-8, max_iters=40_000)
        assert solution.status == INFEASIBLE
        with pytest.raises(DecodeError):
            decode_povm(scheme, solution)


class TestHybrid:
    def test_w_zero_equals_med(self):
        spec = bench2q_spec(lam=1e-3)
        ref = uqsd_reference(spec)
        med = solve_scheme(spec, "med")
        hyb = solve_scheme(spec, "hybrid", w=0.0, ell=1, reference=ref)
        assert abs(hyb.value - med.value) <= 1e-5

    @pytest.mark.parametrize("spec_of", [lambda: _bench_spec(2, 0.01), lambda: _bench_spec(3, 0.01),
                                         lambda: bench2q_spec(0.01)], ids=["tri2", "tri3", "ens"])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_w_zero_builds_the_med_plus_program(self, spec_of, ell):
        # Exactly equal: a term or a row added twice would show here.
        spec = spec_of()
        hyb = schemes.build_hybrid(spec, 0.0, ell, np.full((3, 4), 1.0 / 12.0))
        med = schemes.build_med_plus(spec)
        assert hyb.program.blocks == med.program.blocks
        for field in ("c", "A", "b", "quad_diag"):
            assert np.array_equal(getattr(hyb.program, field), getattr(med.program, field))
        for part in (0, 1):
            assert np.array_equal(hyb.program.block_sum[part], med.program.block_sum[part])
        assert hyb.labels == med.labels
        assert [o for o, _ in hyb.element_blocks] == [o for o, _ in med.element_blocks]
        assert hyb.maximize == med.maximize

    def test_large_w_pins_reference(self):
        spec = bench2q_spec()
        ref = uqsd_reference(spec)
        hyb = solve_scheme(spec, "hybrid", w=1e4, ell=1, reference=ref)
        jd = joint_distribution(spec, hyb.povm, 0.0)
        assert float(np.abs(jd.entries - ref.entries).sum()) <= 1e-4

    def test_tradeoff_monotone(self):
        spec = bench2q_spec(lam=1e-3)
        ref = uqsd_reference(spec)
        rows = []
        for w in (0.0, 0.2, 1.0):
            res = solve_scheme(spec, "hybrid", w=w, ell=1, reference=ref)
            jd = joint_distribution(spec, res.povm, 1e-3)
            rows.append((outcome_stats(jd).p_succ,
                         float(np.abs(jd.entries - ref.entries).sum())))
        for a, b in zip(rows, rows[1:]):
            assert a[0] >= b[0] - 2e-8
            assert a[1] >= b[1] - 2e-8


    @pytest.mark.parametrize("w, match", [(np.nan, "nonnegative"), (np.inf, "non-finite")])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_non_finite_weight_rejected(self, w, match, ell):
        ref = uqsd_reference(zero_plus_spec())
        with pytest.raises(ValueError, match=match):
            build_scheme(zero_plus_spec(0.01), "hybrid", w=w, ell=ell, reference=ref)

    def test_non_scalar_weight_rejected(self):
        ref = uqsd_reference(zero_plus_spec())
        with pytest.raises(ValueError, match="w must be a nonnegative number"):
            build_scheme(zero_plus_spec(0.01), "hybrid", w=np.array([0.1, 0.2]), reference=ref)

    def test_default_reference_solved_after_the_weight_check(self, monkeypatch):
        calls = []
        solve_reference = schemes.uqsd_reference

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_reference(*args, **kwargs)

        monkeypatch.setattr(schemes, "uqsd_reference", counting)
        for w in ([0.1, 0.2], np.nan, -1.0):
            with pytest.raises(ValueError, match="w must be a nonnegative number"):
                solve_scheme(zero_plus_spec(0.01), "hybrid", w=w)
        assert calls == []
        build_scheme(zero_plus_spec(0.01), "hybrid", w=0.5)
        assert len(calls) == 1

    def test_default_reference_solved_after_the_ell_check(self, monkeypatch):
        calls = []
        solve_reference = schemes.uqsd_reference

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_reference(*args, **kwargs)

        monkeypatch.setattr(schemes, "uqsd_reference", counting)
        spec = _bench_spec(3, 0.01)
        with pytest.raises(ValueError, match="ell must be 1 or 2"):
            solve_scheme(spec, "hybrid", ell=3)
        assert calls == []
        build_scheme(spec, "hybrid", ell=2)
        assert len(calls) == 1


class TestSchemeTable:
    def test_solver_settings_reach_the_default_reference(self, monkeypatch):
        # The budget ends the minl1 solve (241 iterations at this tol) but not
        # the uqsd reference (9): both solves see the caller's settings.
        settings = []
        solve_program = schemes.solve

        def recording(program, **kwargs):
            settings.append((kwargs["tol"], kwargs["max_iters"]))
            return solve_program(program, **kwargs)

        monkeypatch.setattr(schemes, "solve", recording)
        with pytest.raises(DecodeError, match="status=max_iters"):
            solve_scheme(_bench_spec(2, 0.01), "minl1", tol=1e-7, max_iters=20)
        assert settings == [(1e-7, 20), (1e-7, 20)]

    def test_names_keep_their_order(self):
        # qsd bench rows and the benchmark's operation order follow this order.
        assert SCHEME_NAMES == ("med", "med_plus", "uqsd", "frio", "crossqsd",
                                "minl1", "minss", "meco", "hybrid")

    @pytest.mark.parametrize("name, params", [("minl1", {"ell": 2}),
                                              ("med", {"alpha": [1, 2]}),
                                              ("frio", {"rate": 0.2, "w": 0.3}),
                                              ("uqsd", {"reference": None})])
    def test_parameter_the_scheme_does_not_take_is_rejected(self, name, params):
        spec = bench2q_spec()
        with pytest.raises(ValueError, match=f"scheme '{name}' takes"):
            build_scheme(spec, name, **params)
        with pytest.raises(ValueError, match=f"scheme '{name}' takes"):
            solve_scheme(spec, name, **params)

    def test_defaults_fill_absent_parameters(self):
        spec = bench2q_spec(0.01)
        ref = uqsd_reference(spec)
        cases = [("frio", {"rate": 0.1, "bound": "at_least"}),
                 ("crossqsd", {"alpha": np.full(3, 0.1), "beta": np.full(3, 0.1)}),
                 ("minl1", {"reference": ref}),
                 ("hybrid", {"w": 0.3, "ell": 1, "reference": ref})]
        for name, explicit in cases:
            default = build_scheme(spec, name).program
            given = build_scheme(spec, name, **explicit).program
            for field in ("c", "A", "b"):
                np.testing.assert_array_equal(getattr(default, field), getattr(given, field))


class TestDecode:
    def test_exact_blocks_unchanged(self):
        spec = orthogonal_pair()
        scheme = build_med(spec)
        solution = solve(scheme.program)
        povm = decode_povm(scheme, solution)
        total = sum(povm.elements)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
        redecoded = decode_povm(scheme, solution)
        for a, b in zip(povm.elements, redecoded.elements):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_noisy_blocks_are_cleaned(self, rng):
        # Perturb an exact solution by 1e-9 noise; decode restores exact
        # completeness and PSD elements.
        spec = orthogonal_pair()
        scheme = build_med(spec)
        solution = solve(scheme.program)
        noisy = solution.x + 1e-9 * rng.standard_normal(solution.x.size)
        perturbed = Solution(x=noisy, status=solution.status,
                             primal_residual=solution.primal_residual,
                             dual_residual=solution.dual_residual,
                             objective=solution.objective,
                             iterations=solution.iterations)
        povm = decode_povm(scheme, perturbed)
        np.testing.assert_allclose(sum(povm.elements), np.eye(2), atol=1e-10)
        for e in povm.elements:
            assert np.linalg.eigvalsh(e)[0] > -1e-12

    def test_unconverged_rejected(self):
        spec = orthogonal_pair()
        scheme = build_med(spec)
        solution = solve(scheme.program)
        garbage = Solution(x=solution.x * 3.0, status="optimal",
                           primal_residual=0.0, dual_residual=0.0,
                           objective=0.0, iterations=1)
        with pytest.raises(DecodeError):
            decode_povm(scheme, garbage)

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_completeness_threshold(self, scale, raises):
        # Element 0 gains scale * DECODE_COMPLETENESS_TOL on its (0, 0) entry,
        # so the elements sum to that Frobenius distance from the identity.
        scheme = build_med(orthogonal_pair())
        eps = scale * DECODE_COMPLETENESS_TOL
        x = np.concatenate([svec(np.diag([1.0 + eps, 0.0])), svec(np.diag([0.0, 1.0]))])
        solution = Solution(x=x, status="optimal", primal_residual=0.0, dual_residual=0.0,
                            objective=0.0, iterations=1)
        if raises:
            with pytest.raises(DecodeError, match="from identity"):
                decode_povm(scheme, solution)
        else:
            povm = decode_povm(scheme, solution)
            np.testing.assert_allclose(sum(povm.elements), np.eye(2), atol=1e-12)

    def test_unconverged_solve_scheme_raises(self):
        with pytest.raises(DecodeError, match="status=max_iters"):
            solve_scheme(_bench_spec(3, 0.01), "med", max_iters=5)

    def test_unconverged_reference_raises(self):
        with pytest.raises(DecodeError, match="status=max_iters"):
            uqsd_reference(_bench_spec(3, 0.01), max_iters=5)

    def test_unconverged_solution_keeps_its_residuals(self):
        # A solve stopped by max_iters returns its last iterate with that
        # iterate's own primal and dual residuals; the decode error names both.
        scheme = build_scheme(_bench_spec(3, 0.01), "med")
        solution = solve(scheme.program, max_iters=5)
        assert solution.status == "max_iters" and solution.iterations == 5
        assert solution.primal_residual == pytest.approx(1.739e-2, rel=1e-3)
        assert solution.dual_residual == pytest.approx(7.111e-2, rel=1e-3)
        with pytest.raises(DecodeError, match=re.escape(
                f"primal residual {solution.primal_residual:.3e}, "
                f"dual residual {solution.dual_residual:.3e}")):
            decode_povm(scheme, solution)

    def test_scheme_value_sign(self):
        spec = orthogonal_pair()
        scheme = build_med(spec)
        solution = solve(scheme.program)
        assert scheme_value(scheme, solution) == pytest.approx(-solution.objective)


class TestOracleBounds:
    def test_med_value_between_oracle_bounds(self, rng):
        from qsdkit import helstrom_two_state
        for _ in range(10):
            spec = random_problem(rng, k=2, dim=2)
            med = solve_scheme(spec, "med")
            r1, r2 = spec.noisy_states()
            hel = helstrom_two_state(r1, r2, float(spec.priors[0]))
            assert med.value <= hel + 1e-6
            assert med.value >= hel - 1e-6


def lift_map(basis):
    """The ``(d**2, (r+1)**2)`` map from support coordinates to full svec coordinates.

    Column ``t`` is ``svec(V X_SS V^+ + (X_ll / sqrt(m)) (I - V V^+))`` for the
    basis matrix ``X = smat(e_t)``; cross entries map to zero.
    """
    d, r = basis.shape
    n = r + 1
    comp = np.eye(d) - basis @ basis.conj().T
    cols = []
    for t in range(n * n):
        x = smat(np.eye(n * n)[t], n)
        cols.append(svec(basis @ x[:r, :r] @ basis.conj().T
                         + x[r, r].real / math.sqrt(d - r) * comp))
    return np.array(cols).T


def full_space_program(scheme):
    """The program of a carrier-free scheme over full ``d x d`` element blocks.

    This is the program as built without the support reduction: each element
    block's part of ``c`` and of every row of ``A`` is the full svec of the
    lifted coefficient matrix, and completeness reads ``svec(I)``.
    """
    program = scheme.program
    offsets, rhs = program.block_sum
    d = scheme.dim
    lift = lift_map(scheme.basis)
    blocks, c, A, quad, new_offsets = [], [], [], [], []
    off = new_off = 0
    for blk in program.blocks:
        cols = slice(off, off + blk.size)
        off += blk.size
        if cols.start in offsets:
            new_offsets.append(new_off)
            blk = PsdCone(d)
            c.append(lift @ program.c[cols])
            A.append(program.A[:, cols] @ lift.T)
            quad.append(np.zeros(d * d))
        else:
            c.append(program.c[cols])
            A.append(program.A[:, cols])
            quad.append(program.quad_diag[cols])
        blocks.append(blk)
        new_off += blk.size
    return ConeProgram(blocks=tuple(blocks), c=np.concatenate(c), A=np.hstack(A), b=program.b,
                       quad_diag=np.concatenate(quad),
                       block_sum=(tuple(new_offsets), svec(np.eye(d))))


def full_space_uqsd(spec):
    """The uqsd program with kernels and carriers of the full ``d x d`` noisy states.

    Its completeness rows are the rows of ``A``: column ``t`` of a carrier
    block is ``svec(N smat(e_t) N^+)``, and the inconclusive block enters
    row ``t`` with its coordinate ``t``.
    """
    d, k = spec.dim, spec.num_states
    mats = [rho.matrix for rho in spec.noisy_states()]
    blocks, c, offsets, carriers, off = [], [], [], [], 0
    for j in range(k):
        w, u = np.linalg.eigh(sum(mats[i] for i in range(k) if i != j))
        n_j = u[:, w < UQSD_KERNEL_TOL]
        if n_j.shape[1] == 0:
            continue
        r = n_j.shape[1]
        blocks.append(PsdCone(r))
        offsets.append(off)
        carriers.append(n_j)
        c.append(-spec.priors[j] * svec(n_j.conj().T @ mats[j] @ n_j))
        off += r * r
    blocks.append(PsdCone(d))
    offsets.append(off)
    c.append(np.zeros(d * d))
    rows = np.zeros((d * d, off + d * d))
    for off_j, n_j in zip(offsets, carriers):
        r = n_j.shape[1]
        for t in range(r * r):
            rows[:, off_j + t] = svec(n_j @ smat(np.eye(r * r)[t], r) @ n_j.conj().T)
    rows[:, off:] = np.eye(d * d)
    return ConeProgram(blocks=tuple(blocks), c=np.concatenate(c), A=rows, b=svec(np.eye(d)))


def flat_mixed_spec(eps):
    """d=8: |0> and (1 - eps)|1><1| + eps|2><2|, so the states' sum has eigenvalue eps."""
    e = np.eye(8)
    mixed = DensityMatrix((1.0 - eps) * np.outer(e[1], e[1]) + eps * np.outer(e[2], e[2]))
    return ProblemSpec((density_of(PureState(e[0])), mixed), np.array([0.5, 0.5]))


class TestSupportReduction:
    @pytest.mark.parametrize("name, params", [("med", {}), ("frio", {"rate": 0.1}),
                                              ("crossqsd", {"alpha": 0.1, "beta": 0.1})])
    def test_matches_full_space_program(self, name, params):
        scheme = build_scheme(_bench_spec(3, 0.01), name, **params)
        assert scheme.basis.shape == (8, 3)
        assert all(blk.dim == 4 for blk in scheme.program.blocks if isinstance(blk, PsdCone))
        reduced = solve(scheme.program, acceleration=0)
        full = solve(full_space_program(scheme), acceleration=0)
        assert reduced.status == full.status == "optimal"
        assert reduced.iterations == full.iterations
        assert abs(reduced.objective - full.objective) <= 1e-12

    def test_uqsd_matches_full_space_program(self):
        spec = _bench_spec(3, 0.0)
        scheme = build_scheme(spec, "uqsd")
        carriers = [n for _, n in scheme.element_blocks]
        assert [None if n is None else n.shape for n in carriers] == [(4, 2)] * 3 + [None]
        reduced = solve(scheme.program, acceleration=0)
        full = solve(full_space_uqsd(spec), acceleration=0)
        assert reduced.status == full.status == "optimal"
        assert reduced.iterations == full.iterations
        assert abs(reduced.objective - full.objective) <= 1e-12

    @pytest.mark.parametrize("name", ["med", "uqsd", "frio", "crossqsd", "hybrid"])
    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_decoded_elements_are_flat_off_the_support(self, name, lam):
        spec = _bench_spec(3, lam)
        result = solve_scheme(spec, name)
        basis = result.scheme.basis
        comp = np.eye(8) - basis @ basis.conj().T
        for e in result.povm.elements:
            flat = np.trace(comp @ e).real / 5
            np.testing.assert_allclose(comp @ e @ comp, flat * comp, rtol=0, atol=1e-12)
            np.testing.assert_allclose(basis.conj().T @ e @ comp, 0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec_of", [lambda: _bench_spec(2, 0.01), lambda: bench2q_spec(),
                                         lambda: bench2q_spec(1e-3), lambda: mixed_spec()],
                             ids=["tri2", "ens", "ens-noisy", "mixed4"])
    def test_small_programs_keep_the_full_basis(self, spec_of, monkeypatch):
        # r + 1 >= d: every program is built from the noisy states as they are.
        spec = spec_of()
        params = {name: {"reference": np.full((3, 4), 1.0 / 12.0)}
                  if "reference" in schemes.SCHEMES[name][1] else {} for name in SCHEME_NAMES}
        ours = {name: build_scheme(spec, name, **params[name]) for name in SCHEME_NAMES}
        monkeypatch.setattr(schemes, "_program_states", lambda spec: (
            None, np.eye(spec.dim), [rho.matrix for rho in spec.noisy_states()]))
        for name in SCHEME_NAMES:
            today = build_scheme(spec, name, **params[name])
            assert ours[name].basis is None
            for field in ("c", "A", "b"):
                np.testing.assert_array_equal(getattr(ours[name].program, field),
                                              getattr(today.program, field))
            pairs = [s.program.block_sum or ((), np.zeros(0)) for s in (ours[name], today)]
            np.testing.assert_array_equal(pairs[0][1], pairs[1][1])

    @pytest.mark.parametrize("eps, width", [(2.0 * SUPPORT_TOL, 4), (0.5 * SUPPORT_TOL, 3)])
    def test_support_cut(self, eps, width):
        scheme = build_scheme(flat_mixed_spec(eps), "med")
        assert scheme.program.blocks == (PsdCone(width),) * 2
        assert scheme.basis.shape == (8, width - 1)

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_complement_must_be_flat(self, scale, raises):
        e = np.eye(4)
        rho = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
        rho[1, 2] = rho[2, 1] = scale * COMPLEMENT_TOL / math.sqrt(2.0)
        args = ([rho], e[:, :1], e[:, 1:])
        if raises:
            with pytest.raises(ValueError, match="multiple of the identity off the support"):
                schemes._reduce(*args)
        else:
            _, identity, (reduced,) = schemes._reduce(*args)
            np.testing.assert_allclose(identity, np.diag([1.0, math.sqrt(3.0)]))
            np.testing.assert_allclose(reduced, np.diag([0.7, 0.1 * math.sqrt(3.0)]))

    @pytest.mark.parametrize("eps, labels", [(0.5 * UQSD_KERNEL_TOL, (0, 1, INCONCLUSIVE)),
                                             (2.0 * UQSD_KERNEL_TOL, (1, INCONCLUSIVE))])
    def test_uqsd_kernel_cut(self, eps, labels):
        # rho_0 = |0><0| and rho_1 = (1 - eps)|1><1| + eps|0><0|: element 1
        # lives on |1>, and element 0 on |0>, the kernel of rho_1 below the cut.
        mixed = DensityMatrix(np.diag([eps, 1.0 - eps]))
        spec = ProblemSpec((density_of(PureState(np.array([1.0, 0.0]))), mixed),
                           np.array([0.5, 0.5]))
        assert build_scheme(spec, "uqsd").labels == labels


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: build_scheme(zero_plus_spec(), "minl1", reference=np.full((3, 4), 1 / 12)),
                 "reference distribution has the wrong number of states", id="reference-states"),
    pytest.param(lambda: schemes.build_fit_min_lp(zero_plus_spec(), 3, np.full((2, 3), 1 / 6)),
                 "ell must be 1 or 2", id="ell"),
    pytest.param(lambda: build_scheme(zero_plus_spec(), "helstrom"),
                 "unknown scheme 'helstrom'", id="scheme-name"),
])
def test_rejected_parameters(call, message):
    with pytest.raises(ValueError, match=message):
        call()
