import dataclasses
import warnings

import numpy as np
import pytest

import qsdkit.solver as solver_module
from qsdkit import (
    INFEASIBLE,
    OPTIMAL,
    SCHEME_NAMES,
    ConeProgram,
    DensityMatrix,
    FreeCone,
    NonNegCone,
    ProblemSpec,
    PsdCone,
    build_scheme,
    build_uqsd,
    make_benchmark_two_qubit_states,
    psd_project,
    smat,
    solve,
    solve_scheme,
    svec,
)
from qsdkit.cli import _bench_spec
from qsdkit.solver import _AndersonMemory, _ConeProjector, _smat_batch, _svec_batch
from qsdkit.states import DRIFT_RTOL, RAY_RTOL, ZERO_ROW_NORM, ZERO_ROW_RHS_TOL


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


class TestSvec:
    def test_round_trip(self, rng):
        for d in range(1, 9):
            m = random_hermitian(d, rng)
            np.testing.assert_allclose(smat(svec(m), d), m, atol=1e-14)
            v = rng.standard_normal(d * d)
            np.testing.assert_allclose(svec(smat(v, d)), v, atol=1e-14)

    def test_batched_forms_agree(self, rng):
        for d in range(1, 9):
            mats = np.stack([random_hermitian(d, rng) for _ in range(3)])
            vecs = _svec_batch(mats)
            back = _smat_batch(vecs, d)
            for i in range(3):
                assert np.array_equal(vecs[i], svec(mats[i]))
                assert np.array_equal(back[i], smat(vecs[i], d))

    def test_inner_product_preserved(self, rng):
        for d in (2, 4, 8):
            a, b = random_hermitian(d, rng), random_hermitian(d, rng)
            frob = float(np.trace(a @ b).real)
            assert abs(svec(a) @ svec(b) - frob) < 1e-12

    def test_bad_length(self):
        with pytest.raises(ValueError):
            smat(np.zeros(5), 2)
        with pytest.raises(ValueError):
            svec(np.zeros((2, 3)))


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        np.testing.assert_allclose(psd_project(np.diag([1.0, -1.0])),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_input_unchanged(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        np.testing.assert_allclose(psd_project(m), m, atol=1e-12)

    def test_nearest_among_candidates(self, rng):
        # The projection must beat random PSD candidates in Frobenius distance.
        m = random_hermitian(4, rng)
        proj = psd_project(m)
        base = np.linalg.norm(proj - m)
        assert np.linalg.eigvalsh(proj)[0] > -1e-12
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            candidate = g @ g.conj().T
            assert np.linalg.norm(candidate - m) >= base - 1e-12


def project_blockwise(blocks, v):
    """Reference cone projection, one block at a time."""
    out, off = [], 0
    for blk in blocks:
        seg = v[off:off + blk.size]
        if isinstance(blk, PsdCone):
            out.append(svec(psd_project(smat(seg, blk.dim))))
        elif isinstance(blk, NonNegCone):
            out.append(np.maximum(seg, 0.0))
        else:
            out.append(seg)
        off += blk.size
    return np.concatenate(out)


def with_exact_zeros(blocks, v, part):
    """``v`` with the ``part`` coordinates of every PSD block set to zeros of ``v``'s signs.

    ``part`` is ``"imag"`` (imaginary parts), ``"offdiag"`` (off-diagonal
    entries) or ``"block"`` (the whole block).
    """
    v = v.copy()
    off = 0
    for blk in blocks:
        if isinstance(blk, PsdCone):
            d, t = blk.dim, blk.dim * (blk.dim - 1) // 2
            lo = {"imag": d + t, "offdiag": d, "block": 0}[part]
            seg = slice(off + lo, off + blk.size)
            v[seg] = np.copysign(0.0, v[seg])
        off += blk.size
    return v


class TestConeProjector:
    def test_matches_blockwise_reference(self, rng):
        blocks = (PsdCone(3), NonNegCone(4), PsdCone(1), PsdCone(3), FreeCone(2),
                  PsdCone(2), PsdCone(1), NonNegCone(1), PsdCone(3))
        project = _ConeProjector(blocks)
        n = sum(blk.size for blk in blocks)
        for _ in range(20):
            v = rng.standard_normal(n)
            assert np.array_equal(project(v, np.empty(n)), project_blockwise(blocks, v))
            for part in ("imag", "offdiag", "block"):
                z = with_exact_zeros(blocks, v, part)
                assert np.array_equal(project(z, np.empty(n)), project_blockwise(blocks, z))


class ListAnderson:
    """Reference Anderson memory: lists of iterates and images, stacked per call."""

    def __init__(self, mem):
        self.mem, self.ws, self.fws = mem, [], []

    def push(self, w, fw):
        self.ws.append(w)
        self.fws.append(fw)
        if len(self.ws) > self.mem:
            self.ws.pop(0)
            self.fws.pop(0)

    def candidate(self, lstsq=False):
        """The memory's ridge solve on the stacked history, or ``lstsq``'s minimizer."""
        if len(self.ws) < 3:
            return None
        residuals = np.stack([w - f for w, f in zip(self.ws, self.fws)], axis=1)
        diffs = residuals[:, 1:] - residuals[:, :-1]
        if lstsq:
            gamma, *_ = np.linalg.lstsq(diffs, residuals[:, -1], rcond=None)
        else:
            gram = diffs.T @ diffs
            gram[np.diag_indices_from(gram)] += _AndersonMemory.RIDGE
            gamma = np.linalg.solve(gram, diffs.T @ residuals[:, -1])
        theta = np.zeros(residuals.shape[1])
        theta[-1] = 1.0
        theta[1:] -= gamma
        theta[:-1] += gamma
        return np.stack(self.fws, axis=1) @ theta


def check_against_list_reference(rng, lstsq, tol):
    size, mem = 40, 5
    memory = _AndersonMemory(mem, size)
    for pushes in (2 * mem + 3, mem + 1):  # wraps the buffer, then refills after clear()
        reference = ListAnderson(mem)
        memory.clear()
        for _ in range(pushes):
            w, fw = rng.standard_normal(size), rng.standard_normal(size)
            memory.push(fw, w - fw)
            reference.push(w, fw)
            expected, got = reference.candidate(lstsq), memory.candidate()
            if expected is None:
                assert got is None
            else:
                np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


class TestAndersonMemory:
    def test_candidates_match_list_reference(self, rng):
        # The Gram matrix kept push by push gives the stacked history's
        # ridge solve to rounding.
        check_against_list_reference(rng, lstsq=False, tol=1e-12)

    def test_candidates_match_lstsq_minimizer(self, rng):
        # On well-conditioned histories the ridge solve is the least-squares
        # minimizer.
        check_against_list_reference(rng, lstsq=True, tol=1e-9)

    @pytest.mark.parametrize("mem", [1, 2])
    def test_short_memory_gives_no_candidate(self, rng, mem):
        memory = _AndersonMemory(mem, 4)
        for _ in range(5):
            w, fw = rng.standard_normal(4), rng.standard_normal(4)
            memory.push(fw, w - fw)
            assert memory.candidate() is None

    def test_parallel_differences_give_no_candidate(self):
        memory = _AndersonMemory(5, 4)
        v = np.arange(1.0, 5.0)
        for j in range(4):
            memory.push(np.zeros(4), j * v)
        assert memory.candidate() is None


class TestPenaltyFactor:
    @pytest.mark.parametrize("pri, dual, factor", [
        (1.0, 1.0, 1.0), (4.9, 1.0, 1.0), (1.0, 4.9, 1.0), (0.0, 0.0, 1.0),
        (9.0, 1.0, 3.0), (1.0, 16.0, 0.25),
        (1.0, 0.0, 1e3), (0.0, 1.0, 1e-3),
        (1e9, 1.0, 1e3), (1.0, 1e9, 1e-3),
    ])
    def test_square_root_rule(self, pri, dual, factor):
        assert solver_module._penalty_factor(pri, dual) == factor


def primal_drift(residual, previous, n):
    return solver_module._primal_drift(residual, np.linalg.norm(residual), previous, n)


class TestPrimalDrift:
    def test_fires_on_a_z_drift(self):
        r = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0])
        assert primal_drift(r, r, 3)
        assert primal_drift(r, r + 1e-8, 3)

    def test_not_on_a_u_drift(self):
        r = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 1e-3])
        assert not primal_drift(r, r, 3)

    def test_not_on_a_changing_residual(self):
        r = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0])
        assert not primal_drift(r, 1.001 * r, 3)
        assert not primal_drift(r, None, 3)

    def test_not_on_a_zero_residual(self):
        assert not primal_drift(np.zeros(6), np.zeros(6), 3)

    @pytest.mark.parametrize("factor, fires", [(0.5, True), (2.0, False)])
    def test_bounds_at_drift_rtol(self, factor, fires):
        # A u half, and a change from the previous residual, of factor *
        # DRIFT_RTOL relative to a residual of norm about 1.
        r = np.array([1.0, 0.0, 0.0, 0.0, 0.0, factor * DRIFT_RTOL])
        assert primal_drift(r, r, 3) == fires
        r[5] = 0.0
        assert primal_drift(r, r + [0.0, factor * DRIFT_RTOL, 0.0, 0.0, 0.0, 0.0], 3) == fires

    @pytest.mark.parametrize("factor, on_ray", [(0.5, True), (2.0, False)])
    def test_ray_acceptance_at_ray_rtol(self, factor, on_ray):
        assert solver_module._on_ray(1.0 + factor * RAY_RTOL, 1.0) == on_ray

    def test_primal_infeasible_program_drifts_in_u(self, monkeypatch):
        # x >= 0 with x = -1: the residuals repeat, but in u, so no ray step fires.
        calls, drift = [], solver_module._primal_drift

        def record(residual, residual_norm, previous, n):
            repeats = previous is not None and \
                np.linalg.norm(residual - previous) <= 1e-6 * residual_norm
            calls.append((repeats, drift(residual, residual_norm, previous, n)))
            return calls[-1][1]

        monkeypatch.setattr(solver_module, "_primal_drift", record)
        prog = ConeProgram(blocks=(NonNegCone(1),), c=np.zeros(1),
                           A=np.array([[1.0]]), b=np.array([-1.0]))
        sol = solve(prog, max_iters=1000)
        assert sol.status == INFEASIBLE and sol.iterations == 100
        assert [repeats for repeats, _ in calls] == [False] + [True] * 99
        assert not any(fired for _, fired in calls)


def no_optimum(prog, x, s=None, d=None):
    """``_no_optimum`` of ``prog`` at rho = 1 on the residual ``(-d, s)``, zero where omitted."""
    n = prog.num_vars
    affine = solver_module._AffineProjector(prog)
    affine.set_rho(1.0)
    z_half = np.zeros(n) if d is None else -np.asarray(d, dtype=float)
    u_half = np.zeros(n) if s is None else np.asarray(s, dtype=float)
    residual = np.concatenate([z_half, u_half])
    return solver_module._no_optimum(residual, np.asarray(x, dtype=float), prog.c,
                                     _ConeProjector(prog.blocks), affine)


NEGATIVE_RHS = ConeProgram(blocks=(NonNegCone(1),), c=np.zeros(1), A=np.array([[1.0]]),
                           b=np.array([-1.0]))
DESCENT_RAY = ConeProgram(blocks=(NonNegCone(1),), c=-np.ones(1), A=np.zeros((0, 1)),
                          b=np.zeros(0))
EQUAL_ENTRIES = ConeProgram(blocks=(NonNegCone(2),), c=-np.ones(2), A=np.array([[1.0, -1.0]]),
                            b=np.zeros(1))


class TestNoOptimum:
    def test_farkas_vector(self):
        # x >= 0 with x = -1: s = 1.6 is in K and s'x = -1.6 < 0.
        assert no_optimum(NEGATIVE_RHS, [-1.0], s=[1.6])

    def test_not_outside_the_cone(self):
        assert not no_optimum(NEGATIVE_RHS, [1.0], s=[-1.6])

    def test_not_with_a_nonnegative_rhs_term(self):
        assert not no_optimum(NEGATIVE_RHS, [1.0], s=[1.6])

    def test_not_outside_the_row_space(self):
        # x >= 0 with x1 + x2 = -1: s'x < 0 and s is in K, but not a multiple of the row.
        prog = ConeProgram(blocks=(NonNegCone(2),), c=np.zeros(2), A=np.ones((1, 2)),
                           b=-np.ones(1))
        assert no_optimum(prog, [-0.5, -0.5], s=[1.0, 1.0])
        assert not no_optimum(prog, [-0.5, -0.5], s=[1.0, 0.0])

    def test_descent_ray(self):
        # minimize -x, x >= 0: d = 1 is in K and c'd = -1 < 0.
        assert no_optimum(DESCENT_RAY, [0.0], d=[1.0])

    def test_not_where_the_quadratic_term_grows(self):
        prog = ConeProgram(blocks=(NonNegCone(1),), c=-np.ones(1), A=np.zeros((0, 1)),
                           b=np.zeros(0), quad_diag=np.array([2.0]))
        assert not no_optimum(prog, [0.0], d=[1.0])

    def test_ray_in_the_null_space_of_the_rows(self):
        # minimize -x1 - x2, x >= 0, x1 = x2: (1, 1) keeps the row, (1, 0) breaks it.
        assert no_optimum(EQUAL_ENTRIES, [0.0, 0.0], d=[1.0, 1.0])
        assert not no_optimum(EQUAL_ENTRIES, [0.0, 0.0], d=[1.0, 0.0])

    def test_not_on_a_zero_residual(self):
        assert not no_optimum(NEGATIVE_RHS, [-1.0])
        assert not no_optimum(DESCENT_RAY, [0.0])


class TestAffineMetric:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    def test_no_quadratic_term_is_a_zero_one(self, rho):
        # One metric D = diag(q) + rho I: a missing q steps exactly as q = 0.
        program = build_scheme(_bench_spec(3, 0.01), "frio").program
        n = program.num_vars
        v = np.random.default_rng(3).standard_normal(n)
        steps = []
        for quad in (None, np.zeros(n)):
            affine = solver_module._AffineProjector(dataclasses.replace(program, quad_diag=quad))
            affine.set_rho(rho)
            steps.append(affine.project(v, program.c))
        np.testing.assert_array_equal(steps[0], steps[1])


class TestZeroRows:
    @pytest.mark.parametrize("norm, kept", [(ZERO_ROW_NORM, False),
                                            (np.nextafter(ZERO_ROW_NORM, 1.0), True)])
    def test_zero_row_norm_threshold(self, norm, kept):
        scale = solver_module._row_scale(np.array([1.0, norm]), np.zeros(2))
        np.testing.assert_array_equal(scale, [1.0, 1.0 / norm if kept else 0.0])

    @pytest.mark.parametrize("rhs, raises", [(ZERO_ROW_RHS_TOL, False),
                                             (np.nextafter(ZERO_ROW_RHS_TOL, 1.0), True)])
    def test_zero_row_rhs_threshold(self, rhs, raises):
        # A zero row holds when its rhs is within ZERO_ROW_RHS_TOL of zero.
        program = ConeProgram(blocks=(FreeCone(1),), c=np.zeros(1), A=np.zeros((1, 1)),
                              b=np.array([-rhs]))
        if raises:
            with pytest.raises(ValueError, match="inconsistent zero row"):
                solve(program)
        else:
            assert solve(program).status == OPTIMAL


def max_eig_program(c_matrix):
    """maximize Tr(C X) s.t. Tr(X) = 1, X >= 0 in minimization form."""
    d = c_matrix.shape[0]
    return ConeProgram(blocks=(PsdCone(d),), c=-svec(c_matrix),
                       A=svec(np.eye(d))[None, :], b=np.array([1.0]))


class TestSolve:
    def test_max_eigenvalue_diagonal(self):
        sol = solve(max_eig_program(np.diag([1.0, 3.0]).astype(complex)), tol=1e-8)
        assert sol.status == OPTIMAL
        assert abs(-sol.objective - 3.0) < 1e-7
        x = smat(sol.x, 2)
        np.testing.assert_allclose(x, np.diag([0.0, 1.0]), atol=1e-6)

    def test_max_eigenvalue_random(self, rng):
        for d in (2, 4, 8):
            c = random_hermitian(d, rng)
            sol = solve(max_eig_program(c), tol=1e-8)
            assert sol.status == OPTIMAL
            assert abs(-sol.objective - np.linalg.eigvalsh(c)[-1]) < 1e-6

    def test_feasibility_povm(self):
        # Two PSD blocks summing to the identity, no objective.
        d = 2
        blocks = (PsdCone(d), PsdCone(d))
        eye = svec(np.eye(d))
        rows = np.zeros((d * d, 2 * d * d))
        for t in range(d * d):
            rows[t, t] = 1.0
            rows[t, d * d + t] = 1.0
        sol = solve(ConeProgram(blocks=blocks, c=np.zeros(2 * d * d), A=rows, b=eye))
        assert sol.status == OPTIMAL
        total = smat(sol.x[:4], 2) + smat(sol.x[4:], 2)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-7)
        for blk in (smat(sol.x[:4], 2), smat(sol.x[4:], 2)):
            assert np.linalg.eigvalsh(blk)[0] > -1e-7

    def test_optimal_residual_contract(self, rng):
        c = random_hermitian(4, rng)
        prog = max_eig_program(c)
        tol = 1e-8
        sol = solve(prog, tol=tol)
        assert sol.status == OPTIMAL
        assert sol.primal_residual <= tol
        assert sol.dual_residual <= tol
        # The returned point is affine-exact and nearly conic.
        assert np.linalg.norm(prog.A @ sol.x - prog.b) <= tol * (1 + np.linalg.norm(prog.b))
        assert np.linalg.eigvalsh(smat(sol.x, 4))[0] >= -10 * tol

    def test_nonneg_and_free_blocks(self):
        # minimize x1 + 2 x2 + f  s.t.  x1 + x2 = 1, f = -3, x >= 0.
        prog = ConeProgram(
            blocks=(NonNegCone(2), FreeCone(1)),
            c=np.array([1.0, 2.0, 1.0]),
            A=np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            b=np.array([1.0, -3.0]))
        sol = solve(prog)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 0.0, -3.0], atol=1e-6)
        assert abs(sol.objective - (-2.0)) < 1e-6

    def test_quadratic_diagonal(self):
        # minimize (s - 2)^2/... : s free with quad 2, constraint s + t = 1, t >= 0.
        # Optimum: t >= 0 slack, minimize s^2 with s = 1 - t -> s = 0, t = 1.
        prog = ConeProgram(
            blocks=(FreeCone(1), NonNegCone(1)),
            c=np.zeros(2),
            A=np.array([[1.0, 1.0]]),
            b=np.array([1.0]),
            quad_diag=np.array([2.0, 0.0]))
        sol = solve(prog)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-6)

    def test_determinism(self, rng):
        c = random_hermitian(4, rng)
        prog = max_eig_program(c)
        a = solve(prog, tol=1e-9)
        b = solve(prog, tol=1e-9)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)

    def test_infeasible_detection(self):
        # x >= 0 with x = -1 has no solution; the residual's u half is a Farkas vector.
        prog = ConeProgram(blocks=(NonNegCone(1),), c=np.zeros(1),
                           A=np.array([[1.0]]), b=np.array([-1.0]))
        sol = solve(prog, tol=1e-8, max_iters=60_000)
        assert sol.status == INFEASIBLE

    @pytest.mark.parametrize("prog", [
        ConeProgram(blocks=(NonNegCone(1),), c=-np.ones(1), A=np.zeros((0, 1)), b=np.zeros(0)),
        ConeProgram(blocks=(NonNegCone(2),), c=-np.ones(2), A=np.array([[1.0, -1.0]]),
                    b=np.zeros(1)),
        ConeProgram(blocks=(PsdCone(2),), c=-svec(np.eye(2)), A=np.zeros((0, 4)), b=np.zeros(0)),
    ], ids=["no_rows", "equal_entries", "psd_trace"])
    def test_unbounded_program_stops_infeasible(self, prog):
        # The objective decreases without bound along a ray of the cone, which
        # the residual's z half finds.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(prog)
        assert sol.status == INFEASIBLE
        assert np.isfinite(sol.x).all()

    @pytest.mark.parametrize("prog", [
        ConeProgram(blocks=(NonNegCone(1),), c=np.zeros(1), A=np.array([[1.0]]),
                    b=np.array([-1.0]), quad_diag=np.array([2.0])),
        ConeProgram(blocks=(PsdCone(2),), c=np.zeros(4), A=svec(np.eye(2))[None, :],
                    b=np.array([-1.0])),
        ConeProgram(blocks=(PsdCone(2), PsdCone(2)), c=np.zeros(8), A=np.zeros((0, 8)),
                    b=np.zeros(0), block_sum=((0, 4), -svec(np.eye(2)))),
    ], ids=["quadratic", "psd_trace_row", "block_sum"])
    def test_infeasible_program_stops_at_the_first_check(self, prog):
        # The u half of the residual is a Farkas vector from the first
        # iterations on, so the check at iteration 100 finds it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(prog)
        assert sol.status == INFEASIBLE and sol.iterations == 100
        assert np.isfinite(sol.x).all()

    def test_med_plus_plateau_ends(self):
        # tri4 med_plus has med's optimum, but its iterates drift along a
        # straight line for about a thousand steps unless the ray step cuts
        # the drift short.
        spec = _bench_spec(4, 0.01)
        med, sol = (solve(build_scheme(spec, name).program) for name in ("med", "med_plus"))
        assert med.status == sol.status == OPTIMAL
        assert sol.iterations <= 500
        assert abs(sol.objective - med.objective) <= 1e-7

    @pytest.mark.parametrize("quad", [np.array([2.0]), None], ids=["quadratic", "linear"])
    def test_no_constraint_rows(self, quad):
        # minimize x^2 - 2x, x >= 0, has its optimum at x = 1; minimize x, at x = 0.
        c = np.array([-2.0]) if quad is not None else np.array([1.0])
        prog = ConeProgram(blocks=(NonNegCone(1),), c=c, A=np.zeros((0, 1)), b=np.zeros(0),
                           quad_diag=quad)
        sol = solve(prog)
        assert sol.status == OPTIMAL
        expected = 1.0 if quad is not None else 0.0
        assert abs(sol.x[0] - expected) <= 1e-8
        assert abs(sol.objective - (-expected)) <= 1e-8

    def test_consistent_zero_row_is_dropped(self):
        # minimize x1 + 2 x2 + 3 x3 s.t. x1 + x2 + x3 = 1, x >= 0, with and without 0 = 0.
        c, row = np.array([1.0, 2.0, 3.0]), np.ones((1, 3))
        prog = ConeProgram(blocks=(NonNegCone(3),), c=c, A=row, b=np.ones(1))
        with_zero = ConeProgram(blocks=(NonNegCone(3),), c=c, A=np.vstack([row, np.zeros(3)]),
                                b=np.array([1.0, 0.0]))
        sol, sol_zero = solve(prog), solve(with_zero)
        assert sol.status == sol_zero.status == OPTIMAL
        assert sol.iterations == sol_zero.iterations
        assert np.array_equal(sol.x, sol_zero.x)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-6)

    def test_inconsistent_zero_row(self):
        prog = ConeProgram(blocks=(NonNegCone(1),), c=np.zeros(1),
                           A=np.array([[0.0]]), b=np.array([1.0]))
        with pytest.raises(ValueError):
            solve(prog)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ConeProgram(blocks=(NonNegCone(2),), c=np.zeros(3),
                        A=np.zeros((1, 2)), b=np.zeros(1))
        with pytest.raises(ValueError):
            ConeProgram(blocks=(NonNegCone(2),), c=np.zeros(2),
                        A=np.zeros((1, 2)), b=np.zeros(1),
                        quad_diag=np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
    def test_tol_must_be_positive(self, tol):
        prog = ConeProgram(blocks=(NonNegCone(1),), c=np.ones(1),
                           A=np.ones((1, 1)), b=np.ones(1))
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(prog, tol=tol)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_max_iters_must_be_positive(self, max_iters):
        prog = ConeProgram(blocks=(NonNegCone(1),), c=np.ones(1),
                           A=np.ones((1, 1)), b=np.ones(1))
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            solve(prog, max_iters=max_iters)

    def test_one_iteration_budget_runs(self):
        prog = ConeProgram(blocks=(NonNegCone(1),), c=np.ones(1),
                           A=np.ones((1, 1)), b=np.ones(1))
        assert solve(prog, max_iters=1).iterations == 1

    @pytest.mark.parametrize("field", ["c", "A", "b", "quad_diag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        data = {"c": np.zeros(2), "A": np.ones((1, 2)), "b": np.ones(1),
                "quad_diag": np.ones(2)}
        data[field][0] = bad
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries"):
            ConeProgram(blocks=(NonNegCone(2),), **data)


def expand_block_sum(program):
    """The same program with its block-sum rows written as dense rows of A, first."""
    offsets, rhs = program.block_sum
    rows = np.zeros((rhs.size, program.num_vars))
    for off in offsets:
        rows[:, off:off + rhs.size] += np.eye(rhs.size)
    return ConeProgram(blocks=program.blocks, c=program.c, A=np.vstack([rows, program.A]),
                       b=np.concatenate([rhs, program.b]), quad_diag=program.quad_diag)


BLOCK_SUM_CASES = [(inst, name) for inst in ("ens", "tri2") for name in SCHEME_NAMES
                   # uqsd's rows carry carriers (TestCarrierRows); ens minss takes 34 735 iterations.
                   if name != "uqsd" and (inst, name) != ("ens", "minss")]


class TestBlockSum:
    @pytest.mark.parametrize("inst, name", BLOCK_SUM_CASES)
    def test_matches_dense_rows(self, inst, name):
        if inst == "ens":
            spec = ProblemSpec.from_states(make_benchmark_two_qubit_states(), noise_lambda=0.01)
        else:
            spec = _bench_spec(2, 0.01)
        program = build_scheme(spec, name).program
        assert program.block_sum is not None
        expanded = expand_block_sum(program)
        structured = solve(program, acceleration=0)
        dense = solve(expanded, acceleration=0)
        assert structured.status == dense.status == OPTIMAL
        assert structured.iterations == dense.iterations
        assert abs(structured.objective - dense.objective) <= 1e-12
        residual = np.linalg.norm(expanded.A @ structured.x - expanded.b)
        assert residual <= 1e-8 * (1 + np.linalg.norm(expanded.b))

    @pytest.mark.parametrize("offsets, message", [((0, 0), "repeat"),
                                                  ((0, 2), "does not start a block"),
                                                  ((0, 4), "has size 1"),
                                                  ((), "at least one")])
    def test_invalid_offsets_rejected(self, offsets, message):
        blocks = (PsdCone(2), NonNegCone(1), PsdCone(2))
        with pytest.raises(ValueError, match=message):
            ConeProgram(blocks=blocks, c=np.zeros(9), A=np.zeros((0, 9)), b=np.zeros(0),
                        block_sum=(offsets, svec(np.eye(2))))

    def test_six_qubit_med_matches_square_root_measurement(self):
        # The coherent triple is geometrically uniform, so the square-root
        # measurement is optimal: P = (sum_j sqrt(lambda_j(G)))^2 / 9.
        spec = _bench_spec(6, 0.0)
        result = solve_scheme(spec, "med")
        assert result.solution.status == OPTIMAL
        vecs = np.stack([np.linalg.eigh(s.matrix)[1][:, -1] for s in spec.states])
        gram = vecs.conj() @ vecs.T
        srm = np.sum(np.sqrt(np.linalg.eigvalsh(gram))) ** 2 / 9
        assert abs(result.value - srm) <= 1e-8


def expand_carriers(scheme):
    """The scheme's program with its completeness rows rewritten here, first in A.

    An element block without a carrier enters row ``t`` with its coordinate
    ``t``; column ``t`` of a carrier block's part is ``svec(N smat(e_t) N^+)``,
    one basis matrix at a time.
    """
    program = scheme.program
    n = scheme.dim if scheme.basis is None else scheme.basis.shape[1] + 1
    rows = np.zeros((n * n, program.num_vars))
    for off, carrier in scheme.element_blocks:
        if carrier is None:
            rows[:, off:off + n * n] += np.eye(n * n)
            continue
        r = carrier.shape[1]
        for t in range(r * r):
            rows[:, off + t] += svec(carrier @ smat(np.eye(r * r)[t], r) @ carrier.conj().T)
    return dataclasses.replace(program, A=np.vstack([rows, program.A[n * n:]]))


def mixed_spec():
    """d=4 states of ranks 1, 1, 2, so the uqsd carriers have ranks 1, 1, 2."""
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pure = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vecs]
    states = (DensityMatrix(pure[0]), DensityMatrix(pure[1]),
              DensityMatrix(0.3 * pure[2] + 0.7 * pure[3]))
    return ProblemSpec(states, np.array([0.2, 0.3, 0.5]), 0.0)


def wide_spec():
    """Three random rank-3 states at d=16, whose uqsd program has ``L = 100``.

    The program works over their 9-dimensional support plus one lumped
    coordinate, and each carrier has rank 4.
    """
    rng = np.random.default_rng(16)
    states = []
    for _ in range(3):
        g = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        m = g @ g.conj().T
        states.append(DensityMatrix(m / np.trace(m).real))
    return ProblemSpec(tuple(states), np.full(3, 1 / 3), 0.0)


CARRIER_INSTANCES = ["ens", "tri2", "tri3", "mixed4", "wide16"]


def carrier_spec(inst):
    if inst == "wide16":
        return wide_spec()
    if inst == "ens":
        return ProblemSpec.from_states(make_benchmark_two_qubit_states(), noise_lambda=0.0)
    if inst == "mixed4":
        return mixed_spec()
    return _bench_spec(int(inst[-1]), 0.0)


def with_conclusive_penalty(program, element_blocks, weight):
    """``program`` plus a free ``s`` pinned to the conclusive trace, with ``weight * s**2``.

    The new row couples every carrier block, and the quadratic term makes
    the affine step's metric differ between blocks.
    """
    n = program.num_vars
    row = np.zeros(n + 1)
    for off, carrier in element_blocks:
        if carrier is not None:
            r = carrier.shape[1]
            row[off:off + r * r] = svec(np.eye(r))
    row[n] = -1.0
    quad = np.zeros(n + 1)
    quad[n] = 2.0 * weight
    return ConeProgram(blocks=program.blocks + (FreeCone(1),), c=np.append(program.c, 0.0),
                       A=np.vstack([np.hstack([program.A, np.zeros((program.A.shape[0], 1))]),
                                    row]),
                       b=np.append(program.b, 0.0), quad_diag=quad,
                       block_sum=program.block_sum)


def assert_same_solve(program, expanded):
    """The assembled rows and the test's own rows take the same path (no acceleration)."""
    structured = solve(program, acceleration=0)
    dense = solve(expanded, acceleration=0)
    assert structured.status == dense.status == OPTIMAL
    assert structured.iterations == dense.iterations
    assert abs(structured.objective - dense.objective) <= 1e-12
    residual = np.linalg.norm(expanded.A @ structured.x - expanded.b)
    assert residual <= 1e-8 * (1 + np.linalg.norm(expanded.b))


@dataclasses.dataclass(frozen=True)
class UnknownCone:
    size: int


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ConeProgram(blocks=(NonNegCone(2),), c=np.zeros(2), A=np.ones((1, 3)),
                                     b=np.zeros(1)),
                 ValueError, r"constraint shape \(1, 3\) does not match \(1, 2\)",
                 id="A-columns"),
    pytest.param(lambda: ConeProgram(blocks=(PsdCone(1), PsdCone(2)), c=np.zeros(5),
                                     A=np.zeros((0, 5)), b=np.zeros(0),
                                     block_sum=((0, 1), svec(np.eye(2)),
                                                (np.array([[1.0], [0.0]]), None))),
                 ValueError, r"block_sum must be None or the pair \(offsets, rhs\)",
                 id="block-sum-triple"),
    pytest.param(lambda: solve(ConeProgram(blocks=(UnknownCone(1),), c=np.zeros(1),
                                           A=np.ones((1, 1)), b=np.ones(1))),
                 TypeError, "unknown cone block", id="unknown-cone"),
])
def test_rejected_program(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestCarrierRows:
    """uqsd's completeness rows, written into ``A`` by the scheme assembly."""

    @pytest.mark.parametrize("inst", CARRIER_INSTANCES)
    def test_uqsd_matches_dense_rows(self, inst):
        scheme = build_uqsd(carrier_spec(inst))
        program = scheme.program
        expanded = expand_carriers(scheme)
        rows = expanded.A.shape[0]
        assert program.block_sum is None and program.A.shape[0] == rows
        np.testing.assert_allclose(program.A[:rows], expanded.A[:rows], rtol=0, atol=1e-15)
        assert_same_solve(program, expanded)

    def test_mixed_carriers_have_unequal_ranks(self):
        carriers = [n for _, n in build_uqsd(mixed_spec()).element_blocks]
        assert [None if n is None else n.shape[1] for n in carriers] == [1, 1, 2, None]

    def test_coupling_rows_and_quadratic_term(self):
        scheme = build_uqsd(mixed_spec())
        assert_same_solve(with_conclusive_penalty(scheme.program, scheme.element_blocks, 0.5),
                          with_conclusive_penalty(expand_carriers(scheme),
                                                  scheme.element_blocks, 0.5))

    def test_carrier_count_must_match_offsets(self):
        # One (offset, carrier) per label, offsets increasing from the first block.
        for inst in CARRIER_INSTANCES:
            scheme = build_uqsd(carrier_spec(inst))
            offsets = [off for off, _ in scheme.element_blocks]
            assert len(offsets) == len(scheme.labels) and offsets[0] == 0
            assert offsets == sorted(set(offsets))

    def test_carrier_block_must_be_psd_of_its_rank(self):
        for inst in CARRIER_INSTANCES:
            scheme = build_uqsd(carrier_spec(inst))
            blocks = scheme.program.blocks
            starts = dict(zip(np.cumsum([0] + [blk.size for blk in blocks]), blocks))
            for off, carrier in scheme.element_blocks:
                if carrier is not None:
                    assert starts[off] == PsdCone(carrier.shape[1])

    def test_carrier_must_be_column_orthonormal(self):
        for inst in CARRIER_INSTANCES:
            for _, carrier in build_uqsd(carrier_spec(inst)).element_blocks:
                if carrier is not None:
                    r = carrier.shape[1]
                    assert np.linalg.norm(carrier.conj().T @ carrier - np.eye(r)) <= 1e-10

    def test_quadratic_term_on_carrier_blocks(self):
        scheme = build_uqsd(mixed_spec())
        quad = np.zeros(scheme.program.num_vars)
        for off, carrier in scheme.element_blocks:
            if carrier is not None:
                quad[off:off + carrier.shape[1] ** 2] = 0.5
        assert_same_solve(dataclasses.replace(scheme.program, quad_diag=quad),
                          dataclasses.replace(expand_carriers(scheme), quad_diag=quad))

    def test_carrier_free_block_sum_stores_none_carriers(self):
        scheme = build_scheme(mixed_spec(), "med_plus")
        offsets, rhs = scheme.program.block_sum
        assert offsets == tuple(off for off, _ in scheme.element_blocks)
        assert [carrier for _, carrier in scheme.element_blocks] == [None] * 4
        np.testing.assert_array_equal(rhs, svec(np.eye(4)))

    def test_six_qubit_uqsd_matches_chefles_barnett(self):
        # Equiprobable symmetric pure states: P = lambda_min of their Gram matrix.
        spec = _bench_spec(6, 0.0)
        result = solve_scheme(spec, "uqsd")
        assert result.scheme.program.A.shape[0] == 16  # L: the 4x4 reduced blocks
        assert result.solution.status == OPTIMAL
        vecs = np.stack([np.linalg.eigh(s.matrix)[1][:, -1] for s in spec.states])
        gram = vecs.conj() @ vecs.T
        assert abs(result.value - np.linalg.eigvalsh(gram)[0]) <= 1e-8
