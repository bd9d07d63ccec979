import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qsdkit import (
    ProblemSpec,
    PureState,
    density_of,
    frio_two_pure,
    helstrom_two_state,
    make_single_qubit_pair,
    solve_scheme,
    uqsd_two_pure,
)
from qsdkit import oracles
from conftest import random_density, random_pure


def zero_plus():
    return make_single_qubit_pair()


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        r1 = density_of(PureState(np.array([1.0, 0.0])))
        r2 = density_of(PureState(np.array([0.0, 1.0])))
        assert helstrom_two_state(r1, r2, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_identical_states(self, rng):
        rho = random_density(4, rng)
        for p1 in (0.5, 0.2, 0.9):
            assert helstrom_two_state(rho, rho, p1) == pytest.approx(
                max(p1, 1 - p1), abs=1e-12)

    def test_zero_plus_value(self):
        zero, plus = zero_plus()
        got = helstrom_two_state(density_of(zero), density_of(plus), 0.5)
        assert got == pytest.approx(0.5 * (1 + 1 / math.sqrt(2)), abs=1e-14)


class TestUqsdTwoPure:
    def test_orthogonal(self):
        assert uqsd_two_pure(PureState(np.array([1.0, 0.0])),
                             PureState(np.array([0.0, 1.0])), 0.5) == pytest.approx(1.0)

    def test_identical(self):
        psi = PureState(np.array([1.0, 0.0]))
        assert uqsd_two_pure(psi, psi, 0.5) == pytest.approx(0.0)

    def test_zero_plus_closed_form(self):
        zero, plus = zero_plus()
        assert uqsd_two_pure(zero, plus, 0.5) == pytest.approx(
            1 - 1 / math.sqrt(2), abs=1e-12)

    def test_zero_plus_grid_rederivation(self):
        # Independent check of the closed form: symmetric rank-1 conclusive
        # elements a*(|phi1><phi1| + |phi2><phi2|) with the largest a keeping
        # I - a*(P1+P2) PSD, scanned on a fine grid.
        zero, plus = zero_plus()
        s = abs(zero.overlap(plus))
        c = math.sqrt(1 - s * s)
        v1 = np.array([c, -s])
        v2 = np.array([0.0, 1.0])
        proj = np.outer(v1, v1) + np.outer(v2, v2)
        best = 0.0
        for a in np.linspace(0.0, 1.0, 200_001):
            if np.linalg.eigvalsh(np.eye(2) - a * proj)[0] >= -1e-15:
                best = max(best, (1 - s * s) * a)
        assert best == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-5)
        assert uqsd_two_pure(zero, plus, 0.5) == pytest.approx(best, abs=1e-5)

    def test_general_priors_match_sdp(self, rng):
        for _ in range(5):
            s1, s2 = random_pure(2, rng), random_pure(2, rng)
            p1 = float(rng.uniform(0.2, 0.8))
            spec = ProblemSpec.from_states([s1, s2], priors=[p1, 1 - p1])
            sdp = solve_scheme(spec, "uqsd")
            scan = uqsd_two_pure(s1, s2, p1)
            assert scan <= sdp.value + 1e-6
            assert abs(scan - sdp.value) < 1e-6

    @staticmethod
    def overlap_pair(s):
        return PureState(np.array([1.0, 0.0])), PureState(np.array([s, math.sqrt(1 - s * s)]))

    def test_one_sided_branch_matches_sdp(self):
        # s**2 * hi > lo: only the likelier state is ever identified.
        psi1, psi2 = self.overlap_pair(0.9)
        value = uqsd_two_pure(psi1, psi2, 0.2)
        assert value == pytest.approx(0.8 * (1 - 0.81), abs=1e-15)
        spec = ProblemSpec.from_states([psi1, psi2], priors=[0.2, 0.8])
        assert abs(value - solve_scheme(spec, "uqsd").value) < 1e-6

    @pytest.mark.parametrize("lo", [0.05, 0.2, 0.45])
    def test_branches_meet_at_the_boundary(self, lo):
        # At s**2 = lo / hi both forms equal 1 - 2 lo.
        s = math.sqrt(lo / (1 - lo))
        for step in (-1e-9, 1e-9):
            assert uqsd_two_pure(*self.overlap_pair(s + step), lo) == pytest.approx(
                1 - 2 * lo, abs=1e-8)
            assert uqsd_two_pure(*self.overlap_pair(s + step), 1 - lo) == pytest.approx(
                1 - 2 * lo, abs=1e-8)


def region_pair(rng):
    """Two random qubit states, a prior ``p1 ~ U(s**2 / (1 + s**2), 1/2)`` and ``Q0``.

    The prior keeps ``s**2 * hi <= lo``, where both conclusive outcomes fire;
    ``Q0 = 2 sqrt(p1 p2) s`` is the rate at which frio meets uqsd.
    """
    psi1, psi2 = random_pure(2, rng), random_pure(2, rng)
    s = abs(psi1.overlap(psi2))
    p1 = float(rng.uniform(s * s / (1 + s * s), 0.5))
    return psi1, psi2, p1, 2 * math.sqrt(p1 * (1 - p1)) * s


class TestFrioTwoPure:
    def test_rate_zero_is_helstrom(self, rng):
        for _ in range(5):
            psi1, psi2, p1, _ = region_pair(rng)
            assert frio_two_pure(psi1, psi2, p1, 0.0) == pytest.approx(
                helstrom_two_state(density_of(psi1), density_of(psi2), p1), abs=1e-12)

    def test_rate_q0_is_uqsd(self, rng):
        for _ in range(5):
            psi1, psi2, p1, q0 = region_pair(rng)
            assert frio_two_pure(psi1, psi2, p1, q0) == pytest.approx(
                uqsd_two_pure(psi1, psi2, p1), abs=1e-12)

    def test_above_q0_the_value_is_one_minus_rate(self, rng):
        psi1, psi2, p1, q0 = region_pair(rng)
        for rate in np.linspace(q0, 1.0, 5):
            assert frio_two_pure(psi1, psi2, p1, rate) == pytest.approx(1 - rate, abs=1e-15)

    def test_random_pairs_match_sdp(self, rng):
        # Rates up to 1.25 Q0 keep most draws on the curved branch.
        for _ in range(10):
            psi1, psi2, p1, q0 = region_pair(rng)
            rate = float(rng.uniform(0.0, min(1.0, 1.25 * q0)))
            spec = ProblemSpec.from_states([psi1, psi2], priors=[p1, 1 - p1])
            sdp = solve_scheme(spec, "frio", rate=rate)
            assert sdp.value == pytest.approx(frio_two_pure(psi1, psi2, p1, rate), abs=1e-7)


class TestBruteForce:
    """Solver values for MED and frio on the qubit pair against exact two-state values.

    The class keeps the name of the grid search these tests once compared
    with, so that their test ids stay the same.
    """

    def test_frio_lower_bounds_sdp(self):
        zero, plus = zero_plus()
        sdp = solve_scheme(ProblemSpec.from_states([zero, plus]), "frio", rate=0.5)
        assert sdp.value == pytest.approx(frio_two_pure(zero, plus, 0.5, 0.5), abs=1e-7)

    def test_frio_at_most_lower_bounds_sdp(self):
        # P_inc <= rate never binds on the noisy pair: the SDP value is Helstrom's.
        spec = ProblemSpec.from_states(zero_plus(), noise_lambda=0.05)
        sdp = solve_scheme(spec, "frio", rate=0.3, bound="at_most")
        assert abs(sdp.value - helstrom_two_state(*spec.noisy_states(), 0.5)) <= 1e-7

    def test_med_bounds_on_random_real_pairs(self, rng):
        for _ in range(5):
            amps = rng.standard_normal((2, 2))
            states = [PureState(a / np.linalg.norm(a)) for a in amps]
            spec = ProblemSpec.from_states(states)
            sdp = solve_scheme(spec, "med")
            assert sdp.value == pytest.approx(helstrom_two_state(*spec.states, 0.5), abs=1e-7)


def test_oracles_import_only_states():
    # The oracles vouch for the solver, so they must not reach it: the only
    # part of the package they may use is the state types.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert {name for name in imported if name.startswith((".", "qsdkit"))} == {".states"}


QUBIT = PureState(np.array([1.0, 0.0]))
TWO_QUBIT = PureState(np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: helstrom_two_state(density_of(QUBIT), density_of(TWO_QUBIT), 0.5),
                 "dimension mismatch", id="helstrom-dims"),
    pytest.param(lambda: helstrom_two_state(density_of(QUBIT), density_of(QUBIT), 1.5),
                 r"p1 must be in \[0, 1\]", id="helstrom-prior"),
    pytest.param(lambda: uqsd_two_pure(QUBIT, TWO_QUBIT, 0.5),
                 "dimension mismatch", id="uqsd-dims"),
    pytest.param(lambda: uqsd_two_pure(QUBIT, QUBIT, -0.5),
                 r"p1 must be in \[0, 1\]", id="uqsd-prior"),
    pytest.param(lambda: frio_two_pure(QUBIT, TWO_QUBIT, 0.5, 0.1),
                 "dimension mismatch", id="frio-dims"),
    pytest.param(lambda: frio_two_pure(QUBIT, QUBIT, 1.5, 0.1),
                 r"p1 must be in \[0, 1\]", id="frio-prior"),
    pytest.param(lambda: frio_two_pure(QUBIT, QUBIT, 0.5, 1.5),
                 r"rate must be in \[0, 1\]", id="frio-rate"),
    pytest.param(lambda: frio_two_pure(QUBIT, QUBIT, 0.1, 0.1),
                 "both conclusive outcomes fire", id="frio-one-outcome"),
])
def test_rejected_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
