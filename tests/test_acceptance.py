"""Acceptance suite: end-to-end checks at pinned tolerances.

Each test exercises one acceptance criterion and prints a single PASS/FAIL
line (run ``pytest tests/test_acceptance.py -v -s`` to see them).  Reference
values for the two-qubit benchmark ensemble and the coherent-state
error-tolerant instance are fixed constants here; everything else is checked
against independent closed-form oracles or internal consistency.
"""

import json
import time

import numpy as np
import pytest

from qsdkit import (
    INCONCLUSIVE,
    ProblemSpec,
    build_isometry,
    build_isometry_generic,
    decompose_rank1,
    density_of,
    depolarize,
    dilate,
    helstrom_two_state,
    joint_distribution,
    make_benchmark_two_qubit_states,
    make_coherent_state,
    make_single_qubit_pair,
    outcome_stats,
    simulate_measurement,
    solve_scheme,
    uqsd_reference,
    uqsd_two_pure,
)
from qsdkit.cli import main as cli_main
from qsdkit.serialize import validate_bench_report
from conftest import random_density, random_povm, random_pure

TOL = 1e-8

# Conditional correct-identification probabilities of the optimal
# minimum-error measurement for the two-qubit benchmark ensemble
# (a = 0.2, 0.5, 0.7; equal priors; no noise).
BENCH2Q_MED_CONDITIONALS = (0.99547, 0.98188, 0.98059)

# Error-to-success ratios of the coherent-state confidence-bounded
# measurement (3 qubits, alpha = beta = 0.01, solved at noise 0.01),
# evaluated at three noise levels.
COHERENT_RATIO_AT_1E6 = 0.00511
COHERENT_RATIO_AT_SOLVE_NOISE = 0.01010
COHERENT_RATIO_FULLY_MIXED = 2.000


def _conclude(criterion, name, ok, details=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({details})" if details else ""
    print(f"[acceptance {criterion:>2}] {status} {name}{suffix}")
    assert ok, f"criterion {criterion} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def bench2q_med():
    spec = ProblemSpec.from_states(make_benchmark_two_qubit_states((0.2, 0.5, 0.7)))
    started = time.perf_counter()
    result = solve_scheme(spec, "med", tol=TOL)
    elapsed = time.perf_counter() - started
    return spec, result, elapsed


@pytest.fixture(scope="module")
def random_suite():
    """50 random full-rank instances with MED / MED+ / UQSD solved on each."""
    rng = np.random.default_rng(424242)
    rows = []
    for _ in range(50):
        k = int(rng.integers(2, 5))
        d = int(rng.choice([2, 4, 8]))
        lam = float(rng.choice([0.0, 0.05, 0.3]))
        states = tuple(random_density(d, rng) for _ in range(k))
        spec = ProblemSpec(states, rng.dirichlet(np.ones(k)), lam)
        med = solve_scheme(spec, "med", tol=TOL)
        plus = solve_scheme(spec, "med_plus", tol=TOL)
        uqsd = solve_scheme(spec, "uqsd", tol=TOL)
        ps = {}
        for name, res in (("med", med), ("med_plus", plus), ("uqsd", uqsd)):
            jd = joint_distribution(spec, res.povm, lam)
            ps[name] = outcome_stats(jd).p_succ
        tr_inc = float(np.trace(plus.povm.element(INCONCLUSIVE)).real)
        rows.append((ps, tr_inc))
    return rows


class TestCriterion1:
    def test_benchmark_two_qubit_conditionals(self, bench2q_med):
        spec, result, elapsed = bench2q_med
        jd = joint_distribution(spec, result.povm, 0.0)
        cond = [jd.entries[i, i] / spec.priors[i] for i in range(3)]
        dev = max(abs(c - t) for c, t in zip(cond, BENCH2Q_MED_CONDITIONALS))
        ok = dev <= 1e-3 and elapsed < 10.0
        _conclude(1, "two-qubit benchmark conditionals", ok,
                  f"max dev {dev:.2e}, solve {elapsed:.2f}s")


class TestCriterion2:
    def test_truncated_dilation_saves_one_ancilla(self, bench2q_med):
        spec, result, _ = bench2q_med
        exact = dilate(result.povm, delta=0.0)
        trunc = dilate(result.povm, delta=1e-4)
        dev = 0.0
        for state in spec.states:
            p_exact = simulate_measurement(exact, state).probabilities
            p_trunc = simulate_measurement(trunc, state).probabilities
            for lbl in range(3):
                dev = max(dev, abs(p_exact[lbl] - p_trunc[lbl]))
        ok = (trunc.total_rank <= 6 and trunc.ancilla_qubits == 1
              and exact.ancilla_qubits == 2 and dev <= 1e-4)
        _conclude(2, "dilation truncation rank/ancilla", ok,
                  f"rank {exact.total_rank}->{trunc.total_rank}, "
                  f"ancilla {exact.ancilla_qubits}->{trunc.ancilla_qubits}, "
                  f"outcome dev {dev:.2e}")


class TestCriterion3:
    def test_coherent_confidence_ratio_sweep(self):
        started = time.perf_counter()
        alphas = [1.0, np.exp(-1j * np.pi / 3.0), np.exp(-2j * np.pi / 3.0)]
        spec = ProblemSpec.from_states([make_coherent_state(a, 3) for a in alphas],
                                       noise_lambda=0.01)
        result = solve_scheme(spec, "crossqsd", tol=TOL,
                              alpha=np.full(3, 0.01), beta=np.full(3, 0.01))

        def ratio(lam):
            stats = outcome_stats(joint_distribution(spec, result.povm, lam))
            return stats.p_err / stats.p_succ

        sweep = [ratio(lam) for lam in np.geomspace(1e-6, 1.0, 23)]
        elapsed = time.perf_counter() - started
        r_low, r_mid, r_high = ratio(1e-6), ratio(0.01), ratio(1.0)
        ok = (abs(r_low - COHERENT_RATIO_AT_1E6) <= 5e-4
              and abs(r_mid - COHERENT_RATIO_AT_SOLVE_NOISE) <= 5e-4
              and abs(r_high - COHERENT_RATIO_FULLY_MIXED) <= 1e-3
              and len(sweep) == 23 and elapsed < 300.0)
        _conclude(3, "coherent-state ratio curve", ok,
                  f"ratios {r_low:.5f}/{r_mid:.5f}/{r_high:.4f}, "
                  f"23-point sweep in {elapsed:.1f}s")


class TestCriterion4:
    def test_inconclusive_element_never_helps(self, random_suite):
        gap = max(abs(ps["med"] - ps["med_plus"]) for ps, _ in random_suite)
        tr = max(tr_inc for _, tr_inc in random_suite)
        ok = gap <= 1e-5 and tr <= 1e-3
        _conclude(4, "med vs med_plus on 50 random instances", ok,
                  f"max value gap {gap:.2e}, max inconclusive trace {tr:.2e}")


class TestCriterion5:
    def test_med_dominates_unambiguous(self, random_suite):
        worst = max(ps["uqsd"] - ps["med"] for ps, _ in random_suite)
        ok = worst <= 1e-6
        _conclude(5, "med >= uqsd on the same instances", ok,
                  f"max uqsd-med {worst:.2e}")


class TestCriterion6:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(9191)
        worst_med = 0.0
        for _ in range(100):
            if rng.random() < 0.5:
                states = (random_density(2, rng), random_density(2, rng))
            else:
                states = tuple(density_of(random_pure(2, rng)) for _ in range(2))
            p1 = float(rng.uniform(0.1, 0.9))
            spec = ProblemSpec(states, np.array([p1, 1.0 - p1]))
            value = solve_scheme(spec, "med", tol=TOL).value
            worst_med = max(worst_med, abs(value - helstrom_two_state(*states, p1)))
        worst_uqsd = 0.0
        for _ in range(50):
            s1, s2 = random_pure(2, rng), random_pure(2, rng)
            spec = ProblemSpec.from_states([s1, s2])
            value = solve_scheme(spec, "uqsd", tol=TOL).value
            closed = 1.0 - abs(s1.overlap(s2))
            worst_uqsd = max(worst_uqsd, abs(value - closed))
            assert abs(uqsd_two_pure(s1, s2, 0.5) - closed) < 1e-12
        pair = ProblemSpec.from_states(make_single_qubit_pair())
        med_pair = solve_scheme(pair, "med", tol=TOL).value
        uqsd_pair = solve_scheme(pair, "uqsd", tol=TOL).value
        dev_pair = max(abs(med_pair - 0.853553), abs(uqsd_pair - 0.292893))
        ok = worst_med <= 1e-6 and worst_uqsd <= 1e-6 and dev_pair <= 1e-6
        _conclude(6, "closed-form oracle equivalence", ok,
                  f"med dev {worst_med:.2e}, uqsd dev {worst_uqsd:.2e}, "
                  f"pair dev {dev_pair:.2e}")


class TestCriterion7:
    def test_dilation_exactness_on_random_povms(self):
        rng = np.random.default_rng(5151)
        worst_iso = worst_prob = 0.0
        dims_ok = True
        for _ in range(50):
            d = int(rng.choice([2, 4, 8]))
            k = int(rng.integers(2, 5))
            povm = random_povm(d, k, rng, inconclusive=bool(rng.integers(0, 2)))
            dec = decompose_rank1(povm)
            minimal = build_isometry(dec)
            generic = build_isometry_generic(povm)
            dims_ok = dims_ok and minimal.target_dim <= generic.target_dim
            gram = minimal.isometry.conj().T @ minimal.isometry
            worst_iso = max(worst_iso, float(np.max(np.abs(gram - np.eye(d)))))
            for _ in range(10):
                rho = random_density(d, rng)
                probs = simulate_measurement(minimal, rho).probabilities
                for lbl, elem in zip(povm.labels, povm.elements):
                    expected = float(np.trace(rho.matrix @ elem).real)
                    worst_prob = max(worst_prob, abs(probs[lbl] - expected))
        ok = worst_iso <= 1e-10 and worst_prob <= 1e-10 and dims_ok
        _conclude(7, "minimal dilation exactness (50 random POVMs)", ok,
                  f"isometry dev {worst_iso:.2e}, probability dev {worst_prob:.2e}, "
                  f"minimal<=generic {dims_ok}")


class TestCriterion8:
    def test_fit_and_hybrid_limits(self):
        spec = ProblemSpec.from_states(make_benchmark_two_qubit_states((0.2, 0.5, 0.7)))
        ref = uqsd_reference(spec, tol=TOL)
        minl1 = solve_scheme(spec, "minl1", tol=TOL, reference=ref)
        jd = joint_distribution(spec, minl1.povm, 0.0)
        l1_dev = float(np.abs(jd.entries - ref.entries).sum())

        noisy = spec.with_noise(1e-3)
        med = solve_scheme(noisy, "med", tol=TOL)
        hybrid0 = solve_scheme(noisy, "hybrid", tol=TOL, w=0.0, ell=1, reference=ref)
        med_gap = abs(hybrid0.value - med.value)

        rows = []
        for w in (0.0, 0.05, 0.2, 0.5, 2.0, 10.0):
            res = solve_scheme(noisy, "hybrid", tol=TOL, w=w, ell=1, reference=ref)
            jd_w = joint_distribution(noisy, res.povm, 1e-3)
            rows.append((outcome_stats(jd_w).p_succ,
                         float(np.abs(jd_w.entries - ref.entries).sum())))
        slack = 2.0 * TOL
        monotone = all(a[0] >= b[0] - slack and a[1] >= b[1] - slack
                       for a, b in zip(rows, rows[1:]))
        ok = l1_dev <= 1e-6 and med_gap <= 1e-5 and monotone
        _conclude(8, "fit/hybrid limits and monotone trade-off", ok,
                  f"L1 dev {l1_dev:.2e}, w=0 gap {med_gap:.2e}, "
                  f"monotone over 6 weights {monotone}")


class TestCriterion9:
    def test_noise_degradation_of_unambiguous_measurement(self):
        # Through the dilated measurement, per-state success probabilities
        # stay within 1% of their noiseless values up to noise 1e-3 and then
        # degrade monotonically.
        alphas = [1.0, np.exp(2j * np.pi / 3.0), np.exp(4j * np.pi / 3.0)]
        spec = ProblemSpec.from_states([make_coherent_state(a, 3) for a in alphas])
        res = solve_scheme(spec, "uqsd", tol=TOL)
        dil = dilate(res.povm)

        def successes(lam):
            out = []
            for i, state in enumerate(spec.states):
                noisy = depolarize(state, lam)
                out.append(simulate_measurement(dil, noisy).probabilities[i])
            return np.asarray(out)

        base = successes(0.0)
        small_ok = True
        for lam in (1e-4, 1e-3):
            rel = np.abs(successes(lam) - base) / base
            small_ok = small_ok and bool(np.all(rel <= 0.01))
        degrade = [successes(lam).sum() for lam in (1e-3, 1e-2, 1e-1, 0.5, 1.0)]
        monotone = all(a >= b - 1e-12 for a, b in zip(degrade, degrade[1:]))
        ok = small_ok and monotone
        _conclude(9, "noise degradation of the unambiguous measurement", ok,
                  f"<=1% drift at 1e-3 {small_ok}, monotone beyond {monotone}")


class TestCriterion10:
    def test_benchmark_harness(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main(["bench", "--min-qubits", "2", "--max-qubits", "3",
                         "--out", str(out)])
        capsys.readouterr()
        report = json.loads(out.read_text())
        validate_bench_report(report)
        expected = 9 * 2 * 3  # nine schemes, two sizes, three tasks
        ok = (code == 0 and len(report["rows"]) == expected
              and not report["budget_exhausted"])
        with capsys.disabled():
            _conclude(10, "timing harness across nine schemes", ok,
                      f"{len(report['rows'])} rows, schema valid")
