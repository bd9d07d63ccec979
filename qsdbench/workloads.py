"""The three workloads: their inputs, their operations and each operation's checks.

A workload is a ``setup`` that builds everything the timed phase needs and
an ``ops`` function that lists one pass of operations.  Every operation
calls the library the way its users do (``solve_scheme``, the ``metrics``
functions, ``qsd`` commands through ``qsdkit.cli.main``) and returns plain
data; its check runs afterwards, untimed, against figures the benchmark
computes itself (see ``checks.py``).  The program receives only the inputs
generated here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qsdkit import cli, metrics, schemes, serialize, states

import checks
from checks import Instance, require

GRID_ALPHAS = (1.0, np.exp(2j * np.pi / 3.0), np.exp(4j * np.pi / 3.0))    # qsd bench's triple
SWEEP_ALPHAS = (1.0, np.exp(-1j * np.pi / 3.0), np.exp(-2j * np.pi / 3.0))  # demos/02's triple
ENSEMBLE_A = (0.2, 0.5, 0.7)
# Each pass draws one random instance of every shape (states, dimension), so
# every pass carries the same mix of sizes and only the states and priors
# come from the seed.  They are solved with uqsd alone, which takes 4-70
# iterations on almost every draw.  MED on random states has a long tail of
# iteration counts (one d=8 draw takes 44128 iterations against a median of
# 151), which made a run's figures depend on its seed; the fixed families
# cover every scheme at d=2 to 32.
RANDOM_SHAPES = tuple((k, d) for k in (2, 3, 4) for d in (2, 4, 8)) * 3
HYBRID_WEIGHTS = (0.0, 0.05, 0.2, 0.5, 2.0, 10.0)
FIT_LAMBDAS = (1e-4, 1e-3, 1e-2)
FRIO_RATES = (0.05, 0.1, 0.2, 0.3, 0.5)
RATIO_LAMBDAS = tuple(np.geomspace(1e-6, 1.0, 23)) + (1e-2,)
SHOTS = 4096
SWEEP_POINTS = 23


@dataclass
class Op:
    id: str
    run: Callable[[], dict]
    check: Callable[[dict], None]


# --------------------------------------------------------------------------
# Inputs, made by the benchmark
# --------------------------------------------------------------------------

def coherent(alpha: complex, num_qubits: int) -> np.ndarray:
    """Coherent state of amplitude ``alpha``, truncated to ``2**num_qubits`` levels.

    ``c_n = alpha^n / sqrt(n!)`` is accumulated term by term and the vector
    renormalized, the order of operations ``qsd bench`` uses: the solver's
    iteration count changes with the last bits of its input (see README).
    """
    amps = np.empty(2 ** num_qubits, dtype=complex)
    term = amps[0] = 1.0 + 0.0j
    for n in range(1, amps.size):
        term = term * alpha / math.sqrt(n)
        amps[n] = term
    return amps / np.linalg.norm(amps)


def ensemble_vectors() -> list:
    """``(|b_i> + a_i |11>) / sqrt(1 + a_i^2)`` for ``b = 00, 01, 10``."""
    out = []
    for i, a in enumerate(ENSEMBLE_A):
        v = np.zeros(4, dtype=complex)
        v[i], v[3] = 1.0, a
        out.append(v / math.sqrt(1.0 + a * a))
    return out


def pure_instance(label: str, vectors, lam: float) -> Instance:
    k = len(vectors)
    return Instance(label, tuple(np.outer(v, v.conj()) for v in vectors),
                    np.full(k, 1.0 / k), lam, tuple(vectors))


def triple(num_qubits: int, lam: float, alphas=GRID_ALPHAS) -> Instance:
    return pure_instance(f"tri{num_qubits}", [coherent(a, num_qubits) for a in alphas], lam)


def pair() -> Instance:
    return pure_instance("pair", [np.array([1.0, 0.0], dtype=complex),
                                  np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)], 0.0)


def ensemble(lam: float) -> Instance:
    return pure_instance("ens", ensemble_vectors(), lam)


def random_instance(label: str, rng, k: int, d: int) -> Instance:
    """``k`` random pure states of dimension ``d`` with random priors, noiseless."""
    vectors = []
    for _ in range(k):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vectors.append(v / np.linalg.norm(v))
    return Instance(label, tuple(np.outer(v, v.conj()) for v in vectors),
                    rng.dirichlet(np.ones(k)), 0.0, tuple(vectors))


def spec_of(inst: Instance):
    """The instance as the library's ProblemSpec."""
    if inst.vectors is not None:
        return states.ProblemSpec.from_states([states.PureState(v) for v in inst.vectors],
                                              priors=inst.priors, noise_lambda=inst.lam)
    return states.ProblemSpec(tuple(states.DensityMatrix(r) for r in inst.states),
                              inst.priors, inst.lam)


def with_lam(inst: Instance, lam: float) -> Instance:
    return Instance(inst.label, inst.states, inst.priors, lam, inst.vectors)


def reference(inst: Instance):
    """The program's UQSD reference distribution of ``inst``, checked."""
    ref = schemes.uqsd_reference(spec_of(inst))
    checks.check_reference(ref.entries)
    return ref


def problem_file(path: Path, inst: Instance) -> None:
    """Problem JSON with the instance's pure states, written by the benchmark."""
    payload = {"num_qubits": (inst.dim - 1).bit_length(),
               "priors": [float(p) for p in inst.priors],
               "states": [{"type": "pure", "amplitudes": [[float(a.real), float(a.imag)] for a in v]}
                          for v in inst.vectors]}
    path.write_text(json.dumps(payload))


def qsd(*argv) -> dict:
    """One ``qsd`` command in-process; returns its JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    require(code == 0, f"qsd {argv[0]} exited with {code}")
    return json.loads(buf.getvalue())


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def solved(result) -> dict:
    return {"status": result.solution.status, "elements": result.povm.elements,
            "labels": result.povm.labels, "value": result.value,
            "iterations": result.solution.iterations, "povm": result.povm}


def check_params(params: dict) -> dict:
    out = dict(params)
    if "reference" in out:
        out["reference"] = out["reference"].entries
    return out


def solve_op(op_id, inst, spec, name, params, ctx, extra=None) -> Op:
    """One cold ``solve_scheme`` call; ``extra(out, joint)`` adds instance-specific checks."""
    def run():
        return solved(schemes.solve_scheme(spec, name, **params))

    def check(out):
        j = checks.check_scheme(inst, name, check_params(params), out, ctx)
        if extra is not None:
            extra(out, j)
    return Op(op_id, run, check)


def grid_params(name: str, k: int, ref) -> dict:
    """The parameters ``qsd bench`` solves each scheme with."""
    if name == "frio":
        return {"rate": 0.1}
    if name == "crossqsd":
        return {"alpha": np.full(k, 0.1), "beta": np.full(k, 0.1)}
    if name == "hybrid":
        return {"w": 0.3, "ell": 1, "reference": ref}
    if name in ("minl1", "minss", "meco"):
        return {"reference": ref}
    return {}


def warm_up(workdir: Path) -> None:
    """One small pass through every layer, so lazy imports and first calls are paid in setup."""
    inst = pair()
    povm_path, iso_path, prob_path = (workdir / f"warm.{ext}" for ext in ("povm.json", "iso.json", "problem.json"))
    spec = spec_of(inst)
    ref = reference(inst)
    checks.check_two_pure(inst, "uqsd", checks.rates(ref.entries)[0])
    result = schemes.solve_scheme(spec, "med")
    out = solved(result)
    j = checks.check_scheme(inst, "med", {}, out, {})
    stats = metrics.outcome_stats(metrics.joint_distribution(spec, result.povm))
    require(abs(stats.p_succ - checks.rates(j)[0]) <= checks.TOL_PROB, "warm-up outcome stats")
    serialize.write_povm(povm_path, result.povm)
    problem_file(prob_path, inst)
    summary = qsd("dilate", "--povm", povm_path, "--out", iso_path)
    elements, labels = checks.load_povm(povm_path.read_text())
    checks.check_isometry(iso_path.read_text(), summary, elements, labels, inst, 0.0, False, 0.0)
    report = qsd("simulate", "--isometry", iso_path, "--problem", prob_path, "--shots", 64)
    checks.check_shots(report, elements, labels, inst, 0.0, 64)


# --------------------------------------------------------------------------
# scheme_grid: independent cold solves
# --------------------------------------------------------------------------

def setup_scheme_grid(workdir: Path, seed: int) -> dict:
    fixed = [(pair(), ("med", "uqsd")), (ensemble(0.0), schemes.SCHEME_NAMES)]
    fixed += [(triple(n, 0.01), schemes.SCHEME_NAMES) for n in (2, 3, 4)]
    fixed += [(triple(5, 0.01), ("med", "uqsd", "meco", "frio"))]
    cases = []
    for inst, names in fixed:
        needs_ref = any(n in ("minl1", "minss", "meco", "hybrid") for n in names)
        ref = reference(inst) if needs_ref else None
        cases.append((inst, spec_of(inst), names, ref))
    warm_up(workdir)
    return {"seed": seed, "cases": cases}


def ops_scheme_grid(state: dict, pass_index: int) -> list:
    rng = np.random.default_rng([state["seed"], pass_index])
    cases = list(state["cases"])
    for r, (k, d) in enumerate(RANDOM_SHAPES):
        inst = random_instance(f"rand{r}-{k}x{d}", rng, k, d)
        cases.append((inst, spec_of(inst), ("uqsd",), None))
    ops = []
    for inst, spec, names, ref in cases:
        ctx = {}
        for name in names:
            extra = None
            if inst.k == 2 and inst.vectors is not None:
                extra = lambda out, j, inst=inst, name=name: checks.check_two_pure(inst, name, out["value"])
            elif inst.label == "ens" and name == "med":
                extra = lambda out, j, inst=inst: checks.check_ensemble_conditionals(inst, j)
            params = grid_params(name, inst.k, ref)
            ops.append(solve_op(f"grid:{inst.label}:{name}:p{pass_index}", inst, spec,
                                name, params, ctx, extra))
    return ops


# --------------------------------------------------------------------------
# param_sweep: the sweeps of demos/02 and demos/03
# --------------------------------------------------------------------------

def setup_param_sweep(workdir: Path, seed: int) -> dict:
    ens = ensemble(1e-3)
    tri = triple(3, 0.0, SWEEP_ALPHAS)
    state = {"seed": seed, "ens": ens, "ens_spec": spec_of(ens),
             "ens_ref": reference(with_lam(ens, 0.0)),
             "tri": tri, "tri_ref": reference(tri),
             "tri_specs": {lam: spec_of(with_lam(tri, lam)) for lam in FIT_LAMBDAS}}
    warm_up(workdir)
    return state


def evaluate(spec, povm, lam_solve, lam_eval, ref=None, ell=None, crossqsd=False) -> dict:
    """What the demos read off a solved POVM, through the ``metrics`` layer."""
    jd = metrics.joint_distribution(spec, povm, lam_solve)
    jd_eval = metrics.joint_distribution(spec, povm, lam_eval)
    out = {"joint": jd.entries, "stats": metrics.outcome_stats(jd),
           "joint_eval": jd_eval.entries, "stats_eval": metrics.outcome_stats(jd_eval)}
    if ref is not None:
        out["distance"] = metrics.lp_distance(jd, ref, ell)
    if crossqsd:
        out["confidences"] = metrics.confidences(spec, povm, lam_solve)
        out["ratios"] = {lam: metrics.error_to_success(metrics.joint_distribution(spec, povm, lam))
                         for lam in RATIO_LAMBDAS}
    return out


def check_evaluation(inst, out, lam_eval, ref=None, ell=None) -> None:
    """The ``metrics`` outputs against the benchmark's own joint distributions."""
    for key, stats_key, lam in (("joint", "stats", inst.lam), ("joint_eval", "stats_eval", lam_eval)):
        j = checks.joint(inst, out["elements"], out["labels"], lam)
        dev = float(np.max(np.abs(out[key] - j)))
        require(dev <= checks.TOL_PROB, f"joint distribution at {lam:.3e} off by {dev:.2e}")
        s = out[stats_key]
        for got, want in zip((s.p_succ, s.p_err, s.p_inc), checks.rates(j)):
            require(abs(got - want) <= checks.TOL_PROB, f"outcome stats at {lam:.3e}")
    if ref is not None:
        j = checks.joint(inst, out["elements"], out["labels"], inst.lam)
        want = checks.deviation(j, ref, ell) ** (1.0 / ell)
        require(abs(out["distance"] - want) <= checks.TOL_PROB, "lp_distance")


def sweep_op(op_id, inst, spec, name, params, lam_eval, ctx, after, ell=None, crossqsd=False) -> Op:
    ref = params.get("reference")

    def run():
        out = solved(schemes.solve_scheme(spec, name, **params))
        out.update(evaluate(spec, out["povm"], inst.lam, lam_eval, ref, ell, crossqsd))
        return out

    def check(out):
        j = checks.check_scheme(inst, name, check_params(params), out, ctx)
        check_evaluation(inst, out, lam_eval, None if ref is None else ref.entries, ell)
        after(out, j)
    return Op(op_id, run, check)


def ops_param_sweep(state: dict, pass_index: int) -> list:
    rng = np.random.default_rng([state["seed"], pass_index])
    ops = []

    def lam_eval():
        return float(10.0 ** rng.uniform(-6.0, 0.0))

    ens, ens_ref = state["ens"], state["ens_ref"]
    for ell in (1, 2):
        trail = {"succ": [], "dev": []}

        def after(out, j, trail=trail, ell=ell):
            trail["succ"].append(checks.rates(j)[0])
            trail["dev"].append(checks.deviation(j, ens_ref.entries, ell))
            checks.check_nonincreasing(trail["succ"], f"hybrid ell={ell} success")
            checks.check_nonincreasing(trail["dev"], f"hybrid ell={ell} deviation")
        for w in HYBRID_WEIGHTS:
            params = {"w": w, "ell": ell, "reference": ens_ref}
            ops.append(sweep_op(f"sweep:hybrid{ell}:w{w:g}:p{pass_index}", ens, state["ens_spec"],
                                "hybrid", params, lam_eval(), {}, after, ell=ell))

    tri, tri_ref = state["tri"], state["tri_ref"]
    for lam in FIT_LAMBDAS:
        inst = with_lam(tri, lam)
        for name in ("minl1", "minss", "meco"):
            ops.append(sweep_op(f"sweep:{name}:lam{lam:g}:p{pass_index}", inst,
                                state["tri_specs"][lam], name, {"reference": tri_ref},
                                lam_eval(), {}, lambda out, j: None, ell=2))

    inst = with_lam(tri, 1e-2)
    spec = state["tri_specs"][1e-2]
    cross = {"alpha": np.full(3, 0.01), "beta": np.full(3, 0.01)}

    def after_cross(out, j):
        gs, go = out["confidences"]
        want_gs, want_go = checks.conditionals(j)
        require(float(np.max(np.abs(gs - want_gs))) <= checks.TOL_PROB
                and float(np.max(np.abs(go - want_go))) <= checks.TOL_PROB, "confidences")
        for lam, ratio in out["ratios"].items():
            succ, err, _ = checks.rates(checks.joint(inst, out["elements"], out["labels"], lam))
            require(abs(ratio - err / succ) <= checks.TOL_PROB * max(1.0, ratio),
                    f"error_to_success at {lam:.3e}")
        checks.check_ratio_at_one(out["ratios"][1.0], inst.k)
        checks.check_crossqsd_ratios(out["ratios"])
    ops.append(sweep_op(f"sweep:crossqsd:p{pass_index}", inst, spec, "crossqsd", cross,
                        lam_eval(), {}, after_cross, crossqsd=True))

    frio_trail = []

    def after_frio(out, j):
        frio_trail.append(checks.rates(j)[0])
        checks.check_nonincreasing(frio_trail, "frio success")
    for rate in FRIO_RATES:
        ops.append(sweep_op(f"sweep:frio:r{rate:g}:p{pass_index}", inst, spec, "frio",
                            {"rate": rate}, lam_eval(), {}, after_frio))
    return ops


# --------------------------------------------------------------------------
# measure_pipeline: solved POVMs through qsd dilate / qsd simulate
# --------------------------------------------------------------------------

def pipeline_cases() -> list:
    """(case name, instance, scheme, parameters); the instance's lam is the solve level."""
    cases = [(f"med{n}", triple(n, 0.01), "med", {}) for n in (2, 3, 4, 5)]
    cases += [(f"uqsd{n}", triple(n, 0.0), "uqsd", {}) for n in (2, 3, 4, 5)]
    cases += [(f"frio{n}", triple(n, 0.01), "frio", {"rate": 0.1}) for n in (2, 3, 4)]
    cases += [(f"crossqsd{n}", triple(n, 0.01), "crossqsd",
               {"alpha": np.full(3, 0.1), "beta": np.full(3, 0.1)}) for n in (2, 3)]
    cases.append(("ens_med", ensemble(0.0), "med", {}))
    return cases


def setup_measure_pipeline(workdir: Path, seed: int) -> dict:
    prepared = []
    for case, inst, name, params in pipeline_cases():
        result = schemes.solve_scheme(spec_of(inst), name, **params)
        checks.check_scheme(inst, name, params, solved(result), {})
        files = {key: workdir / f"{case}.{key}" for key in
                 ("povm.json", "problem.json", "exact.json", "trunc.json", "generic.json", "sweep.csv")}
        serialize.write_povm(files["povm.json"], result.povm)
        problem_file(files["problem.json"], inst)
        elements, labels = checks.load_povm(files["povm.json"].read_text())
        prepared.append((case, inst, files, elements, labels))
    warm_up(workdir)
    return {"seed": seed, "cases": prepared}


def pipeline_op(op_id, inst, files, elements, labels, rng) -> Op:
    verify_seed = int(rng.integers(1, 2 ** 31))
    shot_seed = int(rng.integers(1, 2 ** 31))
    lam = float(10.0 ** rng.uniform(-4.0, -1.0))
    start = float(10.0 ** rng.uniform(-7.0, -5.0))
    povm = files["povm.json"]

    def run():
        return {
            "exact": qsd("dilate", "--povm", povm, "--delta", 0.0,
                         "--out", files["exact.json"], "--seed", verify_seed),
            "trunc": qsd("dilate", "--povm", povm, "--delta", 1e-4,
                         "--out", files["trunc.json"], "--seed", verify_seed),
            "generic": qsd("dilate", "--povm", povm, "--generic",
                           "--out", files["generic.json"], "--seed", verify_seed),
            "shots": qsd("simulate", "--isometry", files["generic.json"],
                         "--problem", files["problem.json"], "--shots", SHOTS,
                         "--seed", shot_seed, "--lambda", repr(lam)),
            "sweep": qsd("simulate", "--isometry", files["exact.json"],
                         "--problem", files["problem.json"],
                         "--lambda-sweep", f"{start!r}:1:{SWEEP_POINTS}", "--out", files["sweep.csv"]),
        }

    def check(out):
        for key, delta, generic in (("exact", 0.0, False), ("trunc", 1e-4, False),
                                    ("generic", 0.0, True)):
            checks.check_isometry(files[f"{key}.json"].read_text(), out[key], elements,
                                  labels, inst, delta, generic, lam)
        checks.check_shots(out["shots"], elements, labels, inst, lam, SHOTS)
        checks.check_sweep(files["sweep.csv"].read_text(), elements, labels, inst,
                           np.geomspace(start, 1.0, SWEEP_POINTS))
    return Op(op_id, run, check)


def ops_measure_pipeline(state: dict, pass_index: int) -> list:
    rng = np.random.default_rng([state["seed"], pass_index])
    return [pipeline_op(f"pipe:{case}:p{pass_index}", inst, files, elements, labels, rng)
            for case, inst, files, elements, labels in state["cases"]]


WORKLOADS = {
    "scheme_grid": (setup_scheme_grid, ops_scheme_grid),
    "param_sweep": (setup_param_sweep, ops_param_sweep),
    "measure_pipeline": (setup_measure_pipeline, ops_measure_pipeline),
}
