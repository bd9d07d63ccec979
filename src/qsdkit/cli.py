"""Command-line interface: solve, dilate, simulate, bench.

Exit codes: 0 on success, 1 on usage errors (bad flags or malformed input),
2 on numerical failure (unconverged or infeasible solves, invalid POVM
files, isometries whose dimension or labels do not fit the problem).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import __version__
from .dilation import (
    _problem_table,
    _sample,
    build_isometry,
    build_isometry_generic,
    complete_to_unitary,
    decompose_rank1,
    dilate,
    verify_dilation,
)
from .metrics import (
    _conditionals,
    _fold,
    _mix,
    error_to_success,
    joint_distribution,
    outcome_stats,
)
from .schemes import (
    AT_LEAST,
    AT_MOST,
    SCHEME_NAMES,
    SCHEMES,
    DecodeError,
    solve_scheme,
    uqsd_reference,
)
from .serialize import (
    canonical_dumps,
    read_isometry,
    read_povm,
    read_problem,
    validate_bench_report,
    write_isometry,
    write_json,
    write_povm,
    write_sweep_csv,
)
from .solver import DEFAULT_MAX_ITERS, DEFAULT_TOL, OPTIMAL
from .states import ProblemSpec, make_coherent_state


class UsageError(Exception):
    pass


class NumericalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _meta(args) -> dict:
    """Tool, version, seed (0 without ``--seed``), and solver settings where a solve runs."""
    meta = {"tool": "qsdkit", "version": __version__, "seed": int(getattr(args, "seed", 0))}
    if hasattr(args, "tol"):
        meta.update(tol=float(args.tol), max_iters=int(args.max_iters))
    return meta


def _parse_vector(raw: str, k: int, name: str) -> np.ndarray:
    parts = [float(p) for p in raw.split(",")]
    if len(parts) == 1:
        return np.full(k, parts[0])
    if len(parts) != k:
        raise UsageError(f"{name} needs 1 or {k} comma-separated values")
    return np.asarray(parts)


def cmd_solve(args) -> int:
    spec = read_problem(args.problem)
    lam_eval = args.lambda_eval if args.lambda_eval is not None else (args.lam or 0.0)
    lam_metrics = args.lam if args.lam is not None else lam_eval
    spec = spec.with_noise(lam_eval)
    # The scheme parameters given on the command line; the scheme fills in the rest.
    names = {key for _, defaults in SCHEMES.values() for key in defaults}
    params = {key: value for key, value in vars(args).items() if key in names}
    for key in ("alpha", "beta"):
        if key in params:
            params[key] = _parse_vector(params[key], spec.num_states, "--" + key)
    if "reference" in params:
        ref_povm = read_povm(params["reference"])
        params["reference"] = joint_distribution(spec.with_noise(0.0), ref_povm, 0.0)
    result = solve_scheme(spec, args.scheme, tol=args.tol,
                          max_iters=args.max_iters, **params)
    sol = result.solution
    if sol.status != OPTIMAL:
        raise NumericalError(
            f"solve did not converge: status={sol.status}, "
            f"primal residual {sol.primal_residual:.3e}, "
            f"dual residual {sol.dual_residual:.3e} (tol {args.tol:g})")

    meta = {**_meta(args), "scheme": args.scheme, "lambda_eval": float(lam_eval)}
    write_povm(args.out, result.povm, meta)

    jd = joint_distribution(spec, result.povm, lam_metrics)
    stats = outcome_stats(jd)
    given_state, given_outcome = _conditionals(jd)
    report = {
        "meta": meta,
        "lambda": float(lam_metrics),
        "objective_value": result.value,
        "p_succ": stats.p_succ,
        "p_err": stats.p_err,
        "p_inc": stats.p_inc,
        "error_to_success": error_to_success(jd),
        "joint_distribution": [[float(v) for v in row] for row in jd.entries],
        "confidence_given_state": [float(v) for v in given_state],
        "confidence_given_outcome": [float(v) for v in given_outcome],
        "solver": {
            "status": sol.status,
            "iterations": sol.iterations,
            "primal_residual": sol.primal_residual,
            "dual_residual": sol.dual_residual,
            "objective": sol.objective,
        },
    }
    if args.metrics_out:
        write_json(args.metrics_out, report)
    _print_json(report)
    return 0


def cmd_dilate(args) -> int:
    try:
        povm = read_povm(args.povm)
    except (ValueError, KeyError) as exc:
        raise NumericalError(f"invalid POVM file: {exc}") from exc
    if not args.delta >= 0:  # checked for --generic too: the file's meta records it
        raise UsageError(f"delta must be nonnegative, got {args.delta}")
    dil = build_isometry_generic(povm) if args.generic else dilate(povm, delta=args.delta)
    report = verify_dilation(dil, povm, seed=args.seed)
    meta = {**_meta(args), "delta": float(args.delta), "generic": bool(args.generic)}
    write_isometry(args.out, dil, meta)
    summary = {
        "meta": meta,
        "domain_dim": dil.domain_dim,
        "total_rank": dil.total_rank,
        "target_qubits": dil.target_qubits,
        "ancilla_qubits": dil.ancilla_qubits,
        "isometry_deviation": report.isometry_deviation,
        "max_probability_deviation": report.max_probability_deviation,
    }
    _print_json(summary)
    return 0


def cmd_simulate(args) -> int:
    dil = read_isometry(args.isometry)
    spec = read_problem(args.problem)
    if args.lambda_sweep:
        try:
            start, stop, points = args.lambda_sweep.split(":")
            lams = np.geomspace(float(start), float(stop), int(points))
        except ValueError as exc:
            raise UsageError(f"bad --lambda-sweep (want start:stop:points): {exc}") from exc
        if not args.out:
            raise UsageError("--lambda-sweep requires --out for the CSV")
    else:
        lams = [args.lam or 0.0]
    try:
        labels, table, columns = _problem_table(spec, dil)
    except ValueError as exc:
        raise NumericalError(f"isometry does not fit the problem: {exc}") from exc

    if args.lambda_sweep:
        rows = []
        for lam in lams:
            jd = _fold(spec.priors, _mix(table, float(lam)), columns)
            stats = outcome_stats(jd)
            rows.append((float(lam), stats.p_succ, stats.p_err, stats.p_inc,
                         error_to_success(jd)))
        write_sweep_csv(args.out, rows)
        _print_json({"meta": _meta(args), "rows": len(rows), "out": args.out})
        return 0

    lam = float(lams[0])
    meta = {**_meta(args), "lambda": lam}
    indices = range(spec.num_states) if args.state_index is None else [args.state_index]
    if not all(0 <= i < spec.num_states for i in indices):
        raise UsageError(f"--state-index must be in [0, {spec.num_states - 1}]")
    # Row i of the mixed table is state i's outcome distribution at this level.
    mixed = _mix(table, lam)
    per_state = []
    for i in indices:
        result = _sample(labels, mixed[i], args.shots, args.seed)
        entry = {"state": int(i),
                 "probabilities": {str(l): float(p) for l, p in result.probabilities.items()}}
        if result.counts is not None:
            entry["counts"] = {str(l): int(c) for l, c in result.counts.items()}
        per_state.append(entry)
    stats = outcome_stats(_fold(spec.priors, mixed, columns))
    report = {"meta": meta, "shots": int(args.shots), "per_state": per_state,
              "p_succ": stats.p_succ, "p_err": stats.p_err, "p_inc": stats.p_inc}
    if args.out:
        write_json(args.out, report)
    _print_json(report)
    return 0


def _bench_spec(num_qubits: int, lam: float) -> ProblemSpec:
    alphas = [1.0, np.exp(2j * np.pi / 3.0), np.exp(4j * np.pi / 3.0)]
    states = [make_coherent_state(a, num_qubits) for a in alphas]
    return ProblemSpec.from_states(states, noise_lambda=lam)


def cmd_bench(args) -> int:
    schemes = SCHEME_NAMES if args.schemes == "all" else tuple(args.schemes.split(","))
    for name in schemes:
        if name not in SCHEME_NAMES:
            raise UsageError(f"unknown scheme {name!r}")
    rows = []
    started = time.perf_counter()
    budget_hit = False
    for num_qubits in range(args.min_qubits, args.max_qubits + 1):
        spec = _bench_spec(num_qubits, args.lam if args.lam is not None else 0.01)
        reference = None
        for name in schemes:
            if time.perf_counter() - started > args.budget_seconds:
                budget_hit = True
                break
            params = {}
            if "reference" in SCHEMES[name][1]:
                if reference is None:
                    reference = uqsd_reference(spec, tol=args.tol)
                params["reference"] = reference

            t0 = time.perf_counter()
            result = solve_scheme(spec, name, tol=args.tol,
                                  max_iters=args.max_iters, **params)
            rows.append({"scheme": name, "qubits": num_qubits, "task": "solve",
                         "seconds": time.perf_counter() - t0})

            t0 = time.perf_counter()
            dec = decompose_rank1(result.povm)
            rows.append({"scheme": name, "qubits": num_qubits, "task": "rank_one",
                         "seconds": time.perf_counter() - t0})

            t0 = time.perf_counter()
            dil = build_isometry(dec)
            complete_to_unitary(dil)
            rows.append({"scheme": name, "qubits": num_qubits, "task": "isometry",
                         "seconds": time.perf_counter() - t0})
        if budget_hit:
            break
    report = {"meta": _meta(args), "rows": rows,
              "budget_exhausted": budget_hit}
    validate_bench_report(report)
    if args.out:
        write_json(args.out, report)
    _print_json(report)
    return 0


def _print_json(obj) -> None:
    sys.stdout.write(canonical_dumps(obj) + "\n")


def _add_common(p):
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver tolerance")
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS,
                   help="solver iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qsdkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a discrimination scheme and write the POVM")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
    p.add_argument("--out", required=True, help="output POVM JSON file")
    p.add_argument("--metrics-out", help="also write the metrics report here")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="noise level for the reported metrics (default: lambda-eval)")
    p.add_argument("--lambda-eval", dest="lambda_eval", type=float, default=None,
                   help="noise level assumed while solving (default: --lambda or 0)")
    # Scheme parameters: an absent flag takes the scheme's default, and a
    # flag the scheme does not take is a usage error (see schemes.SCHEMES).
    p.add_argument("--rate", type=float, default=argparse.SUPPRESS, help="frio inconclusive rate")
    p.add_argument("--bound", choices=(AT_LEAST, AT_MOST), default=argparse.SUPPRESS)
    p.add_argument("--alpha", default=argparse.SUPPRESS, help="crossqsd false-positive bounds")
    p.add_argument("--beta", default=argparse.SUPPRESS, help="crossqsd false-negative bounds")
    p.add_argument("--w", type=float, default=argparse.SUPPRESS, help="hybrid trade-off weight")
    p.add_argument("--ell", type=int, choices=(1, 2), default=argparse.SUPPRESS,
                   help="deviation norm")
    p.add_argument("--reference", default=argparse.SUPPRESS,
                   help="POVM file defining the reference distribution")
    _add_common(p)

    p = sub.add_parser("dilate", help="build a projective dilation of a POVM")
    p.add_argument("--povm", required=True, help="POVM JSON file")
    p.add_argument("--out", required=True, help="output isometry JSON file")
    p.add_argument("--delta", type=float, default=0.0,
                   help="discard rank-1 pieces with weight below this threshold")
    p.add_argument("--generic", action="store_true",
                   help="use the k*d baseline construction instead")
    p.add_argument("--seed", type=int, default=7, help="seed for verification states")

    p = sub.add_parser("simulate", help="measure states through a dilated POVM")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--state-index", type=int, default=None,
                   help="simulate only this prepared state")
    p.add_argument("--shots", type=int, default=0, help="0 = exact probabilities")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="depolarizing level applied to the input states")
    p.add_argument("--lambda-sweep", default=None,
                   help="log-spaced sweep start:stop:points; writes a CSV to --out")
    p.add_argument("--out", help="output file (JSON, or CSV for sweeps)")

    p = sub.add_parser("bench", help="time solve/decompose/dilate across qubit counts")
    p.add_argument("--min-qubits", type=int, default=2)
    p.add_argument("--max-qubits", type=int, default=3)
    p.add_argument("--schemes", default="all",
                   help="comma-separated scheme list (default: all nine)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="noise level assumed while solving (default 0.01)")
    p.add_argument("--budget-seconds", type=float, default=600.0,
                   help="skip remaining configurations beyond this wall-clock budget")
    p.add_argument("--out", help="write the timing report JSON here")
    _add_common(p)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call uses; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # Looked up on every call rather than stored in the cached parser,
        # so a command function patched after the first call (by a test or
        # a profiler) is the one that runs.
        commands = {"solve": cmd_solve, "dilate": cmd_dilate,
                    "simulate": cmd_simulate, "bench": cmd_bench}
        return commands[args.command](args)
    except (NumericalError, DecodeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
