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
from .solver import DEFAULT_MAX_ITERS, DEFAULT_TOL
from .states import MAX_QUBITS, ProblemSpec, make_coherent_state


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


def _numbers(raw: str):
    """One number, or a comma-separated list of them (one value per state)."""
    parts = [float(p) for p in raw.split(",")]
    return parts[0] if len(parts) == 1 else np.asarray(parts)


#: Each parameter of :data:`SCHEMES` with its table default; ``qsd solve``
#: has one flag per key (see :func:`_add_scheme_flags`).
_SCHEME_PARAMS = {key: default for _, params in SCHEMES.values()
                  for key, default in params.items()}

#: How a scheme flag reads its value, by the type of the table default, and
#: what the value is.  A ``None`` default reads a POVM file.
_FLAG_FORMS = {
    float: (_numbers, "a number or a comma list of numbers"),
    int: (int, "an integer"),
    str: (str, "a string"),
    type(None): (str, "a POVM file whose noiseless outcome distribution is the "
                      "reference; None: the problem's noiseless uqsd optimum"),
}


def cmd_solve(args) -> int:
    problem = read_problem(args.problem)
    lam_eval = getattr(args, "lambda_eval", getattr(args, "lambda", 0.0))
    lam_metrics = getattr(args, "lambda", lam_eval)
    # Both noise levels are checked here, before the solve writes anything.
    spec, reported = problem.with_noise(lam_eval), problem.with_noise(lam_metrics)
    # The scheme parameters given on the command line; the scheme fills in
    # the rest and checks every value.
    params = {key: getattr(args, key) for key in _SCHEME_PARAMS if key in args}
    for key, value in params.items():
        if _SCHEME_PARAMS[key] is None:
            params[key] = joint_distribution(problem, read_povm(value), 0.0)
    result = solve_scheme(spec, args.scheme, tol=args.tol,
                          max_iters=args.max_iters, **params)
    sol = result.solution

    meta = {**_meta(args), "scheme": args.scheme, "lambda_eval": float(lam_eval)}
    write_povm(args.out, result.povm, meta)

    jd = joint_distribution(reported, result.povm)
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
        # A sweep reports rates only: per-state flags and --lambda would go unused.
        unused = [name for name in ("shots", "seed", "state_index", "lambda") if name in args]
        if unused:
            raise UsageError(f"--lambda-sweep takes no --{unused[0].replace('_', '-')}")
        try:
            start, stop, points = args.lambda_sweep.split(":")
            lams = np.geomspace(float(start), float(stop), int(points))
        except ValueError as exc:
            raise UsageError(f"bad --lambda-sweep (want start:stop:points): {exc}") from exc
        if lams.size == 0:
            raise UsageError("--lambda-sweep needs at least one point")
        if not args.out:
            raise UsageError("--lambda-sweep requires --out for the CSV")
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

    lam = getattr(args, "lambda", 0.0)
    meta = {**_meta(args), "lambda": lam}
    shots, seed = getattr(args, "shots", 0), getattr(args, "seed", 0)
    index = getattr(args, "state_index", None)
    indices = range(spec.num_states) if index is None else [index]
    if not all(0 <= i < spec.num_states for i in indices):
        raise UsageError(f"--state-index must be in [0, {spec.num_states - 1}]")
    # Row i of the mixed table is state i's outcome distribution at this level.
    mixed = _mix(table, lam)
    per_state = []
    for i in indices:
        result = _sample(labels, mixed[i], shots, seed)
        entry = {"state": int(i),
                 "probabilities": {str(l): float(p) for l, p in result.probabilities.items()}}
        if result.counts is not None:
            entry["counts"] = {str(l): int(c) for l, c in result.counts.items()}
        per_state.append(entry)
    stats = outcome_stats(_fold(spec.priors, mixed, columns))
    report = {"meta": meta, "shots": int(shots), "per_state": per_state,
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
    # Checked before any solve: a size beyond MAX_QUBITS would otherwise be
    # refused only after every smaller size had been solved.
    if not 1 <= args.min_qubits <= args.max_qubits <= MAX_QUBITS:
        raise UsageError(f"need 1 <= --min-qubits <= --max-qubits <= {MAX_QUBITS}, "
                         f"got {args.min_qubits} and {args.max_qubits}")
    lam = getattr(args, "lambda")
    rows = []
    started = time.perf_counter()
    budget_hit = False
    for num_qubits in range(args.min_qubits, args.max_qubits + 1):
        spec = _bench_spec(num_qubits, lam)
        reference = None
        for name in schemes:
            if time.perf_counter() - started > args.budget_seconds:
                budget_hit = True
                break
            # A None table default stands for the uqsd reference, solved once per instance.
            takes = [key for key, default in SCHEMES[name][1].items() if default is None]
            if takes and reference is None:
                reference = uqsd_reference(spec, tol=args.tol, max_iters=args.max_iters)
            params = dict.fromkeys(takes, reference)
            stages = (
                ("solve", lambda _: solve_scheme(spec, name, tol=args.tol,
                                                 max_iters=args.max_iters, **params).povm),
                ("rank_one", decompose_rank1),
                ("isometry", lambda dec: complete_to_unitary(build_isometry(dec))),
            )
            value = None
            for task, stage in stages:
                t0 = time.perf_counter()
                value = stage(value)
                rows.append({"scheme": name, "qubits": num_qubits, "task": task,
                             "seconds": time.perf_counter() - t0})
        if budget_hit:
            break
    report = {"meta": {**_meta(args), "lambda": lam}, "rows": rows,
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


def _add_scheme_flags(p) -> None:
    """One ``--<key>`` flag per :data:`SCHEMES` parameter, read by the type of
    its table default.  An absent flag takes the scheme's default, and a flag
    the scheme does not take is a usage error (see ``build_scheme``)."""
    group = p.add_argument_group("scheme parameters (from schemes.SCHEMES)")
    for key, default in _SCHEME_PARAMS.items():
        takers = [name for name, (_, params) in SCHEMES.items() if key in params]
        read, what = _FLAG_FORMS[type(default)]
        group.add_argument("--" + key, type=read, default=argparse.SUPPRESS,
                           help=f"{', '.join(takers)}: {what} (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qsdkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a discrimination scheme and write the POVM")
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
    p.add_argument("--out", required=True, help="output POVM JSON file")
    p.add_argument("--metrics-out", help="also write the metrics report here")
    p.add_argument("--lambda", type=float, default=argparse.SUPPRESS,
                   help="noise level for the reported metrics (default: --lambda-eval)")
    p.add_argument("--lambda-eval", type=float, default=argparse.SUPPRESS,
                   help="noise level assumed while solving (default: --lambda or 0)")
    _add_scheme_flags(p)
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
    # No defaults in the namespace, so a sweep can reject these flags.
    p.add_argument("--state-index", type=int, default=argparse.SUPPRESS,
                   help="simulate only this prepared state (default: all)")
    p.add_argument("--shots", type=int, default=argparse.SUPPRESS,
                   help="shots per state (default 0: exact probabilities only)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="sampling seed (default 0)")
    p.add_argument("--lambda", type=float, default=argparse.SUPPRESS,
                   help="depolarizing level applied to the input states (default 0)")
    p.add_argument("--lambda-sweep", default=None,
                   help="log-spaced sweep start:stop:points; writes a CSV to --out")
    p.add_argument("--out", help="output file (JSON, or CSV for sweeps)")

    p = sub.add_parser("bench", help="time solve/decompose/dilate across qubit counts")
    p.add_argument("--min-qubits", type=int, default=2)
    p.add_argument("--max-qubits", type=int, default=3)
    p.add_argument("--schemes", default="all",
                   help="comma-separated scheme list (default: all nine)")
    p.add_argument("--lambda", type=float, default=0.01,
                   help="noise level assumed while solving")
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
