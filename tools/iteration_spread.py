"""Spread of the solver's iteration counts under 1-ulp changes of the objective.

With Anderson acceleration the iteration count of a solve depends on the
last bits of its input, so one count is one draw.  For each instance and
scheme this script solves the scheme's program as built, then five copies
whose nonzero objective entries are each moved by one ulp in a random
direction (fixed seeds), and prints one JSON report: the unperturbed count,
the median and maximum over the copies, the largest deviation of a copy's
objective from the unperturbed one, the program's variable count, and two
SHA-1 digests: ``program_sha1`` of the program as built (its blocks, ``c``,
``A``, ``b``, ``quad_diag``, the block-sum rhs, and the scheme's labels and
element offsets and carriers) and ``x_sha1`` of the unperturbed solution's
``x.tobytes()``.  Two reports can then be diffed to check that a change
keeps every program byte-identical, and to see which solves it moves.
After the report the script exits 1, naming the rows, when a solve is not
``optimal`` or a scheme's largest count exceeds twice its median.

The instances are the coherent triple of ``qsd bench`` (λ = 0.01) at 2 to
``--max-qubits`` qubits and the two-qubit benchmark ensemble at λ = 0,
each under all nine schemes with their default parameters; the fit schemes
fit the instance's uqsd reference.

Run from the repository root:

    PYTHONPATH=src python tools/iteration_spread.py [--max-qubits 4]

Set ``OPENBLAS_NUM_THREADS=1``: the counts also change with the BLAS
thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from qsdkit import (OPTIMAL, ProblemSpec, SCHEME_NAMES, build_scheme,
                    make_benchmark_two_qubit_states, solve, uqsd_reference)
from qsdkit.cli import _bench_spec
from qsdkit.schemes import SCHEMES

COPIES = 5


def instances(max_qubits: int) -> list:
    """(label, spec) of every instance the report covers."""
    out = [(f"tri{n}", _bench_spec(n, 0.01)) for n in range(2, max_qubits + 1)]
    out.append(("ens", ProblemSpec.from_states(make_benchmark_two_qubit_states())))
    return out


def perturbed(program, rng):
    """``program`` with each nonzero entry of ``c`` moved one ulp up or down."""
    c = program.c
    direction = np.where(rng.random(c.size) < 0.5, -np.inf, np.inf)
    return dataclasses.replace(program, c=np.where(c != 0.0, np.nextafter(c, direction), c))


def program_sha1(scheme) -> str:
    """SHA-1 of a scheme's program and labels, shapes included."""
    program = scheme.program
    offsets, carriers = zip(*scheme.element_blocks)
    rhs = None if program.block_sum is None else program.block_sum[1]
    digest = hashlib.sha1(repr((program.blocks, offsets, scheme.labels)).encode())
    for array in (program.c, program.A, program.b, program.quad_diag, rhs, *carriers):
        array = np.zeros(0) if array is None else np.ascontiguousarray(array)
        digest.update(repr((array.dtype.str, array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def spread(program) -> dict:
    base = solve(program)
    iterations, deviation, statuses = [], 0.0, [base.status]
    for copy in range(COPIES):
        sol = solve(perturbed(program, np.random.default_rng(copy)))
        iterations.append(sol.iterations)
        deviation = max(deviation, abs(sol.objective - base.objective))
        statuses.append(sol.status)
    median = float(np.median(iterations))
    return {"iterations": base.iterations, "median": median, "max": max(iterations),
            "objective_deviation": deviation, "num_vars": program.num_vars, "x_sha1": hashlib.sha1(base.x.tobytes()).hexdigest(),
            "statuses": {s: statuses.count(s) for s in sorted(set(statuses))}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--max-qubits", type=int, default=4, help="largest triple (from 2 qubits)")
    args = p.parse_args(argv)
    rows = []
    for label, spec in instances(args.max_qubits):
        reference = uqsd_reference(spec)
        for name in SCHEME_NAMES:
            params = {"reference": reference} if "reference" in SCHEMES[name][1] else {}
            scheme = build_scheme(spec, name, **params)
            rows.append({"instance": label, "scheme": name,
                         "program_sha1": program_sha1(scheme), **spread(scheme.program)})
    report = {
        "meta": {"numpy": np.__version__, "scipy": scipy.__version__,
                 "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "copies": COPIES},
        "rows": rows,
        "total": {"iterations": sum(r["iterations"] for r in rows),
                  "median": sum(r["median"] for r in rows),
                  "max": sum(r["max"] for r in rows),
                  "objective_deviation": max(r["objective_deviation"] for r in rows)},
        "max_over_twice_median": [f"{r['instance']}:{r['scheme']}" for r in rows
                                  if r["max"] > 2 * r["median"]],
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    failed = [f"{r['instance']}:{r['scheme']} {r['statuses']}" for r in rows
              if set(r["statuses"]) != {OPTIMAL}]
    if failed or report["max_over_twice_median"]:
        print(f"not optimal: {failed}; max over twice median: {report['max_over_twice_median']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
