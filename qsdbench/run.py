"""Run one qsdkit benchmark workload and print its metrics.

    python3 qsdbench/run.py --workload scheme_grid --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports qsdkit from ``src/``.
The workload runs in this one process and thread, with OpenBLAS pinned to
one thread before numpy loads: with Anderson acceleration the solver's
iteration path depends on last-bit rounding, which changes with the BLAS
thread count.  The timed phase runs whole passes of the workload's
operations until their summed time reaches ``--seconds``; each operation's
check runs untimed after it.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the run repeats the same passes untraced and
traced, writes the spans to ``qsdbench/out/<workload>/``, and the last line
carries the per-layer metrics computed from that file.  The line before it
is the full result with its environment block.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
M_MMAP_THRESHOLD = -3     # mallopt parameter number in glibc's malloc.h

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.self_s": "s", "solver.calls": "count", "solver.iterations": "count",
    "solver.us_per_iter": "us", "solver.timed_calls": "count",
    "schemes.build_s": "s", "schemes.program_mb": "MB", "schemes.reference_s": "s",
    "schemes.decode_s": "s",
    "states.self_s": "s", "states.calls": "count",
    "metrics.self_s": "s", "metrics.calls": "count",
    "dilation.decompose_s": "s", "dilation.isometry_s": "s", "dilation.verify_s": "s",
    "dilation.simulate_s": "s", "dilation.simulate_calls": "count",
    "serialize.write_s": "s", "serialize.read_s": "s",
    "serialize.bytes_written": "B", "serialize.bytes_read": "B",
    "cli.self_s": "s", "cli.calls": "count",
    "trace.overhead_pct": "%",
}


def blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded, by library file."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(args, numpy, scipy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "pinned_env": PINNED_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_phase(ops_for, state, log, seconds=None, passes=None, tracer=None):
    """Whole passes until the summed operation time reaches ``seconds``,
    or exactly ``passes`` passes.  Appends (operation id, seconds,
    solver iterations) to ``log``; returns (times, failures, passes)."""
    times, failures, done = [], [], 0
    while (done < passes) if passes is not None else (sum(times) < seconds):
        for op in ops_for(state, done):
            out = error = None
            started = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.op = op.id
                    out = tracer.span("bench.op", op.run)
                else:
                    out = op.run()
            except Exception:  # the run goes on; the operation counts as failed
                error = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - started)
            log.append((op.id, times[-1], (out or {}).get("iterations")))
            if error is None:
                try:
                    op.check(out)
                except Exception:  # a failed check, or a check that could not run
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failures.append(f"{op.id}: {error}")
                print(f"FAILED {op.id}\n{error}", file=sys.stderr)
        done += 1
    return times, failures, done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qsdkit" / "__init__.py").is_file():
        print(f"no qsdkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # glibc raises its mmap threshold after large frees, so later large
    # arrays may land on the heap and stay resident; a fixed threshold keeps
    # the peak resident set the same from run to run.
    ctypes.CDLL("libc.so.6").mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loaded by the solver; counted in the imports)
    import qsdkit

    if Path(qsdkit.__file__).resolve().parent != SRC / "qsdkit":
        print(f"qsdkit imported from {qsdkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup, ops_for = workloads.WORKLOADS[args.workload]
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    imported = time.perf_counter() - STARTED

    env = environment(args, numpy, scipy)
    log = []
    pinned = all(n == 1 for n in env["blas_threads"].values())
    if args.trace:
        tracer = spans.Tracer()
        tracer.op = spans.SETUP_OP
        tracer.install()
        state = tracer.span(spans.OP_SPAN, setup, workdir, args.seed)
        tracer.uninstall()
        plain, failures, passes = timed_phase(ops_for, state, log, seconds=args.seconds / 2)
        tracer.install()
        traced, traced_failures, _ = timed_phase(ops_for, state, log, passes=passes,
                                                 tracer=tracer)
        tracer.uninstall()
        span_file = workdir / f"spans-seed{args.seed}.jsonl"
        tracer.write(span_file)
        figures = spans.layer_metrics(span_file, passes)
        figures["trace.overhead_pct"] = 100.0 * (sum(traced) - sum(plain)) / sum(plain)
        metrics = {name: {"value": figures.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        times, failures = plain + traced, failures + traced_failures
        env["span_file"] = str(span_file.relative_to(HERE.parent))
        env["solver_timed_pct"] = figures["solver.timed_pct"]
    else:
        setups, setup_rss = [], []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            state = setup(workdir, args.seed)
            setups.append(time.perf_counter() - started)
            setup_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        env["setup_peak_rss_mb"] = setup_rss
        times, failures, passes = timed_phase(ops_for, state, log, seconds=args.seconds)
        figures = {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "setup_s": imported + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        env["import_s"] = imported
        env["setup_runs_s"] = setups
    env.update({"passes": passes, "ops_per_pass": len(times) // passes // (1 + args.trace),
                "op_samples": len(times), "attempted": len(times), "failed": len(failures)})
    result = {"correct": not failures and pinned, "attempted": len(times),
              "failed": len(failures), "metrics": metrics}
    full = dict(result, environment=env, failures=failures[:5])
    print(json.dumps(full))
    full["operations"] = log
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
