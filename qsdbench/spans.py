"""Spans around the benchmark's calls into each qsdkit module.

The tracer replaces the public functions of every layer, wherever a qsdkit
module has bound them, with wrappers that record a span (name, start, end,
parent, operation id).  Nothing under ``src/`` changes: the wrappers are
installed only for the traced part of a run and removed afterwards, so
untraced runs execute the program unmodified.  Spans stay in memory and are
written to a JSON-lines file when the run ends; the per-layer metrics are
computed from that file.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# Public functions of each layer.  ``oracles`` holds reference
# implementations and is not a timed layer.  Only ``solve`` is wrapped in
# the solver: svec/smat/psd_project called while building or decoding a
# program count toward ``schemes``.
LAYER_FUNCTIONS = {
    "solver": ("solve",),
    "schemes": ("solve_scheme", "build_scheme", "build_med", "build_med_plus",
                "build_uqsd", "build_frio", "build_crossqsd", "build_fit_min_lp",
                "build_fit_meco", "build_hybrid", "uqsd_reference", "decode_povm",
                "scheme_value"),
    "metrics": ("joint_distribution", "outcome_stats", "error_to_success",
                "lp_distance", "confidences"),
    "states": ("depolarize", "apply_depolarizing", "density_of", "make_coherent_state",
               "make_benchmark_two_qubit_states", "make_single_qubit_pair"),
    "dilation": ("decompose_rank1", "truncate", "build_isometry", "build_isometry_generic",
                 "dilate", "simulate_measurement", "verify_dilation", "complete_to_unitary"),
    "serialize": ("canonical_dumps", "write_json", "read_json", "read_problem",
                  "write_problem", "read_povm", "write_povm", "read_isometry",
                  "write_isometry", "write_sweep_csv", "read_sweep_csv",
                  "encode_complex_matrix", "decode_complex_matrix",
                  "encode_complex_vector", "decode_complex_vector", "expand_state_entry"),
    "cli": ("main", "build_parser", "cmd_solve", "cmd_dilate", "cmd_simulate", "cmd_bench"),
}

# Methods whose every call validates its input (construction of the value
# types) or derives noisy states.
LAYER_METHODS = {
    "states": (("DensityMatrix", "__post_init__"), ("PureState", "__post_init__"),
               ("Povm", "__post_init__"), ("ProblemSpec", "__post_init__"),
               ("ProblemSpec", "noisy_states"), ("ProblemSpec", "with_noise")),
    "metrics": (("JointDistribution", "__post_init__"),),
}


def _program_bytes(args, kwargs, out):
    p = out.program
    extra = p.quad_diag.nbytes if p.quad_diag is not None else 0
    return {"program_bytes": p.c.nbytes + p.A.nbytes + p.b.nbytes + extra}


def _path_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


ATTRIBUTES = {
    "solver.solve": lambda args, kwargs, out: {"iterations": int(out.iterations)},
    "serialize.write_json": _path_bytes,
    "serialize.read_json": _path_bytes,
    "serialize.write_sweep_csv": _path_bytes,
    "serialize.read_sweep_csv": _path_bytes,
}
for _name in LAYER_FUNCTIONS["schemes"]:
    if _name.startswith("build_") and _name != "build_scheme":
        ATTRIBUTES["schemes." + _name] = _program_bytes


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, attrs]
        self._stack = []
        self.op = None
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            out = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        attrs = ATTRIBUTES.get(name)
        if attrs is not None:
            record[5] = attrs(args, kwargs, out)
        return out

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # A function calling itself (canonical_dumps) is one span.
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every layer function in every qsdkit namespace that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "qsdkit" or key.startswith("qsdkit.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules["qsdkit." + layer]
            for attr in names:
                orig = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._patches.append((module, key, orig))
                            setattr(module, key, wrapper)
        for layer, methods in LAYER_METHODS.items():
            home = sys.modules["qsdkit." + layer]
            for cls_name, attr in methods:
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", orig))

    def uninstall(self):
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


SETUP_OP = "setup"
OP_SPAN = "bench.op"


# Span name -> (metric, whether the span's whole duration counts rather
# than its self time).
SPAN_METRICS = {
    "schemes.uqsd_reference": ("schemes.reference_s", True),
    "schemes.decode_povm": ("schemes.decode_s", False),
    "dilation.decompose_rank1": ("dilation.decompose_s", False),
    "dilation.truncate": ("dilation.decompose_s", False),
    "dilation.build_isometry": ("dilation.isometry_s", False),
    "dilation.build_isometry_generic": ("dilation.isometry_s", False),
    "dilation.dilate": ("dilation.isometry_s", False),
    "dilation.verify_dilation": ("dilation.verify_s", False),
    "dilation.simulate_measurement": ("dilation.simulate_s", False),
}


def layer_metrics(path, passes: int) -> dict:
    """Per-layer figures from a span file.

    The file holds one traced setup (operation id ``setup``) and ``passes``
    traced passes of the timed phase.  Figures cover the setup once plus
    one average pass, so counts repeat exactly between runs of one seed.
    A layer's ``calls`` counts entries into it from another layer or from
    the benchmark.  ``solver.timed_pct`` (solver self time over the time of
    the traced operations) and ``solver.timed_calls`` cover the timed
    phase alone.
    """
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    total = defaultdict(float)
    timed_wall = timed_solver = timed_solves = 0.0
    program_bytes = 0
    for s in spans:
        name = s["name"]
        layer = name.split(".")[0]
        timed = s["op"] != SETUP_OP
        weight = 1.0 / passes if timed else 1.0
        dur = s["end"] - s["start"]
        own = dur - child[s["id"]]
        attrs = s["attrs"] or {}
        if name == OP_SPAN:
            timed_wall += dur if timed else 0.0
            continue
        parent = spans[s["parent"]]["name"].split(".")[0] if s["parent"] >= 0 else None
        total[layer + ".self_s"] += weight * own
        total[layer + ".calls"] += weight if parent != layer else 0.0
        if name == "solver.solve":
            total["solver.iterations"] += weight * attrs["iterations"]
            if timed:
                timed_solver += own
                timed_solves += 1
        elif name.startswith("schemes.build_"):
            total["schemes.build_s"] += weight * own
            program_bytes = max(program_bytes, attrs.get("program_bytes", 0))
        elif name in SPAN_METRICS:
            metric, inclusive = SPAN_METRICS[name]
            total[metric] += weight * (dur if inclusive else own)
            if name == "dilation.simulate_measurement":
                total["dilation.simulate_calls"] += weight
        elif layer == "serialize":
            reading = ".read" in _outermost(spans, s, layer)
            total["serialize.read_s" if reading else "serialize.write_s"] += weight * own
            if "bytes" in attrs:
                key = "serialize.bytes_read" if reading else "serialize.bytes_written"
                total[key] += weight * attrs["bytes"]
    out = dict(total)
    out["schemes.program_mb"] = program_bytes / 1e6
    iters = out.get("solver.iterations", 0.0)
    out["solver.us_per_iter"] = 1e6 * out.get("solver.self_s", 0.0) / iters if iters else 0.0
    out["solver.timed_pct"] = 100.0 * timed_solver / timed_wall if timed_wall else 0.0
    out["solver.timed_calls"] = timed_solves / passes
    return out


def _outermost(spans, span, layer) -> str:
    """Name of the outermost ancestor of ``span`` (itself included) in ``layer``."""
    name = span["name"]
    parent = span["parent"]
    while parent >= 0:
        up = spans[parent]
        if up["name"].startswith(layer + "."):
            name = up["name"]
        parent = up["parent"]
    return name
