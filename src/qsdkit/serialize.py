"""File formats: problem, POVM, and isometry JSON plus sweep CSV.

All floats are written with 17 significant digits, enough for an exact
binary round trip, and object keys are sorted, so rereading a file and
rewriting it reproduces it byte for byte.  Complex numbers are always
``[re, im]`` pairs.  Payloads hold complex matrices and vectors as float
arrays of shape ``(..., 2)``; :func:`canonical_dumps` writes an array with
exactly the bytes of the equal nested lists, so the file layout is the
same whichever form a payload uses.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .dilation import RESIDUAL, DilationResult
from .states import (
    INCONCLUSIVE,
    MAX_QUBITS,
    DensityMatrix,
    Povm,
    ProblemSpec,
    PureState,
    make_benchmark_two_qubit_states,
    make_coherent_state,
)


def _format_float(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def _dumps_float_array(a: np.ndarray, indent: int) -> str:
    """The nested-list layout of a float array, built one axis at a time."""
    lines = list(map(_format_float, a.ravel().tolist()))
    for depth in range(a.ndim - 1, -1, -1):
        pad = " " * (indent + 2 * depth)
        n = a.shape[depth]
        if n == 0:
            lines = [pad + "[]"] * math.prod(a.shape[:depth])
            continue
        # Leaves carry no padding yet; the innermost axis adds it.
        inner = " " * (indent + 2 * a.ndim) if depth == a.ndim - 1 else ""
        head, sep, tail = pad + "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
        lines = [head + sep.join(lines[j:j + n]) + tail for j in range(0, len(lines), n)]
    return lines[0]


def canonical_dumps(obj, indent: int = 0) -> str:
    """JSON with sorted keys and 17-significant-digit floats.

    A numpy array is written exactly as its ``tolist()`` would be; float
    arrays are formatted in one pass instead of one call per element.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            items.append(f"{pad}  {json.dumps(key)}: "
                         + canonical_dumps(obj[key], indent + 2).lstrip())
        if not items:
            return pad + "{}"
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim > 0:
            return _dumps_float_array(obj, indent)
        return canonical_dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        items = [canonical_dumps(v, indent + 2) for v in obj]
        if not items:
            return pad + "[]"
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _format_float(float(obj))
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    if obj is None:
        return pad + "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj) + "\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _finite_number(v) -> bool:
    """Whether ``v`` is a JSON number, not a bool, in the range of a finite float."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def _scalar(data: dict, field: str, kind=int):
    """``data[field]`` as ``kind``; ``ValueError`` names the field unless it is a JSON
    integer (``int``) or a finite JSON number (``float``), never a bool or a string."""
    value = data[field]
    if not _finite_number(value) or (kind is int and not isinstance(value, int)):
        raise ValueError(f"{field} must be {'an integer' if kind is int else 'a finite number'}, "
                         f"got {value!r}")
    return kind(value)


def _finite_list(values, field: str) -> np.ndarray:
    """Float array of a list of finite numbers; ``ValueError`` names a bad entry."""
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list of numbers, got {values!r}")
    for i, v in enumerate(values):
        if not _finite_number(v):
            raise ValueError(f"{field}[{i}] must be a finite number, got {v!r}")
    return np.asarray(values, dtype=float)


def _encode_complex(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1)


def _decode_complex(data, ndim: int, field: str) -> np.ndarray:
    """Complex array of rank ``ndim`` from nested ``[re, im]`` pairs.

    Raises ``ValueError`` naming ``field`` for ragged rows, entries that
    are not pairs, and entries that are not finite numbers (``null``,
    strings, NaN).  The floats are copied bit for bit.
    """
    try:
        raw = np.array(data)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{field} is not a rectangular array of [re, im] pairs") from exc
    if raw.dtype.kind not in "biuf":
        raise ValueError(f"{field} holds an entry that is not a number")
    if raw.ndim != ndim + 1 or raw.shape[-1] != 2:
        raise ValueError(f"{field} must be a rank-{ndim} array of [re, im] pairs, "
                         f"got shape {raw.shape}")
    pairs = np.ascontiguousarray(raw, dtype=float)
    if not np.isfinite(pairs).all():
        raise ValueError(f"{field} holds a non-finite entry")
    return pairs.view(complex)[..., 0]


def encode_complex_matrix(m: np.ndarray) -> np.ndarray:
    """``(rows, cols, 2)`` float array of the real and imaginary parts."""
    return _encode_complex(m)


def decode_complex_matrix(data, field: str = "matrix") -> np.ndarray:
    return _decode_complex(data, 2, field)


def encode_complex_vector(v: np.ndarray) -> np.ndarray:
    """``(n, 2)`` float array of the real and imaginary parts."""
    return _encode_complex(v)


def decode_complex_vector(data, field: str = "vector") -> np.ndarray:
    return _decode_complex(data, 1, field)


# --------------------------------------------------------------------------
# Problem files
# --------------------------------------------------------------------------

def expand_state_entry(entry: dict, num_qubits: int) -> list:
    """Expand one problem-file state entry into concrete states.

    Entry types: ``pure`` (amplitudes), ``density`` (matrix), ``coherent``
    (truncated coherent state of the given complex amplitude), and
    ``benchmark2q`` (the three nearly orthogonal two-qubit states, expanding
    to three entries).
    """
    kind = entry.get("type")
    if kind == "pure":
        return [PureState(decode_complex_vector(entry["amplitudes"], "amplitudes"))]
    if kind == "density":
        return [DensityMatrix(decode_complex_matrix(entry["matrix"], "matrix"))]
    if kind == "coherent":
        alpha = complex(decode_complex_vector([entry["alpha"]], "alpha")[0])
        return [make_coherent_state(alpha, num_qubits)]
    if kind == "benchmark2q":
        if num_qubits != 2:
            raise ValueError("benchmark2q entries require num_qubits = 2")
        return list(make_benchmark_two_qubit_states(tuple(_finite_list(entry["a"], "a"))))
    raise ValueError(f"unknown state entry type {kind!r}")


def read_problem(path) -> ProblemSpec:
    """Load a problem file into a noiseless :class:`ProblemSpec`."""
    data = read_json(path)
    num_qubits = _scalar(data, "num_qubits")
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    states = []
    for i, entry in enumerate(data["states"]):
        try:
            states.extend(expand_state_entry(entry, num_qubits))
        except ValueError as exc:
            raise ValueError(f"states[{i}]: {exc}") from exc
    for s in states:
        if s.dim != 2 ** num_qubits:
            raise ValueError(f"state dimension {s.dim} does not match num_qubits {num_qubits}")
    priors = data.get("priors")
    if priors is not None:
        priors = _finite_list(priors, "priors")
    return ProblemSpec.from_states(states, priors)


def problem_payload(spec: ProblemSpec) -> dict:
    """Problem-file payload (states stored as density matrices)."""
    num_qubits = (spec.dim - 1).bit_length()
    if 2 ** num_qubits != spec.dim:
        raise ValueError("only power-of-two dimensions can be serialized")
    return {
        "num_qubits": num_qubits,
        "states": [{"type": "density", "matrix": encode_complex_matrix(s.matrix)}
                   for s in spec.states],
        "priors": [float(p) for p in spec.priors],
    }


def write_problem(path, spec: ProblemSpec) -> None:
    write_json(path, problem_payload(spec))


# --------------------------------------------------------------------------
# POVM and isometry files
# --------------------------------------------------------------------------

def _encode_label(label):
    return label if isinstance(label, (int, np.integer)) else str(label)


def _decode_label(raw):
    if isinstance(raw, int):
        return raw
    if raw == INCONCLUSIVE:
        return INCONCLUSIVE
    if raw == RESIDUAL:
        return RESIDUAL
    raise ValueError(f"unknown label {raw!r}")


def povm_payload(povm: Povm, meta: dict | None = None) -> dict:
    payload = {
        "dim": povm.dim,
        "elements": [{"label": _encode_label(lbl), "matrix": encode_complex_matrix(e)}
                     for lbl, e in zip(povm.labels, povm.elements)],
    }
    if meta is not None:
        payload["meta"] = meta
    return payload


def write_povm(path, povm: Povm, meta: dict | None = None) -> None:
    write_json(path, povm_payload(povm, meta))


def read_povm(path) -> Povm:
    data = read_json(path)
    dim = _scalar(data, "dim")
    labels = tuple(_decode_label(e["label"]) for e in data["elements"])
    elements = tuple(decode_complex_matrix(e["matrix"], f"elements[{j}].matrix")
                     for j, e in enumerate(data["elements"]))
    return Povm(dim=dim, elements=elements, labels=labels)


def isometry_payload(dil: DilationResult, meta: dict | None = None) -> dict:
    payload = {
        "domain_dim": dil.domain_dim,
        "target_qubits": dil.target_qubits,
        "total_rank": dil.total_rank,
        "delta": float(dil.delta),
        "outcome_map": [_encode_label(lbl) for lbl in dil.outcome_map],
        "matrix": encode_complex_matrix(dil.isometry),
    }
    if meta is not None:
        payload["meta"] = meta
    return payload


def write_isometry(path, dil: DilationResult, meta: dict | None = None) -> None:
    write_json(path, isometry_payload(dil, meta))


def read_isometry(path) -> DilationResult:
    """Load an isometry file, checking its header against the matrix.

    The matrix must have shape ``(2**target_qubits, domain_dim)`` and the
    outcome map one label per matrix row; otherwise ``ValueError`` names
    the field that disagrees.
    """
    data = read_json(path)
    domain_dim = _scalar(data, "domain_dim")
    target_qubits = _scalar(data, "target_qubits")
    matrix = decode_complex_matrix(data["matrix"], "matrix")
    outcome_map = tuple(_decode_label(l) for l in data["outcome_map"])
    rows = matrix.shape[0]
    # Compared through the bit length: 2 ** target_qubits of a huge header is never formed.
    if not (rows > 0 and rows & (rows - 1) == 0 and rows.bit_length() - 1 == target_qubits):
        raise ValueError(f"matrix has {rows} rows, but target_qubits {target_qubits} "
                         f"needs 2**{target_qubits}")
    if matrix.shape[1] != domain_dim:
        raise ValueError(f"matrix has {matrix.shape[1]} columns, but domain_dim "
                         f"is {domain_dim}")
    if len(outcome_map) != matrix.shape[0]:
        raise ValueError(f"outcome_map has {len(outcome_map)} labels for "
                         f"{matrix.shape[0]} matrix rows")
    return DilationResult(
        domain_dim=domain_dim,
        total_rank=_scalar(data, "total_rank"),
        target_qubits=target_qubits,
        isometry=matrix,
        outcome_map=outcome_map,
        delta=_scalar(data, "delta", float),
    )


# --------------------------------------------------------------------------
# Sweep CSV and benchmark report schema
# --------------------------------------------------------------------------

SWEEP_HEADER = ("lambda", "p_succ", "p_err", "p_inc", "error_to_success")


def write_sweep_csv(path, rows) -> None:
    """Rows of (lambda, p_succ, p_err, p_inc, ratio); lambda in scientific notation."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_HEADER) + "\n")
        for lam, p_succ, p_err, p_inc, ratio in rows:
            ratio_s = "inf" if math.isinf(ratio) else _format_float(float(ratio))
            fh.write(f"{lam:.10e},{_format_float(float(p_succ))},"
                     f"{_format_float(float(p_err))},{_format_float(float(p_inc))},"
                     f"{ratio_s}\n")


def read_sweep_csv(path) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != SWEEP_HEADER:
            raise ValueError(f"unexpected sweep header {header}")
        for line in fh:
            lam, p_succ, p_err, p_inc, ratio = line.strip().split(",")
            rows.append((float(lam), float(p_succ), float(p_err), float(p_inc),
                         float(ratio)))
    return rows


#: Schema of the benchmark report (validated by :func:`validate_bench_report`).
BENCH_REPORT_SCHEMA = {
    "type": "object",
    "required": ["meta", "rows"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["tool", "version", "tol", "seed"],
        },
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["scheme", "qubits", "task", "seconds"],
                "properties": {
                    "scheme": {"type": "string"},
                    "qubits": {"type": "integer", "minimum": 1},
                    "task": {"type": "string", "enum": ["solve", "rank_one", "isometry"]},
                    "seconds": {"type": "number", "minimum": 0},
                },
            },
        },
    },
}


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": (int, float)}


def _check_schema(value, schema: dict, where: str) -> None:
    """Raise ValueError naming ``where`` when ``value`` breaks ``schema`` (its ``type``,
    ``required``, ``properties``, ``items``, ``enum``, ``minimum``); a bool is no number."""
    kind = schema.get("type")
    if kind is not None and (not isinstance(value, _JSON_TYPES[kind]) or (
            isinstance(value, bool) and kind in ("integer", "number"))):
        raise ValueError(f"{where} must be of type {kind}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{where} must be one of {schema['enum']}, got {value!r}")
    if "minimum" in schema and value < schema["minimum"]:
        raise ValueError(f"{where} must be at least {schema['minimum']}, got {value!r}")
    for key in schema.get("required", ()):
        if key not in value:
            raise ValueError(f"{where} is missing {key!r}")
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            _check_schema(value[key], sub, f"{where}.{key}")
    if "items" in schema:
        for i, item in enumerate(value):
            _check_schema(item, schema["items"], f"{where}[{i}]")


def validate_bench_report(report: dict) -> None:
    """Raise ValueError when a benchmark report does not match the schema."""
    _check_schema(report, BENCH_REPORT_SCHEMA, "report")
