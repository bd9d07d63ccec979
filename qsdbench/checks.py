"""Checks of the program's outputs, computed apart from the program.

Everything here uses numpy on plain arrays and the JSON/CSV text the
``qsd`` commands write; nothing imports ``qsdkit``.  Each check raises
:class:`CheckError` with a message naming what failed.  The tolerances are
stated once, below, and repeated in the README.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

INCONCLUSIVE = "inconclusive"   # label of the inconclusive element, as stored
RESIDUAL = "residual"           # label of the truncation deficit of a dilation

TOL_HERMITIAN = 1e-9    # max |Pi - Pi^+| of a decoded element
TOL_POVM = 1e-7         # PSD floor of each element and ||sum Pi - I||_F
TOL_VALUE = 1e-6        # recomputed values, constraint margins, closed forms
TOL_MED_GAP = 1e-6      # dual upper bound minus P_succ for MED
TOL_PROB = 1e-9         # exact probabilities through a dilation or a sweep row
TOL_PIN_CONDITIONAL = 1e-3
TOL_PIN_RATIO = 5e-4
# Counts must lie within 6 sigma + 5 of shots * p.  The constant term covers
# outcomes with shots * p below a few counts, where the normal approximation
# fails (6 counts were seen at an expectation of 0.7); 6 sigma keeps a false
# alarm below 1e-8 per outcome over the ~5000 outcomes a run checks.
SHOT_SIGMAS = 6.0
SHOT_SLACK = 5.0

# Values pinned in tests/test_acceptance.py.
ENSEMBLE_MED_CONDITIONALS = (0.99547, 0.98188, 0.98059)
CROSSQSD_RATIOS = {1e-6: 0.00511, 1e-2: 0.01010, 1.0: 2.000}

SUCCESS_SCHEMES = ("med", "med_plus", "uqsd", "frio", "crossqsd", "meco", "hybrid")


class CheckError(Exception):
    """An output of the program failed a check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Instance:
    """A discrimination instance as the benchmark itself holds it.

    ``states`` are density matrices, ``vectors`` the amplitudes of pure
    states (``None`` for mixed ones), ``lam`` the depolarizing level the
    instance is solved at.
    """

    label: str
    states: tuple
    priors: np.ndarray
    lam: float
    vectors: tuple | None = None

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def k(self) -> int:
        return len(self.states)


def noisy(rho: np.ndarray, lam: float) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - lam) * rho + (lam / d) * np.eye(d)


def column_of(label, k: int) -> int:
    return k if label == INCONCLUSIVE else int(label)


def joint(inst: Instance, elements, labels, lam: float) -> np.ndarray:
    """``J[i, j] = p_i Tr(rho_i' Pi_j)``; the last column is inconclusive."""
    k = inst.k
    out = np.zeros((k, k + 1))
    for i, (p, rho) in enumerate(zip(inst.priors, inst.states)):
        r = noisy(rho, lam)
        for label, e in zip(labels, elements):
            out[i, column_of(label, k)] += p * float(np.einsum("ij,ji->", r, e).real)
    return out


def rates(j: np.ndarray) -> tuple:
    """(P_succ, P_err, P_inc) of a joint distribution."""
    k = j.shape[0]
    succ = float(np.trace(j[:, :k]))
    return succ, float(j[:, :k].sum()) - succ, float(j[:, k].sum())


def deviation(j: np.ndarray, ref: np.ndarray, ell: int) -> float:
    return float(np.sum(np.abs(j - ref) ** ell))


def check_povm(elements, labels, dim: int, k: int) -> None:
    require(len(elements) == len(labels), "one label per element")
    conclusive = sorted(int(l) for l in labels if l != INCONCLUSIVE)
    require(conclusive == list(range(k)), f"conclusive labels {conclusive}")
    total = np.zeros((dim, dim), dtype=complex)
    for e in elements:
        e = np.asarray(e)
        require(e.shape == (dim, dim), f"element shape {e.shape}")
        herm = float(np.max(np.abs(e - e.conj().T)))
        require(herm <= TOL_HERMITIAN, f"element not Hermitian ({herm:.2e})")
        low = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T))[0])
        require(low >= -TOL_POVM, f"element not PSD (min eigenvalue {low:.2e})")
        total += e
    dev = float(np.linalg.norm(total - np.eye(dim)))
    require(dev <= TOL_POVM, f"elements sum to identity within {dev:.2e}")


def med_upper_bound(inst: Instance, elements, labels) -> float:
    """Dual bound on the MED success probability from a candidate POVM.

    ``Y = sum_i p_i rho_i' Pi_i`` shifted by ``t I``, with ``t`` the most
    negative eigenvalue of ``Y - p_i rho_i'`` over all i (and of ``Y``), is
    dual feasible, so ``Tr Y + d t`` bounds every measurement's success.
    """
    k, d = inst.k, inst.dim
    y = np.zeros((d, d), dtype=complex)
    for label, e in zip(labels, elements):
        if label != INCONCLUSIVE:
            i = int(label)
            y += inst.priors[i] * noisy(inst.states[i], inst.lam) @ e
    y = 0.5 * (y + y.conj().T)
    shift = max(0.0, -float(np.linalg.eigvalsh(y)[0]))
    for i in range(k):
        gap = y - inst.priors[i] * noisy(inst.states[i], inst.lam)
        shift = max(shift, -float(np.linalg.eigvalsh(gap)[0]))
    return float(np.trace(y).real) + d * shift


def check_scheme(inst: Instance, name: str, params: dict, out: dict, ctx: dict) -> np.ndarray:
    """Check one solve; ``ctx`` carries MED figures between solves of an instance.

    ``out`` holds ``status``, ``elements``, ``labels`` and ``value`` as the
    program returned them.  Returns the joint distribution at ``inst.lam``.
    """
    require(out["status"] == "optimal", f"status {out['status']!r}")
    elements, labels = out["elements"], out["labels"]
    check_povm(elements, labels, inst.dim, inst.k)
    j = joint(inst, elements, labels, inst.lam)
    succ, _, inc = rates(j)
    ref = params.get("reference")
    if name in SUCCESS_SCHEMES:
        expected = succ
        if name == "hybrid" and params["w"] > 0:
            expected = succ - params["w"] * deviation(j, ref, params["ell"])
    else:
        expected = deviation(j, ref, 1 if name == "minl1" else 2)
    require(abs(out["value"] - expected) <= TOL_VALUE,
            f"value {out['value']:.10f} but the POVM gives {expected:.10f}")

    if name in ("med", "med_plus"):
        upper = med_upper_bound(inst, elements, labels)
        require(upper - succ <= TOL_MED_GAP, f"MED dual gap {upper - succ:.2e}")
        if name == "med":
            ctx["med_value"], ctx["med_upper"] = succ, upper
        else:
            require(abs(succ - ctx["med_value"]) <= TOL_VALUE,
                    f"med_plus {succ:.10f} differs from med {ctx['med_value']:.10f}")
    if name in SUCCESS_SCHEMES and "med_upper" in ctx:
        require(succ <= ctx["med_upper"] + TOL_VALUE,
                f"{name} success {succ:.10f} exceeds the MED bound {ctx['med_upper']:.10f}")
    k = inst.k
    if name == "uqsd":
        off = j[:, :k] - np.diag(np.diag(j[:, :k]))
        require(float(off.max()) <= TOL_VALUE, f"uqsd misidentifies ({off.max():.2e})")
    if name == "frio":
        require(inc >= params["rate"] - TOL_VALUE, f"frio P_inc {inc:.8f} < rate")
    if name == "crossqsd":
        given_state, given_outcome = conditionals(j)
        alpha, beta = np.asarray(params["alpha"]), np.asarray(params["beta"])
        require(bool(np.all(given_state >= 1.0 - alpha - TOL_VALUE)),
                f"crossqsd p(Pi_i|rho_i) {given_state} below 1 - alpha")
        require(bool(np.all(given_outcome >= 1.0 - beta - TOL_VALUE)),
                f"crossqsd p(rho_i|Pi_i) {given_outcome} below 1 - beta")
    if name == "meco":
        diag = np.eye(k, dtype=bool)
        block, rblock = j[:, :k], ref[:, :k]
        require(bool(np.all(block[diag] <= rblock[diag] + TOL_VALUE)),
                "meco diagonal above the reference")
        require(bool(np.all(block[~diag] >= rblock[~diag] - TOL_VALUE)),
                "meco off-diagonal below the reference")
    return j


def conditionals(j: np.ndarray) -> tuple:
    """(p(Pi_i | rho_i), p(rho_i | Pi_i)) over conclusive outcomes; 1 when empty."""
    k = j.shape[0]
    block = j[:, :k]
    rows, cols, diag = block.sum(axis=1), block.sum(axis=0), np.diag(block)
    given_state = np.where(rows > 1e-12, diag / np.where(rows > 1e-12, rows, 1.0), 1.0)
    given_outcome = np.where(cols > 1e-12, diag / np.where(cols > 1e-12, cols, 1.0), 1.0)
    return given_state, given_outcome


def check_reference(ref: np.ndarray) -> None:
    """A UQSD reference distribution: a distribution with no misidentification."""
    k = ref.shape[0]
    require(ref.shape == (k, k + 1), f"reference shape {ref.shape}")
    require(float(ref.min()) >= -1e-10, "negative reference entry")
    require(abs(float(ref.sum()) - 1.0) <= TOL_POVM, "reference does not sum to 1")
    off = ref[:, :k] - np.diag(np.diag(ref[:, :k]))
    require(float(off.max()) <= TOL_VALUE, f"reference misidentifies ({off.max():.2e})")


def check_two_pure(inst: Instance, name: str, value: float) -> None:
    """Helstrom (med) and Jaeger-Shimony (uqsd) values for two pure states."""
    s = abs(np.vdot(inst.vectors[0], inst.vectors[1]))
    p1, p2 = inst.priors
    low, high = sorted((p1, p2))
    if name == "med":
        expected = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * p1 * p2 * s * s))
    elif s * s <= low / high:
        expected = 1.0 - 2.0 * math.sqrt(p1 * p2) * s
    else:
        expected = high * (1.0 - s * s)
    require(abs(value - expected) <= TOL_VALUE,
            f"{name} on two pure states gives {value:.10f}, closed form {expected:.10f}")


def check_ensemble_conditionals(inst: Instance, j: np.ndarray) -> None:
    cond = np.diag(j[:, :inst.k]) / inst.priors
    dev = float(np.max(np.abs(cond - np.asarray(ENSEMBLE_MED_CONDITIONALS))))
    require(dev <= TOL_PIN_CONDITIONAL, f"ensemble MED conditionals {cond} (dev {dev:.2e})")


def check_nonincreasing(values, what: str, tol: float = TOL_VALUE) -> None:
    for a, b in zip(values, values[1:]):
        require(b <= a + tol, f"{what} increases along the sweep: {a:.10f} -> {b:.10f}")


def check_ratio_at_one(ratio: float, k: int) -> None:
    require(abs(ratio - (k - 1)) <= TOL_VALUE, f"error/success at lambda=1 is {ratio!r}, not {k - 1}")


def check_crossqsd_ratios(ratios: dict) -> None:
    for lam, expected in CROSSQSD_RATIOS.items():
        got = ratios[lam]
        require(abs(got - expected) <= TOL_PIN_RATIO,
                f"crossqsd error/success at lambda={lam:g} is {got:.6f}, pinned {expected}")


# --------------------------------------------------------------------------
# Files written by the qsd commands
# --------------------------------------------------------------------------

def parse_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def parse_label(raw):
    return raw if isinstance(raw, str) else int(raw)


def load_povm(text: str) -> tuple:
    """(elements, labels) of a POVM file."""
    data = json.loads(text)
    elements = [parse_matrix(e["matrix"]) for e in data["elements"]]
    return elements, [parse_label(e["label"]) for e in data["elements"]]


def expected_rank(elements, delta: float, generic: bool) -> int:
    """Rank-1 pieces the dilation keeps, counted from our own eigenvalues."""
    d = elements[0].shape[0]
    if generic or delta <= 0.0:
        return len(elements) * d
    return sum(int(np.sum(np.linalg.eigvalsh(0.5 * (e + e.conj().T)) >= delta))
               for e in elements)


def dilated_probabilities(v: np.ndarray, outcome_map, rho: np.ndarray) -> dict:
    per_basis = np.einsum("bi,ij,bj->b", v, rho, v.conj()).real
    probs = {}
    for b, label in enumerate(outcome_map):
        probs[label] = probs.get(label, 0.0) + float(per_basis[b])
    return probs


def check_isometry(text: str, summary: dict, elements, labels, inst: Instance,
                   delta: float, generic: bool, lam: float) -> None:
    """An isometry file against the POVM it dilates."""
    data = json.loads(text)
    v = parse_matrix(data["matrix"])
    d = inst.dim
    n = (d - 1).bit_length()
    rank = expected_rank(elements, delta, generic)
    qubits = max(n, math.ceil(math.log2(rank)))
    require(data["total_rank"] == rank == summary["total_rank"],
            f"total rank {data['total_rank']} / {summary['total_rank']}, expected {rank}")
    require(data["target_qubits"] == qubits == summary["target_qubits"],
            f"target qubits {data['target_qubits']} / {summary['target_qubits']}, expected {qubits}")
    require(v.shape == (2 ** qubits, d), f"isometry shape {v.shape}")
    outcome_map = [parse_label(l) for l in data["outcome_map"]]
    require(len(outcome_map) == v.shape[0], "one outcome per basis state")
    exact = generic or delta <= 0.0
    if exact:
        dev = float(np.max(np.abs(v.conj().T @ v - np.eye(d))))
        require(dev <= TOL_PROB, f"V^+V differs from I by {dev:.2e}")
    for rho in inst.states:
        r = noisy(rho, lam)
        probs = dilated_probabilities(v, outcome_map, r)
        for label, e in zip(labels, elements):
            lost = float(np.einsum("ij,ji->", r, e).real) - probs.get(label, 0.0)
            low, high = (-TOL_PROB, TOL_PROB) if exact else (-TOL_PROB, delta + TOL_PROB)
            require(low <= lost <= high,
                    f"outcome {label!r}: dilated probability off by {lost:.2e}")


def check_shots(report: dict, elements, labels, inst: Instance, lam: float, shots: int) -> None:
    """``qsd simulate --shots`` output: exact probabilities and sampled counts."""
    require(report["shots"] == shots, "shot number")
    require(len(report["per_state"]) == inst.k, "one entry per state")
    for entry in report["per_state"]:
        r = noisy(inst.states[entry["state"]], lam)
        exact = {str(label): float(np.einsum("ij,ji->", r, e).real)
                 for label, e in zip(labels, elements)}
        exact[RESIDUAL] = 0.0
        probs = entry["probabilities"]
        for key, p in probs.items():
            require(abs(p - exact.get(key, 0.0)) <= TOL_PROB,
                    f"state {entry['state']} outcome {key}: {p!r} vs {exact.get(key, 0.0)!r}")
        counts = entry["counts"]
        require(sum(counts.values()) == shots, "counts do not sum to the shot number")
        for key, c in counts.items():
            p = exact.get(key, 0.0)
            sigma = math.sqrt(shots * p * (1.0 - p)) if 0.0 < p < 1.0 else 0.0
            require(abs(c - shots * p) <= SHOT_SIGMAS * sigma + SHOT_SLACK,
                    f"state {entry['state']} outcome {key}: {c} counts, expected {shots * p:.1f}")
    succ, err, inc = rates(joint(inst, elements, labels, lam))
    for key, want in (("p_succ", succ), ("p_err", err), ("p_inc", inc)):
        require(abs(report[key] - want) <= TOL_PROB, f"{key} {report[key]!r} vs {want!r}")


def check_sweep(text: str, elements, labels, inst: Instance, lams) -> None:
    """A ``qsd simulate --lambda-sweep`` CSV through an exact dilation."""
    lines = text.strip().split("\n")
    require(lines[0] == "lambda,p_succ,p_err,p_inc,error_to_success", "sweep header")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    require(len(rows) == len(lams), f"{len(rows)} sweep rows, expected {len(lams)}")
    for row, lam in zip(rows, lams):
        got_lam, succ, err, inc, ratio = row
        require(abs(got_lam - lam) <= 1e-9 * lam, f"sweep lambda {got_lam!r} vs {lam!r}")
        require(abs(succ + err + inc - 1.0) <= TOL_PROB, f"sweep row at {lam:.3e} sums to {succ + err + inc!r}")
        want = rates(joint(inst, elements, labels, got_lam))
        for got, w in zip((succ, err, inc), want):
            require(abs(got - w) <= TOL_PROB, f"sweep row at {lam:.3e}: {got!r} vs {w!r}")
        require(abs(ratio - err / succ) <= TOL_PROB * max(1.0, ratio), "sweep ratio column")
    require(lams[-1] == 1.0, "sweep ends at lambda=1")
    check_ratio_at_one(rows[-1][4], inst.k)
