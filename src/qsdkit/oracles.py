"""Independent small-instance references used by the test suite.

Closed forms and brute-force searches for two-state qubit discrimination.
Nothing in this module calls the conic solver, so these values can vouch for
it.  :func:`helstrom_two_state` and :func:`uqsd_two_pure` are exact.
:func:`brute_force_qubit_povm` returns the best candidate found on a finite
grid and is therefore a one-sided (lower) bound on the true optimum.
"""

from __future__ import annotations

import math

import numpy as np

from .schemes import AT_LEAST, AT_MOST
from .states import DensityMatrix, ProblemSpec, PureState


def helstrom_two_state(rho1: DensityMatrix, rho2: DensityMatrix, p1: float) -> float:
    """Optimal two-state success probability ``(1 + ||p1 rho1 - p2 rho2||_1) / 2``."""
    if rho1.dim != rho2.dim:
        raise ValueError("dimension mismatch")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must be in [0, 1]")
    diff = p1 * rho1.matrix - (1.0 - p1) * rho2.matrix
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return 0.5 * (1.0 + trace_norm)


def uqsd_two_pure(psi1: PureState, psi2: PureState, p1: float) -> float:
    """Optimal unambiguous success probability for two pure states.

    The Jaeger-Shimony closed form (Phys. Lett. A 197, 83 (1995)): with
    overlap ``s = |<psi1|psi2>|`` and priors ``lo <= hi`` it is
    ``1 - 2 sqrt(lo hi) s`` when ``s**2 hi <= lo``, where both conclusive
    outcomes fire, and ``hi (1 - s**2)`` otherwise, where only the likelier
    state is ever identified.  Equal priors give ``1 - s``.
    """
    if psi1.dim != psi2.dim:
        raise ValueError("dimension mismatch")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must be in [0, 1]")
    s = abs(psi1.overlap(psi2))
    lo, hi = sorted((p1, 1.0 - p1))
    if s * s * hi <= lo:
        return 1.0 - 2.0 * math.sqrt(lo * hi) * s
    return hi * (1.0 - s * s)


def brute_force_qubit_povm(spec: ProblemSpec, scheme: str = "med",
                           grid: int = 60, rate: float = 0.5,
                           bound: str = AT_LEAST) -> float:
    """Grid-search lower bound for two-state qubit programs.

    ``scheme="med"`` scans projective measurements over the full Bloch
    sphere.  ``scheme="frio"`` scans rank-1 conclusive elements
    ``a_i |v_i><v_i|`` with both directions in the real Bloch plane (adequate
    for real-amplitude states) and, per candidate, the largest weights
    allowed by the PSD and inconclusive-rate constraints; roughly
    ``grid**3`` candidates in total.
    """
    if spec.dim != 2 or spec.num_states != 2:
        raise ValueError("brute force oracle supports dim=2, k=2 only")
    rho1, rho2 = [s.matrix for s in spec.noisy_states()]
    p1, p2 = spec.priors

    if scheme == "med":
        thetas = np.linspace(0.0, math.pi, grid)
        phis = np.linspace(0.0, 2.0 * math.pi, 2 * grid, endpoint=False)
        th, ph = np.meshgrid(thetas, phis, indexing="ij")
        v = np.empty(th.shape + (2,), dtype=complex)
        v[..., 0] = np.cos(th / 2.0)
        v[..., 1] = np.exp(1j * ph) * np.sin(th / 2.0)
        v = v.reshape(-1, 2)
        q1 = np.einsum("ni,ij,nj->n", v.conj(), rho1, v).real
        q2 = np.einsum("ni,ij,nj->n", v.conj(), rho2, v).real
        return float(np.max(p1 * q1 + p2 * (1.0 - q2)))

    if scheme != "frio":
        raise ValueError(f"unsupported scheme {scheme!r} for the brute-force oracle")
    if bound not in (AT_LEAST, AT_MOST):
        raise ValueError("bound must be at_least or at_most")

    rho_bar = p1 * rho1 + p2 * rho2
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    weights = np.linspace(0.0, 1.0, grid)
    dirs = np.stack([np.cos(thetas / 2.0), np.sin(thetas / 2.0)], axis=1)
    # Success and average-state overlaps for every direction.
    succ1 = np.einsum("ni,ij,nj->n", dirs, rho1.real, dirs)
    succ2 = np.einsum("ni,ij,nj->n", dirs, rho2.real, dirs)
    bar = np.einsum("ni,ij,nj->n", dirs, rho_bar.real, dirs)

    best = 0.0
    eye = np.eye(2)
    for i1, v1 in enumerate(dirs):
        proj1 = np.outer(v1, v1)
        for a1 in weights:
            w, u = np.linalg.eigh(eye - a1 * proj1)
            overlaps = (dirs @ u) ** 2  # (grid, 2)
            # Largest a2 with (I - a1 P1) - a2 |v2><v2| PSD, per direction.
            pos = w >= 1e-12
            quad = overlaps[:, pos] @ (1.0 / w[pos]) if pos.any() else np.zeros(len(dirs))
            blocked = (overlaps[:, ~pos] > 1e-18).any(axis=1) if (~pos).any() else \
                np.zeros(len(dirs), dtype=bool)
            with np.errstate(divide="ignore"):
                a2_psd = np.where(quad > 1e-14, 1.0 / quad, np.inf)
            a2_psd = np.where(blocked, 0.0, a2_psd)
            if bound == AT_LEAST:
                # P_inc >= rate  <=>  a1 <v1|rb|v1> + a2 <v2|rb|v2> <= 1 - rate
                budget = 1.0 - rate - a1 * bar[i1]
                if budget < -1e-12:
                    continue
                with np.errstate(divide="ignore"):
                    a2_rate = np.where(bar > 1e-14, budget / bar, np.inf)
                a2 = np.minimum(np.minimum(a2_psd, a2_rate), 1.0)
                a2 = np.clip(a2, 0.0, None)
                feasible = np.ones(len(dirs), dtype=bool)
            else:
                floor = 1.0 - rate - a1 * bar[i1]
                with np.errstate(divide="ignore"):
                    a2_rate = np.where(bar > 1e-14, floor / bar,
                                       np.where(floor > 1e-12, np.inf, 0.0))
                a2 = np.minimum(a2_psd, 1.0)
                feasible = a2 >= a2_rate - 1e-12
                a2 = np.clip(a2, 0.0, None)
            values = p1 * a1 * succ1[i1] + p2 * a2 * succ2
            values = np.where(feasible, values, -np.inf)
            best = max(best, float(values.max()))
    return best
