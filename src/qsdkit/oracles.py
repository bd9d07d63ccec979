"""Independent small-instance references used by the test suite.

Exact closed forms for two-state discrimination: :func:`helstrom_two_state`
(minimum error, any two states), :func:`uqsd_two_pure` (unambiguous, two pure
states) and :func:`frio_two_pure` (minimum error at a fixed inconclusive rate,
two pure states where both conclusive outcomes fire).  Nothing in this module
calls the conic solver, so these values can vouch for it.
"""

from __future__ import annotations

import math

import numpy as np

from .states import DensityMatrix, PureState


def _check_pair(state1, state2, p1: float) -> None:
    if state1.dim != state2.dim:
        raise ValueError("dimension mismatch")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must be in [0, 1]")


def helstrom_two_state(rho1: DensityMatrix, rho2: DensityMatrix, p1: float) -> float:
    """Optimal two-state success probability ``(1 + ||p1 rho1 - p2 rho2||_1) / 2``."""
    _check_pair(rho1, rho2, p1)
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
    _check_pair(psi1, psi2, p1)
    s = abs(psi1.overlap(psi2))
    lo, hi = sorted((p1, 1.0 - p1))
    if s * s * hi <= lo:
        return 1.0 - 2.0 * math.sqrt(lo * hi) * s
    return hi * (1.0 - s * s)


def frio_two_pure(psi1: PureState, psi2: PureState, p1: float, rate: float) -> float:
    """Optimal success probability for two pure states at inconclusive rate ``rate``.

    The fixed-rate closed form (Chefles and Barnett, J. Mod. Opt. 45, 1295
    (1998); Bagan et al., Phys. Rev. A 86, 040303 (2012)): with overlap
    ``s = |<psi1|psi2>|``, priors ``lo <= hi`` and ``Q0 = 2 sqrt(lo hi) s``,
    it is ``(1 - Q + sqrt((1 - Q)**2 - (Q0 - Q)**2)) / 2`` for ``Q = rate <
    Q0`` and ``1 - Q`` above.  Rate 0 gives Helstrom's value and rate ``Q0``
    the unambiguous optimum.  The form holds where both conclusive outcomes
    fire, ``s**2 hi <= lo``; elsewhere ``ValueError`` is raised.
    """
    _check_pair(psi1, psi2, p1)
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    s = abs(psi1.overlap(psi2))
    lo, hi = sorted((p1, 1.0 - p1))
    if s * s * hi > lo:
        raise ValueError("frio_two_pure needs s**2 * max(p1, p2) <= min(p1, p2), "
                         "where both conclusive outcomes fire")
    q0 = 2.0 * math.sqrt(lo * hi) * s
    if rate >= q0:
        return 1.0 - rate
    return 0.5 * (1.0 - rate + math.sqrt((1.0 - rate) ** 2 - (q0 - rate) ** 2))
