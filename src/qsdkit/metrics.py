"""Probability accounting for discrimination measurements.

Joint outcome distributions, success/error/inconclusive rates, conditional
confidences, and entrywise L_p distances between distributions.

Both readouts, :func:`joint_distribution` and the dilated one in
:mod:`qsdkit.dilation`, tabulate outcome probabilities of the clean states
and ``I / d`` once.  The table is linear in the state: :func:`_mix` mixes its
rows per depolarizing level and :func:`_fold` adds them into the joint layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (CONDITIONING_MASS_FLOOR, INCONCLUSIVE, JOINT_NEGATIVE_TOL, JOINT_SUM_TOL,
                     SUCCESS_MASS_FLOOR, Povm, ProblemSpec, _fields_equal, _readonly)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probabilities ``entries[i, j] = p_i * Tr(rho_i' Pi_j)``.

    Rows index the prepared state, columns the measurement outcome; the last
    column belongs to the inconclusive outcome and is all-zero when the POVM
    has no inconclusive element.
    """

    entries: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[1] != e.shape[0] + 1:
            raise ValueError(f"expected shape (k, k+1), got {e.shape}")
        if not float(e.min()) >= -JOINT_NEGATIVE_TOL:
            raise ValueError(f"negative joint probability {e.min():.3e}")
        total = float(e.sum())
        if not abs(total - 1.0) <= JOINT_SUM_TOL:
            raise ValueError(f"entries sum to {total!r}, expected 1")
        object.__setattr__(self, "entries", _readonly(e))

    @property
    def num_states(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class OutcomeStats:
    """Success / misidentification / inconclusive mass of a joint distribution."""

    p_succ: float
    p_err: float
    p_inc: float


def joint_distribution(spec: ProblemSpec, povm: Povm, lam: float | None = None) -> JointDistribution:
    """Joint distribution of (prepared state, outcome) at noise level ``lam``.

    ``lam`` defaults to the instance's ``noise_lambda``.  The inconclusive
    column is zero when the POVM carries no inconclusive element.
    """
    if povm.dim != spec.dim:
        raise ValueError(f"dimension mismatch: POVM {povm.dim}, instance {spec.dim}")
    k = spec.num_states
    if povm.num_conclusive != k:
        raise ValueError(f"POVM identifies {povm.num_conclusive} states, instance has {k}")
    rhos = np.stack([s.matrix for s in spec.states] + [np.eye(spec.dim) / spec.dim])
    elements = np.stack([povm.element(j) for j in range(k)] + [povm.element(INCONCLUSIVE)])
    table = np.trace(rhos[:, None] @ elements[None], axis1=-2, axis2=-1).real
    lam = spec.noise_lambda if lam is None else lam
    return _fold(spec.priors, _mix(table, lam), list(range(k + 1)))


def _mix(table: np.ndarray, lam: float) -> np.ndarray:
    """Rows of the clean states of a state-linear outcome table at level ``lam``.

    ``table`` holds a row per clean state, then the row of ``I / d``; at level
    ``lam`` a state's row is ``(1 - lam) * clean + lam * table[k]``.  A level
    outside [0, 1] raises ``ValueError``.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"noise level must be in [0, 1], got {lam}")
    return (1.0 - lam) * table[:-1] + lam * table[-1]


def _fold(priors: np.ndarray, rows: np.ndarray, columns) -> JointDistribution:
    """Joint distribution of per-state outcome rows: row column ``j`` adds,
    weighted by the prior, into joint column ``columns[j]``."""
    k = len(priors)
    entries = np.zeros((k, k + 1))
    np.add.at(entries, (slice(None), columns), priors[:, None] * rows)
    return JointDistribution(entries)


def outcome_stats(jd: JointDistribution) -> OutcomeStats:
    """Decompose a joint distribution into success, error, and inconclusive mass.

    The error mass counts conclusive misidentifications only; inconclusive
    outcomes are tallied separately.
    """
    e = jd.entries
    k = jd.num_states
    p_succ = float(np.trace(e[:, :k]))
    p_inc = float(e[:, k].sum())
    p_err = float(e[:, :k].sum()) - p_succ
    return OutcomeStats(p_succ=p_succ, p_err=p_err, p_inc=p_inc)


def error_to_success(jd: JointDistribution) -> float:
    """Ratio of misidentification to success mass; +inf when nothing succeeds."""
    stats = outcome_stats(jd)
    if stats.p_succ <= SUCCESS_MASS_FLOOR:
        return math.inf
    return stats.p_err / stats.p_succ


def lp_distance(a: JointDistribution, b: JointDistribution, ell: float) -> float:
    """Entrywise L_ell distance ``(sum |a - b|^ell)^(1/ell)`` over all outcomes."""
    if a.entries.shape != b.entries.shape:
        raise ValueError("distributions have different shapes")
    if ell not in (1, 2):
        raise ValueError("only ell in {1, 2} is supported")
    diff = np.abs(a.entries - b.entries)
    return float(np.sum(diff ** ell) ** (1.0 / ell))


def confidences(spec: ProblemSpec, povm: Povm, lam: float | None = None):
    """Per-state conditionals (p(Pi_i | rho_i), p(rho_i | Pi_i)).

    Both conditionals are taken over conclusive outcomes only.  An entry whose
    conditioning mass is at most ``CONDITIONING_MASS_FLOOR`` is 1 (vacuous).
    """
    return _conditionals(joint_distribution(spec, povm, lam))


def _conditionals(jd: JointDistribution):
    """:func:`confidences` of a joint distribution already computed."""
    e = jd.entries
    k = jd.num_states
    hits = np.diagonal(e)
    row_mass = e[:, :k].sum(axis=1)
    col_mass = e[:, :k].sum(axis=0)
    floor = CONDITIONING_MASS_FLOOR
    given_state = np.divide(hits, row_mass, out=np.ones(k), where=row_mass > floor)
    given_outcome = np.divide(hits, col_mass, out=np.ones(k), where=col_mass > floor)
    return given_state, given_outcome
