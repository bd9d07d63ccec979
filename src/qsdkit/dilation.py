"""Minimal-ancilla dilation of POVMs into projective measurements.

A POVM element of rank ``r`` splits into ``r`` rank-1 pieces
``Pi_i = sum_j |f_ij><f_ij|`` (eigendecomposition).  Mapping each piece to
its own computational-basis state ``|g_ij>`` of a target register gives an
isometry ``V = sum_ij |g_ij><f_ij|`` with ``V Pi_i V^+`` a sum of basis
projectors, so the POVM becomes a computational-basis measurement on
``max(n, ceil(log2 L))`` qubits, ``L`` the total rank.  This is usually far
smaller than the generic construction ``V = sum_i sqrt(Pi_i) (x) |i>`` on
dimension ``k * d``.

Small eigenvalues (numerical dust from a solver, or genuinely negligible
components) can be discarded with a threshold ``delta``; the map is then no
longer a strict isometry and the lost probability mass shows up under the
explicit :data:`RESIDUAL` outcome instead of being renormalized away.

One outcome table (exact label probabilities for a batch of states) serves
:func:`simulate_measurement`, :func:`verify_dilation` and
:func:`dilated_joint_distribution`, which mixes the rows of the clean states
and ``I / d`` per noise level the way :mod:`qsdkit.metrics` does.  ``qsd
simulate`` builds that table once per call: the mixed rows are each state's
outcome probabilities, their shots come from the sampler behind
:func:`simulate_measurement`, and the folded rows give the rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import JointDistribution, _fold, _mix
from .states import INCONCLUSIVE, RANK1_TOL, Povm, ProblemSpec, PureState, _fields_equal

#: Outcome label for target-basis states outside the decomposition's range
#: (collects the truncation deficit).
RESIDUAL = "residual"


@dataclass(frozen=True, eq=False)
class Rank1Term:
    """One rank-1 piece ``sigma * |l><l|`` of a POVM element, stored as
    ``vector = sqrt(sigma) * l``."""

    element: int
    sigma: float
    vector: np.ndarray

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class Rank1Decomposition:
    """Rank-1 decomposition of a labeled POVM; term ``t`` fills basis slot
    ``t`` of :func:`build_isometry`.  :func:`decompose_rank1` groups the terms
    by element.  ``delta`` is the cut it was made at: no piece it dropped
    weighs more, and no piece it kept weighs less."""

    dim: int
    terms: tuple
    labels: tuple
    delta: float

    __eq__ = _fields_equal

    @property
    def total_rank(self) -> int:
        return len(self.terms)

    @property
    def per_element_rank(self) -> tuple:
        counts = [0] * len(self.labels)
        for t in self.terms:
            counts[t.element] += 1
        return tuple(counts)


@dataclass(frozen=True, eq=False)
class DilationResult:
    """A dilated measurement: an isometry and the outcome of each basis state.

    ``isometry`` has shape ``(2**target_qubits, domain_dim)``; basis index
    ``b`` of the target register maps to ``outcome_map[b]``, which is either
    a conclusive state index, :data:`INCONCLUSIVE`, or :data:`RESIDUAL`.
    ``delta`` is the cut of the decomposition it was built from.  The
    other values are read off these: the shape fields from the matrix, and
    ``total_rank`` as the number of basis states not labelled :data:`RESIDUAL`.
    ``ValueError`` is raised unless the isometry is a nonempty matrix whose
    row and column counts are powers of two, with one label per row, and
    ``delta >= 0``.  The outcome map is stored as a tuple.  Two results are
    equal when their fields are (the isometries entry for entry); a result
    is unhashable.
    """

    isometry: np.ndarray
    outcome_map: tuple
    delta: float

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "outcome_map", tuple(self.outcome_map))
        if self.isometry.ndim != 2 or 0 in self.isometry.shape:
            raise ValueError(f"isometry needs a nonempty 2-D shape, got {self.isometry.shape}")
        if not self.delta >= 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        (rows, dim), labels = self.isometry.shape, len(self.outcome_map)
        if dim & (dim - 1):
            raise ValueError(f"domain dimension {dim} is not a power of two")
        if rows & (rows - 1) or labels != rows:
            raise ValueError(f"matrix has {rows} rows and outcome_map {labels} labels; "
                             "both need the same power of two")

    @property
    def domain_dim(self) -> int:
        return self.isometry.shape[1]

    @property
    def target_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def target_qubits(self) -> int:
        return (self.target_dim - 1).bit_length()

    @property
    def total_rank(self) -> int:
        return len(self.outcome_map) - self.outcome_map.count(RESIDUAL)

    @property
    def ancilla_qubits(self) -> int:
        return self.target_qubits - (self.domain_dim - 1).bit_length()


@dataclass(frozen=True)
class DilationReport:
    """Deviations measured by :func:`verify_dilation`."""

    isometry_deviation: float
    max_probability_deviation: float


@dataclass(frozen=True)
class MeasurementResult:
    """Exact outcome probabilities and (optionally) sampled counts."""

    probabilities: dict
    counts: dict | None
    shots: int


def decompose_rank1(povm: Povm, rank_tol: float | None = RANK1_TOL) -> Rank1Decomposition:
    """Split every POVM element into rank-1 pieces by eigendecomposition.

    Eigenpairs with eigenvalue above ``rank_tol`` are kept, largest first
    within each element.  ``rank_tol=None`` keeps all ``dim`` eigenpairs of
    every element (no numerical-rank estimation, cut 0), which is the
    no-approximation mode used before an explicit truncation.
    """
    terms = []
    for idx, elem in enumerate(povm.elements):
        h = 0.5 * (elem + elem.conj().T)
        w, u = np.linalg.eigh(h)
        order = np.argsort(w)[::-1]
        for pos in order:
            sigma = float(w[pos])
            if rank_tol is not None and sigma <= rank_tol:
                continue
            sigma = max(sigma, 0.0)
            vec = math.sqrt(sigma) * u[:, pos]
            terms.append(Rank1Term(element=idx, sigma=sigma, vector=vec))
    return Rank1Decomposition(dim=povm.dim, terms=tuple(terms), labels=povm.labels,
                              delta=0.0 if rank_tol is None else max(float(rank_tol), 0.0))


def truncate(dec: Rank1Decomposition, delta: float) -> Rank1Decomposition:
    """Drop rank-1 pieces with ``sigma < delta``; nothing is renormalized.

    ``delta = 0`` is the identity; an element may lose all of its pieces, in
    which case it simply never fires and the lost mass surfaces under the
    :data:`RESIDUAL` outcome of the dilated measurement.  The new cut is
    the larger of ``dec.delta`` and ``delta``.
    """
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    kept = tuple(t for t in dec.terms if not (t.sigma < delta))
    return Rank1Decomposition(dim=dec.dim, terms=kept, labels=dec.labels,
                              delta=max(dec.delta, float(delta)))


def build_isometry(dec: Rank1Decomposition) -> DilationResult:
    """Isometry sending the j-th piece of element i to its own basis state.

    The target register has ``max(n, ceil(log2 L))`` qubits for an
    ``n``-qubit domain and total rank ``L``.  Rows beyond the first ``L``
    basis indices are zero and map to :data:`RESIDUAL`; ``delta`` is the cut of ``dec``.
    """
    total = dec.total_rank
    if total < 1:
        raise ValueError("decomposition has no terms left")
    target = 2 ** max((dec.dim - 1).bit_length(), (total - 1).bit_length())
    v = np.zeros((target, dec.dim), dtype=complex)
    outcome_map = [RESIDUAL] * target
    for row, term in enumerate(dec.terms):
        v[row, :] = term.vector.conj()
        outcome_map[row] = dec.labels[term.element]
    return DilationResult(isometry=v, outcome_map=tuple(outcome_map), delta=dec.delta)


def dilate(povm: Povm, delta: float = 0.0) -> DilationResult:
    """Full pipeline: decompose (keeping all eigenpairs), truncate, build.

    With ``delta = 0`` every eigenpair of every element keeps its own basis
    slot, so the total rank is ``k * dim`` for a k-element POVM and the
    isometry is exact.  A positive ``delta`` discards pieces with
    ``sigma < delta`` first.
    """
    return build_isometry(truncate(decompose_rank1(povm, rank_tol=None), delta))


def build_isometry_generic(povm: Povm) -> DilationResult:
    """Baseline dilation ``V = sum_i sqrt(Pi_i) (x) |i>`` for comparison.

    Targets dimension ``k * d`` (padded to the next power of two), against
    which the rank-based construction is usually much smaller.  The conjugate
    of row ``r`` of ``sqrt(Pi_i)`` is a rank-1 piece of element ``i``, and
    :func:`build_isometry` puts that row in basis slot ``r * k + i``.
    """
    roots = []
    for elem in povm.elements:
        w, u = np.linalg.eigh(0.5 * (elem + elem.conj().T))
        roots.append((u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T)
    terms = tuple(Rank1Term(element=i, sigma=float(np.vdot(root[r], root[r]).real),
                            vector=root[r].conj())
                  for r in range(povm.dim) for i, root in enumerate(roots))
    return build_isometry(Rank1Decomposition(dim=povm.dim, terms=terms, labels=povm.labels,
                                             delta=0.0))


def _densities(states) -> np.ndarray:
    """Density matrices of :class:`PureState`, :class:`DensityMatrix` or
    matrix entries, stacked into one ``(m, d, d)`` array."""
    return np.stack([np.outer(s.amplitudes, s.amplitudes.conj()) if isinstance(s, PureState)
                     else np.asarray(getattr(s, "matrix", s), dtype=complex) for s in states])


def _outcome_table(dil: DilationResult, states) -> tuple:
    """Labels and exact outcome probabilities of a batch of states.

    ``states`` is anything :func:`_densities` stacks.  Returns the labels
    (first-seen order of ``dil.outcome_map``, :data:`RESIDUAL` always
    present) and an ``(m, L)`` table whose row ``s`` sums
    ``<b| V rho_s V^+ |b>``, clipped at 0, over the basis states ``b`` of
    each label; :data:`RESIDUAL` also collects the truncation deficit
    ``1 - Tr(V rho_s V^+)``.
    """
    rhos = _densities(states)
    if rhos.shape[1] != dil.domain_dim:
        raise ValueError(f"state dim {rhos.shape[1]} != domain dim {dil.domain_dim}")
    v = dil.isometry
    per_basis = np.clip(((v @ rhos) * v.conj()).sum(axis=2).real, 0.0, None)
    labels = list(dict.fromkeys([*dil.outcome_map, RESIDUAL]))
    column = {lbl: j for j, lbl in enumerate(labels)}
    table = np.zeros((len(rhos), len(labels)))
    np.add.at(table, (slice(None), [column[lbl] for lbl in dil.outcome_map]), per_basis)
    table[:, column[RESIDUAL]] += np.maximum(0.0, 1.0 - per_basis.sum(axis=1))
    return labels, table


def dilated_joint_distribution(spec: ProblemSpec, dil: DilationResult,
                               lam: float | None = None) -> JointDistribution:
    """Joint distribution of (prepared state, outcome) through a dilation.

    The dilated counterpart of :func:`~qsdkit.metrics.joint_distribution`
    at noise level ``lam`` (default: the instance's ``noise_lambda``);
    :data:`RESIDUAL` mass is folded into the inconclusive column, because
    the measurement declined to identify any state.  A conclusive label
    ``>= k`` raises ``ValueError``; a label missing from the outcome map
    (all of its pieces truncated) leaves its column zero.  A noise level
    outside [0, 1] raises ``ValueError``.  No depolarized state is built.
    """
    _, table, columns = _problem_table(spec, dil)
    return _fold(spec.priors, _mix(table, spec.noise_lambda if lam is None else lam), columns)


def _problem_table(spec: ProblemSpec, dil: DilationResult) -> tuple:
    """Labels, outcome table (rows: the clean states, then ``I / d``) and the
    joint column of each label; a conclusive label ``>= k`` raises ``ValueError``."""
    k = spec.num_states
    labels, table = _outcome_table(dil, [*spec.states, np.eye(spec.dim) / spec.dim])
    for lbl in labels:
        if lbl not in (INCONCLUSIVE, RESIDUAL) and not 0 <= lbl < k:
            raise ValueError(f"isometry outcome label {lbl} does not identify "
                             f"one of the problem's {k} states")
    columns = [k if lbl in (INCONCLUSIVE, RESIDUAL) else lbl for lbl in labels]
    return labels, table, columns


def _sample(labels, p: np.ndarray, shots: int, seed: int | None) -> MeasurementResult:
    """Probabilities ``p`` of ``labels`` plus, for ``shots > 0``, a seeded
    multinomial sample of them; negative ``shots`` raise ``ValueError``."""
    if shots < 0:
        raise ValueError(f"shots must be nonnegative, got {shots}")
    counts = None
    if shots > 0:
        drawn = np.random.default_rng(seed).multinomial(shots, p / p.sum())
        counts = {lbl: int(c) for lbl, c in zip(labels, drawn)}
    return MeasurementResult(probabilities=dict(zip(labels, p.tolist())),
                             counts=counts, shots=shots)


def simulate_measurement(dil: DilationResult, state, shots: int = 0,
                         seed: int | None = None) -> MeasurementResult:
    """Measure a state through the dilated projective measurement.

    Exact outcome probabilities are ``<b| V rho V^+ |b>`` aggregated over the
    outcome map; :data:`RESIDUAL` additionally collects the truncation
    deficit ``1 - Tr(V rho V^+)``.  With ``shots > 0`` a multinomial sample
    with the given seed is drawn (deterministic for a fixed seed); negative
    ``shots`` raise ``ValueError``.
    """
    labels, table = _outcome_table(dil, [state])
    return _sample(labels, table[0], shots, seed)


def verify_dilation(dil: DilationResult, povm: Povm, states=None,
                    num_states: int = 10, seed: int = 7) -> DilationReport:
    """Check the isometry property and outcome-probability agreement.

    Compares the aggregated basis-measurement probabilities against
    ``Tr(rho Pi_i)`` for every labeled element on the given test states
    (random pure states when none are supplied) and reports the maximum
    deviations.
    """
    v = dil.isometry
    gram = v.conj().T @ v
    iso_dev = float(np.max(np.abs(gram - np.eye(dil.domain_dim))))
    if states is None:
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(num_states):
            a = rng.standard_normal(dil.domain_dim) + 1j * rng.standard_normal(dil.domain_dim)
            states.append(PureState(a / np.linalg.norm(a)))
    rhos = _densities(states)
    labels, table = _outcome_table(dil, rhos)
    got = dict(zip(labels, table.T))
    expected = np.einsum("sij,eji->es", rhos, np.asarray(povm.elements)).real
    # A label absent from the outcome map (all pieces truncated) never fires.
    max_dev = max(float(np.max(np.abs(got.get(lbl, 0.0) - want)))
                  for lbl, want in zip(povm.labels, expected))
    return DilationReport(isometry_deviation=iso_dev, max_probability_deviation=max_dev)


def complete_to_unitary(dil: DilationResult) -> np.ndarray:
    """Extend the isometry to a full unitary on the target register.

    The first ``domain_dim`` columns equal the isometry (re-orthonormalized
    via its polar factor when a truncation broke strict isometry; rank
    deficiencies are completed deterministically).  The remaining columns are
    an orthonormal basis of the complement.
    """
    d = dil.domain_dim
    p, _, wh = np.linalg.svd(dil.isometry, full_matrices=True)
    v_orth = p[:, :d] @ wh
    return np.concatenate([v_orth, p[:, d:]], axis=1)
