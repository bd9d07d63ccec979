"""Compile discrimination strategies into conic programs and decode POVMs.

Each ``build_*`` function turns a :class:`~qsdkit.states.ProblemSpec` into a
:class:`~qsdkit.solver.ConeProgram` whose variables are the POVM elements
(one complex PSD block per element, plus slack blocks for inequality
constraints).  :class:`SchemeProgram` records where each element lives, and
:func:`decode_povm` reads the elements from there back into a cleaned-up
:class:`~qsdkit.states.Povm`; :func:`solve_scheme` bundles the whole round
trip.

Every program is built over the rank-``r`` support of the noiseless states
plus one lumped coordinate for its complement when that makes it smaller
(:func:`_program_states`): the 3- to 6-qubit coherent triple gets 4x4 blocks
in place of 8x8 to 64x64 ones, with the same solve in exact arithmetic.
:func:`decode_povm` lifts each element back to ``d x d``.

Supported strategies
--------------------
- ``med``        maximize the success probability (no inconclusive outcome)
- ``med_plus``   same objective with an extra inconclusive element
- ``uqsd``       unambiguous discrimination: conclusive outcomes never
                 misidentify (``Tr(rho_i' Pi_j) = 0`` for ``i != j``)
- ``frio``       bound the inconclusive rate from below or above
- ``crossqsd``   per-state false-positive/false-negative confidence bounds
- ``minl1`` / ``minss``  match a reference outcome distribution in L1 /
                 sum-of-squares
- ``meco``       maximize success subject to entrywise bounds that pin the
                 distribution to the reference
- ``hybrid``     success probability minus ``w`` times the distribution
                 deviation

:data:`SCHEMES` declares each strategy's builder call and its keyword
parameters with their defaults; :func:`build_scheme` and
:func:`solve_scheme` take exactly those parameters and reject any other.
The noise level assumed while solving is ``spec.noise_lambda``; use
``spec.with_noise`` to build a program for a different assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import JointDistribution, joint_distribution
from .solver import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    OPTIMAL,
    ConeProgram,
    FreeCone,
    NonNegCone,
    PsdCone,
    Solution,
    _smat_batch,
    _svec_batch,
    psd_project,
    smat,
    solve,
    svec,
)
from .states import (COMPLEMENT_TOL, DECODE_COMPLETENESS_TOL, INCONCLUSIVE, SUPPORT_TOL,
                     UNREACHABLE_POSTERIOR_EIG, UQSD_KERNEL_TOL, Povm, ProblemSpec)

AT_LEAST = "at_least"
AT_MOST = "at_most"


class DecodeError(RuntimeError):
    """Raised when a solution is too far from feasibility to decode."""


@dataclass(frozen=True)
class SchemeProgram:
    """A conic program together with the metadata needed to decode it.

    ``element_blocks`` is the one record of where each POVM element lives:
    entry ``t`` is ``(offset, carrier)`` of the element labelled
    ``labels[t]``, whose block starts at ``offset``.  ``carrier`` is
    ``None`` for a block ``M`` that is the element itself, or a
    column-orthonormal ``N`` that confines the element to ``N M N^+`` with
    ``M`` in ``PsdCone(N.shape[1])``.  A conclusive label without an entry
    is an element that is identically zero by construction.  ``basis`` is
    ``None`` when the blocks without a carrier are ``dim`` wide, else the
    ``dim x r`` support basis ``V`` of :func:`_program_states`, and those
    blocks are ``r + 1`` wide.
    """

    program: ConeProgram
    dim: int
    num_states: int
    labels: tuple
    element_blocks: tuple
    maximize: bool
    basis: np.ndarray | None = None


@dataclass(frozen=True)
class SchemeResult:
    """Decoded output of one scheme solve."""

    povm: Povm
    solution: Solution
    scheme: SchemeProgram

    @property
    def value(self) -> float:
        return scheme_value(self.scheme, self.solution)


class _Assembler:
    """Accumulates cone blocks, equality rows, and objective terms."""

    def __init__(self):
        self._blocks = []
        self._sizes = []
        self._rows = []
        self._rhs = []
        self._obj = []
        self._quad = []
        self.block_sum = None
        # Dense rows written, by assignment, before the rows of add_row.
        self.lead = (np.zeros((0, 0)), np.zeros(0))
        self.basis = None
        self.element_blocks = ()

    @property
    def num_vars(self) -> int:
        return sum(self._sizes)

    def _add_block(self, block) -> int:
        off = self.num_vars
        self._blocks.append(block)
        self._sizes.append(block.size)
        return off

    def add_psd(self, dim: int) -> int:
        return self._add_block(PsdCone(dim))

    def add_nonneg(self, count: int = 1) -> int:
        return self._add_block(NonNegCone(count))

    def add_free(self, count: int = 1) -> int:
        return self._add_block(FreeCone(count))

    def add_row(self, entries, rhs: float):
        """One equality row; ``entries`` is a list of (offset, coefficient vector)."""
        self._rows.append([(off, np.atleast_1d(np.asarray(vec, dtype=float)))
                           for off, vec in entries])
        self._rhs.append(float(rhs))

    def add_objective(self, off: int, vec):
        self._obj.append((off, np.atleast_1d(np.asarray(vec, dtype=float))))

    def add_quad(self, off: int, vec):
        self._quad.append((off, np.atleast_1d(np.asarray(vec, dtype=float))))

    def build(self) -> ConeProgram:
        n = self.num_vars
        c = np.zeros(n)
        for off, vec in self._obj:
            c[off:off + vec.size] += vec
        lead, lead_rhs = self.lead
        m = lead.shape[0]
        A = np.zeros((m + len(self._rows), n))
        A[:m, :lead.shape[1]] = lead
        for r, entries in enumerate(self._rows, start=m):
            for off, vec in entries:
                A[r, off:off + vec.size] += vec
        quad = np.zeros(n)
        for off, vec in self._quad:
            quad[off:off + vec.size] += vec
        return ConeProgram(blocks=tuple(self._blocks), c=c, A=A,
                           b=np.concatenate([lead_rhs, self._rhs]), quad_diag=quad,
                           block_sum=self.block_sum)


def _program_states(spec: ProblemSpec):
    """``(basis, identity, states)``: the noisy states in the program's coordinates.

    Let ``V`` (``d x r``) be an orthonormal basis of the range of the
    noiseless states' sum (eigenvalues above ``SUPPORT_TOL``) and ``m = d - r``.
    Depolarizing noise leaves each noisy state ``mu_i I`` on the complement
    ``P = I - V V^+``, so every scheme program is invariant under unitaries on
    ``P``, and its blocks can be built over ``V`` plus one lumped coordinate
    standing for all of ``P``: state ``i`` enters as
    ``diag(V^+ rho_i V, mu_i sqrt(m))`` and the identity as
    ``diag(I_r, sqrt(m))``.  The ``sqrt(m)`` weight makes these coordinates an
    isometry of the subspace that the full-space iterates never leave, so the
    reduced solve is the full one.  When ``r + 1 >= d`` nothing is gained and
    the states are returned as they are, with ``basis`` ``None``.
    """
    noisy = [rho.matrix for rho in spec.noisy_states()]
    d = spec.dim
    w, u = np.linalg.eigh(sum(s.matrix for s in spec.states))
    r = int(np.count_nonzero(w > SUPPORT_TOL))
    if r + 1 >= d:
        return None, np.eye(d), noisy
    return _reduce(noisy, u[:, d - r:], u[:, :d - r])


def _reduce(mats, basis, complement):
    """:func:`_program_states` for the given support ``basis`` and its ``complement``.

    Raises ``ValueError`` when a state's block on the complement is more than
    ``COMPLEMENT_TOL`` from a multiple of the identity.
    """
    r, m = basis.shape[1], complement.shape[1]
    lumped = math.sqrt(m)
    states = []
    for rho in mats:
        off = complement.conj().T @ rho @ complement
        mu = np.trace(off).real / m
        dev = float(np.linalg.norm(off - mu * np.eye(m)))
        if not dev <= COMPLEMENT_TOL:
            raise ValueError(f"state is not a multiple of the identity off the support: "
                             f"deviation {dev:.3e}")
        reduced = np.zeros((r + 1, r + 1), dtype=complex)
        reduced[:r, :r] = basis.conj().T @ rho @ basis
        reduced[r, r] = mu * lumped
        states.append(reduced)
    return basis, np.diag(np.append(np.ones(r), lumped)), states


def _lift(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``V X_SS V^+ + (X_ll / sqrt(m)) (I - V V^+)`` of a reduced block ``X``.

    The cross entries between the support and the lumped coordinate vanish
    by symmetry and are dropped.
    """
    d, r = basis.shape
    flat = block[r, r].real / math.sqrt(d - r)
    return basis @ block[:r, :r] @ basis.conj().T + flat * (np.eye(d) - basis @ basis.conj().T)


def _completeness_rows(element_blocks, size: int, width: int) -> np.ndarray:
    """``sum_j svec(N_j M_j N_j^+) = svec(I)`` as ``size`` dense rows of ``width`` columns.

    A block without a carrier enters row ``t`` with its coordinate ``t``;
    column ``t`` of a carrier block is ``svec(N_j smat(e_t) N_j^+)``, one
    batched product per block.
    """
    rows = np.zeros((size, width))
    for off, n in element_blocks:
        if n is None:
            rows[np.arange(size), off + np.arange(size)] = 1.0
        else:
            r = n.shape[1]
            rows[:, off:off + r * r] = _svec_batch(n @ _smat_batch(np.eye(r * r), r) @ n.conj().T).T
    return rows


def _element_program(spec: ProblemSpec, inconclusive: bool = True, success: bool = True,
                     states=None, zero=(), carriers=None):
    """POVM element blocks at ``offs``; returns ``(asm, svecs, offs)``.

    ``states`` is :func:`_program_states` of ``spec`` (computed when not
    given), and ``svecs`` are the svecs of its noisy states.  Conclusive
    elements listed in ``zero`` are identically zero and get no block: their
    entry of ``offs`` is ``None``.  ``carriers``, when given, has one entry
    per conclusive element: ``None``, or a column-orthonormal ``N_j`` with
    ``r_j`` columns that confines element ``j`` to ``N_j M_j N_j^+`` with
    block ``M_j`` in ``PsdCone(r_j)``.  Completeness, ``sum_j Pi_j = I``, is
    the program's block-sum rows when no element has a carrier, and
    otherwise the first rows of ``A`` (:func:`_completeness_rows`).  With
    ``success`` the objective is minus the success probability,
    ``-p_j svec(N_j^+ rho_j N_j)`` on a carrier block.
    """
    asm = _Assembler()
    asm.basis, identity, mats = states or _program_states(spec)
    svecs = [svec(m) for m in mats]
    n = identity.shape[0]
    k = spec.num_states
    carriers = list(carriers or [None] * k) + [None]  # the inconclusive element has none
    offs = [None if j in zero else asm.add_psd(n if carriers[j] is None else carriers[j].shape[1])
            for j in range(k)]
    if inconclusive:
        offs.append(asm.add_psd(n))
    asm.element_blocks = tuple((o, carriers[j]) for j, o in enumerate(offs) if o is not None)
    rhs = svec(identity)
    if all(carrier is None for _, carrier in asm.element_blocks):
        asm.block_sum = (tuple(o for o, _ in asm.element_blocks), rhs)
    else:
        asm.lead = _completeness_rows(asm.element_blocks, rhs.size, asm.num_vars), rhs
    if success:
        for i in range(k):
            if offs[i] is not None:
                n_i = carriers[i]
                vec = svecs[i] if n_i is None else svec(n_i.conj().T @ mats[i] @ n_i)
                asm.add_objective(offs[i], -spec.priors[i] * vec)
    return asm, svecs, offs


def _make_scheme(asm, spec, offs, maximize=True) -> SchemeProgram:
    """Finish a program of :func:`_element_program` with element offsets ``offs``."""
    k = spec.num_states
    labels = tuple(j for j in range(k) if offs[j] is not None)
    return SchemeProgram(asm.build(), spec.dim, k, labels + (INCONCLUSIVE,) * (len(offs) - k),
                         asm.element_blocks, maximize, asm.basis)


def build_med(spec: ProblemSpec) -> SchemeProgram:
    """Minimum-error discrimination: maximize the success probability."""
    asm, _, offs = _element_program(spec, inconclusive=False)
    return _make_scheme(asm, spec, offs)


def build_med_plus(spec: ProblemSpec) -> SchemeProgram:
    """Minimum-error discrimination with an (always redundant) inconclusive element."""
    asm, _, offs = _element_program(spec)
    return _make_scheme(asm, spec, offs)


def build_uqsd(spec: ProblemSpec) -> SchemeProgram:
    """Unambiguous discrimination: conclusive outcomes never misidentify.

    The no-misidentification conditions ``Tr(rho_i' Pi_j) = 0`` for
    ``i != j`` pin each conclusive element to the common kernel of the other
    states, so the program is built directly over that kernel: element ``j``
    is ``N_j M_j N_j^+`` with ``N_j`` an orthonormal kernel basis and
    ``M_j >= 0`` the reduced variable.  (Writing the conditions as equality
    rows instead leaves the feasible set with an empty conic interior, which
    the first-order solver handles poorly.)  The kernels are those of the
    states in the coordinates of :func:`_program_states`, so the carriers
    have ``r + 1`` rows over a reduced support.  :func:`_element_program`
    takes the kernel bases as the elements' carriers, so the completeness
    rows ``sum_j N_j M_j N_j^+ + Pi_inc = I`` are the rows of ``A``, and the
    program has no block-sum rows.
    An element whose kernel is empty, which happens for any full-rank noisy
    states, is a ``zero`` element.  Nontrivial solutions need linearly
    independent states; the program stays feasible regardless.
    """
    k = spec.num_states
    _, identity, mats = states = _program_states(spec)
    n = identity.shape[0]
    svecs = [svec(m) for m in mats]
    carriers = []
    for j in range(k):
        w, u = np.linalg.eigh(smat(sum(svecs[i] for i in range(k) if i != j), n))
        carriers.append(u[:, w < UQSD_KERNEL_TOL])
    zero = [j for j in range(k) if carriers[j].shape[1] == 0]
    asm, _, offs = _element_program(spec, states=states, zero=zero, carriers=carriers)
    return _make_scheme(asm, spec, offs)


def build_frio(spec: ProblemSpec, rate: float, bound: str = AT_LEAST) -> SchemeProgram:
    """Success maximization with the inconclusive rate bounded by ``rate``.

    ``bound`` selects whether ``P_inc >= rate`` (``"at_least"``, the default)
    or ``P_inc <= rate`` (``"at_most"``).
    """
    if np.ndim(rate) != 0 or not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be a number in [0, 1]")
    if bound not in (AT_LEAST, AT_MOST):
        raise ValueError(f"bound must be '{AT_LEAST}' or '{AT_MOST}'")
    asm, svecs, offs = _element_program(spec)
    inc_vec = sum(p * sv for p, sv in zip(spec.priors, svecs))
    slack = asm.add_nonneg()
    sign = -1.0 if bound == AT_LEAST else 1.0
    asm.add_row([(offs[-1], inc_vec), (slack, [sign])], rate)
    return _make_scheme(asm, spec, offs)


def build_crossqsd(spec: ProblemSpec, alpha, beta) -> SchemeProgram:
    """Success maximization under false-positive/false-negative confidence bounds.

    For each state ``i`` the conditional ``p(Pi_i | rho_i)`` over conclusive
    outcomes must reach ``1 - alpha_i`` and the posterior ``p(rho_i | Pi_i)``
    must reach ``1 - beta_i``.  Both fractional constraints are linearized by
    clearing their (nonnegative) denominators, so a zero denominator
    satisfies them vacuously.  The posterior row reads
    ``Tr(M_i Pi_i) >= 0`` with ``M_i = p_i rho_i' - (1 - beta_i) sum_j p_j rho_j'``;
    when ``M_i`` has no eigenvalue above ``UNREACHABLE_POSTERIOR_EIG`` only
    ``Pi_i = 0`` satisfies it, and element ``i`` gets no block and no
    posterior row.
    """
    k = spec.num_states
    alpha = np.asarray(alpha, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    if alpha.size != k or beta.size != k:
        raise ValueError("need one alpha and one beta per state")
    if not np.all((0 <= alpha) & (alpha <= 1) & (0 <= beta) & (beta <= 1)):
        raise ValueError("alpha and beta entries must lie in [0, 1]")
    states = _program_states(spec)
    mats, priors = states[2], spec.priors
    mixture = sum(p * m for p, m in zip(priors, mats))
    zero = [i for i in range(k) if np.linalg.eigvalsh(
        priors[i] * mats[i] - (1.0 - beta[i]) * mixture)[-1] < UNREACHABLE_POSTERIOR_EIG]
    asm, svecs, offs = _element_program(spec, states=states, zero=zero)
    for i in range(k):
        # Tr(rho_i' Pi_i) >= (1 - alpha_i) * sum_j Tr(rho_i' Pi_j)
        slack = asm.add_nonneg()
        entries = [(slack, [-1.0])]
        for j in range(k):
            if offs[j] is not None:
                coeff = (1.0 if j == i else 0.0) - (1.0 - alpha[i])
                entries.append((offs[j], coeff * svecs[i]))
        asm.add_row(entries, 0.0)
        if offs[i] is None:
            continue
        # p_i Tr(rho_i' Pi_i) >= (1 - beta_i) * sum_j p_j Tr(rho_j' Pi_i)
        slack = asm.add_nonneg()
        vec = priors[i] * svecs[i] - (1.0 - beta[i]) * sum(
            priors[j] * svecs[j] for j in range(k))
        asm.add_row([(offs[i], vec), (slack, [-1.0])], 0.0)
    return _make_scheme(asm, spec, offs)


def _check_reference(spec: ProblemSpec, reference: JointDistribution) -> np.ndarray:
    """The entries of ``reference``, checked against ``spec``.

    A callable ``reference`` (the default of :func:`build_scheme`) is called
    here, once the builder has checked its other parameters.
    """
    if callable(reference):
        reference = reference()
    if not isinstance(reference, JointDistribution):
        reference = JointDistribution(np.asarray(reference, dtype=float))
    if reference.num_states != spec.num_states:
        raise ValueError("reference distribution has the wrong number of states")
    return reference.entries


def _deviation_terms(asm, spec, offs, svecs, ref, ell, weight):
    """Slack encoding of ``weight * sum_ij |ref_ij - p_i Tr(rho_i' Pi_j)|^ell``.

    ``svecs`` are the noisy states' svecs (:func:`_element_program`).  For ell=1
    each entry gets a bound variable ``t >= |deviation|`` entering the linear
    objective; for ell=2 each deviation is pinned to a free variable entering
    the diagonal quadratic term.
    """
    k = spec.num_states
    for i in range(k):
        w_vec = spec.priors[i] * svecs[i]
        for j in range(k + 1):
            if ell == 1:
                t = asm.add_nonneg()
                s_plus = asm.add_nonneg()
                s_minus = asm.add_nonneg()
                # t >= ref - y  and  t >= y - ref, with y = p_i Tr(rho_i' Pi_j)
                asm.add_row([(offs[j], w_vec), (t, [1.0]), (s_plus, [-1.0])], ref[i, j])
                asm.add_row([(offs[j], -w_vec), (t, [1.0]), (s_minus, [-1.0])], -ref[i, j])
                asm.add_objective(t, [weight])
            else:
                s = asm.add_free()
                asm.add_row([(offs[j], w_vec), (s, [1.0])], ref[i, j])
                asm.add_quad(s, [2.0 * weight])


def build_fit_min_lp(spec: ProblemSpec, ell: int, reference: JointDistribution) -> SchemeProgram:
    """Match a reference outcome distribution as closely as possible.

    Minimizes ``sum_ij |ref_ij - p_i Tr(rho_i' Pi_j)|^ell`` over inconclusive-
    augmented POVMs, with ``ell = 1`` (L1) or ``ell = 2`` (sum of squares).
    """
    if ell not in (1, 2):
        raise ValueError("ell must be 1 or 2")
    ref = _check_reference(spec, reference)
    asm, svecs, offs = _element_program(spec, success=False)
    _deviation_terms(asm, spec, offs, svecs, ref, ell, weight=1.0)
    return _make_scheme(asm, spec, offs, maximize=False)


def build_fit_meco(spec: ProblemSpec, reference: JointDistribution) -> SchemeProgram:
    """Maximize success while pinning the distribution near the reference.

    Diagonal joint probabilities are bounded above by the reference and
    off-diagonal ones below, which stops the optimizer from trading one
    state's fidelity against another's.  The program can be infeasible when
    noise makes those bounds incompatible; this surfaces as an infeasible
    solver status.
    """
    ref = _check_reference(spec, reference)
    asm, svecs, offs = _element_program(spec)
    k = spec.num_states
    for i in range(k):
        for j in range(k):
            w_vec = spec.priors[i] * svecs[i]
            slack = asm.add_nonneg()
            if i == j:
                asm.add_row([(offs[j], w_vec), (slack, [1.0])], ref[i, j])
            else:
                asm.add_row([(offs[j], w_vec), (slack, [-1.0])], ref[i, j])
    return _make_scheme(asm, spec, offs)


def build_hybrid(spec: ProblemSpec, w: float, ell: int,
                 reference: JointDistribution) -> SchemeProgram:
    """Weighted trade-off between success probability and distribution fit.

    Maximizes ``P_succ - w * sum_ij |ref_ij - p_i Tr(rho_i' Pi_j)|^ell``.
    ``w = 0`` recovers plain success maximization; large ``w`` forces the
    distribution onto the reference.
    """
    if np.ndim(w) != 0 or not w >= 0:
        raise ValueError("w must be a nonnegative number")
    if ell not in (1, 2):
        raise ValueError("ell must be 1 or 2")
    ref = _check_reference(spec, reference)
    asm, svecs, offs = _element_program(spec)
    if w > 0:
        _deviation_terms(asm, spec, offs, svecs, ref, ell, weight=w)
    return _make_scheme(asm, spec, offs)


# --------------------------------------------------------------------------
# Decoding and convenience wrappers
# --------------------------------------------------------------------------

def scheme_value(scheme: SchemeProgram, solution: Solution) -> float:
    """The scheme's natural objective value (success probability for
    maximization schemes, distribution deviation for the fit schemes)."""
    return -solution.objective if scheme.maximize else solution.objective


def decode_povm(scheme: SchemeProgram, solution: Solution) -> Povm:
    """Extract, clean up, and label the POVM from an ``optimal`` solution.

    The elements are read from ``scheme.element_blocks``, each under its
    label in ``scheme.labels``, and come out in the order ``0..k-1``
    followed by the inconclusive element when the scheme has one; a
    conclusive label without an entry gets a zero element.  Each block is
    symmetrized and projected onto the PSD cone (and mapped through its
    carrier); the set is then rescaled by ``S^(-1/2) Pi S^(-1/2)`` with
    ``S`` the element sum so completeness holds exactly.  A program built
    over a support basis ``V`` lifts each element first, as
    ``V X_SS V^+ + (X_ll / sqrt(m)) (I - V V^+)``.  Any other status (named
    with both residuals) or ``||S - I||_F > 1e-3`` raises DecodeError.
    """
    if solution.status != OPTIMAL:
        raise DecodeError(f"solve did not converge: status={solution.status}, "
                          f"primal residual {solution.primal_residual:.3e}, "
                          f"dual residual {solution.dual_residual:.3e}")
    d = scheme.dim
    n = d if scheme.basis is None else scheme.basis.shape[1] + 1
    entries = dict(zip(scheme.labels, scheme.element_blocks))
    labels = tuple(range(scheme.num_states)) + ((INCONCLUSIVE,) if INCONCLUSIVE in entries else ())
    elements = []
    for label in labels:
        if label not in entries:
            elements.append(np.zeros((d, d), dtype=complex))
            continue
        off, carrier = entries[label]
        r = n if carrier is None else carrier.shape[1]
        block = psd_project(smat(solution.x[off:off + r * r], r))
        if carrier is not None:
            block = carrier @ block @ carrier.conj().T
        if scheme.basis is not None:
            block = _lift(block, scheme.basis)
        elements.append(block)
    total = sum(elements)
    dev = float(np.linalg.norm(total - np.eye(d)))
    if dev > DECODE_COMPLETENESS_TOL:
        raise DecodeError(f"element sum is {dev:.3e} from identity; solve did not converge")
    w, u = np.linalg.eigh(total)
    inv_sqrt = (u * (1.0 / np.sqrt(w))) @ u.conj().T
    cleaned = []
    for e in elements:
        m = inv_sqrt @ e @ inv_sqrt
        cleaned.append(0.5 * (m + m.conj().T))
    return Povm(dim=d, elements=tuple(cleaned), labels=labels)


def uqsd_reference(spec: ProblemSpec, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> JointDistribution:
    """Outcome distribution of optimal noiseless unambiguous discrimination.

    This is the default reference for the fit and hybrid schemes: the joint
    distribution produced by the optimal inconclusive-augmented POVM on the
    noise-free states.
    """
    noiseless = spec.with_noise(0.0)
    povm = solve_scheme(noiseless, "uqsd", tol=tol, max_iters=max_iters).povm
    return joint_distribution(noiseless, povm, 0.0)


def _per_state(spec: ProblemSpec, value):
    """``value`` for every state when it is a scalar, else ``value`` unchanged."""
    return np.full(spec.num_states, value) if np.ndim(value) == 0 else value


#: Each scheme's builder call and its keyword parameters with their defaults.
#: A call looks its builder up by name when it runs, so a wrapper installed
#: on this module's attribute (by a profiler, say) sees every build.  A
#: ``reference`` of ``None`` stands for :func:`uqsd_reference` of the spec.
SCHEMES = {
    "med": (lambda spec, p: build_med(spec), {}),
    "med_plus": (lambda spec, p: build_med_plus(spec), {}),
    "uqsd": (lambda spec, p: build_uqsd(spec), {}),
    "frio": (lambda spec, p: build_frio(spec, p["rate"], p["bound"]),
             {"rate": 0.1, "bound": AT_LEAST}),
    "crossqsd": (lambda spec, p: build_crossqsd(spec, _per_state(spec, p["alpha"]),
                                                _per_state(spec, p["beta"])),
                 {"alpha": 0.1, "beta": 0.1}),
    "minl1": (lambda spec, p: build_fit_min_lp(spec, 1, p["reference"]), {"reference": None}),
    "minss": (lambda spec, p: build_fit_min_lp(spec, 2, p["reference"]), {"reference": None}),
    "meco": (lambda spec, p: build_fit_meco(spec, p["reference"]), {"reference": None}),
    "hybrid": (lambda spec, p: build_hybrid(spec, p["w"], p["ell"], p["reference"]),
               {"w": 0.3, "ell": 1, "reference": None}),
}
SCHEME_NAMES = tuple(SCHEMES)


def build_scheme(spec: ProblemSpec, name: str, *, tol: float = DEFAULT_TOL,
                 **params) -> SchemeProgram:
    """Build a scheme by name from the keyword parameters it takes.

    The parameters and their defaults are those of :data:`SCHEMES`; a
    parameter the scheme does not take raises ``ValueError``.  A scalar
    ``alpha`` or ``beta`` applies to every state.  A fitting scheme without
    a ``reference`` fits :func:`uqsd_reference` of ``spec``, solved to
    ``tol`` only after the builder has checked the other parameters.
    """
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEME_NAMES}")
    call, defaults = SCHEMES[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        takes = ", ".join(defaults) or "no parameters"
        raise ValueError(f"scheme {name!r} takes {takes}; got {', '.join(unknown)}")
    params = {**defaults, **params}
    if "reference" in params and params["reference"] is None:
        params["reference"] = lambda: uqsd_reference(spec, tol=tol)
    return call(spec, params)


def solve_scheme(spec: ProblemSpec, name: str, *, tol: float = DEFAULT_TOL,
                 max_iters: int = DEFAULT_MAX_ITERS, **params) -> SchemeResult:
    """Build (see :func:`build_scheme`), solve, and decode one scheme in one call."""
    scheme = build_scheme(spec, name, tol=tol, **params)
    solution = solve(scheme.program, tol=tol, max_iters=max_iters)
    povm = decode_povm(scheme, solution)
    return SchemeResult(povm=povm, solution=solution, scheme=scheme)
