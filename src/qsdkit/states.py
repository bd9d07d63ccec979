"""Core domain types for quantum state discrimination.

States, ensembles, depolarizing noise, and POVMs, backed by dense complex
numpy arrays.  All types are immutable after construction (arrays are stored
read-only), so values can be shared freely between threads.

Qubit index convention: amplitude index ``n`` is the integer value of the
bitstring with the most-significant qubit first, e.g. for two qubits the
basis order is ``|00>, |01>, |10>, |11>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Label carried by the inconclusive POVM element.  Conclusive elements are
#: labeled by the integer index of the state they identify (0-based).
INCONCLUSIVE = "inconclusive"

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
#: Bounds of the value types' checks: ``|sum |a|^2 - 1|`` of a :class:`PureState`,
#: ``|sum p_i - 1|`` of a :class:`ProblemSpec`, ``max |E - E^H|`` of a :class:`Povm`
#: element, and how far a ``JointDistribution``'s entries fall below 0 and its total from 1.
STATE_NORM_TOL = 1e-12
PRIOR_SUM_TOL = 1e-12
POVM_HERMITIAN_TOL = 1e-9
JOINT_NEGATIVE_TOL = 1e-10
JOINT_SUM_TOL = 1e-8
POVM_PSD_TOL = 1e-7
POVM_COMPLETENESS_TOL = 1e-7
#: Conditioning mass at or below which a conditional of ``metrics.confidences`` is 1,
#: and success mass at or below which ``metrics.error_to_success`` is +inf.
CONDITIONING_MASS_FLOOR = 1e-12
SUCCESS_MASS_FLOOR = 1e-15
#: Eigenvalues of the noiseless states' sum at or below this lie off their
#: support; the scheme programs lump that complement into one coordinate.
SUPPORT_TOL = 1e-12
#: Largest Frobenius distance of a noisy state's block off that support from
#: a multiple of the identity (depolarizing noise always gives a multiple).
COMPLEMENT_TOL = 1e-10
#: Eigenvalues below this span the common kernel a uqsd element lives on.
UQSD_KERNEL_TOL = 1e-9
#: The solver reads a constraint row of norm at or below ``ZERO_ROW_NORM``
#: as a zero row, and refuses one whose right-hand side exceeds
#: ``ZERO_ROW_RHS_TOL`` in magnitude as inconsistent.
ZERO_ROW_NORM = 1e-14
ZERO_ROW_RHS_TOL = 1e-12
#: Largest Frobenius distance from the identity of the sum of the elements
#: decoded from a solve; farther, the solve did not converge.
DECODE_COMPLETENESS_TOL = 1e-3
#: A crossqsd posterior matrix with no eigenvalue above this (negative)
#: level admits only a zero conclusive element.
UNREACHABLE_POSTERIOR_EIG = -1e-9
#: The solver's ray step: the relative tolerance of a drift's repeated residual
#: and vanishing ``u`` half (and of its certificate memberships), and the
#: relative growth of the residual that a point tried along the drift may show
#: and still be on it.
DRIFT_RTOL = 1e-6
RAY_RTOL = 1e-6
#: ``dilation.decompose_rank1`` drops a POVM element's eigenpairs with
#: eigenvalue at or below this by default.
RANK1_TOL = 1e-7
#: Largest qubit count of a state built or read: one 4096 x 4096 complex matrix takes 268 MB.
MAX_QUBITS = 12


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """A pure multi-qubit state given by its amplitude vector.

    Parameters
    ----------
    amplitudes : array_like
        Complex vector of length ``2**num_qubits`` with unit norm.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        n = amps.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"amplitude vector length {n} is not a power of two >= 2")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= STATE_NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """A density operator: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if not herm_dev <= HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^H| = {herm_dev:.3e}")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if not min_eig >= -PSD_TOL:
            raise ValueError(f"matrix is not PSD: min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_of(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a pure state."""
    a = psi.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


@dataclass(frozen=True)
class DepolarizingChannel:
    """Depolarizing channel ``rho -> (1 - lam) rho + lam I / dim``."""

    lam: float
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"noise level must be in [0, 1], got {self.lam}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def apply_depolarizing(channel: DepolarizingChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a depolarizing channel to a density matrix.

    Returns ``(1 - lam) rho + lam I / dim``; the trace is preserved exactly.
    """
    if rho.dim != channel.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, channel {channel.dim}")
    lam = channel.lam
    out = (1.0 - lam) * rho.matrix + (lam / channel.dim) * np.eye(channel.dim)
    return DensityMatrix(out)


def depolarize(rho: DensityMatrix, lam: float) -> DensityMatrix:
    """Shorthand for applying depolarizing noise of level ``lam``."""
    return apply_depolarizing(DepolarizingChannel(lam, rho.dim), rho)


@dataclass(frozen=True)
class ProblemSpec:
    """A state-discrimination instance.

    Parameters
    ----------
    states : sequence of DensityMatrix
        The candidate states, all of the same dimension.
    priors : array_like
        Prior probabilities, nonnegative and summing to one.
    noise_lambda : float
        Depolarizing noise level assumed when the instance is solved or
        evaluated (the sender's states pass through this channel).
    """

    states: tuple
    priors: np.ndarray
    noise_lambda: float = 0.0

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) < 2:
            raise ValueError("need at least two states to discriminate")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise ValueError("all states must share the same dimension")
        priors = np.asarray(self.priors, dtype=float).ravel()
        if priors.size != len(states):
            raise ValueError("need one prior per state")
        if not np.all(np.isfinite(priors)):
            raise ValueError(f"priors must be finite, got {priors!r}")
        if np.any(priors < 0):
            raise ValueError("priors must be nonnegative")
        if abs(float(priors.sum()) - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"priors must sum to 1, got {priors.sum()!r}")
        if not 0.0 <= self.noise_lambda <= 1.0:
            raise ValueError("noise_lambda must be in [0, 1]")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", _readonly(priors))

    @classmethod
    def from_states(cls, states, priors=None, noise_lambda: float = 0.0) -> "ProblemSpec":
        """Build an instance from pure states and/or density matrices.

        ``priors`` defaults to the uniform distribution.
        """
        dms = [s if isinstance(s, DensityMatrix) else density_of(s) for s in states]
        if priors is None:
            priors = np.full(len(dms), 1.0 / len(dms))
        return cls(states=tuple(dms), priors=priors, noise_lambda=noise_lambda)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def num_states(self) -> int:
        return len(self.states)

    def with_noise(self, noise_lambda: float) -> "ProblemSpec":
        """Copy of this instance with a different assumed noise level."""
        return ProblemSpec(self.states, self.priors, noise_lambda)

    def noisy_states(self) -> list:
        """The candidate states after this instance's depolarizing noise."""
        return [depolarize(s, self.noise_lambda) for s in self.states]


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure with labeled elements.

    ``labels[j]`` is either an integer state index (a conclusive element
    identifying that state) or :data:`INCONCLUSIVE`.  Conclusive labels must
    cover ``0..k-1`` exactly once and at most one element may be
    inconclusive.
    """

    dim: int
    elements: tuple
    labels: tuple

    def __post_init__(self):
        if not self.dim >= 1 or len(self.elements) == 0:
            raise ValueError(f"a POVM needs dim >= 1 and at least one element, got dim "
                             f"{self.dim} and {len(self.elements)} elements")
        elements = tuple(_readonly(np.asarray(e, dtype=complex)) for e in self.elements)
        labels = tuple(self.labels)
        if len(elements) != len(labels):
            raise ValueError("need one label per element")
        for e in elements:
            if e.shape != (self.dim, self.dim):
                raise ValueError(f"element shape {e.shape} does not match dim {self.dim}")
            herm_dev = float(np.max(np.abs(e - e.conj().T)))
            if not herm_dev <= POVM_HERMITIAN_TOL:
                raise ValueError(f"element is not Hermitian: deviation {herm_dev:.3e}")
            min_eig = float(np.linalg.eigvalsh(0.5 * (e + e.conj().T))[0])
            if not min_eig >= -POVM_PSD_TOL:
                raise ValueError(f"element is not PSD: min eigenvalue {min_eig:.3e}")
        total = sum(elements)
        completeness = float(np.linalg.norm(total - np.eye(self.dim)))
        if not completeness <= POVM_COMPLETENESS_TOL:
            raise ValueError(f"elements do not sum to identity: ||sum - I||_F = {completeness:.3e}")
        conclusive = sorted(l for l in labels if l != INCONCLUSIVE)
        num_inc = sum(1 for l in labels if l == INCONCLUSIVE)
        if num_inc > 1:
            raise ValueError("at most one inconclusive element is allowed")
        if conclusive != list(range(len(conclusive))):
            raise ValueError(f"conclusive labels must cover 0..k-1 exactly once, got {conclusive}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "labels", labels)

    @property
    def num_conclusive(self) -> int:
        return sum(1 for l in self.labels if l != INCONCLUSIVE)

    def element(self, label) -> np.ndarray:
        """The element carrying ``label``; zero matrix for a missing inconclusive."""
        for l, e in zip(self.labels, self.elements):
            if l == label:
                return e
        if label == INCONCLUSIVE:
            return np.zeros((self.dim, self.dim), dtype=complex)
        raise KeyError(label)


# --------------------------------------------------------------------------
# Benchmark state families
# --------------------------------------------------------------------------

def make_coherent_state(alpha: complex, num_qubits: int) -> PureState:
    """Coherent state of amplitude ``alpha`` truncated to ``2**num_qubits`` levels.

    The amplitudes follow ``c_n = alpha**n / sqrt(n!)`` for
    ``n = 0 .. 2**num_qubits - 1`` and are renormalized after truncation.
    The factor ``alpha**n / sqrt(n!)`` is accumulated multiplicatively to
    stay finite for deep truncations.  An ``alpha`` whose amplitudes or
    their norm are not finite (NaN, or too large) raises ``ValueError``.
    """
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}")
    levels = 2 ** num_qubits
    amps = np.empty(levels, dtype=complex)
    term = 1.0 + 0.0j
    amps[0] = term
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, levels):
            term = term * alpha / math.sqrt(n)
            amps[n] = term
        norm = np.linalg.norm(amps)
    if not np.isfinite(norm):
        raise ValueError(f"coherent state is not normalized: alpha={alpha!r}, "
                         f"num_qubits={num_qubits} give the norm {norm}")
    amps /= norm
    return PureState(amps)


def make_benchmark_two_qubit_states(a=(0.2, 0.5, 0.7)) -> list:
    """Three nearly orthogonal two-qubit states.

    ``|psi_i> = (|b_(i-1)> + a_i |11>) / sqrt(1 + a_i^2)`` where ``b_0, b_1,
    b_2`` are the computational states ``|00>, |01>, |10>``.
    """
    if len(a) != 3:
        raise ValueError("need exactly three amplitudes")
    out = []
    for i, a_i in enumerate(a):
        amps = np.zeros(4, dtype=complex)
        amps[i] = 1.0
        amps[3] = a_i
        amps /= math.sqrt(1.0 + float(a_i) ** 2)
        out.append(PureState(amps))
    return out


def make_single_qubit_pair() -> list:
    """The nonorthogonal single-qubit pair ``|0>`` and ``(|0> + |1>)/sqrt(2)``."""
    zero = PureState(np.array([1.0, 0.0], dtype=complex))
    plus = PureState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))
    return [zero, plus]
