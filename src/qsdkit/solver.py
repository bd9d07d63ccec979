"""First-order operator-splitting solver for small conic programs.

Solves

    minimize    c'x + (1/2) x' diag(q) x
    subject to  A x = b,   x in K

where ``K`` is a product of complex-Hermitian PSD cones (parametrized over
the reals, see :func:`svec`), nonnegative orthants, and free blocks.
Inequalities are expected to be encoded by the caller with nonnegative slack
variables.

A program may also carry block-sum rows ``sum_j x[o_j : o_j + L] = r``
(the completeness constraint of a POVM is one such set of rows).  The rows
have disjoint supports, so the affine step eliminates them in closed form;
only the small Schur complement of the rows of ``A`` is factored, and it is
refactored whenever the penalty changes.

The method is ADMM on the splitting ``f(x) = c'x + q-term + indicator{Ax=b}``,
``g(z) = indicator{z in K}``: an affine projection (block-sum rows solved
through a diagonal, the other rows through a cached Cholesky factorization
of their Schur complement), a cone projection per block (eigenvalue
clipping for PSD blocks), and a scaled dual update.  Every 100 iterations
residual balancing scales the penalty parameter by the square root of the
residual ratio (OSQP's rule).  Safeguarded Anderson acceleration takes its
weights from the normal equations of a Gram matrix that each iteration
updates by one matrix-vector product.  Everything is deterministic: fixed
zero initialization, no randomized internals.

Over a region of its domain the fixed-point map can be a translation: for
hundreds of iterations ``z`` then moves by the same step while ``u`` stays
put, the residuals stay frozen, and Anderson sees only zero differences.  A
ray step detects such a drift from two equal consecutive residuals and jumps
along it by doubling multiples of the residual while the point reached is
still on it, so a drift of N steps ends in about log2 N of them (N / 1024
past the cap on a jump).  On a program without an optimum the residual is
Banjac, Goulart, Stellato and Boyd's certificate ("Infeasibility detection
in the alternating direction method of multipliers for convex
optimization", JOTA 2019): its ``u`` half of primal infeasibility, its
``z`` half of unboundedness.  The solve checks it every 100 iterations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .states import DRIFT_RTOL, RAY_RTOL, ZERO_ROW_NORM, ZERO_ROW_RHS_TOL

_SQRT2 = math.sqrt(2.0)


# --------------------------------------------------------------------------
# Cone blocks and the svec parametrization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdCone:
    """Complex-Hermitian PSD cone of matrix dimension ``dim``.

    The real parametrization has length ``dim**2``: diagonal entries, then
    upper-triangle real parts scaled by sqrt(2), then upper-triangle
    imaginary parts scaled by sqrt(2).  The scaling makes the Euclidean
    inner product of two parametrizations equal the Frobenius inner product
    ``Re Tr(A B)`` of the matrices.
    """

    dim: int

    @property
    def size(self) -> int:
        return self.dim * self.dim


@dataclass(frozen=True)
class NonNegCone:
    size: int


@dataclass(frozen=True)
class FreeCone:
    size: int


@functools.lru_cache(maxsize=64)
def _index_plan(dim: int) -> tuple:
    """Flat index arrays relating a ``dim x dim`` matrix to its svec coordinates.

    ``svec_src`` picks, from the float view of a row-major complex matrix
    (real and imaginary parts interleaved), the diagonal real parts, then the
    upper-triangle real parts, then the upper-triangle imaginary parts.
    ``smat_src`` picks each matrix entry, in row-major order, from the row
    ``[diagonal, upper, lower]`` that :func:`_smat_batch` concatenates.
    Both are read-only, as every caller shares them.
    """
    rows, cols = np.triu_indices(dim, k=1)
    t = rows.size
    diag = np.arange(dim) * (dim + 1)
    upper = rows * dim + cols
    svec_src = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    smat_src = np.empty(dim * dim, dtype=np.intp)
    smat_src[diag] = np.arange(dim)
    smat_src[upper] = dim + np.arange(t)
    smat_src[cols * dim + rows] = dim + t + np.arange(t)
    svec_src.setflags(write=False)
    smat_src.setflags(write=False)
    return svec_src, smat_src


def svec(m: np.ndarray) -> np.ndarray:
    """Real parametrization of a complex Hermitian matrix (inner-product preserving)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _svec_batch(m[None])[0]


def smat(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    if v.size != dim * dim:
        raise ValueError(f"vector length {v.size} does not match dim {dim}")
    return _smat_batch(v.reshape(1, dim * dim), dim)[0]


def _smat_batch(v: np.ndarray, dim: int) -> np.ndarray:
    """(nb, dim**2) stacked svec coordinates -> (nb, dim, dim) Hermitian matrices."""
    t = dim * (dim - 1) // 2
    upper = (v[:, dim:dim + t] + 1j * v[:, dim + t:]) / _SQRT2
    rows = np.concatenate((v[:, :dim], upper, upper.conj()), axis=1)
    return rows[:, _index_plan(dim)[1]].reshape(-1, dim, dim)


def _svec_batch(m: np.ndarray) -> np.ndarray:
    """(nb, dim, dim) complex matrices -> (nb, dim**2) svec coordinates."""
    nb, dim = m.shape[0], m.shape[1]
    parts = np.ascontiguousarray(m).reshape(nb, dim * dim).view(float)
    out = parts[:, _index_plan(dim)[0]]
    out[:, dim:] *= _SQRT2
    return out


def _psd_clip(mats: np.ndarray) -> np.ndarray:
    """(nb, dim, dim) Hermitian matrices with their negative eigenvalues set to 0."""
    w, u = np.linalg.eigh(mats)
    np.maximum(w, 0.0, out=w)
    return (u * w[:, None, :]) @ u.conj().transpose(0, 2, 1)


def psd_project(m: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: symmetrize, clip negative eigenvalues."""
    m = np.asarray(m, dtype=complex)
    return _psd_clip(0.5 * (m + m.conj().T)[None])[0]


# --------------------------------------------------------------------------
# Program and solution containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeProgram:
    """A conic program in the solver's standard form (minimization).

    The equality constraints are the rows of ``A x = b`` and, when
    ``block_sum = (offsets, rhs)`` is given, the ``L = len(rhs)`` block-sum
    rows ``sum_j x[o_j : o_j + L] = rhs``.  Each offset must start a
    distinct block of size ``L``.  In the constraint system the block-sum
    rows come first, then the rows of ``A``; ``A`` is dense and may have no
    rows.

    The program is stored in one form: ``quad_diag`` is a vector, zeros when
    it is not given, and ``block_sum`` is ``None`` or the pair above, with
    ``offsets`` a tuple of ints and ``rhs`` a float vector.  Every entry of
    ``c``, ``A``, ``b`` and ``quad_diag`` must be finite, and ``quad_diag``
    nonnegative.
    """

    blocks: tuple
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    quad_diag: np.ndarray | None = None
    block_sum: tuple | None = None

    def __post_init__(self):
        n = sum(blk.size for blk in self.blocks)
        c = np.asarray(self.c, dtype=float).ravel()
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        q = np.zeros(n) if self.quad_diag is None else np.asarray(self.quad_diag, dtype=float)
        q = q.ravel()
        if c.size != n:
            raise ValueError(f"objective length {c.size} does not match variable count {n}")
        if A.shape != (b.size, n):
            raise ValueError(f"constraint shape {A.shape} does not match ({b.size}, {n})")
        for field, value in (("c", c), ("A", A), ("b", b), ("quad_diag", q)):
            if not np.isfinite(value).all():
                raise ValueError(f"{field} has non-finite entries")
        if q.size != n or np.any(q < 0):
            raise ValueError("quad_diag must be a nonnegative vector of the variable length")
        object.__setattr__(self, "quad_diag", q)
        if self.block_sum is not None:
            object.__setattr__(self, "block_sum", self._check_block_sum())
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def _check_block_sum(self) -> tuple:
        if not isinstance(self.block_sum, tuple) or len(self.block_sum) != 2:
            raise ValueError("block_sum must be None or the pair (offsets, rhs)")
        offsets, rhs = self.block_sum
        offsets = tuple(int(o) for o in offsets)
        rhs = np.asarray(rhs, dtype=float).ravel()
        starts, off = {}, 0
        for blk in self.blocks:
            starts[off] = blk
            off += blk.size
        if not offsets:
            raise ValueError("block_sum needs at least one offset")
        if len(set(offsets)) != len(offsets):
            raise ValueError(f"block_sum offsets {offsets} repeat a block")
        for o in offsets:
            if o not in starts:
                raise ValueError(f"block_sum offset {o} does not start a block")
            if starts[o].size != rhs.size:
                raise ValueError(f"block_sum block at offset {o} has size {starts[o].size}, "
                                 f"but rhs has length {rhs.size}")
        return offsets, rhs

    @property
    def num_vars(self) -> int:
        return self.c.size


#: Default residual tolerance and iteration budget of :func:`solve`, shared by
#: the scheme wrappers and the ``qsd`` command line.
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200_000

#: Initial ADMM penalty of :func:`solve` (rebalanced as it runs); a nonzero
#: quadratic term starts it small, so the quadratic dominates the proximal step.
_INITIAL_RHO, _INITIAL_RHO_QUAD = 1.0, 0.02
_OVER_RELAX = 1.6  # over-relaxation factor of the splitting step
_RAY_MAX_STEP = 1024.0  # the ray step's longest jump, in multiples of the residual

OPTIMAL = "optimal"
MAX_ITERS = "max_iters"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    status: str
    primal_residual: float
    dual_residual: float
    objective: float
    iterations: int


# --------------------------------------------------------------------------
# The solver
# --------------------------------------------------------------------------

class _ConeProjector:
    """Blockwise projection onto K; PSD blocks of equal dimension are batched.

    Each group of equal-dimension PSD blocks owns an (nb, dim**2) index
    array of its coordinates in the variable vector, so the group is read
    with one gather and written back with one scatter.
    """

    def __init__(self, blocks):
        self.nonneg_mask = np.zeros(sum(b.size for b in blocks), dtype=bool)
        offsets = {}  # dim -> offsets of its blocks, in block order
        off = 0
        for blk in blocks:
            if isinstance(blk, NonNegCone):
                self.nonneg_mask[off:off + blk.size] = True
            elif isinstance(blk, PsdCone):
                offsets.setdefault(blk.dim, []).append(off)
            elif not isinstance(blk, FreeCone):
                raise TypeError(f"unknown cone block {blk!r}")
            off += blk.size
        self.psd_groups = [(dim, np.asarray(offs)[:, None] + np.arange(dim * dim))
                           for dim, offs in offsets.items()]

    def __call__(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the projection of ``v`` into ``out`` and return ``out``."""
        out[...] = v
        np.maximum(out, 0.0, where=self.nonneg_mask, out=out)
        for dim, index in self.psd_groups:
            out[index] = _svec_batch(_psd_clip(_smat_batch(v[index], dim)))
        return out


class _AffineProjector:
    """Projection onto a program's constraint system in the metric ``D = diag(q) + rho*I``.

    The constructor owns all row scaling.  The rows are the ``L`` block-sum
    rows ``C``, each scaled by ``1/sqrt(m)`` for its ``m`` unit entries,
    then the rows ``R`` of ``A``, each scaled to unit norm by
    :func:`_row_scale`, which drops a zero row.  The multipliers ``mu`` of a
    point ``t`` solve ``[C; R] D^-1 [C; R]' mu = [C; R] t - rhs``.  The rows of ``C`` have
    disjoint supports, so ``Delta = C D^-1 C'`` is diagonal, ``C x`` is a
    gather-sum over the blocks and ``C' mu`` a scatter.  With
    ``K = R D^-1 C'`` only the Schur complement ``S = R D^-1 R' - K Delta^-1 K'``,
    one row and column per row of ``A``, is factored.  Without ``block_sum``
    ``L = 0``: the index array has shape ``(0, 0)``, ``rhs`` and ``Delta``
    are empty, and ``S = R D^-1 R'``; with no rows at all the step moves
    nothing.

    :meth:`set_rho` sets the penalty of the metric, which :meth:`project`
    reads, and factors ``S`` (at most 25 rows for a scheme program of the
    benchmark workloads) by Cholesky, or by a pseudoinverse (least-squares
    multiplier) when redundant rows make it singular.
    """

    def __init__(self, program: ConeProgram):
        scale = _row_scale(np.linalg.norm(program.A, axis=1), program.b)
        keep = scale != 0.0
        self.A = program.A[keep] * scale[keep, None]
        self.AT = self.A.T.copy()
        self.b = program.b[keep] * scale[keep]
        self.quad = program.quad_diag
        offsets, rhs = program.block_sum or ((), np.zeros(0))
        self.scale = 1.0 / math.sqrt(max(len(offsets), 1))
        # (m, L) coordinates of the summed blocks: column t is row t's support.
        self.index = np.asarray(offsets, dtype=np.intp)[:, None] + np.arange(rhs.size)
        self.rhs = rhs * self.scale
        self.rhs_norm = math.sqrt(self.b @ self.b + self.rhs @ self.rhs)

    @staticmethod
    def _make_solver(m):
        """Solver for ``m @ mu = r``; ``r`` is a temporary it may overwrite."""
        try:
            factor, lower = scipy.linalg.cho_factor(m, check_finite=False)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            pinv = np.linalg.pinv(m, rcond=1e-12)
            return lambda r: pinv @ r
        # The LAPACK routine scipy.linalg.cho_solve ends in, without its
        # per-call argument checks.
        potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (factor,))

        def solve(r):
            mu, info = potrs(factor, r, lower=lower, overwrite_b=True)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of potrs")
            return mu
        return solve

    def set_rho(self, rho):
        """Set the metric to the penalty ``rho``: ``D^-1``, ``Delta``, ``K`` and ``S``'s solve."""
        self._rho = rho
        self._d_inv = d_inv = 1.0 / (self.quad + rho)
        a_dinv = self.A * d_inv
        self._k = self.scale * self._block_sums(a_dinv)
        self._delta = self.scale * self.scale * d_inv[self.index].sum(axis=0)
        self._solve = None
        if self.b.size:
            # A C-contiguous right operand: the transposed view rounds S differently.
            k_part = self._k @ (self._k.T.copy() / self._delta[:, None])
            self._solve = self._make_solver(a_dinv @ self.AT - k_part)

    def _block_sums(self, v):
        """The unscaled block-sum rows applied to ``v`` (n,) or each row of ``v`` (nb, n)."""
        return v[..., self.index].sum(axis=-2)

    def _multiplier_image(self, t):
        """``[C; R]' mu`` for the multipliers ``mu`` of the point ``t``.

        ``mu_C = Delta^-1 (C t - rhs - K' mu_R)``, where ``mu_R`` solves
        ``S mu_R = R t - b - K Delta^-1 (C t - rhs)``.
        """
        mu_c = (self.scale * self._block_sums(t) - self.rhs) / self._delta
        if self._solve is None:
            out = np.zeros_like(t)
        else:
            mu = self._solve(self.A @ t - self.b - self._k @ mu_c)
            mu_c -= (self._k.T @ mu) / self._delta
            out = self.AT @ mu
        out[self.index] += self.scale * mu_c
        return out

    def project(self, v, c):
        """argmin c'x + q-term + (rho/2)||x - v||^2 subject to the constraints."""
        t = self._d_inv * (self._rho * v - c)
        return t - self._d_inv * self._multiplier_image(t)

    def residual(self, x) -> float:
        """Norm of the equilibrated constraint residual at ``x``, all rows."""
        r_c = self.scale * self._block_sums(x) - self.rhs
        r = self.A @ x - self.b
        return math.sqrt(r_c @ r_c + r @ r)


def _row_scale(norms, rhs):
    """``1 / norms``, with 0 for a zero row (norm <= ``ZERO_ROW_NORM``), whose rhs must vanish."""
    keep = norms > ZERO_ROW_NORM
    if np.any(np.abs(rhs[~keep]) > ZERO_ROW_RHS_TOL):
        raise ValueError("constraint system contains an inconsistent zero row")
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=keep)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector; the same arithmetic as ``np.linalg.norm``."""
    return math.sqrt(v @ v)


class _AndersonMemory:
    """Safeguarded type-II Anderson acceleration of the splitting map.

    Keeps the last ``mem`` iterate/image pairs of the fixed-point map
    ``w = (z, u) -> F(w)`` and proposes the residual-minimizing affine
    combination of the images.  Candidates are only adopted when their own
    fixed-point residual beats the plain step's, so acceleration can never
    drive the iteration away from the solution.  Everything is deterministic.

    The history lives in two preallocated row-major buffers of ``size``
    rows and ``2 * mem`` columns: ``images`` holds the images ``F(w_j)``,
    and ``diffs`` the differences ``r_j - r_{j-1}`` of consecutive
    residuals ``r_j = w_j - F(w_j)``, each computed once, when pair ``j`` is
    pushed, and stored in pair ``j``'s slot.  The pairs rotate through
    ``mem`` slots, and each column is written twice, to its slot ``s`` and
    to ``s + mem``, so the newest ``k`` columns are always one slice of the
    buffer in chronological order, oldest first, and a push shifts nothing.

    The least-squares weights solve the normal equations of the window,
    ``(G + r I) gamma = D' r_last`` for the window's differences ``D``, as
    in SCS 3 (Zhang, O'Donoghue, Boyd, SIAM J. Optim. 2020).  ``gram`` holds
    ``G + r I`` in chronological order: a push shifts out the oldest row and
    column when the window is full and writes the inner products of its
    difference with the window's, one matrix-vector product, so a candidate
    costs O(size * mem) rather than an SVD.  The ridge ``r = RIDGE`` only
    keeps a window of zero differences solvable; a singular window gives no
    candidate.
    """

    RIDGE = 1e-300

    def __init__(self, mem: int, size: int):
        self.mem = mem
        self.images = np.empty((size, 2 * mem))
        self.diffs = np.empty((size, 2 * mem))
        self.gram = np.empty((mem - 1, mem - 1))
        self.last = None  # newest residual
        self.count = 0
        self.slot = -1  # slot of the newest pair

    def clear(self):
        self.count = 0
        self.last = None

    def push(self, fw, residual):
        """Record the pair ``(w, F(w))`` as ``F(w)`` and its residual ``w - F(w)``."""
        j = (self.slot + 1) % self.mem
        self.images[:, j] = fw
        self.images[:, j + self.mem] = fw
        had = self.count
        self.count = min(had + 1, self.mem)
        self.slot = j
        m = self.count - 1  # differences in the window
        if m > 0:
            diff = residual - self.last
            self.diffs[:, j] = diff
            self.diffs[:, j + self.mem] = diff
            if had == self.mem:
                self.gram[:m - 1, :m - 1] = self.gram[1:m, 1:m]
            end = j + self.mem + 1
            products = diff @ self.diffs[:, end - m:end]
            self.gram[m - 1, :m] = products
            self.gram[:m, m - 1] = products
            self.gram[m - 1, m - 1] += self.RIDGE
        self.last = residual

    def candidate(self):
        k = self.count
        if k < 3:
            return None
        end = self.slot + self.mem + 1
        try:
            gamma = np.linalg.solve(self.gram[:k - 1, :k - 1],
                                    self.last @ self.diffs[:, end - k + 1:end])
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(gamma).all():
            return None
        theta = np.zeros(k)
        theta[-1] = 1.0
        theta[1:] -= gamma
        theta[:-1] += gamma
        return self.images[:, end - k:end] @ theta


def _penalty_factor(pri_res: float, dual_res: float) -> float:
    """Factor by which residual balancing scales the penalty ``rho``.

    When one residual exceeds five times the other the factor is
    ``sqrt(pri_res / dual_res)`` (the square-root rule of OSQP, Stellato et
    al. 2020), clipped to ``[1e-3, 1e3]``; a zero dual residual takes the
    upper clip.  Otherwise it is 1.
    """
    if not (pri_res > 5.0 * dual_res or dual_res > 5.0 * pri_res):
        return 1.0
    if dual_res == 0.0:
        return 1e3
    return min(max(math.sqrt(pri_res / dual_res), 1e-3), 1e3)


def _primal_drift(residual, residual_norm: float, previous, n: int) -> bool:
    """Whether the fixed-point residual ``residual`` of ``w = (z, u)`` is a drift of ``z``.

    It is when it is nonzero, repeats ``previous`` (the residual of the
    iteration before, or ``None``), and its ``u`` half ``residual[n:]``
    vanishes, each to within ``DRIFT_RTOL`` of ``residual_norm``: the
    iteration then moves ``z`` along a straight line by equal steps while
    ``u`` stays put.  A primal-infeasible program drifts in ``u`` instead.
    """
    bound = DRIFT_RTOL * residual_norm
    # The u half is tested first: it is the cheaper test, and the one that
    # fails on most iterations that are not a drift.
    return (previous is not None and residual_norm > 0.0
            and _norm(residual[n:]) <= bound and _norm(residual - previous) <= bound)


def _on_ray(candidate_norm: float, residual_norm: float) -> bool:
    """Whether a point tried along a drift, of residual norm ``candidate_norm``, is still on it."""
    return candidate_norm <= (1.0 + RAY_RTOL) * residual_norm


def _no_optimum(residual, x, c, project_cone, affine) -> bool:
    """Whether the fixed-point residual of ``w = (z, u)`` certifies that no optimum exists.

    ``s = residual[n:]`` certifies primal infeasibility when it is in K and
    in the row space of the constraints, and ``s'x < 0`` at the affine
    iterate ``x`` (K is self-dual but on free blocks, where ``u`` is zero).
    ``d = -residual[:n]`` certifies unboundedness when it is in K, the rows
    and ``diag(q)`` annihilate it, and ``c'd < 0``.  Each membership holds
    to ``DRIFT_RTOL`` of the vector's norm.  The difference
    ``affine.project(v, 0) - affine.project(0, 0)`` projects
    ``rho D^-1 v`` onto the null space of the rows in the affine step's
    metric ``D``: it is zero exactly when ``v`` is in the row space, and
    ``v`` exactly when the rows and ``diag(q)`` annihilate ``v``.
    """
    n = x.size

    def holds(v, null_part):
        bound = DRIFT_RTOL * _norm(v)
        moved = affine.project(v, 0.0) - affine.project(np.zeros(n), 0.0)
        return (_norm(moved - null_part) <= bound
                and _norm(project_cone(v, out=np.empty(n)) - v) <= bound)

    s, d = residual[n:], -residual[:n]
    return (s @ x < 0.0 and holds(s, 0.0)) or (c @ d < 0.0 and holds(d, d))


def solve(program: ConeProgram, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
          acceleration: int = 10) -> Solution:
    """Solve a :class:`ConeProgram` to the requested residual tolerance.

    Returns the last iterate, whatever the status, with that iterate's own
    primal and dual residuals and objective.  The reported ``x`` is the
    affine-step iterate, which satisfies ``Ax = b`` to factorization accuracy;
    its cone violation is bounded by the primal residual.

    ``acceleration`` is the Anderson memory size (0 disables it).

    Each iteration forms the fixed-point residual ``r = w - F(w)`` of the
    iterate ``w = (z, u)``.  When ``r`` repeats the previous iteration's and
    its ``u`` half vanishes, each to within ``DRIFT_RTOL`` of ``|r|``
    (:func:`_primal_drift`), the iteration is drifting along a straight
    line, and a ray step tries ``w - t r`` at the cost of one more splitting
    step.  If that point's residual norm is at most ``(1 + RAY_RTOL) |r|``
    it is still on the drift (:func:`_on_ray`) (past the region where the map is a
    translation the residual grows): its image becomes the next iterate,
    ``t`` doubles up to ``_RAY_MAX_STEP`` and the Anderson memory is
    cleared.  Otherwise ``t`` returns to 2, its starting value, and the
    iteration takes its usual step.  Iterations that never drift take
    exactly the path they take without the ray step; a primal-infeasible
    program drifts in ``u`` and takes no ray step.

    Status is ``optimal`` when both normalized residuals fall below ``tol``
    and the affine system holds, ``infeasible`` when a check made every 100
    iterations finds the residual a certificate that the program is primal
    infeasible or unbounded (:func:`_no_optimum`), and ``max_iters`` otherwise.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    n = program.num_vars
    c = program.c
    rho = _INITIAL_RHO_QUAD if program.quad_diag.any() else _INITIAL_RHO
    project_cone = _ConeProjector(program.blocks)
    affine = _AffineProjector(program)
    affine.set_rho(rho)
    affine_tol = tol * (1.0 + affine.rhs_norm)

    def step(w):
        """One splitting step from ``w = (z, u)``; returns ``x`` and ``F(w)``."""
        z, u = w[:n], w[n:]
        x = affine.project(z - u, c)
        x_relaxed = _OVER_RELAX * x + (1.0 - _OVER_RELAX) * z
        fw = np.empty(2 * n)
        z_new = project_cone(x_relaxed + u, out=fw[:n])
        np.subtract(u + x_relaxed, z_new, out=fw[n:])
        return x, fw

    # The iterate (z, u) and its image are kept as halves of one vector, the
    # form Anderson acceleration works on.
    w = np.zeros(2 * n)
    anderson = _AndersonMemory(acceleration, 2 * n) if acceleration > 0 else None

    previous = None  # the last iteration's residual w - F(w)
    ray = 2.0  # length of the next ray step, in residuals
    status = MAX_ITERS
    for it in range(1, max_iters + 1):
        x, fw = step(w)
        z_new, u_new = fw[:n], fw[n:]
        z_norm, u_norm = _norm(z_new), _norm(u_new)
        residual = w - fw
        pri_res = _norm(x - z_new) / (1.0 + max(_norm(x), z_norm))
        dual_res = rho * _norm(residual[:n]) / (1.0 + rho * u_norm)

        if pri_res <= tol and dual_res <= tol:
            # Verify the affine system directly before declaring optimality;
            # the normalized residuals alone can look converged at a
            # numerically degenerate point (e.g. after a wild extrapolation).
            if affine.residual(x) <= affine_tol:
                status = OPTIMAL
                break

        residual_norm = _norm(residual)
        # The ray step (see above): a jump that lands on the drift doubles
        # the next; one that overshoots its end is dropped, and the next
        # starts again at 2.
        on_ray = False
        if _primal_drift(residual, residual_norm, previous, n):
            cand = w - ray * residual
            _, fw_cand = step(cand)
            on_ray = _on_ray(_norm(cand - fw_cand), residual_norm)
            ray = min(2.0 * ray, _RAY_MAX_STEP) if on_ray else 2.0
        previous = residual
        if on_ray:
            fw = fw_cand
            if anderson is not None:
                anderson.clear()
        elif anderson is not None:
            anderson.push(fw, residual)
            cand = anderson.candidate()
            if cand is not None and _norm(cand) <= 1e4 * (1.0 + _norm(w)):
                _, fw_cand = step(cand)
                if _norm(cand - fw_cand) < residual_norm:
                    fw = fw_cand
        w = fw

        # Every 100 iterations the certificate check, then residual balancing
        # (_penalty_factor); u is rescaled so the unscaled dual variable rho*u
        # is untouched.  The fixed-point map changes with the penalty, so the
        # acceleration memory and the last residual are flushed.
        if it % 100 == 0:
            if _no_optimum(residual, x, c, project_cone, affine):
                status = INFEASIBLE
                break
            factor = _penalty_factor(pri_res, dual_res)
            if factor != 1.0:
                rho *= factor
                w[n:] /= factor
                affine.set_rho(rho)
                previous = None
                if anderson is not None:
                    anderson.clear()

    obj = float(c @ x) + 0.5 * float(x @ (program.quad_diag * x))
    return Solution(x=x, status=status, primal_residual=pri_res,
                    dual_residual=dual_res, objective=obj, iterations=it)
