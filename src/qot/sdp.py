"""Coupling semidefinite programs with a certified primal-dual gap.

The one problem type is the coupling SDP, built by ``coupling_problem``:
one complex Hermitian PSD block X_j per cost C_j, charged against that
cost, whose sum has fixed partial traces ``red_a`` (ra x ra) and ``red_b``
(rb x rb)::

    minimize    sum_j Tr[C_j X_j]
    subject to  Tr_B sum_j X_j = red_a,   Tr_A sum_j X_j = red_b,
                X_j >= 0                  (PSD, j = 1..k)

Every Hermitian block is embedded as a real symmetric block of twice the
size, E(A + iB) = [[A, -B], [B, A]], the real problem is solved by an
infeasible-start Mehrotra predictor-corrector primal-dual interior-point
method, and objective and constraint values are halved afterwards to undo
the trace doubling of the embedding.  Each iteration measures the iterate
(mu, gap, residuals), asks ``_stop`` whether the records so far end the
solve, and otherwise takes one ``_ipm_step``.  The k blocks form one
(k, 2n, 2n) stack: X, S, S^-1, the dual residuals and the directions are
stacks, and A^T y, the same for every block, is one 2n x 2n matrix that
broadcasts over them.  Only the LAPACK calls loop over the blocks.  No step
projects onto the affine constraints: the search direction solves
A dX = b - A X, so a primal step of length alpha scales the primal residual
by 1 - alpha, and a full step leaves only rounding.  The solver is
deterministic: identical problems and tolerances take identical iteration
paths.

The dual side runs at half the embedded size.  S, the dual residual and dS
are sums of embeddings, scaled and symmetrized entry by entry, so they stay
on the image of E exactly, and each S block is read as its complex n x n
matrix.  X drifts off the image by rounding and stays real.  Each iteration
factors the Schur complement once, for both the predictor and the corrector
solve, and each S and each X block once: the complex factor of S gives its
inverse T (and S^-1 = E(T) for the products with X), and both factors serve
the predictor's and the corrector's step lengths.  An X that is not
numerically PD is factored shifted, as X + shift*I.  The hot loop calls
LAPACK directly through the handles of the ``_lapack`` module, since at a
few dozen rows scipy's wrappers cost more than the routines: potrf and potrs
for the factors, T and the Schur solves; sygst and syevx for the step
lengths on X, hegst and heevx for those on S.  The calls pass what
``cho_factor`` and ``cho_solve`` passed, and gst and evx are the calls the
gvx of ``eigh`` makes after its potrf, so each result is the one scipy's
wrappers give bit for bit, and non-finite input still raises ValueError.

The problem is stated in coordinates scaled by the marginals, so that
near-singular marginals keep every iterate well conditioned.  The solver
reaches the constraints through one operator that applies them as partial
traces and Kronecker products in O(ra^2 rb^2), and assembles the Schur
complement on complex n x n blocks from the Kronecker structure in
O(ra^3 rb^3) time and O(ra^2 rb^2) extra memory (the constraint-structure
trick of Fujisawa, Kojima and Nakata 1997).  No dense constraint stack is
built.  Intended scale: marginals up to ra*rb of a few hundred.  Singular
marginals have no strictly feasible coupling; build couplings on marginal
supports instead (see the transport module).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from . import _lapack
from .quantum import DimensionMismatchError, HermitianOperator, hermitian_basis

__all__ = [
    "CouplingProblem",
    "SdpSolution",
    "SolverFailure",
    "solve",
    "coupling_problem",
    "coupling_solution",
    "complex_to_real_embedding",
    "feasibility_margin",
    "STATUS_OPTIMAL",
    "STATUS_MAX_ITERATIONS",
    "STATUS_UNCERTIFIED",
]

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
# a ``SolverFailure`` status only: the solve reached its tolerance, but the
# dual potentials read off it do not certify the value
STATUS_UNCERTIFIED = "uncertified"

DEFAULT_TOL = 1e-8
_MAX_ITER = 100
_STEP_FRACTION = 0.98


class SolverFailure(RuntimeError):
    """Raised by callers that require an optimal certificate and did not get one."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class CouplingProblem:
    """A coupling SDP as ``coupling_problem`` states it, for Y = W^-1 X W^-1
    with X the coupling and W = root_a (x) root_b, the square roots of the
    marginals.

    ``objective`` holds W C W for each cost C, one PSD block each.  The
    constraints are Tr[(basis_a[i] (x) red_b) Y] = Tr[basis_a[i]] for every
    i, then Tr[(red_a (x) basis_b[i]) Y] = Tr[basis_b[i]], on the sum Y of
    the blocks.  ``constraints`` lists them explicitly for independent
    checks; the solver never reads that list.
    """

    root_a: np.ndarray
    root_b: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    objective: tuple[HermitianOperator, ...]

    @property
    def red_a(self) -> np.ndarray:
        return self.root_a @ self.root_a

    @property
    def red_b(self) -> np.ndarray:
        return self.root_b @ self.root_b

    @property
    def blocks(self) -> tuple[int, ...]:
        return (self.root_a.shape[0] * self.root_b.shape[0],) * len(self.objective)

    @property
    def n_constraints(self) -> int:
        return self.basis_a.shape[0] + self.basis_b.shape[0]

    @property
    def rhs(self) -> np.ndarray:
        return np.array([np.trace(f).real for f in (*self.basis_a, *self.basis_b)])

    @property
    def constraints(self) -> tuple[tuple[tuple[HermitianOperator, ...], float], ...]:
        """``(coefficients, rhs)`` per constraint, one dense HermitianOperator
        per block; built on each read."""
        k, red_a, red_b = len(self.objective), self.red_a, self.red_b
        coeffs = [np.kron(f, red_b) for f in self.basis_a] + [np.kron(red_a, g) for g in self.basis_b]
        return tuple(((HermitianOperator(a),) * k, float(rhs)) for a, rhs in zip(coeffs, self.rhs))


@dataclass(frozen=True)
class SdpSolution:
    """An epsilon-optimal primal-dual pair with its certificates."""

    primal_blocks: tuple[np.ndarray, ...]
    dual_vector: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    primal_infeasibility: float
    status: str
    iterations: int


def complex_to_real_embedding(h) -> np.ndarray:
    """Embed a complex matrix H = A + iB as the real matrix [[A, -B], [B, A]];
    a stack of matrices, on the last two axes, embeds matrix by matrix.

    For Hermitian H the image is symmetric, PSD iff H is PSD, traces double,
    and every eigenvalue appears with doubled multiplicity.
    """
    m = np.asarray(h, dtype=complex)
    n, re, im = m.shape[-1], m.real, m.imag
    out = np.empty(m.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = re
    out[..., n:, n:] = re
    out[..., n:, :n] = im
    np.negative(im, out=out[..., :n, n:])
    return out


def feasibility_margin(blocks, problem: CouplingProblem) -> tuple[float, float]:
    """Recompute, from scratch, how good candidate primal blocks are.

    Returns ``(objective_value, residual)`` where ``objective_value`` is the
    primal objective evaluated at the candidate and ``residual`` is the worst
    violation over all affine constraints, Hermiticity, and PSD-ness (the
    magnitude of the most negative block eigenvalue).  Shares no code with
    the solver's own bookkeeping, so it certifies solver output independently.
    """
    mats = [np.asarray(x, dtype=complex) for x in blocks]
    if len(mats) != len(problem.blocks):
        raise DimensionMismatchError("one candidate matrix per block required")
    for x, n in zip(mats, problem.blocks):
        if x.shape != (n, n):
            raise DimensionMismatchError(f"candidate block shape {x.shape}, expected {(n, n)}")
    value = sum(np.trace(c.matrix @ x) for c, x in zip(problem.objective, mats)).real
    residual = 0.0
    for coeffs, rhs in problem.constraints:
        lhs = sum(np.trace(a.matrix @ x).real for a, x in zip(coeffs, mats) if a is not None)
        residual = max(residual, abs(lhs - rhs))
    for x in mats:
        residual = max(residual, float(np.max(np.abs(x - x.conj().T))))
        eigs = np.linalg.eigvalsh((x + x.conj().T) / 2)
        residual = max(residual, max(0.0, -float(eigs[0])))
    return float(value), float(residual)


def solve(problem: CouplingProblem, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Solve a ``coupling_problem`` to an absolute primal-dual gap of at most
    ``tol``.

    Status ``optimal`` means gap and max constraint residual are both below
    ``tol``.  Every other exit reports ``max_iterations``: a stall, the mu
    floor, a numerical breakdown (which returns the last consistent iterate)
    and the iteration cap.  The gap and residual are rechecked on the
    complex side, and an ``optimal`` exit that fails the recheck is demoted.
    """
    return _solve_embedded(problem.objective, problem.rhs, _CouplingOperator(problem), tol)


def _solve_embedded(objective, rhs, op, tol: float) -> SdpSolution:
    """The IPM, Mehrotra predictor-corrector with HKM direction, on the real
    embedding of the complex objective operators ``objective`` and
    right-hand side ``rhs``; ``op`` applies the constraints to (k, 2n, 2n)
    stacks and assembles the Schur complement.  The solution is reported on
    the complex side."""
    if not (1e-10 <= tol <= 1e-2):
        raise ValueError(f"tol must lie in [1e-10, 1e-2], got {tol}")
    c = complex_to_real_embedding([h.matrix for h in objective])
    # the rhs doubles with the traces of the embedding, and so does every
    # embedded quantity: target 2*tol
    b, eps = 2.0 * rhs, 2 * tol
    n_total = c.shape[0] * c.shape[1]
    scale_p = max(1.0, float(np.max(np.abs(b))))
    scale_d = max(1.0, float(np.max(np.linalg.norm(c, 2, axis=(1, 2)))))
    eye = np.broadcast_to(np.eye(c.shape[1]), c.shape)
    xs, ss, y = scale_p * eye, scale_d * eye, np.zeros(len(b))

    records, status = [], None
    for _ in range(_MAX_ITER):
        rds = c - ss - op.apply_at(y)
        mu = _inner(xs, ss) / n_total
        pinf = float(np.max(np.abs(b - op.apply_a(xs))))
        records.append(_Iterate(mu, _inner(c, xs) - float(b @ y), pinf, float(np.max(np.abs(rds)))))
        status = _stop(records, eps, scale_p, scale_d, n_total)
        if status is not None:
            break
        try:
            xs, ss, y = _ipm_step(op, b, xs, ss, y, rds, mu, n_total)
        except np.linalg.LinAlgError:
            # breakdown at extreme conditioning: report the last consistent iterate
            break

    # X drifts off the image of the embedding: average its two readings
    primal = _compression(xs) / 2
    # Tr[A X] as the elementwise sum of E(A)^T * E(X), halved: O(m n^2), no matmul.
    embedded = complex_to_real_embedding(primal)
    primal_value = _inner(c, embedded) / 2.0
    dual_value = float(y @ b) / 2.0
    infeas = float(np.max(np.abs(op.apply_a(embedded) - b))) / 2.0

    gap = float(primal_value - dual_value)
    # the cap and a breakdown end without a status
    if status != STATUS_OPTIMAL or gap > tol or infeas > tol:
        status = STATUS_MAX_ITERATIONS
    return SdpSolution(
        primal_blocks=tuple(primal),
        dual_vector=y.copy(),
        primal_value=float(primal_value),
        dual_value=dual_value,
        gap=gap,
        primal_infeasibility=float(infeas),
        status=status,
        iterations=len(records),
    )


class _Iterate(NamedTuple):
    """One measured IPM iterate, in embedded units: mu = <X, S>/n, the gap
    <C, X> - b^T y, and the largest primal and dual residual entries."""

    mu: float
    gap: float
    pinf: float
    dinf: float


def _stop(records, eps, scale_p, scale_d, n_total) -> str | None:
    """The status that ends the IPM after the iterates ``records``, or None.

    ``optimal`` when the last iterate has mu*n_total, |gap| and pinf at most
    ``eps`` and dinf at most eps*scale_d.  ``max_iterations`` on a stall,
    twelve iterates in a row whose score max(mu*n_total, pinf, dinf) is not
    below 0.7 times the best so far, or at the mu floor 1e-16*scale_d*scale_p.
    """
    last = records[-1]
    if last.mu * n_total <= eps and abs(last.gap) <= eps and last.pinf <= eps and last.dinf <= eps * scale_d:
        return STATUS_OPTIMAL
    best, stall = np.inf, 0
    for r in records:
        score = max(r.mu * n_total, r.pinf, r.dinf)
        if score < 0.7 * best:
            best, stall = score, 0
        else:
            stall += 1
    return STATUS_MAX_ITERATIONS if stall >= 12 or last.mu < 1e-16 * scale_d * scale_p else None


def coupling_problem(costs, red_a: np.ndarray, red_b: np.ndarray) -> CouplingProblem:
    """Coupling SDP over one PSD block per cost, charged against its own cost,
    whose sum couples the positive definite marginals ``red_a`` (ra x ra)
    and ``red_b`` (rb x rb).

    The problem is stated for Y = W^-1 X W^-1, with X the coupling and
    W = red_a^(1/2) (x) red_b^(1/2).  Y = I is then feasible whatever the
    spectra of the marginals.  A marginal eigenvalue eps, which in the
    coordinates of X gives the optimal dual vector entries of order
    eps^(-1/2) and the iterates eigenvalues far below eps, leaves Y and the
    dual vector of order one.  The objective is W C W for each cost C.  The
    marginal constraints Tr_B X = red_a and Tr_A X = red_b become
    Tr_B[(I (x) red_b) Y] = I and Tr_A[(red_a (x) I) Y] = I: constraint
    i < ra*ra is ``basis_a[i] (x) red_b`` with right-hand side
    Tr[basis_a[i]], and the remaining rb*rb - 1 constraints are
    ``red_a (x) basis_b[i]`` with right-hand side Tr[basis_b[i]].
    ``basis_a`` is ``hermitian_basis(ra)`` and ``basis_b`` is an orthonormal
    basis of the Hermitian matrices orthogonal to ``red_b`` (that direction
    would repeat the trace constraint).  Every constraint enters every
    block.

    Use ``coupling_solution`` to read the couplings and the marginal
    potentials off a solution.
    """
    red_a, red_b = np.asarray(red_a), np.asarray(red_b)
    root_a, root_b = _psd_sqrt(red_a), _psd_sqrt(red_b)
    w = np.kron(root_a, root_b)
    return CouplingProblem(
        root_a=root_a,
        root_b=root_b,
        basis_a=hermitian_basis(red_a.shape[0]),
        basis_b=_orthogonal_basis(red_b),
        objective=tuple(HermitianOperator(w @ cost @ w) for cost in costs),
    )


def coupling_solution(problem: CouplingProblem, solution: SdpSolution):
    """``(couplings, pot_a, pot_b)`` of a solved ``coupling_problem``.

    ``couplings`` holds X_j = W Y_j W for each block; the potentials are the
    dual vector in the coordinates of the marginals, so that
    pot_a (x) I + I (x) pot_b is dominated by every cost (up to the solver's
    tolerance) and Tr[pot_a red_a] + Tr[pot_b red_b] is the dual value.
    """
    ma = problem.basis_a.shape[0]
    y = solution.dual_vector
    w = np.kron(problem.root_a, problem.root_b)
    couplings = tuple(_hermitian(w @ x @ w) for x in solution.primal_blocks)
    inv_a, inv_b = np.linalg.inv(problem.root_a), np.linalg.inv(problem.root_b)
    pot_a = inv_a @ np.tensordot(y[:ma], problem.basis_a, axes=(0, 0)) @ inv_a
    pot_b = inv_b @ np.tensordot(y[ma:], problem.basis_b, axes=(0, 0)) @ inv_b
    return couplings, _hermitian(pot_a), _hermitian(pot_b)


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_hermitian(m))
    if vals[0] <= 0:
        raise ValueError("coupling marginals must be positive definite")
    return _hermitian((vecs * np.sqrt(vals)) @ vecs.conj().T)


def _orthogonal_basis(red: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the Hermitian matrices orthogonal to ``red``.

    The Householder reflection that maps the identity direction of
    ``hermitian_basis`` onto the direction of ``red`` (up to sign) carries
    the other basis elements onto the complement; for a multiple of the
    identity it returns ``hermitian_basis(r)[1:]`` unchanged.
    """
    basis = hermitian_basis(red.shape[0])
    v = np.einsum("kij,ji->k", basis, red).real
    u = v / np.linalg.norm(v)
    u[0] += 1.0  # v[0] = Tr[red]/sqrt(r) > 0, so this never cancels
    reflect = np.eye(len(v)) - 2.0 * np.outer(u, u) / (u @ u)
    return np.tensordot(reflect[:, 1:].T, basis, axes=(1, 0))


# ---------------------------------------------------------------------------
# Interior-point core: real X blocks, complex S blocks


def _sym(x: np.ndarray) -> np.ndarray:
    return (x + np.swapaxes(x, -1, -2)) / 2


def _inner(xs: np.ndarray, ss: np.ndarray):
    """sum_j <X_j, S_j> over two stacks, one dot per block: a single dot
    over the whole stack would sum in another order."""
    return sum(np.vdot(x, s) for x, s in zip(xs, ss))


def _require_finite(a: np.ndarray) -> None:
    """The check the scipy wrappers made before calling LAPACK."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _Routines(NamedTuple):
    """The LAPACK routines of one field: potrf and potrs, and the two calls
    sygvx (hegvx) makes after its potrf, with the workspace query of the
    second."""

    potrf: Callable
    potrs: Callable
    gst: Callable
    evx: Callable
    evx_lwork: Callable


# by dtype kind: real for the X blocks and the Schur complement, complex for
# the S blocks
_ROUTINES = {
    "f": _Routines(_lapack.dpotrf, _lapack.dpotrs, _lapack.dsygst, _lapack.dsyevx, _lapack.dsyevx_lwork),
    "c": _Routines(_lapack.zpotrf, _lapack.zpotrs, _lapack.zhegst, _lapack.zheevx, _lapack.zheevx_lwork),
}


def _max_step(dx: np.ndarray, factor: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD, for (near-)PD x with lower
    Cholesky factor ``factor`` (``_step_factor(x)`` for an X block, the
    complex factor for an S block): -1/lam for lam the smallest eigenvalue of
    the pencil (dx, x), and 1e30 when lam is not negative."""
    lam = _pencil_min(dx, factor)
    return 1e30 if lam >= -1e-14 else -1.0 / lam


def _pencil_min(dx: np.ndarray, factor: np.ndarray) -> float:
    """Smallest eigenvalue of the pencil (dx, x) for real symmetric or
    complex Hermitian x with lower Cholesky factor ``factor``.

    Bit for bit ``scipy.linalg.eigh(dx, x, eigvals_only=True,
    subset_by_index=[0, 0])[0]``.  That runs sygvx (hegvx), which factors x
    by potrf, reduces the pencil to a standard problem by sygst (hegst) and
    takes the eigenvalue from syevx (heevx); these are its last two calls,
    with its arguments and workspace.
    """
    _require_finite(dx)
    routines = _ROUTINES[factor.dtype.kind]
    c, info = routines.gst(dx, factor, itype=1, lower=1)
    if info == 0:
        lwork = _evx_lwork(dx.shape[0], factor.dtype)
        w, _, _, _, info = routines.evx(c, compute_v=0, range="I", lower=1, il=1, iu=1, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"sygst/syevx (hegst/heevx) failed with info {info}")
    return float(w[0])


@lru_cache(maxsize=None)
def _evx_lwork(n: int, field) -> int:
    """The workspace size syevx (heevx for a complex ``field``, a dtype or
    type) asks for; for n >= 2 it is the size ``scipy.linalg.eigh`` queries
    for sygvx (hegvx), which hands it on."""
    (lwork,) = _lapack.workspace(_ROUTINES[np.dtype(field).kind].evx_lwork, n, lower=1)
    return lwork


def _step_factor(x: np.ndarray) -> np.ndarray:
    """``_cholesky(x)``, or, for x grazing the cone boundary and so not
    numerically PD, that of the first shifted copy x + shift*I that is PD.

    The shift starts at twice |lambda_min(x)| plus a rounding floor and grows
    tenfold per try, at most 8 tries; LinAlgError after that.
    """
    try:
        return _cholesky(x)
    except np.linalg.LinAlgError:
        pass
    n = x.shape[0]
    shift = 2.0 * abs(float(np.linalg.eigvalsh(x)[0])) + 1e-16 * (1.0 + abs(float(np.trace(x).real)) / n)
    for _ in range(8):
        try:
            return _cholesky(x + shift * np.eye(n))
        except np.linalg.LinAlgError:
            shift *= 10
    raise np.linalg.LinAlgError("step-length matrix is not positive definite after shifting")


class _CouplingOperator:
    """Constraint maps of a ``coupling_problem`` from its Kronecker
    structure, without the dense stack.

    Every block enters the constraints through their sum X, and X through
    its compression Z = (X11 + X22) + i(X21 - X12): Tr[E(H) X] = Re Tr[H Z]
    for any complex H and any real X.  So an A-side row is Re Tr[F_i M_A]
    with M_A = Tr_B[(I (x) red_b) Z], and a B-side row is Re Tr[G_i M_B]
    with M_B = Tr_A[(red_a (x) I) Z].  A^T y is
    E((sum_i y_i F_i) (x) red_b + red_a (x) (sum_i y_i G_i)), the same for
    every block: one (2n, 2n) matrix, which broadcasts over the (k, 2n, 2n)
    block stack.  Both maps cost O(ra^2 rb^2).  The Schur complement takes
    the real X stack and the complex n x n blocks of S^-1, and is assembled
    on complex blocks.
    """

    def __init__(self, problem: CouplingProblem):
        ra, rb = problem.root_a.shape[0], problem.root_b.shape[0]
        self._dims = (ra, rb)
        self._red_a, self._red_b = problem.red_a, problem.red_b
        self._basis_a = problem.basis_a.reshape(ra * ra, ra * ra)
        self._basis_b = problem.basis_b.reshape(rb * rb - 1, rb * rb)
        # Tr[F M] = <F^T, M> entrywise, for the flattened bases
        self._rows_a = problem.basis_a.transpose(0, 2, 1).reshape(ra * ra, ra * ra)
        self._rows_b = problem.basis_b.transpose(0, 2, 1).reshape(rb * rb - 1, rb * rb)

    def apply_a(self, xs: np.ndarray) -> np.ndarray:
        (ra, rb), z = self._dims, _compression(xs.sum(axis=0))
        ma = ra * ra
        z4 = z.reshape(ra, rb, ra, rb)
        m_a = z4.transpose(0, 2, 1, 3).reshape(ma, rb * rb) @ self._red_b.T.reshape(-1)
        m_b = z4.transpose(1, 3, 0, 2).reshape(rb * rb, ma) @ self._red_a.T.reshape(-1)
        out = np.empty(ma + self._rows_b.shape[0])
        out[:ma] = (self._rows_a @ m_a).real
        out[ma:] = (self._rows_b @ m_b).real
        return out

    def apply_at(self, y) -> np.ndarray:
        (ra, rb), ma = self._dims, self._basis_a.shape[0]
        n = ra * rb
        pot_a = (y[:ma] @ self._basis_a).reshape(ra, 1, ra, 1)
        pot_b = (y[ma:] @ self._basis_b).reshape(1, rb, 1, rb)
        # pot_a (x) red_b + red_a (x) pot_b, broadcast on (a, b, a', b')
        h = pot_a * self._red_b[None, :, None, :] + self._red_a[:, None, :, None] * pot_b
        return complex_to_real_embedding(h.reshape(n, n))

    def schur(self, xs: np.ndarray, tinvs: np.ndarray) -> np.ndarray:
        """The Schur complement M[i, k] = sum_j Tr[E(H_i) X_j E(H_k) E(T_j)]
        of a ``coupling_problem``, for the real (k, 2n, 2n) stack ``xs`` and
        the complex (k, n, n) stack ``tinvs`` of the blocks T_j of S^-1,
        assembled from the Kronecker structure.

        E(H_k) E(T_j) = E(H_k T_j), and the compression of X E(G) is Z G, so
        M[i, k] = sum_j Re Tr[H_i Z_j H_k T_j] for any real X_j, on the image
        of the embedding or not.  A-side rows are H_i = (F_i (x) I_rb) P and
        B-side rows H_i = (I_ra (x) G_i) Q, with P = I (x) red_b and
        Q = red_a (x) I commuting with the other factor.  So the blocks M_AA,
        M_AB and M_BB are Re Tr[L_i Z~ R_k T~] with (Z~, T~) = (P Z, P T),
        (P Z, Q T) and (Q Z, Q T), where L and R act on one side only: each
        is then the real part of F W G^T, with F and G the flattened bases
        and W one contraction of Z~ and T~.  That is O(ra^3 rb^3) time and
        O(ra^2 rb^2) memory per PSD block instead of O(m n^3) from a dense
        constraint stack.
        """
        (ra, rb), basis_a, basis_b = self._dims, self._basis_a, self._basis_b
        k, n = tinvs.shape[0], ra * rb
        zt = np.concatenate((_compression(xs), tinvs))
        # P and Q act on one row axis each: red_b on b, red_a on a
        pm = (self._red_b @ zt.reshape(2 * k, ra, rb, n)).reshape(2 * k, n, n)
        qm = (self._red_a @ zt.reshape(2 * k, ra, rb * n)).reshape(2 * k, n, n)
        pz, pt, qz, qt = pm[:k], pm[k:], qm[:k], qm[k:]
        ma = basis_a.shape[0]
        mat = np.empty((ma + basis_b.shape[0],) * 2)
        mat[:ma, :ma] = (basis_a @ _side_contraction(pz, pt, self._dims, _A_SIDE, _A_SIDE) @ basis_a.T).real
        mat[:ma, ma:] = (basis_a @ _side_contraction(pz, qt, self._dims, _A_SIDE, _B_SIDE) @ basis_b.T).real
        mat[ma:, :ma] = mat[:ma, ma:].T
        mat[ma:, ma:] = (basis_b @ _side_contraction(qz, qt, self._dims, _B_SIDE, _B_SIDE) @ basis_b.T).real
        return _sym(mat)


def _compression(xs: np.ndarray) -> np.ndarray:
    """Z = (X11 + X22) + i(X21 - X12) of real 2n x 2n matrices X on the last
    two axes, so that Tr[E(H) X] = Re Tr[H Z] for every complex H."""
    n = xs.shape[-1] // 2
    z = np.empty(xs.shape[:-2] + (n, n), dtype=complex)
    np.add(xs[..., :n, :n], xs[..., n:, n:], out=z.real)
    np.subtract(xs[..., n:, :n], xs[..., :n, n:], out=z.imag)
    return z


def _complex_of_image(ms: np.ndarray) -> np.ndarray:
    """The complex n x n matrices H with E(H) = M, for real 2n x 2n matrices
    M on the image of the embedding, on the last two axes: read off exactly,
    with no averaging."""
    n = ms.shape[-1] // 2
    h = np.empty(ms.shape[:-2] + (n, n), dtype=complex)
    h.real = ms[..., :n, :n]
    h.imag = ms[..., n:, :n]
    return h


# Axes of a block reshaped to (a, b, a', b'): the row axis an operator
# F (x) I_rb acts on, with the row axis it leaves alone, and likewise for
# I_ra (x) G.
_A_SIDE = (0, 1)
_B_SIDE = (1, 0)


def _side_contraction(zs, tinvs, dims, left, right) -> np.ndarray:
    """W with sum_j Tr[L_i Z_j R_k T_j] = <F_i (x) G_k, W> for L_i = F_i on
    the ``left`` side and R_k = G_k on the ``right`` side.

    Each block of the complex stacks ``zs`` and ``tinvs`` is read on the
    axes (a, b, a', b') of ``dims`` = (ra, rb), so
    W[u1 u2, v3 v4] = sum_{j, t, t'} Z_j[u2 t, v3 t'] T_j[v4 t', u1 t]
    is one matmul over the block index and the two identity factors.
    """
    shape = (zs.shape[0], *dims, *dims)
    z5, t5 = zs.reshape(shape), tinvs.reshape(shape)
    (l_op, l_id), (r_op, r_id) = left, right
    zm = z5.transpose(1 + l_op, 3 + r_op, 0, 1 + l_id, 3 + r_id)
    tm = t5.transpose(3 + l_op, 1 + r_op, 0, 3 + l_id, 1 + r_id)
    pl, pr = zm.shape[0], zm.shape[1]
    prod = zm.reshape(pl * pr, -1) @ tm.reshape(pl * pr, -1).T
    return prod.reshape(pl, pr, pl, pr).transpose(2, 0, 1, 3).reshape(pl * pl, pr * pr)


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor (upper triangle left as is) of a real symmetric
    or complex Hermitian matrix; LinAlgError unless ``mat`` is numerically
    PD."""
    _require_finite(mat)
    factor, info = _ROUTINES[mat.dtype.kind].potrf(mat, lower=True, clean=False)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrf failed with info {info}")
    return factor


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    _require_finite(rhs)
    sol, info = _ROUTINES[factor.dtype.kind].potrs(factor, rhs, lower=True)
    if info != 0:
        raise ValueError(f"potrs failed with info {info}")
    return sol


def _schur_factor(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor of the Schur complement, with deterministic jitter
    when it is not numerically PD: 1e-14 (mean diagonal + 1), growing
    hundredfold per try, at most 11 tries after the unjittered one."""
    try:
        return _cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-14 * (float(np.mean(np.diag(mat))) + 1.0)
    for _ in range(11):
        try:
            return _cholesky(mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 100
    raise np.linalg.LinAlgError("Schur complement not positive definite")


def _chol_solve_refined(mat: np.ndarray, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with ``factor = _schur_factor(mat)`` and one refinement step."""
    sol = _cho_solve(factor, rhs)
    sol += _cho_solve(factor, rhs - mat @ sol)
    return sol


def _ipm_step(op, b, xs, ss, y, rds, mu, n_total):
    # S and its directions are sums of embeddings, so they stay on the image
    # exactly and each S block is read as its complex n x n matrix: one
    # complex factor per block serves S^-1 = E(T) and both step lengths on
    # S, and one real factor serves both step lengths on X
    s_factors = [_cholesky(s) for s in _complex_of_image(ss)]
    eye = np.eye(ss.shape[-1] // 2, dtype=complex)
    tinvs = np.array([_cho_solve(f, eye) for f in s_factors])
    sinvs = complex_to_real_embedding(tinvs)
    x_factors = [_step_factor(x) for x in xs]
    schur = op.schur(xs, tinvs)
    # one factorization serves the predictor and the corrector
    schur_factor = _schur_factor(schur)
    xrds = xs @ rds @ sinvs

    def direction(sigma_mu, corr):
        rhs = b + op.apply_a(xrds - sigma_mu * sinvs + corr @ sinvs)
        dy = _chol_solve_refined(schur, schur_factor, rhs)
        dss = rds - op.apply_at(dy)
        dxs = _sym(sigma_mu * sinvs - xs - (xs @ dss + corr) @ sinvs)
        return dxs, dy, dss

    def step_length(factors, directions):
        return min(_max_step(dm, f) for dm, f in zip(directions, factors))

    dxs_aff, _, dss_aff = direction(0.0, np.zeros_like(xs))
    ap_aff = min(1.0, step_length(x_factors, dxs_aff))
    ad_aff = min(1.0, step_length(s_factors, _complex_of_image(dss_aff)))
    mu_aff = _inner(xs + ap_aff * dxs_aff, ss + ad_aff * dss_aff) / n_total
    sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

    dxs, dy, dss = direction(sigma * mu, dxs_aff @ dss_aff)

    ap = min(1.0, _STEP_FRACTION * step_length(x_factors, dxs))
    ad = min(1.0, _STEP_FRACTION * step_length(s_factors, _complex_of_image(dss)))
    xs = _sym(xs + ap * dxs)
    ss = _sym(ss + ad * dss)
    y = y + ad * dy
    return xs, ss, y
