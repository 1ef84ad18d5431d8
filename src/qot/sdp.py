"""Coupling semidefinite programs with a certified primal-dual gap.

The one problem type is the coupling SDP, built by ``coupling_problem`` in
the eigenbases of its marginals, with their weight vectors w_a and w_b: one
complex Hermitian PSD block Y_j per cost C_j, charged against that cost,
whose sum has weighted partial traces equal to the identity::

    minimize    sum_j Tr[C_j Y_j]
    subject to  Tr_B[(I (x) diag(w_b)) sum_j Y_j] = I,
                Tr_A[(diag(w_a) (x) I) sum_j Y_j] = I,    Y_j >= 0 (PSD)

The solver works on the complex Hermitian blocks themselves, with an
infeasible-start Mehrotra predictor-corrector primal-dual interior-point
method in the HKM direction.  Its centring and its step follow SDPT3 (Toh,
Todd and Tutuncu, "SDPT3 -- a MATLAB software package for semidefinite
programming", Optim. Methods Softw. 1999): with alpha_p and alpha_d the
predictor's step lengths, clipped at 1, and a = min(alpha_p, alpha_d), the
centring parameter is sigma = (mu_aff/mu)^e with e = max(1, 3 a^2), and
both steps go the fraction 0.9 + 0.09 a of the way to the boundary of the
cone.  Each iteration measures the iterate (mu, gap, residuals), asks
``_stop`` whether the records so far end the solve, and otherwise takes one
``_ipm_step``.  The k blocks form one complex (k, n, n) stack: X, S, S^-1,
the dual residuals and the directions are stacks, and A^T y, the same for
every block, is one n x n matrix that broadcasts over them.  Only the LAPACK
calls loop over the blocks.  Each update of X and S keeps its Hermitian
part, so both stay exactly Hermitian.  No step projects onto the affine
constraints: the search direction solves A dX = b - A X, so a primal step of
length alpha scales the primal residual by 1 - alpha, and a full step leaves
only rounding.  The solver is deterministic: identical problems and
tolerances take identical iteration paths.

Each iteration factors the Schur complement once, for both the predictor and
the corrector solve, and each X and each S block once: the factor of S gives
S^-1, and both factors serve the predictor's and the corrector's step
lengths.  An X that is not numerically PD is factored shifted, as
X + shift*I.  A step on a block M is min(1, gamma*alpha_max), gamma being 1 for
the predictor and the step fraction for the corrector, so it is 1 exactly
when M + dM/gamma is PSD.  One zpotrf of that matrix per block and phase,
read through its info, settles a full step at a fraction of the cost of the
pencil (dM, M), which runs only where the factorization fails, or on a
shifted factor (the check of Toh, "A note on the calculation of step-lengths
in interior-point methods for semidefinite programming", Comput. Optim.
Appl. 2002).  On the perfbench workloads about a third of the pencils would
only confirm a full step.  The step taken is the one the pencils alone give,
unless alpha_max lies within rounding of 1/gamma.  Blocks whose row count
lies in ``_INVERSE_FACTOR_ROWS``, 25 to 143, also invert each factor once,
by ztrtri: S^-1 is then L^-H L^-1, and in a pencil two matmuls take the
place of hegst.  Those are the n = d^2 at which
``scripts/bench_sdp_kernels.py`` (``BENCH_sdp_kernels.json``) times the two
matmuls below one zhegst, and ztrtri with L^-H L^-1 below potrs with the
identity; at n = 16 the matmuls and zhegst are level, and from n = 144 on
the blocked zhegst is the faster.  The hot loop calls LAPACK directly
through the handles of the ``_lapack`` module, since at a few dozen rows
scipy's wrappers cost more than the routines: zpotrf and zpotrs for the
block factors, the full-step test and S^-1, dpotrf and dpotrs for the real
Schur complement, hegst, heevx and trtri for the step lengths.  The factors
are the ones ``cho_factor`` gives, with the upper triangle set to zero,
which no later call reads; potrs gets what ``cho_solve`` passed, and hegst
and heevx are the calls the hegvx of ``eigh`` makes after its potrf.  So
outside ``_INVERSE_FACTOR_ROWS`` each pencil and each S^-1 is the one
scipy's wrappers give bit for bit, and non-finite input still raises
ValueError.

``coupling_problem`` decomposes each marginal once, by one ``eigh``, keeps
the eigenvectors with eigenvalue above ``SUPPORT_CUT`` (facial reduction to
the marginal supports, exact up to a discarded mass of at most
d*SUPPORT_CUT) and scales by the square roots of the kept eigenvalues, so
that near-singular marginals keep every iterate well conditioned.  In the
eigenbasis a marginal eigenvalue eps is one exact diagonal entry of the
scaling; in any other basis it comes out of a cancellation among entries of
order one.  With one eigenvalue of 1e-9 or 1e-7 on both marginals (d = 2..5,
three seeds each) the transport cost certifies 13 of 24 pairs and the
stabilized cost 19, against 0 and 2 with the marginals' matrix square roots
in the original basis.  The solver reaches the constraints through one
operator that reads the weight vectors, not diag(w), and assembles the
Schur complement from the Kronecker structure in O(ra^3 rb^3) time and
O(ra^2 rb^2) extra memory (the constraint-structure trick of Fujisawa,
Kojima and Nakata 1997).  No dense constraint stack is built.  Intended
scale: marginals up to ra*rb of a few hundred.  ``coupling_solution`` maps
a solution back to the full spaces of the marginals.
"""

from __future__ import annotations

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

# Marginal eigenvalues at or below this are treated as zero: the coupling is
# built on the span of the other eigenvectors.  States never carry
# eigenvalues below -1e-10, and a marginal that does is rejected.
SUPPORT_CUT = 1e-10


class SolverFailure(RuntimeError):
    """Raised by callers that require an optimal certificate and did not get one."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class CouplingProblem:
    """A coupling SDP as ``coupling_problem`` states it, for Y with
    X = W Y W^*, X the coupling on the full spaces of the marginals and
    W = (support_a w_a^(1/2)) (x) (support_b w_b^(1/2)).

    ``support_a`` (d_a x ra) holds the eigenvectors of the first marginal
    whose eigenvalues are above ``SUPPORT_CUT``, and ``weights_a`` those
    eigenvalues renormalized to sum to 1; likewise for the second marginal.
    In these eigenbases the reduced marginals are diag(weights_a) and
    diag(weights_b).  ``objective`` holds W^* C W for each cost C, one PSD
    block each.  The constraints are Tr[(basis_a[i] (x) diag(w_b)) Y] =
    Tr[basis_a[i]] for every i, then Tr[(diag(w_a) (x) basis_b[i]) Y] =
    Tr[basis_b[i]], on the sum Y of the blocks, which every constraint
    enters.  ``basis_a`` is ``hermitian_basis(ra)`` and ``basis_b`` its
    traceless elements ``hermitian_basis(rb)[1:]``, so the right-hand side
    ``rhs`` is sqrt(ra) e_0.  ``constraints`` lists the constraints
    explicitly for independent checks; the solver never reads that list.
    """

    support_a: np.ndarray
    support_b: np.ndarray
    weights_a: np.ndarray
    weights_b: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    objective: tuple[HermitianOperator, ...]

    @property
    def blocks(self) -> tuple[int, ...]:
        return (len(self.weights_a) * len(self.weights_b),) * len(self.objective)

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
        k, red_a, red_b = len(self.objective), np.diag(self.weights_a), np.diag(self.weights_b)
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
        lhs = sum(np.trace(a.matrix @ x).real for a, x in zip(coeffs, mats))
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
    floor, the cap of ``_MAX_ITER`` measured iterates and a numerical
    breakdown.  Each returns the gap and residual the stop rule judged.
    """
    return _solve_ipm(problem.objective, problem.rhs, _CouplingOperator(problem), tol)


def _solve_ipm(objective, b, op, tol: float) -> SdpSolution:
    """The IPM, Mehrotra predictor-corrector with HKM direction, on the
    complex Hermitian objective operators ``objective`` and the right-hand
    side ``b``; ``op`` applies the constraints to (k, n, n) stacks and
    assembles the Schur complement.  ``_stop`` decides every end but a
    breakdown, a step raising LinAlgError; each returns the iterate of the
    last record with that record's gap and primal residual."""
    if not (1e-10 <= tol <= 1e-2):
        raise ValueError(f"tol must lie in [1e-10, 1e-2], got {tol}")
    c = np.array([h.matrix for h in objective], dtype=complex)
    n_total = c.shape[0] * c.shape[1]
    # The start point and the stop tests measure the problem as its real
    # embedding E(A + iB) = [[A, -B], [B, A]] would, which doubles b and
    # every trace: X starts at max(1, 2 max|b|) I, and the dual residual
    # counts half its largest real or imaginary part, so that each test of
    # ``_stop`` against tol is the embedded test against 2 tol.
    scale_p = max(1.0, 2.0 * float(np.max(np.abs(b))))
    scale_d = max(1.0, float(np.max(np.linalg.norm(c, 2, axis=(1, 2)))))
    eye = np.broadcast_to(np.eye(c.shape[1], dtype=complex), c.shape)
    xs, ss, y = scale_p * eye, scale_d * eye, np.zeros(len(b))

    records = []
    while True:
        rds = c - ss - op.apply_at(y)
        mu = _inner(xs, ss) / n_total
        primal_value, dual_value = _inner(c, xs), float(b @ y)
        pinf = float(np.max(np.abs(b - op.apply_a(xs))))
        dinf = float(np.max(np.abs(rds.view(float)))) / 2
        records.append(_Iterate(mu, primal_value - dual_value, pinf, dinf))
        status = _stop(records, tol, scale_p, scale_d, n_total)
        if status is not None:
            break
        try:
            xs, ss, y = _ipm_step(op, b, xs, ss, y, rds, mu, n_total)
        except np.linalg.LinAlgError:
            # breakdown at extreme conditioning: the last record describes the iterate
            status = STATUS_MAX_ITERATIONS
            break

    return SdpSolution(
        primal_blocks=tuple(xs),
        dual_vector=y.copy(),
        primal_value=primal_value,
        dual_value=dual_value,
        gap=records[-1].gap,
        primal_infeasibility=records[-1].pinf,
        status=status,
        iterations=len(records),
    )


class _Iterate(NamedTuple):
    """One measured IPM iterate: mu = Re<X, S>/n, the gap Re<C, X> - b^T y,
    the largest primal residual entry, and half the largest real or
    imaginary part of a dual residual entry."""

    mu: float
    gap: float
    pinf: float
    dinf: float


def _stop(records, eps, scale_p, scale_d, n_total) -> str | None:
    """The status that ends the IPM after the iterates ``records``, or None.

    ``optimal`` when the last iterate has mu*n_total, |gap| and pinf at most
    ``eps`` and dinf at most eps*scale_d.  ``max_iterations`` on a stall,
    twelve iterates in a row whose score max(mu*n_total, pinf, dinf) is not
    below 0.7 times the best so far, at the mu floor 1e-16*scale_d*scale_p,
    or on the ``_MAX_ITER``-th record, the cap.
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
    ended = stall >= 12 or last.mu < 1e-16 * scale_d * scale_p or len(records) >= _MAX_ITER
    return STATUS_MAX_ITERATIONS if ended else None


def coupling_problem(costs, marginal_a: np.ndarray, marginal_b: np.ndarray) -> CouplingProblem:
    """Coupling SDP over one PSD block per cost, each charged against its
    own cost, whose sum couples the PSD marginals ``marginal_a`` and
    ``marginal_b``, as ``CouplingProblem`` states it.

    One ``eigh`` per marginal gives its support, the eigenvectors with
    eigenvalue above ``SUPPORT_CUT``, and its weights, those eigenvalues
    renormalized to sum to 1.  Every coupling lives on the product of the
    supports, so dropping the rest is exact up to the discarded mass, at
    most d*SUPPORT_CUT per marginal.  For X = W Y W^*, Y = I is feasible
    whatever the spectra: a marginal eigenvalue eps, which in the
    coordinates of X gives optimal dual vector entries of order eps^(-1/2)
    and iterate eigenvalues far below eps, leaves Y and the dual vector of
    order one.  ``basis_a`` is ``hermitian_basis(ra)``, which holds the
    trace, and ``basis_b`` the traceless ``hermitian_basis(rb)[1:]``: the
    one direction both sides share, diag(weights_a) (x) diag(weights_b),
    is then an A-side row only, since diag(weights_b) has trace 1, and no
    row repeats another.

    Raises ValueError for a marginal with an eigenvalue below -SUPPORT_CUT
    or none above SUPPORT_CUT.  ``coupling_solution`` reads the couplings
    and the marginal potentials off a solution.
    """
    support_a, weights_a = _marginal_support(marginal_a)
    support_b, weights_b = _marginal_support(marginal_b)
    w = _frame(support_a, weights_a, support_b, weights_b)
    return CouplingProblem(
        support_a=support_a,
        support_b=support_b,
        weights_a=weights_a,
        weights_b=weights_b,
        basis_a=hermitian_basis(len(weights_a)),
        basis_b=hermitian_basis(len(weights_b))[1:],
        objective=tuple(HermitianOperator(w.conj().T @ cost @ w) for cost in costs),
    )


def coupling_solution(problem: CouplingProblem, solution: SdpSolution):
    """``(couplings, pot_a, pot_b)`` of a solved ``coupling_problem``, on the
    full spaces of the marginals.

    ``couplings`` holds X_j = W Y_j W^* for each block.  The potentials are
    the dual vector in the coordinates of the marginals, read off by
    dividing by the square roots of the weights, and zero off the supports:
    pot_a (x) I + I (x) pot_b is dominated by every cost on the product of
    the supports (up to the solver's tolerance), and against the marginals
    renormalized on their supports, Tr[pot_a rho_a] + Tr[pot_b rho_b] is
    the dual value.
    """
    ma = problem.basis_a.shape[0]
    y = solution.dual_vector
    w = _frame(problem.support_a, problem.weights_a, problem.support_b, problem.weights_b)
    couplings = tuple(_hermitian(w @ x @ w.conj().T) for x in solution.primal_blocks)
    pot_a = _potential(y[:ma], problem.basis_a, problem.support_a, problem.weights_a)
    pot_b = _potential(y[ma:], problem.basis_b, problem.support_b, problem.weights_b)
    return couplings, pot_a, pot_b


def _hermitian(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix, or of each matrix of a stack on the
    last two axes; exactly Hermitian, bit for bit."""
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


def _marginal_support(marginal) -> tuple[np.ndarray, np.ndarray]:
    """``(support, weights)`` of a PSD marginal from one ``eigh``: the
    eigenvectors with eigenvalue above ``SUPPORT_CUT``, and those
    eigenvalues renormalized to sum to 1."""
    vals, vecs = np.linalg.eigh(_hermitian(np.asarray(marginal)))
    if vals[0] < -SUPPORT_CUT:
        raise ValueError(f"coupling marginals must be PSD: eigenvalue {vals[0]:.3e}")
    keep = vals > SUPPORT_CUT
    if not keep.any():
        raise ValueError(f"coupling marginal has no eigenvalue above SUPPORT_CUT = {SUPPORT_CUT:g}")
    return vecs[:, keep], vals[keep] / vals[keep].sum()


def _frame(support_a, weights_a, support_b, weights_b) -> np.ndarray:
    """W, which maps the coordinates Y of a ``coupling_problem`` to X = W Y W^*."""
    return np.kron(support_a * np.sqrt(weights_a), support_b * np.sqrt(weights_b))


def _potential(y, basis, support, weights) -> np.ndarray:
    """V (P / (w^(1/2) w^(1/2)^T)) V^*, P = sum_i y_i basis[i], for the
    support V and the weights w: zero off the support."""
    root = np.sqrt(weights)
    pot = np.tensordot(y, basis, axes=(0, 0)) / np.outer(root, root)
    return _hermitian(support @ pot @ support.conj().T)


# ---------------------------------------------------------------------------
# Interior-point core: complex Hermitian X and S blocks, a real Schur complement


def _inner(xs: np.ndarray, ss: np.ndarray) -> float:
    """sum_j Re<X_j, S_j> over two stacks, one dot per block: a single dot
    over the whole stack would sum in another order."""
    return float(sum(np.vdot(x, s) for x, s in zip(xs, ss)).real)


def _require_finite(a: np.ndarray) -> None:
    """The check the scipy wrappers made before calling LAPACK."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


# by dtype kind: real for the Schur complement, complex for the X and S blocks
_POTRF = {"f": _lapack.dpotrf, "c": _lapack.zpotrf}
_POTRS = {"f": _lapack.dpotrs, "c": _lapack.zpotrs}


def _max_step(dx: np.ndarray, factor: np.ndarray, inverse: np.ndarray | None = None) -> float:
    """Largest alpha with x + alpha*dx still PSD, for (near-)PD x with lower
    Cholesky factor ``factor`` (that of ``_step_factor(x)`` for an X block,
    the factor of S for an S block) and, for blocks whose row count lies in
    ``_INVERSE_FACTOR_ROWS``, its inverse ``inverse``: -1/lam for lam the
    smallest eigenvalue of the pencil (dx, x) by ``_pencil_min``, and 1e30
    when lam is not negative.  The IPM asks for it only where
    ``_step_length`` cannot settle a step by one zpotrf."""
    lam = _pencil_min(dx, factor, inverse)
    return 1e30 if lam >= -1e-14 else -1.0 / lam


def _pencil_min(dx: np.ndarray, factor: np.ndarray, inverse: np.ndarray | None = None) -> float:
    """Smallest eigenvalue of the pencil (dx, x) for complex Hermitian x
    with lower Cholesky factor ``factor``.

    Without ``inverse`` it is bit for bit ``scipy.linalg.eigh(dx, x,
    eigvals_only=True, subset_by_index=[0, 0])[0]``.  That runs hegvx, which
    factors x by potrf, reduces the pencil to a standard problem by hegst
    and takes the eigenvalue from heevx; these are its last two calls, with
    its arguments and workspace.  With ``inverse``, the lower triangular
    inverse of ``factor`` from ``_inverse_factor``, two matmuls
    inverse dx inverse^H take the place of hegst: the same matrix, rounded
    otherwise, and cheaper for the row counts of ``_INVERSE_FACTOR_ROWS``.
    """
    _require_finite(dx)
    if inverse is None:
        c, info = _lapack.zhegst(dx, factor, itype=1, lower=1)
    else:
        c, info = inverse @ dx @ inverse.conj().T, 0
    if info == 0:
        lwork = _evx_lwork(dx.shape[0])
        w, _, _, _, info = _lapack.zheevx(c, compute_v=0, range="I", lower=1, il=1, iu=1, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"hegst/heevx failed with info {info}")
    return float(w[0])


@lru_cache(maxsize=None)
def _evx_lwork(n: int) -> int:
    """The workspace size heevx asks for; for n >= 2 it is the size
    ``scipy.linalg.eigh`` queries for hegvx, which hands it on."""
    (lwork,) = _lapack.workspace(_lapack.zheevx_lwork, n, lower=1)
    return lwork


# Blocks with these row counts invert each Cholesky factor once, by ztrtri,
# for S^-1 and for their pencils.  In ``BENCH_sdp_kernels.json`` (one BLAS
# thread) two matmuls cost less than one zhegst, and ztrtri with L^-H L^-1
# less than potrs with the identity, at n = d^2 from 25 to 121.  At n = 16
# the matmuls and zhegst are level within the spread of the repeats, and
# from n = 144 on zhegst is the cheaper.
_INVERSE_FACTOR_ROWS = range(25, 144)


class _StepFactor:
    """The lower Cholesky factor that the step lengths on one PSD block m,
    X or S, are taken on: that of m, or of a shifted copy of m where
    ``shifted``.  For blocks whose row count lies in
    ``_INVERSE_FACTOR_ROWS``, ``inverse()`` is the inverse of the factor,
    taken on first use, so an X block whose step lengths all come out full
    never takes it; for other blocks it is None."""

    def __init__(self, factor: np.ndarray, shifted: bool = False):
        self.factor, self.shifted, self._inverse = factor, shifted, None

    def inverse(self) -> np.ndarray | None:
        if self._inverse is None and self.factor.shape[0] in _INVERSE_FACTOR_ROWS:
            self._inverse = _inverse_factor(self.factor)
        return self._inverse

    def matrix_inverse(self) -> np.ndarray:
        """m^-1 for an unshifted factor: inverse^H inverse where there is an
        inverse factor, else potrs with the identity."""
        inverse = self.inverse()
        if inverse is not None:
            return inverse.conj().T @ inverse
        return _cho_solve(self.factor, np.eye(self.factor.shape[0], dtype=complex))


def _inverse_factor(factor: np.ndarray) -> np.ndarray:
    """The inverse of a lower Cholesky factor from ``_cholesky``, by ztrtri;
    lower triangular, since the factor's upper triangle is zero."""
    inverse, info = _lapack.ztrtri(factor, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"trtri failed with info {info}")
    return inverse


def _step_length(ms: np.ndarray, dms: np.ndarray, factors, gamma: float) -> float:
    """min(1, gamma * min_j _max_step(dm_j, ...)) over the blocks m_j of the
    stack ``ms`` and their directions ``dms``, on the ``_StepFactor`` of each
    block, bit for bit; gamma is 1 for the predictor and the step fraction
    for the corrector.

    A block's term is 1 exactly when m_j + dm_j/gamma is PSD, so one zpotrf
    of that matrix, read through its info, settles a full step at a
    fraction of the cost of a pencil.  The pencil runs only where that
    factorization fails, and always on a shifted factor, which describes a
    copy of m_j and not m_j.  A non-finite direction raises ValueError
    before any factorization.
    """
    _require_finite(dms)
    length = 1.0
    for trial, dm, f in zip(ms + dms / gamma, dms, factors):
        if f.shifted or not _is_pd(trial):
            length = min(length, gamma * _max_step(dm, f.factor, f.inverse()))
    return length


def _is_pd(mat: np.ndarray) -> bool:
    """Whether a complex Hermitian matrix is numerically PD: one zpotrf on
    its lower triangle, read through its info."""
    _, info = _lapack.zpotrf(mat, lower=1, clean=0)
    return info == 0


def _step_factor(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(_cholesky(x), False)``, or, for x grazing the cone boundary and so
    not numerically PD, the factor of the first shifted copy x + shift*I
    that is PD, with True.

    The shift starts at twice |lambda_min(x)| plus a rounding floor and grows
    tenfold per try, at most 8 tries; LinAlgError after that.
    """
    def first_shift():
        return 2.0 * abs(float(np.linalg.eigvalsh(x)[0])) + 1e-16 * (1.0 + abs(float(np.trace(x).real)) / x.shape[0])

    return _shifted_cholesky(x, first_shift, 10, 8, "step-length matrix is not positive definite after shifting")


class _CouplingOperator:
    """Constraint maps of a ``coupling_problem`` from its Kronecker
    structure, without the dense stack.

    Every block enters the constraints through their sum Z, so an A-side
    row is Re Tr[F_i M_A] with M_A[a, a'] = sum_b w_b[b] Z[ab, a'b], and a
    B-side row is Re Tr[G_i M_B] with M_B[b, b'] = sum_a w_a[a] Z[ab, ab'];
    the real part makes the map real on any complex Z, Hermitian or not.
    A^T y is (sum_i y_i F_i) (x) diag(w_b) + diag(w_a) (x) (sum_i y_i G_i),
    the same for every block: one (n, n) matrix, which broadcasts over the
    (k, n, n) block stack.  Both maps touch only the O(ra^2 rb + ra rb^2)
    entries of a block that the diagonal factors leave non-zero.
    """

    def __init__(self, problem: CouplingProblem):
        ra, rb = len(problem.weights_a), len(problem.weights_b)
        self._dims = (ra, rb)
        self._weights_a, self._weights_b = problem.weights_a, problem.weights_b
        self._basis_a = problem.basis_a.reshape(ra * ra, ra * ra)
        self._basis_b = problem.basis_b.reshape(rb * rb - 1, rb * rb)
        # flat positions in a block of the entries (a b, a' b) on the axes
        # (a, a', b), and of the entries (a b, a b') on the axes (b, b', a)
        a, b = np.arange(ra), np.arange(rb)
        self._diag_b = ((a[:, None, None] * rb + b) * ra + a[:, None]) * rb + b
        self._diag_a = ((a * rb + b[:, None, None]) * ra + a) * rb + b[:, None]

    def apply_a(self, xs: np.ndarray) -> np.ndarray:
        z = xs.sum(axis=0).reshape(-1)
        m_a = z[self._diag_b] @ self._weights_b
        m_b = z[self._diag_a] @ self._weights_a
        ma = self._basis_a.shape[0]
        out = np.empty(ma + self._basis_b.shape[0])
        # Re Tr[F M] = Re <F, conj(M)> entrywise, for Hermitian F
        out[:ma] = (self._basis_a @ m_a.conj().reshape(-1)).real
        out[ma:] = (self._basis_b @ m_b.conj().reshape(-1)).real
        return out

    def apply_at(self, y) -> np.ndarray:
        (ra, rb), ma = self._dims, self._basis_a.shape[0]
        n = ra * rb
        pot_a = (y[:ma] @ self._basis_a).reshape(ra, ra, 1)
        pot_b = (y[ma:] @ self._basis_b).reshape(rb, rb, 1)
        # pot_a (x) diag(w_b) + diag(w_a) (x) pot_b
        h = np.zeros(n * n, dtype=complex)
        h[self._diag_b] = pot_a * self._weights_b
        h[self._diag_a] += pot_b * self._weights_a
        return h.reshape(n, n)

    def schur(self, xs: np.ndarray, tinvs: np.ndarray) -> np.ndarray:
        """The Schur complement M[i, k] = sum_j Re Tr[H_i X_j H_k T_j] of a
        ``coupling_problem``, for the complex (k, n, n) stacks ``xs`` and
        ``tinvs``, T_j the blocks of S^-1, assembled from the Kronecker
        structure.

        A-side rows are H_i = (F_i (x) I_rb) P and B-side rows
        H_i = (I_ra (x) G_i) Q, with P = I (x) diag(w_b) and Q = diag(w_a) (x) I
        scaling one row axis each.  So the blocks M_AA, M_AB and M_BB
        are Re Tr[L_i X~ R_k T~] with (X~, T~) = (P X, P T), (P X, Q T) and
        (Q X, Q T), where L and R act on one side only: each is then the real
        part of F W G^T, with F and G the flattened bases and W one
        contraction of X~ and T~.  That is O(ra^3 rb^3) time and O(ra^2 rb^2)
        memory per PSD block instead of O(m n^3) from a dense constraint
        stack.
        """
        (ra, rb), basis_a, basis_b = self._dims, self._basis_a, self._basis_b
        k, n = tinvs.shape[0], ra * rb
        xt = np.concatenate((xs, tinvs))
        pm = (xt.reshape(2 * k, ra, rb, n) * self._weights_b[:, None]).reshape(2 * k, n, n)
        qm = (xt.reshape(2 * k, ra, rb * n) * self._weights_a[:, None]).reshape(2 * k, n, n)
        px, pt, qx, qt = pm[:k], pm[k:], qm[:k], qm[k:]
        ma = basis_a.shape[0]
        mat = np.empty((ma + basis_b.shape[0],) * 2)
        mat[:ma, :ma] = (basis_a @ _side_contraction(px, pt, self._dims, _A_SIDE, _A_SIDE) @ basis_a.T).real
        mat[:ma, ma:] = (basis_a @ _side_contraction(px, qt, self._dims, _A_SIDE, _B_SIDE) @ basis_b.T).real
        mat[ma:, :ma] = mat[:ma, ma:].T
        mat[ma:, ma:] = (basis_b @ _side_contraction(qx, qt, self._dims, _B_SIDE, _B_SIDE) @ basis_b.T).real
        return _hermitian(mat)


# Axes of a block reshaped to (a, b, a', b'): the row axis an operator
# F (x) I_rb acts on, with the row axis it leaves alone, and likewise for
# I_ra (x) G.
_A_SIDE = (0, 1)
_B_SIDE = (1, 0)


def _side_contraction(xs, tinvs, dims, left, right) -> np.ndarray:
    """W with sum_j Tr[L_i X_j R_k T_j] = <F_i (x) G_k, W> for L_i = F_i on
    the ``left`` side and R_k = G_k on the ``right`` side.

    Each block of the complex stacks ``xs`` and ``tinvs`` is read on the
    axes (a, b, a', b') of ``dims`` = (ra, rb), so
    W[u1 u2, v3 v4] = sum_{j, t, t'} X_j[u2 t, v3 t'] T_j[v4 t', u1 t]
    is one matmul over the block index and the two identity factors.
    """
    shape = (xs.shape[0], *dims, *dims)
    x5, t5 = xs.reshape(shape), tinvs.reshape(shape)
    (l_op, l_id), (r_op, r_id) = left, right
    xm = x5.transpose(1 + l_op, 3 + r_op, 0, 1 + l_id, 3 + r_id)
    tm = t5.transpose(3 + l_op, 1 + r_op, 0, 3 + l_id, 1 + r_id)
    pl, pr = xm.shape[0], xm.shape[1]
    prod = xm.reshape(pl * pr, -1) @ tm.reshape(pl * pr, -1).T
    return prod.reshape(pl, pr, pl, pr).transpose(2, 0, 1, 3).reshape(pl * pl, pr * pr)


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor (upper triangle zero) of a real symmetric or
    complex Hermitian matrix; LinAlgError unless ``mat`` is numerically
    PD."""
    _require_finite(mat)
    factor, info = _POTRF[mat.dtype.kind](mat, lower=True, clean=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrf failed with info {info}")
    return factor


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    _require_finite(rhs)
    sol, info = _POTRS[factor.dtype.kind](factor, rhs, lower=True)
    if info != 0:
        raise ValueError(f"potrs failed with info {info}")
    return sol


def _schur_factor(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor of the Schur complement, jittered when it is not
    numerically PD: from 1e-14 (mean diagonal + 1), hundredfold per try, 11 tries."""
    factor, _ = _shifted_cholesky(
        mat, lambda: 1e-14 * (float(np.mean(np.diag(mat))) + 1.0), 100, 11, "Schur complement not positive definite"
    )
    return factor


def _shifted_cholesky(mat, first_shift, growth, tries, message) -> tuple[np.ndarray, bool]:
    """``(_cholesky(mat), False)``, or the factor of the first of ``tries``
    copies mat + shift*I that is PD, with True, the shift starting at
    ``first_shift()`` once the plain factor fails and growing by ``growth``
    per try; else LinAlgError."""
    try:
        return _cholesky(mat), False
    except np.linalg.LinAlgError:
        pass
    shift = first_shift()
    for _ in range(tries):
        try:
            return _cholesky(mat + shift * np.eye(mat.shape[0])), True
        except np.linalg.LinAlgError:
            shift *= growth
    raise np.linalg.LinAlgError(message)


def _chol_solve_refined(mat: np.ndarray, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with ``factor = _schur_factor(mat)`` and one refinement step."""
    sol = _cho_solve(factor, rhs)
    sol += _cho_solve(factor, rhs - mat @ sol)
    return sol


def _ipm_step(op, b, xs, ss, y, rds, mu, n_total):
    # one factor per X and per S block serves both step lengths on it, and
    # that of S gives S^-1 = T
    s_factors = [_StepFactor(_cholesky(s)) for s in ss]
    tinvs = np.array([f.matrix_inverse() for f in s_factors])
    x_factors = [_StepFactor(*_step_factor(x)) for x in xs]
    schur = op.schur(xs, tinvs)
    # one factorization serves the predictor and the corrector
    schur_factor = _schur_factor(schur)
    xrds = xs @ rds @ tinvs

    def direction(sigma_mu, corr):
        rhs = b + op.apply_a(xrds - sigma_mu * tinvs + corr @ tinvs)
        dy = _chol_solve_refined(schur, schur_factor, rhs)
        dss = rds - op.apply_at(dy)
        dxs = _hermitian(sigma_mu * tinvs - xs - (xs @ dss + corr) @ tinvs)
        return dxs, dy, dss

    dxs_aff, _, dss_aff = direction(0.0, np.zeros_like(xs))
    ap_aff = _step_length(xs, dxs_aff, x_factors, 1.0)
    ad_aff = _step_length(ss, dss_aff, s_factors, 1.0)
    mu_aff = _inner(xs + ap_aff * dxs_aff, ss + ad_aff * dss_aff) / n_total
    sigma, gamma = _centring(mu_aff / mu, min(ap_aff, ad_aff))

    dxs, dy, dss = direction(sigma * mu, dxs_aff @ dss_aff)

    ap = _step_length(xs, dxs, x_factors, gamma)
    ad = _step_length(ss, dss, s_factors, gamma)
    xs = _hermitian(xs + ap * dxs)
    ss = _hermitian(ss + ad * dss)
    y = y + ad * dy
    return xs, ss, y


def _centring(ratio: float, reach: float) -> tuple[float, float]:
    """SDPT3's centring parameter and step fraction, for ``ratio`` =
    mu_aff/mu and ``reach`` = min(alpha_p, alpha_d) of the predictor's step
    lengths, clipped at 1: sigma = ratio^e with e = max(1, 3 reach^2),
    clipped to [0, 1], and gamma = 0.9 + 0.09 reach."""
    sigma = min(1.0, max(0.0, ratio) ** max(1.0, 3.0 * reach**2))
    return sigma, 0.9 + 0.09 * reach
