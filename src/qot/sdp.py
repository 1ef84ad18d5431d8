"""Block-diagonal semidefinite programming with a certified primal-dual gap.

Problems are stated over complex Hermitian PSD variables::

    minimize    sum_j <C_j, X_j>
    subject to  sum_j <A_ij, X_j> = b_i     (i = 1..m)
                X_j >= 0                    (PSD, j = 1..k)

with <A, B> = Tr[A B].  Every Hermitian block is embedded as a real symmetric
block of twice the size, the real problem is solved by an infeasible-start
Mehrotra predictor-corrector primal-dual interior-point method, and objective
and constraint values are halved afterwards to undo the trace doubling of the
embedding.  When the constraint Gram matrix is well conditioned, iterates are
nudged back onto the affine constraints each iteration, which keeps the final
primal residual near machine precision.  The solver is deterministic:
identical problems and tolerances take identical iteration paths.

Intended scale: blocks up to a few hundred rows and a few hundred
constraints.  The solver reaches the constraints through one operator object
per problem, which applies A and A^T, assembles the Schur complement and
solves with the Gram matrix of the feasibility restorer.  A hand-built
problem stores its constraints as a dense real stack, assembles the Schur
complement from it in O(m n^3) per iteration, and factors the dense Gram.
Coupling problems built by ``coupling_problem`` (marginals of dimension ra
and rb fixed by partial-trace constraints) are stated in coordinates scaled
by the marginals, so that near-singular marginals keep every iterate well
conditioned, and record that scaling.  Their Schur complement is assembled
from the Kronecker structure of the constraints in O(ra^3 rb^3) time and
O(ra^2 rb^2) extra memory (the constraint-structure trick of Fujisawa, Kojima
and Nakata 1997).  Their constraints are applied as partial traces and
Kronecker products in O(ra^2 rb^2), with a diagonal restorer Gram in closed
form, and the dense stack is never built.  Problems without a strictly
feasible primal converge slowly here; build couplings on marginal supports
instead (see the transport module) so that every solved instance has
interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .quantum import DimensionMismatchError, HermitianOperator, hermitian_basis

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "SolverFailure",
    "solve",
    "coupling_problem",
    "coupling_solution",
    "complex_to_real_embedding",
    "feasibility_margin",
    "STATUS_OPTIMAL",
    "STATUS_MAX_ITERATIONS",
    "STATUS_INFEASIBLE",
]

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible_detected"

DEFAULT_TOL = 1e-8
_MAX_ITER = 100
_STEP_FRACTION = 0.98


class SolverFailure(RuntimeError):
    """Raised by callers that require an optimal certificate and did not get one."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class _Coupling:
    """How a ``coupling_problem`` is scaled: the coupling is X = W Y W with
    W = root_a (x) root_b, the square roots of the marginals, and Y is the
    solved variable.  A-side constraints are basis_a[i] (x) red_b and B-side
    ones red_a (x) basis_b[i]."""

    root_a: np.ndarray
    root_b: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    @property
    def red_a(self) -> np.ndarray:
        return self.root_a @ self.root_a

    @property
    def red_b(self) -> np.ndarray:
        return self.root_b @ self.root_b


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form SDP data over complex Hermitian blocks.

    ``constraints`` is a sequence of ``(coefficients, rhs)`` pairs where
    ``coefficients`` holds one HermitianOperator per block (or None for a
    block that does not enter the constraint).  Sense is always minimize.
    """

    blocks: tuple[int, ...]
    objective: tuple[HermitianOperator, ...]
    constraints: tuple[tuple[tuple[HermitianOperator | None, ...], float], ...]
    # The scaling of a ``coupling_problem``; only that builder sets it.
    _coupling: _Coupling | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(n < 1 for n in blocks):
            raise ValueError(f"block dimensions must be positive, got {blocks}")
        if len(self.objective) != len(blocks):
            raise DimensionMismatchError("need exactly one objective operator per block")
        for c, n in zip(self.objective, blocks):
            if c.dim != n:
                raise DimensionMismatchError(f"objective block has dim {c.dim}, expected {n}")
        cons = []
        for coeffs, rhs in self.constraints:
            coeffs = tuple(coeffs)
            if len(coeffs) != len(blocks):
                raise DimensionMismatchError("each constraint needs one entry per block")
            if all(a is None for a in coeffs):
                raise ValueError("constraint touches no block")
            for a, n in zip(coeffs, blocks):
                if a is not None and a.dim != n:
                    raise DimensionMismatchError(f"constraint block has dim {a.dim}, expected {n}")
            rhs = float(rhs)
            if not np.isfinite(rhs):
                raise ValueError("constraint right-hand side must be finite")
            cons.append((coeffs, rhs))
        if not cons:
            raise ValueError("problem needs at least one constraint")
        object.__setattr__(self, "constraints", tuple(cons))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


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
    """Embed a complex matrix H = A + iB as the real matrix [[A, -B], [B, A]].

    For Hermitian H the image is symmetric, PSD iff H is PSD, traces double,
    and every eigenvalue appears with doubled multiplicity.
    """
    return _embed(np.asarray(h, dtype=complex))


def _embed(m: np.ndarray) -> np.ndarray:
    """The embedding applied to the last two axes of a complex array."""
    n = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = m.real
    out[..., n:, :n] = m.imag
    out[..., :n, n:] = -m.imag
    return out


def _complex_from_embedding(y: np.ndarray) -> np.ndarray:
    """Recover a complex matrix from a real 2d x 2d one, averaging over the
    embedding symmetry (PSD is preserved for symmetric PSD input)."""
    n = y.shape[0] // 2
    y11, y12 = y[:n, :n], y[:n, n:]
    y21, y22 = y[n:, :n], y[n:, n:]
    return (y11 + y22) / 2 + 0.5j * (y21 - y12)


def feasibility_margin(blocks, problem: SdpProblem) -> tuple[float, float]:
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
        lhs = sum(
            np.trace(a.matrix @ x).real for a, x in zip(coeffs, mats) if a is not None
        )
        residual = max(residual, abs(lhs - rhs))
    for x in mats:
        residual = max(residual, float(np.max(np.abs(x - x.conj().T))))
        eigs = np.linalg.eigvalsh((x + x.conj().T) / 2)
        residual = max(residual, max(0.0, -float(eigs[0])))
    return float(value), float(residual)


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Solve the SDP to an absolute primal-dual gap of at most ``tol``.

    Returns status ``optimal`` when gap and max constraint residual are both
    below ``tol``; ``max_iterations`` when progress stalls above it;
    ``infeasible_detected`` when a dual improving ray is found (best effort).
    """
    if not (1e-10 <= tol <= 1e-2):
        raise ValueError(f"tol must lie in [1e-10, 1e-2], got {tol}")

    c_blocks, b = _embedded_data(problem)
    op = _constraint_operator(problem)
    # Embedded quantities are twice the complex-side ones, so target 2*tol.
    y_blocks, y_dual, status, iterations = _solve_real(c_blocks, op, b, 2 * tol, 2 * tol)

    primal = tuple(_complex_from_embedding(yb) for yb in y_blocks)
    # Tr[A X] as the elementwise sum of E(A)^T * E(X), halved: O(m n^2), no matmul.
    embedded = [complex_to_real_embedding(x) for x in primal]
    primal_value = sum(float(np.vdot(c, x)) for c, x in zip(c_blocks, embedded)) / 2.0
    dual_value = float(y_dual @ b) / 2.0
    infeas = float(np.max(np.abs(op.apply_a(embedded) - b))) / 2.0

    gap = float(primal_value - dual_value)
    if status == STATUS_OPTIMAL and (gap > tol or infeas > tol):
        status = STATUS_MAX_ITERATIONS
    return SdpSolution(
        primal_blocks=primal,
        dual_vector=y_dual.copy(),
        primal_value=float(primal_value),
        dual_value=dual_value,
        gap=gap,
        primal_infeasibility=float(infeas),
        status=status,
        iterations=iterations,
    )


def coupling_problem(costs, red_a: np.ndarray, red_b: np.ndarray) -> SdpProblem:
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
    potentials off a solution.  The problem records its scaling, from which
    ``solve`` applies the constraints and assembles the Schur complement in
    structured form, without the dense stack.
    """
    red_a, red_b = np.asarray(red_a), np.asarray(red_b)
    ra, rb = red_a.shape[0], red_b.shape[0]
    rec = _Coupling(_psd_sqrt(red_a), _psd_sqrt(red_b), hermitian_basis(ra), _orthogonal_basis(red_b))
    w = np.kron(rec.root_a, rec.root_b)
    k = len(costs)
    constraints = []
    for f in rec.basis_a:
        constraints.append(((HermitianOperator(np.kron(f, red_b)),) * k, np.trace(f).real))
    for g in rec.basis_b:
        constraints.append(((HermitianOperator(np.kron(red_a, g)),) * k, np.trace(g).real))
    problem = SdpProblem(
        blocks=(ra * rb,) * k,
        objective=tuple(HermitianOperator(w @ cost @ w) for cost in costs),
        constraints=tuple(constraints),
    )
    object.__setattr__(problem, "_coupling", rec)
    return problem


def coupling_solution(problem: SdpProblem, solution: SdpSolution):
    """``(couplings, pot_a, pot_b)`` of a solved ``coupling_problem``.

    ``couplings`` holds X_j = W Y_j W for each block; the potentials are the
    dual vector in the coordinates of the marginals, so that
    pot_a (x) I + I (x) pot_b is dominated by every cost (up to the solver's
    tolerance) and Tr[pot_a red_a] + Tr[pot_b red_b] is the dual value.
    """
    rec = problem._coupling
    if rec is None:
        raise ValueError("problem was not built by coupling_problem")
    ma = rec.basis_a.shape[0]
    y = solution.dual_vector
    w = np.kron(rec.root_a, rec.root_b)
    couplings = tuple(_hermitian(w @ x @ w) for x in solution.primal_blocks)
    inv_a, inv_b = np.linalg.inv(rec.root_a), np.linalg.inv(rec.root_b)
    pot_a = inv_a @ np.tensordot(y[:ma], rec.basis_a, axes=(0, 0)) @ inv_a
    pot_b = inv_b @ np.tensordot(y[ma:], rec.basis_b, axes=(0, 0)) @ inv_b
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


def _embedded_data(problem: SdpProblem):
    """(objective blocks, rhs) of the real embedding; the rhs doubles with
    the traces."""
    c_blocks = [complex_to_real_embedding(c.matrix) for c in problem.objective]
    b = 2.0 * np.array([rhs for _, rhs in problem.constraints])
    return c_blocks, b


def _constraint_stacks(problem: SdpProblem) -> list[np.ndarray]:
    """Dense constraint stacks of the real embedding, one (m, 2n, 2n) array
    per block."""
    m = problem.n_constraints
    stacks = []
    for j, n in enumerate(problem.blocks):
        stack = np.zeros((m, 2 * n, 2 * n))
        for i, (coeffs, _) in enumerate(problem.constraints):
            if coeffs[j] is not None:
                stack[i] = _embed(coeffs[j].matrix)
        stacks.append(stack)
    return stacks


def _constraint_operator(problem: SdpProblem):
    """The constraint operator ``solve`` iterates with: the structured maps
    for a coupling problem, the dense stack for any other."""
    if problem._coupling is None:
        return _DenseOperator(_constraint_stacks(problem))
    return _CouplingOperator(problem._coupling, len(problem.blocks))


# ---------------------------------------------------------------------------
# Real symmetric core


def _sym(x: np.ndarray) -> np.ndarray:
    return (x + x.T) / 2


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still PSD, for (near-)PD x.

    That is -1/lam for lam the smallest eigenvalue of the pencil (dx, x),
    found by one LAPACK sygvx call.  When x is not numerically PD, lam is
    taken on the first shifted copy x + shift*I that is PD.
    """
    try:
        lam = _pencil_min(dx, x)
    except np.linalg.LinAlgError:
        lam = _shifted_pencil_min(x, dx)
    if lam >= -1e-14:
        return 1e30
    return -1.0 / lam


def _pencil_min(dx: np.ndarray, x: np.ndarray) -> float:
    """Smallest eigenvalue of the pencil (dx, x); LinAlgError unless x is PD."""
    return float(scipy.linalg.eigh(dx, x, eigvals_only=True, subset_by_index=[0, 0])[0])


def _shifted_pencil_min(x: np.ndarray, dx: np.ndarray) -> float:
    """Smallest eigenvalue of the pencil (dx, x + shift*I) for x grazing the
    cone boundary, retrying on progressively shifted copies."""
    n = x.shape[0]
    shift = 2.0 * abs(float(np.linalg.eigvalsh(x)[0])) + 1e-16 * (1.0 + abs(float(np.trace(x))) / n)
    for _ in range(8):
        try:
            return _pencil_min(dx, x + shift * np.eye(n))
        except np.linalg.LinAlgError:
            shift *= 10
    raise np.linalg.LinAlgError("step-length matrix is not positive definite after shifting")


class _DenseOperator:
    """Constraint maps and Schur complement through the dense real stacks,
    one (m, 2n, 2n) array per block."""

    def __init__(self, stacks):
        self.stacks = stacks

    def apply_a(self, xs) -> np.ndarray:
        m = self.stacks[0].shape[0]
        out = np.zeros(m)
        for a, x in zip(self.stacks, xs):
            out += a.reshape(m, -1) @ x.T.reshape(-1)
        return out

    def apply_at(self, y) -> list[np.ndarray]:
        return [np.tensordot(y, a, axes=(0, 0)) for a in self.stacks]

    def schur(self, xs, sinvs) -> np.ndarray:
        return _schur_complement(self.stacks, xs, sinvs)

    def gram_solver(self):
        """Solve with the constraint Gram matrix, or None when it is too ill
        conditioned for the restorer."""
        m = self.stacks[0].shape[0]
        gram = sum(a.reshape(m, -1) @ a.reshape(m, -1).T for a in self.stacks)
        if np.linalg.cond(gram) > 1e10:
            return None
        factor = scipy.linalg.cho_factor(gram, lower=True)
        return lambda r: scipy.linalg.cho_solve(factor, r)


class _CouplingOperator:
    """Constraint maps of a ``coupling_problem`` from its Kronecker
    structure, without the dense stack.

    Every block enters the constraints through their sum X, and X through
    the complex matrix Z = (X11 + X22) + i(X21 - X12) of its 2 x 2 block
    split: Tr[E(H) X] = Re Tr[H Z] for any complex H and any real X.  So an
    A-side row is Re Tr[F_i M_A] with M_A = Tr_B[(I (x) red_b) Z], and a
    B-side row is Re Tr[G_i M_B] with M_B = Tr_A[(red_a (x) I) Z].  A^T y is
    E((sum_i y_i F_i) (x) red_b + red_a (x) (sum_i y_i G_i)) for every block.
    Both maps cost O(ra^2 rb^2).  The bases are orthonormal and every G_i is
    orthogonal to red_b, so the restorer Gram is diagonal: 2k Tr[red_b^2]
    on the A rows and 2k Tr[red_a^2] on the B rows.
    """

    def __init__(self, rec: _Coupling, k: int):
        ra, rb = rec.root_a.shape[0], rec.root_b.shape[0]
        self._dims = (ra, rb)
        self._k = k
        self._red_a, self._red_b = rec.red_a, rec.red_b
        self._basis_a = rec.basis_a.reshape(ra * ra, ra * ra)
        self._basis_b = rec.basis_b.reshape(rb * rb - 1, rb * rb)
        # Tr[F M] = <F^T, M> entrywise, for the flattened bases
        self._rows_a = rec.basis_a.transpose(0, 2, 1).reshape(ra * ra, ra * ra)
        self._rows_b = rec.basis_b.transpose(0, 2, 1).reshape(rb * rb - 1, rb * rb)
        # for the Schur complement: the flattened embedded bases and the
        # embedded marginal factors P = E(I (x) red_b) and Q = E(red_a (x) I)
        self._emb_a = _embed(rec.basis_a).reshape(ra * ra, 4 * ra * ra)
        self._emb_b = _embed(rec.basis_b).reshape(rb * rb - 1, 4 * rb * rb)
        self._p = complex_to_real_embedding(np.kron(np.eye(ra), self._red_b))
        self._q = complex_to_real_embedding(np.kron(self._red_a, np.eye(rb)))

    def apply_a(self, xs) -> np.ndarray:
        (ra, rb), x = self._dims, sum(xs[1:], xs[0])
        n, ma = ra * rb, ra * ra
        z = np.empty((n, n), dtype=complex)
        np.add(x[:n, :n], x[n:, n:], out=z.real)
        np.subtract(x[n:, :n], x[:n, n:], out=z.imag)
        z4 = z.reshape(ra, rb, ra, rb)
        m_a = z4.transpose(0, 2, 1, 3).reshape(ma, rb * rb) @ self._red_b.T.reshape(-1)
        m_b = z4.transpose(1, 3, 0, 2).reshape(rb * rb, ma) @ self._red_a.T.reshape(-1)
        out = np.empty(ma + self._rows_b.shape[0])
        out[:ma] = (self._rows_a @ m_a).real
        out[ma:] = (self._rows_b @ m_b).real
        return out

    def apply_at(self, y) -> list[np.ndarray]:
        (ra, rb), ma = self._dims, self._basis_a.shape[0]
        n = ra * rb
        pot_a = (y[:ma] @ self._basis_a).reshape(ra, 1, ra, 1)
        pot_b = (y[ma:] @ self._basis_b).reshape(1, rb, 1, rb)
        # pot_a (x) red_b + red_a (x) pot_b, broadcast on (a, b, a', b')
        h = pot_a * self._red_b[None, :, None, :] + self._red_a[:, None, :, None] * pot_b
        # one array for every block: callers only read A^T y
        return [_embed(h.reshape(n, n))] * self._k

    def schur(self, xs, sinvs) -> np.ndarray:
        """The Schur complement of a ``coupling_problem``, equal to
        ``_schur_complement`` but assembled from the Kronecker structure.

        A-side rows are E(F_i (x) red_b) = (E(F_i) (x) I_rb) P and B-side rows
        E(red_a (x) G_i) = Q (I_ra (x) E(G_i)), with P = E(I (x) red_b) and
        Q = E(red_a (x) I) commuting with the other factor.  So the blocks M_AA,
        M_AB and M_BB are Tr[L_i X~ R_k Sinv] with X~ = P X P, P X Q and Q X Q,
        where L and R act on one side only: each is then F Z G^T, with F and G
        the flattened embedded bases and Z one contraction of X~ and Sinv.  That
        is O(ra^3 rb^3) time and O(ra^2 rb^2) memory per PSD block instead of
        O(m n^3).
        """
        (ra, rb), emb_a, emb_b, p, q = self._dims, self._emb_a, self._emb_b, self._p, self._q
        shape = (len(xs), 2, ra, rb, 2, ra, rb)
        sinv7 = np.stack(sinvs).reshape(shape)

        def contraction(left_factor, right_factor, left, right):
            x7 = np.stack([left_factor @ x @ right_factor for x in xs]).reshape(shape)
            return _side_contraction(x7, sinv7, left, right)

        ma = emb_a.shape[0]
        mat = np.empty((ma + emb_b.shape[0],) * 2)
        mat[:ma, :ma] = emb_a @ contraction(p, p, _A_SIDE, _A_SIDE) @ emb_a.T
        mat[:ma, ma:] = emb_a @ contraction(p, q, _A_SIDE, _B_SIDE) @ emb_b.T
        mat[ma:, :ma] = mat[:ma, ma:].T
        mat[ma:, ma:] = emb_b @ contraction(q, q, _B_SIDE, _B_SIDE) @ emb_b.T
        return _sym(mat)

    def gram_solver(self):
        """Solve with the closed-form diagonal Gram; its condition number is
        at most max(ra, rb), so the restorer is always available."""
        ma, mb = self._basis_a.shape[0], self._basis_b.shape[0]
        purity_a = float(np.vdot(self._red_a, self._red_a).real)
        purity_b = float(np.vdot(self._red_b, self._red_b).real)
        diag = 2.0 * self._k * np.concatenate([np.full(ma, purity_b), np.full(mb, purity_a)])
        return lambda r: r / diag


def _schur_complement(a_blocks, xs, sinvs) -> np.ndarray:
    """M[i, k] = sum_j Tr[A_ij X_j A_kj Sinv_j], assembled in memory-bounded chunks."""
    m = a_blocks[0].shape[0]
    mat = np.zeros((m, m))
    for a, x, sinv in zip(a_blocks, xs, sinvs):
        n = x.shape[0]
        a_flat = a.reshape(m, n * n)
        chunk = max(1, int(4_000_000 / (n * n)))
        for s in range(0, m, chunk):
            t = x @ a[s : s + chunk] @ sinv
            mat[:, s : s + chunk] += a_flat @ t.transpose(0, 2, 1).reshape(-1, n * n).T
    return _sym(mat)


# Axes of a block reshaped to (s, a, b, s', a', b'), s the real/imaginary
# index of the embedding: the row axes an operator E(F) (x) I_rb acts on, with
# the row axis it leaves alone, and likewise for I_ra (x) E(G).
_A_SIDE = ((0, 1), 2)
_B_SIDE = ((0, 2), 1)


def _side_contraction(x7, sinv7, left, right) -> np.ndarray:
    """Z with sum_j Tr[L_i X_j R_k Sinv_j] = <F_i (x) G_k, Z> for L_i = F_i
    on the ``left`` side and R_k = G_k on the ``right`` side.

    ``x7`` and ``sinv7`` stack the k blocks on axis 0, so
    Z[u1 u2, v3 v4] = sum_{j, t, t'} X_j[u2 t, v3 t'] Sinv_j[v4 t', u1 t]
    is one matmul over the block index and the two identity factors.
    """
    (l_op, l_id), (r_op, r_id) = left, right
    xm = x7.transpose(*(1 + i for i in l_op), *(4 + i for i in r_op), 0, 1 + l_id, 4 + r_id)
    sm = sinv7.transpose(*(4 + i for i in l_op), *(1 + i for i in r_op), 0, 4 + l_id, 1 + r_id)
    pl, pr = xm.shape[0] * xm.shape[1], xm.shape[2] * xm.shape[3]
    prod = xm.reshape(pl * pr, -1) @ sm.reshape(pl * pr, -1).T
    return prod.reshape(pl, pr, pl, pr).transpose(2, 0, 1, 3).reshape(pl * pl, pr * pr)


def _chol_solve_refined(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with deterministic jitter fallback and one refinement step."""
    jitter = 0.0
    base = float(np.mean(np.diag(mat))) + 1.0
    for _ in range(12):
        try:
            factor = scipy.linalg.cho_factor(mat + jitter * np.eye(mat.shape[0]), lower=True)
            break
        except np.linalg.LinAlgError:
            jitter = max(1e-14 * base, jitter * 100)
    else:
        raise np.linalg.LinAlgError("Schur complement not positive definite")
    sol = scipy.linalg.cho_solve(factor, rhs)
    sol += scipy.linalg.cho_solve(factor, rhs - mat @ sol)
    return sol


def _make_restorer(op, b):
    """Damped least-squares projection onto the affine constraints.

    Only available when the constraint Gram matrix is well conditioned (the
    problem builders in this package emit near-orthogonal constraints); keeps
    the primal residual at machine precision so late iterations never fight
    an ill-conditioned Schur system over feasibility.
    """
    gram_solve = op.gram_solver()
    if gram_solve is None:
        return None

    def restore(xs):
        for _ in range(3):
            rp = b - op.apply_a(xs)
            if float(np.max(np.abs(rp))) <= 1e-13 * (1.0 + float(np.max(np.abs(b)))):
                break
            corrs = op.apply_at(gram_solve(rp))
            theta = min(1.0, 0.99 * min(_max_step(x, c) for x, c in zip(xs, corrs)))
            if theta <= 1e-8:
                break
            xs = [_sym(x + theta * c) for x, c in zip(xs, corrs)]
        return xs

    return restore


def _solve_real(c_blocks, op, b, eps_gap, eps_feas, max_iter=_MAX_ITER):
    """Infeasible-start Mehrotra predictor-corrector with HKM search direction.

    ``op`` is the problem's constraint operator (``_DenseOperator`` or
    ``_CouplingOperator``): it applies A and A^T, assembles the Schur
    complement and solves with the restorer's Gram matrix.
    """
    dims = [c.shape[0] for c in c_blocks]
    n_total = sum(dims)
    m = len(b)

    scale_p = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    scale_d = max(1.0, *(float(np.linalg.norm(c, 2)) for c in c_blocks))
    xs = [scale_p * np.eye(n) for n in dims]
    ss = [scale_d * np.eye(n) for n in dims]
    y = np.zeros(m)
    restore = _make_restorer(op, b)

    status = STATUS_MAX_ITERATIONS
    best_score = np.inf
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        rp = b - op.apply_a(xs)
        aty = op.apply_at(y)
        rds = [c - s - at for c, s, at in zip(c_blocks, ss, aty)]
        mu = sum(np.tensordot(x, s) for x, s in zip(xs, ss)) / n_total

        pobj = sum(np.tensordot(c, x) for c, x in zip(c_blocks, xs))
        dobj = float(b @ y)
        gap = pobj - dobj
        pinf = float(np.max(np.abs(rp))) if m else 0.0
        dinf = max(float(np.max(np.abs(r))) for r in rds)

        if (
            mu * n_total <= eps_gap
            and abs(gap) <= eps_gap
            and pinf <= eps_feas
            and dinf <= eps_feas * scale_d
        ):
            status = STATUS_OPTIMAL
            break

        # Dual improving ray => primal infeasible (best effort; the transport
        # problems this library builds are always feasible).
        y_norm = float(np.linalg.norm(y))
        if y_norm > 1e8 * scale_p:
            ray = y / y_norm
            aty_ray = op.apply_at(ray)
            ray_psd = max(float(np.linalg.eigvalsh(_sym(at))[-1]) for at in aty_ray)
            if b @ ray > 1e-8 and ray_psd < 1e-10:
                status = STATUS_INFEASIBLE
                break

        score = max(mu * n_total, pinf, dinf)
        if score < 0.7 * best_score:
            best_score = score
            stall = 0
        else:
            stall += 1
            if stall >= 12:
                break
        if mu < 1e-16 * scale_d * scale_p:
            break

        try:
            xs, ss, y = _ipm_step(op, b, xs, ss, y, rds, mu, n_total, restore)
        except np.linalg.LinAlgError:
            # numerical breakdown at extreme conditioning; report the last
            # consistent iterate instead of crashing
            break

    return xs, y, status, it


def _ipm_step(op, b, xs, ss, y, rds, mu, n_total, restore):
    sinvs = []
    for s in ss:
        factor = scipy.linalg.cho_factor(s, lower=True)
        sinvs.append(scipy.linalg.cho_solve(factor, np.eye(s.shape[0])))
    schur = op.schur(xs, sinvs)

    def direction(sigma_mu, corr_blocks):
        extras = [
            x @ rd @ sinv - sigma_mu * sinv + corr @ sinv
            for x, rd, sinv, corr in zip(xs, rds, sinvs, corr_blocks)
        ]
        rhs = b + op.apply_a(extras)
        dy = _chol_solve_refined(schur, rhs)
        atdy = op.apply_at(dy)
        dss = [rd - at for rd, at in zip(rds, atdy)]
        dxs = [
            _sym(sigma_mu * sinv - x - (x @ ds + corr) @ sinv)
            for x, ds, sinv, corr in zip(xs, dss, sinvs, corr_blocks)
        ]
        return dxs, dy, dss

    zeros = [np.zeros_like(x) for x in xs]
    dxs_aff, _, dss_aff = direction(0.0, zeros)
    ap_aff = min(1.0, min(_max_step(x, dx) for x, dx in zip(xs, dxs_aff)))
    ad_aff = min(1.0, min(_max_step(s, ds) for s, ds in zip(ss, dss_aff)))
    mu_aff = sum(
        np.tensordot(x + ap_aff * dx, s + ad_aff * ds)
        for x, dx, s, ds in zip(xs, dxs_aff, ss, dss_aff)
    ) / n_total
    sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)

    corrs = [dx @ ds for dx, ds in zip(dxs_aff, dss_aff)]
    dxs, dy, dss = direction(sigma * mu, corrs)

    ap = min(1.0, _STEP_FRACTION * min(_max_step(x, dx) for x, dx in zip(xs, dxs)))
    ad = min(1.0, _STEP_FRACTION * min(_max_step(s, ds) for s, ds in zip(ss, dss)))
    xs = [_sym(x + ap * dx) for x, dx in zip(xs, dxs)]
    ss = [_sym(s + ad * ds) for s, ds in zip(ss, dss)]
    y = y + ad * dy
    if restore is not None:
        xs = restore(xs)
    return xs, ss, y
