import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.optimize

from qot import sdp
from qot.quantum import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    hermitian_basis,
    proj_asym,
    proj_sym,
    random_density_matrix,
)
from qot.sdp import STATUS_OPTIMAL, coupling_problem, feasibility_margin, solve

H = HermitianOperator


# ---------------------------------------------------------------------------
# Dense reference oracle: hand-built SDPs with an explicit constraint list,
# solved by the library's interior-point core through a dense complex
# (m, n, n) constraint stack per block.


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


def constraint_stacks(problem) -> list[np.ndarray]:
    """Dense complex constraint stacks, one (m, n, n) array per block, for
    an ``SdpProblem`` or a ``CouplingProblem``."""
    m = problem.n_constraints
    stacks = []
    for j, n in enumerate(problem.blocks):
        stack = np.zeros((m, n, n), dtype=complex)
        for i, (coeffs, _) in enumerate(problem.constraints):
            if coeffs[j] is not None:
                stack[i] = coeffs[j].matrix
        stacks.append(stack)
    return stacks


def schur_complement(a_blocks, xs, tinvs) -> np.ndarray:
    """M[i, k] = sum_j Re Tr[A_ij X_j A_kj T_j], assembled in memory-bounded chunks."""
    m = a_blocks[0].shape[0]
    mat = np.zeros((m, m))
    for a, x, tinv in zip(a_blocks, xs, tinvs):
        n = x.shape[0]
        a_flat = a.reshape(m, n * n)
        chunk = max(1, int(4_000_000 / (n * n)))
        for s in range(0, m, chunk):
            t = x @ a[s : s + chunk] @ tinv
            mat[:, s : s + chunk] += (a_flat @ t.transpose(0, 2, 1).reshape(-1, n * n).T).real
    return (mat + mat.T) / 2


class DenseOperator:
    """Constraint maps and Schur complement through the dense complex
    stacks, on complex (k, n, n) block stacks; the interface of
    ``sdp._CouplingOperator``."""

    def __init__(self, stacks):
        self.stacks = stacks

    def apply_a(self, xs) -> np.ndarray:
        m = self.stacks[0].shape[0]
        out = np.zeros(m)
        for a, x in zip(self.stacks, xs):
            out += (a.reshape(m, -1) @ x.T.reshape(-1)).real
        return out

    def apply_at(self, y) -> np.ndarray:
        return np.array([np.tensordot(y, a, axes=(0, 0)) for a in self.stacks])

    def schur(self, xs, tinvs) -> np.ndarray:
        return schur_complement(self.stacks, xs, tinvs)


def dense_solve(problem: SdpProblem, tol: float) -> sdp.SdpSolution:
    """The library's interior-point core on a hand-built problem."""
    rhs = np.array([value for _, value in problem.constraints])
    return sdp._solve_ipm(problem.objective, rhs, DenseOperator(constraint_stacks(problem)), tol)


def pin_problem(target):
    """Constraints over a complete Hermitian basis pin the block to target."""
    d = target.shape[0]
    basis = hermitian_basis(d)
    cons = tuple(((H(b),), np.trace(b @ target).real) for b in basis)
    return SdpProblem(blocks=(d,), objective=(H(np.eye(d)),), constraints=cons)


def transport_problem(rho, sigma):
    d = rho.shape[0]
    basis = hermitian_basis(d)
    cons = [((H(np.kron(basis[k], np.eye(d))),), np.trace(basis[k] @ rho).real) for k in range(d * d)]
    cons += [
        ((H(np.kron(np.eye(d), basis[k])),), np.trace(basis[k] @ sigma).real)
        for k in range(1, d * d)
    ]
    return SdpProblem(blocks=(d * d,), objective=(H(proj_asym(d).matrix),), constraints=tuple(cons))


class TestSolveBasics:
    def test_fully_pinned_identity(self):
        sol = dense_solve(pin_problem(np.eye(2)), 1e-8)
        assert sol.status == STATUS_OPTIMAL
        assert sol.primal_value == pytest.approx(2.0, abs=1e-7)

    def test_orthogonal_pure_transport_is_half(self):
        # unique coupling of orthogonal pure marginals is |01><01|, whose
        # antisymmetric expectation is 1/2.  The feasible set is a single
        # boundary point, so the raw core only reaches coarse accuracy here;
        # transport_cost reduces to marginal supports first and is exact
        # (see test_transport).
        sol = dense_solve(transport_problem(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 1e-6)
        assert sol.primal_value == pytest.approx(0.5, abs=2e-3)
        assert sol.dual_value <= 0.5 + 1e-6

    def test_stabilized_form_with_equal_states_is_zero(self):
        from qot.transport import stabilized_cost

        rho = random_density_matrix(3, 5)
        assert stabilized_cost(rho, rho).value == pytest.approx(0.0, abs=1e-7)

    def test_tol_validation(self):
        prob = pin_problem(np.eye(2))
        coupling = coupling_problem((proj_asym(2).matrix,), np.eye(2) / 2, np.eye(2) / 2)
        for bad in (1e-12, 0.5):
            with pytest.raises(ValueError):
                dense_solve(prob, bad)
            with pytest.raises(ValueError):
                solve(coupling, bad)

    def test_determinism_bitwise(self):
        prob = transport_problem(random_density_matrix(3, 8).matrix, random_density_matrix(3, 9).matrix)
        s1, s2 = dense_solve(prob, 1e-8), dense_solve(prob, 1e-8)
        assert s1.iterations == s2.iterations
        assert s1.primal_value == s2.primal_value
        assert s1.dual_value == s2.dual_value

    def test_scaling_equivariance(self):
        rho = random_density_matrix(2, 11).matrix
        sigma = random_density_matrix(2, 12).matrix
        base = dense_solve(transport_problem(rho, sigma), 1e-8).primal_value
        d = 2
        basis = hermitian_basis(d)
        cons = [
            ((H(np.kron(basis[k], np.eye(d))),), np.trace(basis[k] @ rho).real)
            for k in range(d * d)
        ] + [
            ((H(np.kron(np.eye(d), basis[k])),), np.trace(basis[k] @ sigma).real)
            for k in range(1, d * d)
        ]
        scaled = SdpProblem(
            blocks=(4,), objective=(H(3.0 * proj_asym(2).matrix),), constraints=tuple(cons)
        )
        assert dense_solve(scaled, 1e-8).primal_value == pytest.approx(3 * base, abs=3e-8)

    def test_weak_duality_on_solved_instances(self):
        for seed in range(4):
            rho = random_density_matrix(3, 20 + seed).matrix
            sigma = random_density_matrix(3, 30 + seed).matrix
            sol = dense_solve(transport_problem(rho, sigma), 1e-8)
            assert sol.status == STATUS_OPTIMAL
            assert sol.dual_value <= sol.primal_value + 1e-12


class TestAgainstLinearProgramming:
    """Diagonal SDPs are linear programs; scipy.optimize.linprog is the oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diagonal_problems_match_linprog(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 4
        a = rng.normal(size=(m, n))
        x_feas = rng.random(n) + 0.1
        b = a @ x_feas
        c = rng.random(n) + 0.5

        lp = scipy.optimize.linprog(c, A_eq=a, b_eq=b, bounds=(0, None))
        assert lp.success

        cons = tuple(((H(np.diag(a[i])),), b[i]) for i in range(m))
        sol = dense_solve(
            SdpProblem(blocks=(n,), objective=(H(np.diag(c)),), constraints=cons), 1e-8
        )
        assert sol.status == STATUS_OPTIMAL
        assert sol.primal_value == pytest.approx(lp.fun, abs=1e-6)


class TestFeasibilityMargin:
    def test_exact_feasible_point(self):
        prob = pin_problem(np.eye(2))
        value, residual = feasibility_margin([np.eye(2)], prob)
        assert value == pytest.approx(2.0)
        assert residual <= 1e-14

    def test_identity_against_trace_one(self):
        d = 3
        prob = SdpProblem(
            blocks=(d,), objective=(H(np.eye(d)),), constraints=(((H(np.eye(d)),), 1.0),)
        )
        _, residual = feasibility_margin([np.eye(d)], prob)
        assert residual == pytest.approx(d - 1)

    def test_solver_output_verifies(self):
        prob = transport_problem(random_density_matrix(3, 40).matrix, random_density_matrix(3, 41).matrix)
        sol = dense_solve(prob, 1e-8)
        value, residual = feasibility_margin(sol.primal_blocks, prob)
        assert residual <= 1e-8
        assert value == pytest.approx(sol.primal_value, abs=1e-12)

    def test_detects_negative_eigenvalue(self):
        prob = SdpProblem(
            blocks=(2,), objective=(H(np.eye(2)),), constraints=(((H(np.eye(2)),), 0.5),)
        )
        _, residual = feasibility_margin([np.diag([1.0, -0.5])], prob)
        assert residual >= 0.5


class TestProblemValidation:
    def test_block_and_coefficient_dims(self):
        with pytest.raises(Exception):
            SdpProblem(blocks=(2,), objective=(H(np.eye(3)),), constraints=())
        with pytest.raises(Exception):
            SdpProblem(
                blocks=(2,),
                objective=(H(np.eye(2)),),
                constraints=(((H(np.eye(3)),), 1.0),),
            )

    def test_rhs_finite(self):
        with pytest.raises(ValueError):
            SdpProblem(
                blocks=(2,),
                objective=(H(np.eye(2)),),
                constraints=(((H(np.eye(2)),), np.inf),),
            )


def _marginal(r, seed, field="complex", eps=None):
    """A random state of dimension r; for ``field="real"`` its real part,
    which is a state too (the conjugate of a state is one).  With ``eps``
    its smallest eigenvalue becomes eps, the others rescaled to trace 1."""
    rho = random_density_matrix(r, seed).matrix if r > 1 else np.eye(1)
    if field == "real":
        rho = rho.real.astype(complex)
    if eps is not None:
        vals, vecs = np.linalg.eigh(rho)
        rho = (vecs * np.concatenate(([eps], vals[1:] * (1 - eps) / vals[1:].sum()))) @ vecs.conj().T
    return rho


def _random_gaussian(rng, n, field):
    g = rng.normal(size=(n, n))
    return g + 1j * rng.normal(size=(n, n)) if field == "complex" else g.astype(complex)


def _random_coupling_problem(ra, rb, k, seed=0, field="complex", eps=None):
    """A coupling problem with k random costs; ``field="real"`` makes the
    costs and the marginals real symmetric, as for states with real
    entries, and ``eps`` is the smallest eigenvalue of both marginals."""
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(k):
        g = _random_gaussian(rng, ra * rb, field)
        costs.append((g + g.conj().T) / 2)
    marginals = (_marginal(ra, seed + 1, field, eps), _marginal(rb, seed + 2, field, eps))
    return coupling_problem(tuple(costs), *marginals)


class TestCouplingStructure:
    """The structured paths for ``coupling_problem`` against the dense oracle."""

    SHAPES = [(1, 1, 1), (1, 3, 1), (3, 1, 2), (2, 3, 1), (4, 4, 2), (8, 8, 1)]
    # real symmetric problems and iterates, whose imaginary parts the
    # complex maps must keep at zero, and general complex Hermitian ones
    FIELDS = ["real", "complex"]
    # every shape in both fields, and marginals with an eigenvalue of 1e-9
    # each, whose weights span nine orders of magnitude
    INPUTS = [
        pytest.param(field, ra, rb, k, None, id=f"{field}-{ra}-{rb}-{k}")
        for field, (ra, rb, k) in itertools.product(FIELDS, SHAPES)
    ] + [pytest.param("complex", 3, 4, 2, 1e-9, id="near-singular-3-4-2")]

    @staticmethod
    def _iterates(ra, rb, k, field="complex"):
        """Random Hermitian PD iterates of size ra*rb, complex or with real
        entries."""
        rng = np.random.default_rng(ra * 100 + rb * 10 + k)
        n = ra * rb

        def pd():
            g = _random_gaussian(rng, n, field)
            return g @ g.conj().T + 0.1 * np.eye(n)

        return pd

    @pytest.mark.parametrize("field, ra, rb, k, eps", INPUTS)
    def test_structured_schur_matches_dense(self, field, ra, rb, k, eps):
        problem = _random_coupling_problem(ra, rb, k, field=field, eps=eps)
        a_blocks = constraint_stacks(problem)
        pd = self._iterates(ra, rb, k, field)
        xs = np.array([pd() for _ in range(k)])
        tinvs = np.array([np.linalg.inv(pd()) for _ in range(k)])
        dense = schur_complement(a_blocks, xs, tinvs)
        structured = sdp._CouplingOperator(problem).schur(xs, tinvs)
        assert structured.shape == dense.shape == (ra * ra + rb * rb - 1,) * 2
        assert np.max(np.abs(structured - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("field, ra, rb, k, eps", INPUTS)
    def test_structured_maps_match_dense(self, field, ra, rb, k, eps):
        """rb = 1 has no B-side rows."""
        problem = _random_coupling_problem(ra, rb, k, field=field, eps=eps)
        dense = DenseOperator(constraint_stacks(problem))
        structured = sdp._CouplingOperator(problem)
        pd = self._iterates(ra, rb, k, field)
        # the solver also applies A to products such as X R S^-1, which are not Hermitian
        xs = np.array([pd() for _ in range(k)] + [pd() @ pd() for _ in range(k)])
        for x_set in (xs[:k], xs[k:]):
            want = dense.apply_a(x_set)
            got = structured.apply_a(x_set)
            assert got.shape == want.shape == (problem.n_constraints,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        y = np.random.default_rng(k).normal(size=problem.n_constraints)
        # one matrix, broadcast over the block stack: every block's A^T y
        got = structured.apply_at(y)
        assert got.shape == (ra * rb,) * 2
        wants = dense.apply_at(y)
        assert wants.shape == (k,) + got.shape
        for want in wants:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_couplings_never_build_the_stack(self, monkeypatch):
        """No library solve reads the explicit constraint list."""
        from qot.transport import stabilized_cost, tensored_cost, transport_cost

        def no_list(problem):
            raise AssertionError("explicit constraint list built")

        monkeypatch.setattr(sdp.CouplingProblem, "constraints", property(no_list))
        for d in (2, 6):
            rho, sigma = random_density_matrix(d, 1), random_density_matrix(d, 2)
            res = transport_cost(rho, sigma)
            assert 0 <= res.gap <= 1e-8
            ts = stabilized_cost(rho, sigma)
            assert ts.value <= res.value + 2e-8
        pure = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        assert transport_cost(pure, pure).value <= 1e-8
        q1, q2 = random_density_matrix(2, 3), random_density_matrix(2, 4)
        assert 0 <= tensored_cost(q1, q2, q1, q2) <= 0.5 + 1e-8
        with pytest.raises(AssertionError, match="constraint list"):
            feasibility_margin([np.eye(4)], _random_coupling_problem(2, 2, 1))

    def test_marginal_with_a_negative_eigenvalue_is_rejected(self):
        """An eigenvalue below -SUPPORT_CUT would otherwise be dropped with
        the null space."""
        bad = np.diag([0.6, 0.4 + 1e-9, -1e-9])
        with pytest.raises(ValueError, match="PSD"):
            coupling_problem((proj_asym(3).matrix,), bad, np.eye(3) / 3)

    def test_marginal_without_support_is_rejected(self):
        with pytest.raises(ValueError, match="no eigenvalue above"):
            coupling_problem((proj_asym(2).matrix,), np.eye(2) / 2, np.diag([1e-11, 0.0]))

    def test_supports_weights_and_potentials_of_a_rank_deficient_pair(self):
        """A rank-2 qutrit against a full-rank one: the support spans the
        range, the weights are the kept eigenvalues summing to 1, and the
        potentials come back on the full space, zero off the support."""
        vals, vecs = np.linalg.eigh(random_density_matrix(3, 21).matrix)
        rho = (vecs[:, 1:] * (vals[1:] / vals[1:].sum())) @ vecs[:, 1:].conj().T
        sigma = random_density_matrix(3, 22).matrix
        built = coupling_problem((proj_asym(3).matrix,), rho, sigma)
        assert built.support_a.shape == (3, 2) and built.support_b.shape == (3, 3)
        assert built.blocks == (6,)
        assert np.allclose(built.support_a.conj().T @ built.support_a, np.eye(2), rtol=0, atol=1e-14)
        assert np.allclose((built.support_a * built.weights_a) @ built.support_a.conj().T, rho, rtol=0, atol=1e-14)
        assert built.weights_a.sum() == pytest.approx(1.0, abs=1e-15)
        (coupling,), pot_a, pot_b = sdp.coupling_solution(built, solve(built))
        assert coupling.shape == (9, 9) and pot_a.shape == pot_b.shape == (3, 3)
        assert np.max(np.abs(pot_a @ vecs[:, 0])) <= 1e-12

    @pytest.mark.parametrize("field, ra, rb, k, eps", INPUTS)
    def test_constraint_rows_are_independent(self, field, ra, rb, k, eps):
        """The A side holds the trace and the B side is traceless, so the
        right-hand side is sqrt(ra) e_0 and no row repeats another: a B side
        over the full ``hermitian_basis(rb)`` would put sigma_min at 0."""
        problem = _random_coupling_problem(ra, rb, k, field=field, eps=eps)
        m = ra * ra + rb * rb - 1
        assert problem.n_constraints == m
        want = np.zeros(m)
        want[0] = np.sqrt(ra)
        assert np.allclose(problem.rhs, want, rtol=0, atol=1e-14)
        for stack in constraint_stacks(problem):
            sv = np.linalg.svd(stack.reshape(m, -1), compute_uv=False)
            assert len(sv) == m and sv[-1] >= 0.1 * sv[0]

    @pytest.mark.parametrize("eps", [None, 1e-7])
    def test_builder_solves_the_transport_problem(self, eps):
        """The scaled problem has the identity as a feasible point, and its
        solution maps back to a certified solution of the unscaled one."""
        rho = random_density_matrix(3, 3).matrix
        sigma = random_density_matrix(3, 4).matrix
        if eps is not None:
            vals, vecs = np.linalg.eigh(rho)
            rho = (vecs * np.concatenate(([eps], vals[1:] / vals[1:].sum() * (1 - eps)))) @ vecs.conj().T
        built = coupling_problem((proj_asym(3).matrix,), rho, sigma)
        reference = transport_problem(rho, sigma)
        assert len(built.constraints) == len(reference.constraints) == 17
        assert feasibility_margin([np.eye(9)], built)[1] <= 1e-14
        tol = 1e-8
        sol = solve(built, tol)
        assert sol.status == STATUS_OPTIMAL
        (coupling,), pot_a, pot_b = sdp.coupling_solution(built, sol)
        value, residual = feasibility_margin([coupling], reference)
        assert residual <= tol
        assert abs(value - sol.primal_value) <= tol
        dual = np.trace(pot_a @ rho).real + np.trace(pot_b @ sigma).real
        assert abs(dual - sol.dual_value) <= tol
        extension = np.kron(pot_a, np.eye(3)) + np.kron(np.eye(3), pot_b)
        assert np.linalg.eigvalsh(extension - proj_asym(3).matrix)[-1] <= tol
        if eps is None:
            assert abs(dense_solve(reference, tol).primal_value - sol.primal_value) <= 2 * tol

    @pytest.mark.parametrize(
        "costs, ra, rb",
        [
            ((proj_asym(3).matrix,), 3, 3),
            ((proj_sym(2).matrix, proj_asym(2).matrix), 2, 2),
            (None, 2, 3),
            (None, 5, 5),
        ],
        ids=["transport-d3", "stabilized-d2", "random-2x3", "random-5x5"],
    )
    def test_structure_record_keeps_the_value(self, costs, ra, rb):
        tol = 1e-8
        if costs is None:
            structured = _random_coupling_problem(ra, rb, 1, seed=5)
        else:
            structured = coupling_problem(costs, _marginal(ra, 6), _marginal(rb, 7))
        plain = SdpProblem(
            blocks=structured.blocks, objective=structured.objective, constraints=structured.constraints
        )
        s1, s2 = solve(structured, tol), dense_solve(plain, tol)
        assert s1.status == s2.status == STATUS_OPTIMAL
        assert abs(s1.primal_value - s2.primal_value) <= 2 * tol
        assert abs(s1.dual_value - s2.dual_value) <= 2 * tol


def _first_shift(x):
    """The first shift the step length tries on x that is not numerically PD."""
    n = x.shape[0]
    return 2.0 * abs(float(np.linalg.eigvalsh(x)[0])) + 1e-16 * (1.0 + abs(float(np.trace(x).real)) / n)


def _max_step_reference(x, dx):
    """The step length by Cholesky, two triangular solves and eigvalsh, with
    the same shifted retry when x is not numerically PD."""
    try:
        lo = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        n, shift = x.shape[0], _first_shift(x)
        for _ in range(8):
            try:
                lo = np.linalg.cholesky(x + shift * np.eye(n))
                break
            except np.linalg.LinAlgError:
                shift *= 10
    w = scipy.linalg.solve_triangular(lo, dx, lower=True)
    w = scipy.linalg.solve_triangular(lo, w.conj().T, lower=True)
    lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
    return 1e30 if lam >= -1e-14 else -1.0 / lam


class TestMaxStep:
    """Step lengths on complex Hermitian pencils, as the solver takes them
    on its X and S blocks."""

    @pytest.mark.parametrize("n", [8, 32, 72])
    @pytest.mark.parametrize("kind", ["pd", "singular", "grazing", "unbounded"])
    def test_matches_cholesky_formula(self, n, kind):
        # real symmetric pencils are Hermitian ones too
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n))
        x = g @ g.T + 0.1 * np.eye(n)
        h = rng.normal(size=(n, n))
        dx = (h + h.T) / 2
        if kind == "singular":
            # an exactly zero pivot: no Cholesky factor, so x is factored shifted
            x[:, -1] = x[-1, :] = 0.0
        if kind == "grazing":
            # no Cholesky factor, and a shift of 2e-10, far above rounding
            x = self._graze(x)
        if kind in ("singular", "grazing"):
            with pytest.raises(np.linalg.LinAlgError):
                scipy.linalg.eigh(dx, x, eigvals_only=True, subset_by_index=[0, 0])
        if kind == "unbounded":
            dx = dx @ dx.T
        want = _max_step_reference(x, dx)
        got = sdp._max_step(dx, sdp._step_factor(x))
        # The shifted pencil has a pivot of order sqrt(shift) ~ 1e-7, so any
        # two kernel sequences agree on it only to about 1e-16 / shift.
        assert got == pytest.approx(want, rel=1e-2 if kind in ("singular", "grazing") else 1e-12)
        assert (got == 1e30) == (kind == "unbounded")

    @staticmethod
    def _pencil(n, seed, field="complex"):
        """A random complex Hermitian pencil (dx, x) with x PD; for
        ``field="real"`` one with real entries, still of complex dtype."""
        rng = np.random.default_rng(seed)
        g, h = _random_gaussian(rng, n, field), _random_gaussian(rng, n, field)
        return g @ g.conj().T + 0.1 * np.eye(n), (h + h.conj().T) / 2

    @pytest.mark.parametrize("n", [8, 18, 32, 72, 128])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_pencil_min_is_scipy_eigh_bit_for_bit(self, field, n):
        for seed in range(3):
            x, dx = self._pencil(n, 10 * n + seed, field)
            want = scipy.linalg.eigh(dx, x, eigvals_only=True, subset_by_index=[0, 0])[0]
            factor = sdp._cholesky(x)
            assert sdp._pencil_min(dx, factor) == want
            assert sdp._max_step(dx, factor) == -1.0 / want

    @pytest.mark.parametrize("n", [8, 18, 32, 72, 128])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_factored_pencil_min_is_pencil_min_bit_for_bit(self, field, n):
        """x that is numerically PD is factored unshifted: its step factor is
        its own Cholesky factor, so the step length is the pencil minimum on
        x itself."""
        for seed in range(3):
            x, dx = self._pencil(n, 10 * n + seed, field)
            factor = sdp._step_factor(x)
            assert np.array_equal(factor, sdp._cholesky(x))
            assert sdp._max_step(dx, factor) == -1.0 / sdp._pencil_min(dx, sdp._cholesky(x))

    @staticmethod
    def _graze(x):
        """x with its smallest eigenvalue moved to -1e-10, just outside the cone."""
        w, v = np.linalg.eigh(x)
        w[0] = -1e-10
        x = (v * w) @ v.conj().T
        return (x + x.conj().T) / 2

    @pytest.mark.parametrize("n", [8, 18, 32, 72, 128])
    @pytest.mark.parametrize("kind", ["zero_pivot", "grazing"])
    def test_shifted_step_is_scipy_eigh_on_the_first_shift_bit_for_bit(self, kind, n):
        """x that is not numerically PD has no factor of its own, so its step
        length is taken on x + shift*I, bit for bit what scipy.linalg.eigh
        gives there."""
        for seed in range(5):
            x, dx = self._pencil(n, 10 * n + seed)
            if kind == "zero_pivot":
                x[:, -1] = x[-1, :] = 0.0
            else:
                x = self._graze(x)
            with pytest.raises(np.linalg.LinAlgError):
                sdp._cholesky(x)
            shifted = x + _first_shift(x) * np.eye(n)
            want = scipy.linalg.eigh(dx, shifted, eigvals_only=True, subset_by_index=[0, 0])[0]
            assert sdp._max_step(dx, sdp._step_factor(x)) == -1.0 / want

    def test_x_without_a_factor_goes_straight_to_the_shifted_pencil(self, monkeypatch):
        """x with a zero pivot is tried once as it is, then factored at the
        first shift, where it is PD."""
        x, dx = self._pencil(8, 0)
        x[:, -1] = x[-1, :] = 0.0
        cholesky, seen = sdp._cholesky, []

        def recorded(mat):
            seen.append(mat)
            return cholesky(mat)

        monkeypatch.setattr(sdp, "_cholesky", recorded)
        factor = sdp._step_factor(x)
        shifted = x + _first_shift(x) * np.eye(8)
        assert len(seen) == 2 and seen[0] is x and np.array_equal(seen[1], shifted)
        assert np.array_equal(factor, cholesky(shifted))
        assert sdp._max_step(dx, factor) == -1.0 / sdp._pencil_min(dx, factor)

    def test_pencil_min_raises_linalg_error_on_singular_x(self):
        """As scipy.linalg.eigh does: singular x has no Cholesky factor."""
        x, dx = self._pencil(8, 0)
        x[:, -1] = x[-1, :] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            sdp._pencil_min(dx, sdp._cholesky(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["x", "dx"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_input_raises_value_error(self, part, bad, where):
        """A non-finite entry raises whether it sits in the real or the
        imaginary part."""
        x, dx = self._pencil(8, 1)
        (x if where == "x" else dx)[2, 3] = bad if part == "real" else 1.0 + 1j * bad
        with pytest.raises(ValueError):
            sdp._pencil_min(dx, sdp._cholesky(x))
        with pytest.raises(ValueError):
            sdp._max_step(dx, sdp._step_factor(x))

    def test_ipm_steps_take_every_step_length_on_a_shared_factor(self, monkeypatch):
        """One factor per X block and step, and four step lengths per block
        and step, none of which factors again."""
        calls = {"pencil": 0, "factor": 0, "steps": 0}
        pencil, step_factor, ipm_step = sdp._pencil_min, sdp._step_factor, sdp._ipm_step

        def count(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(sdp, "_pencil_min", count("pencil", pencil))
        monkeypatch.setattr(sdp, "_step_factor", count("factor", step_factor))
        monkeypatch.setattr(sdp, "_ipm_step", count("steps", ipm_step))
        k = 2
        sol = solve(_random_coupling_problem(2, 3, k), tol=1e-8)
        assert sol.status == STATUS_OPTIMAL
        steps = calls["steps"]
        assert steps > 0
        assert calls == {"pencil": 4 * k * steps, "factor": k * steps, "steps": steps}

    @pytest.mark.parametrize("n", [8, 32, 72])
    def test_cached_lwork_is_the_one_scipy_queries(self, n):
        """heevx asks for the workspace that scipy.linalg.eigh queries for
        hegvx, which hands it on."""
        (query,) = scipy.linalg.lapack.get_lapack_funcs(("hegvx_lwork",), dtype=complex)
        assert sdp._evx_lwork(n) == scipy.linalg.lapack._compute_lwork(query, n, uplo="L")


def _refined_solve_factoring_inside(mat, rhs):
    """The Schur solve as it was before the factor was shared: scipy's
    cho_factor with the same jitter loop, then cho_solve and one refinement."""
    jitter = 0.0
    base = float(np.mean(np.diag(mat))) + 1.0
    for _ in range(12):
        try:
            factor = scipy.linalg.cho_factor(mat + jitter * np.eye(mat.shape[0]), lower=True)
            break
        except np.linalg.LinAlgError:
            jitter = max(1e-14 * base, jitter * 100)
    sol = scipy.linalg.cho_solve(factor, rhs)
    sol += scipy.linalg.cho_solve(factor, rhs - mat @ sol)
    return sol


class TestSchurFactor:
    @staticmethod
    def _schur(ra, rb, k, seed=0):
        """A Schur complement of a coupling problem at random Hermitian PD
        iterates, with a right-hand side."""
        problem = _random_coupling_problem(ra, rb, k, seed)
        pd = TestCouplingStructure._iterates(ra, rb, k)
        xs = np.array([pd() for _ in range(k)])
        tinvs = np.array([np.linalg.inv(pd()) for _ in range(k)])
        mat = sdp._CouplingOperator(problem).schur(xs, tinvs)
        return mat, np.random.default_rng(seed).normal(size=mat.shape[0])

    @pytest.mark.parametrize("ra, rb, k", [(2, 2, 1), (3, 3, 2), (4, 4, 1)])
    def test_precomputed_factor_matches_factoring_inside(self, ra, rb, k):
        mat, rhs = self._schur(ra, rb, k)
        got = sdp._chol_solve_refined(mat, sdp._schur_factor(mat), rhs)
        assert np.array_equal(got, _refined_solve_factoring_inside(mat, rhs))

    def test_singular_schur_enters_the_jitter_loop(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(9, 6))
        mat = g @ g.T  # rank 6 of 9: no Cholesky factor without jitter
        rhs = rng.normal(size=9)
        calls = []
        cholesky = sdp._cholesky

        def counting_cholesky(m):
            calls.append(m)
            return cholesky(m)

        monkeypatch.setattr(sdp, "_cholesky", counting_cholesky)
        factor = sdp._schur_factor(mat)
        assert len(calls) > 1
        assert np.array_equal(sdp._chol_solve_refined(mat, factor, rhs), _refined_solve_factoring_inside(mat, rhs))

    def test_one_factorization_per_ipm_step(self, monkeypatch):
        factors_per_step = []
        schur_factor, ipm_step = sdp._schur_factor, sdp._ipm_step

        def counting_factor(mat):
            factors_per_step[-1] += 1
            return schur_factor(mat)

        def counting_step(*args):
            factors_per_step.append(0)
            return ipm_step(*args)

        monkeypatch.setattr(sdp, "_schur_factor", counting_factor)
        monkeypatch.setattr(sdp, "_ipm_step", counting_step)
        sol = solve(_random_coupling_problem(2, 3, 2), tol=1e-8)
        assert sol.status == STATUS_OPTIMAL
        assert factors_per_step == [1] * (sol.iterations - 1)


class TestIteratesStayHermitian:
    """Every X and S stack an IPM step receives is exactly Hermitian, bit
    for bit: each update keeps the Hermitian part of its sum."""

    @staticmethod
    def _watch(monkeypatch):
        seen = {"steps": 0}
        ipm_step = sdp._ipm_step

        def checked_step(op, b, xs, ss, y, rds, mu, n_total):
            for stack in (xs, ss):
                assert stack.dtype == complex and stack.ndim == 3
                assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))
            seen["steps"] += 1
            return ipm_step(op, b, xs, ss, y, rds, mu, n_total)

        monkeypatch.setattr(sdp, "_ipm_step", checked_step)
        return seen

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cost", ["transport", "stabilized"])
    def test_coupling_solves(self, monkeypatch, d, cost):
        from qot.transport import stabilized_cost, transport_cost

        seen = self._watch(monkeypatch)
        solver = transport_cost if cost == "transport" else stabilized_cost
        result = solver(random_density_matrix(d, 60 + d), random_density_matrix(d, 70 + d))
        assert result.gap <= 1e-8
        assert seen["steps"] > 0

    def test_hand_built_problem(self, monkeypatch):
        seen = self._watch(monkeypatch)
        prob = transport_problem(random_density_matrix(3, 80).matrix, random_density_matrix(3, 81).matrix)
        assert dense_solve(prob, 1e-8).status == STATUS_OPTIMAL
        assert seen["steps"] > 0


class TestCentring:
    """SDPT3's centring exponent and step fraction, as ``_centring`` gives
    them and as every IPM step takes them."""

    @pytest.mark.parametrize(
        "ratio, reach, sigma, gamma",
        [
            # a short predictor step: plain ratio, the least fraction
            (0.25, 0.0, 0.25, 0.9),
            # e = 3 * 0.25 = 0.75 is below 1: the exponent stays at 1
            (0.25, 0.5, 0.25, 0.9 + 0.045),
            # e = 3 * 0.64 = 1.92
            (0.25, 0.8, 0.25**1.92, 0.9 + 0.072),
            # a full predictor step: Mehrotra's cube, the largest fraction
            (0.25, 1.0, 0.25**3, 0.99),
            # a predictor that raised mu centres fully
            (1.5, 1.0, 1.0, 0.99),
            # rounding can leave mu_aff slightly negative
            (-1e-20, 1.0, 0.0, 0.99),
        ],
    )
    def test_rules(self, ratio, reach, sigma, gamma):
        got_sigma, got_gamma = sdp._centring(ratio, reach)
        assert got_sigma == pytest.approx(sigma, rel=1e-15, abs=0)
        assert got_gamma == pytest.approx(gamma, rel=1e-15, abs=0)

    def test_exponent_is_continuous_where_it_leaves_one(self):
        """e = 3 reach^2 reaches 1 at reach = 1/sqrt(3)."""
        edge = 1 / np.sqrt(3)
        below, _ = sdp._centring(0.5, edge - 1e-9)
        above, _ = sdp._centring(0.5, edge + 1e-9)
        assert below == pytest.approx(0.5, rel=1e-12)
        assert above == pytest.approx(0.5, rel=1e-8)
        assert above <= below

    def test_every_ipm_step_centres_once_on_clipped_step_lengths(self, monkeypatch):
        """The reach is the least predictor step length, X's and S's,
        clipped at 1: the first 2k of the 4k step lengths of a step."""
        seen, lengths = [], []
        centring, max_step = sdp._centring, sdp._max_step

        def recorded(ratio, reach):
            seen.append((ratio, reach))
            return centring(ratio, reach)

        def measured(dx, factor):
            lengths.append(max_step(dx, factor))
            return lengths[-1]

        monkeypatch.setattr(sdp, "_centring", recorded)
        monkeypatch.setattr(sdp, "_max_step", measured)
        k = 2
        sol = solve(_random_coupling_problem(2, 3, k), tol=1e-8)
        assert sol.status == STATUS_OPTIMAL
        assert len(seen) == sol.iterations - 1
        assert len(lengths) == 4 * k * len(seen)
        for i, (ratio, reach) in enumerate(seen):
            assert reach == min(1.0, *lengths[4 * k * i : 4 * k * i + 2 * k])
            assert 0.0 < reach <= 1.0 and ratio < 1.0


def _scored(score, mu=None):
    """A non-optimal iterate with score ``score`` at n_total = 1."""
    return sdp._Iterate(mu=score if mu is None else mu, gap=1.0, pinf=score, dinf=score)


class TestExits:
    """Every way the IPM ends: the four exits of ``_stop`` (optimal, stall,
    mu floor and cap) on synthetic records, then on solves with a breakdown,
    the one end ``_stop`` does not decide."""

    @staticmethod
    def _stop(records, scale_p=1.0, scale_d=1.0):
        return sdp._stop(records, 1e-8, scale_p, scale_d, 1)

    def test_optimal_on_the_last_record(self):
        assert self._stop([_scored(1.0), sdp._Iterate(1e-9, -1e-9, 1e-9, 1e-9)]) == STATUS_OPTIMAL

    def test_dual_residual_is_scaled_and_the_gap_taken_absolute(self):
        near = sdp._Iterate(1e-9, -1e-9, 1e-9, 5e-8)
        assert self._stop([near], scale_d=10.0) == STATUS_OPTIMAL
        assert self._stop([near]) is None
        assert self._stop([sdp._Iterate(1e-9, -2e-8, 1e-9, 1e-9)]) is None

    def test_stall_stops_on_the_twelfth_record_without_progress(self):
        records = [_scored(1.0)] + [_scored(0.8)] * 11
        assert self._stop(records) is None
        assert self._stop(records + [_scored(0.8)]) == sdp.STATUS_MAX_ITERATIONS

    def test_progress_resets_the_stall_count(self):
        records = [_scored(1.0)] + [_scored(0.8)] * 11 + [_scored(0.69)] + [_scored(0.5)] * 11
        assert self._stop(records) is None
        assert self._stop(records + [_scored(0.5)]) == sdp.STATUS_MAX_ITERATIONS

    def test_mu_floor_scales_with_both_sides(self):
        assert self._stop([_scored(1.0, mu=1e-17)]) == sdp.STATUS_MAX_ITERATIONS
        assert self._stop([_scored(1.0, mu=5e-15)], scale_p=10.0, scale_d=10.0) == sdp.STATUS_MAX_ITERATIONS
        assert self._stop([_scored(1.0, mu=2e-14)], scale_p=10.0, scale_d=10.0) is None

    def test_progress_goes_on(self):
        assert self._stop([_scored(1.0), _scored(0.5)]) is None

    def test_cap_stops_on_the_max_iter_th_record(self):
        """Records that keep improving end the solve on the ``_MAX_ITER``-th."""
        records = [_scored(0.69**i) for i in range(sdp._MAX_ITER)]
        assert self._stop(records[:-1], scale_p=0.1, scale_d=0.1) is None
        assert self._stop(records, scale_p=0.1, scale_d=0.1) == sdp.STATUS_MAX_ITERATIONS

    @staticmethod
    def _exit_problem(exit, monkeypatch):
        """A problem, with the solver patched where needed, that ends on ``exit``."""
        if exit == "stall":
            from test_transport import near_singular

            rho, sigma = near_singular(3, 1e-9, 100), near_singular(3, 1e-9, 200)
            return coupling_problem((proj_asym(3).matrix,), rho.matrix, sigma.matrix)
        if exit == "cap":
            monkeypatch.setattr(sdp, "_MAX_ITER", 2)
        if exit == "breakdown":
            ipm_step, steps = sdp._ipm_step, []

            def second_breaks(*args):
                steps.append(1)
                if len(steps) == 2:
                    raise np.linalg.LinAlgError("breakdown")
                return ipm_step(*args)

            monkeypatch.setattr(sdp, "_ipm_step", second_breaks)
        return _random_coupling_problem(2, 3, 1)

    @pytest.mark.parametrize(
        "exit, status, iterations",
        [
            ("optimal", STATUS_OPTIMAL, None),
            ("stall", sdp.STATUS_MAX_ITERATIONS, None),
            ("cap", sdp.STATUS_MAX_ITERATIONS, 2),
            ("breakdown", sdp.STATUS_MAX_ITERATIONS, 2),
        ],
    )
    def test_every_exit_returns_its_last_record(self, monkeypatch, exit, status, iterations):
        """The gap and the residual of every exit are those ``_stop`` judged
        last; nothing measures them again."""
        judged = []
        stop = sdp._stop

        def recorded(records, *args):
            judged.append(records[-1])
            return stop(records, *args)

        problem = self._exit_problem(exit, monkeypatch)
        monkeypatch.setattr(sdp, "_stop", recorded)
        sol = solve(problem, tol=1e-8)
        assert sol.status == status
        assert sol.iterations == len(judged)
        assert iterations is None or sol.iterations == iterations
        assert sol.gap == judged[-1].gap
        assert sol.primal_infeasibility == judged[-1].pinf

    def test_cap_ends_on_its_last_record(self, monkeypatch):
        """The cap is the ``_MAX_ITER``-th record: no step follows it."""
        steps = []
        ipm_step = sdp._ipm_step

        def counted(*args):
            steps.append(1)
            return ipm_step(*args)

        monkeypatch.setattr(sdp, "_MAX_ITER", 2)
        monkeypatch.setattr(sdp, "_ipm_step", counted)
        sol = solve(_random_coupling_problem(2, 3, 1), tol=1e-8)
        assert sol.status == sdp.STATUS_MAX_ITERATIONS
        assert sol.iterations == 2
        assert len(steps) == 1

    def test_breakdown_returns_the_last_consistent_iterate(self, monkeypatch):
        def broken(*args):
            raise np.linalg.LinAlgError("breakdown")

        monkeypatch.setattr(sdp, "_ipm_step", broken)
        sol = solve(_random_coupling_problem(2, 3, 1), tol=1e-8)
        assert sol.status == sdp.STATUS_MAX_ITERATIONS
        assert sol.iterations == 1
        assert not sol.dual_vector.any()  # the start point, y = 0

    def test_both_sided_near_singular_transport_ends_on_the_stall_rule(self, monkeypatch):
        """The both-sided near-singular qutrit pair at eps = 1e-9 of
        ``test_transport``, which raises ``SolverFailure``: its last ``_stop``
        call ends the solve on the stall rule, and no step broke down.  No
        real input is known that still ends on a breakdown;
        ``test_breakdown_returns_the_last_consistent_iterate`` covers that
        exit."""
        from qot.transport import transport_cost
        from test_transport import near_singular

        calls, raised = [], []
        stop, ipm_step = sdp._stop, sdp._ipm_step

        def recorded(records, *args):
            status = stop(records, *args)
            calls.append((list(records), args, status))
            return status

        def watched(*args):
            try:
                return ipm_step(*args)
            except np.linalg.LinAlgError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(sdp, "_stop", recorded)
        monkeypatch.setattr(sdp, "_ipm_step", watched)
        with pytest.raises(sdp.SolverFailure) as failure:
            transport_cost(near_singular(3, 1e-9, 100), near_singular(3, 1e-9, 200))
        assert failure.value.status == sdp.STATUS_MAX_ITERATIONS
        records, (_, scale_p, scale_d, n_total), status = calls[-1]
        assert status == sdp.STATUS_MAX_ITERATIONS and not raised
        assert 12 < len(records) < sdp._MAX_ITER
        assert records[-1].mu >= 1e-16 * scale_d * scale_p  # not the mu floor
        scores = [max(r.mu * n_total, r.pinf, r.dinf) for r in records]
        assert min(scores[-12:]) >= 0.7 * min(scores[:-12])


# Benchmark qubit transport ops that the solver certifies on a short path.
# Seeds 5, 13 and 44 certified only through rounding while X ran on the real
# embedding of its blocks, in 21, 22 and 23 iterations; seed 2 cycle 159
# failed.  On complex blocks with the adaptive centring the counts no longer
# hang on rounding, but a change of the iteration moves them.  The
# bit-for-bit check of every workload is scripts/op_fingerprints.py, run on
# this checkout and the previous commit.
@pytest.mark.parametrize("seed, index, iterations", [(5, 20, 10), (13, 107, 9), (44, 33, 9), (2, 159, 9)])
def test_rounding_sensitive_qubit_transport_keeps_its_path(monkeypatch, seed, index, iterations):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import cycle

    op = next(o for o in cycle("small-pairs", seed, index) if o.label == "transport d=2")
    rho, sigma = op.states
    sol = solve(coupling_problem((proj_asym(2).matrix,), rho, sigma))
    assert sol.status == STATUS_OPTIMAL
    assert sol.iterations == iterations


@pytest.mark.parametrize("seed, index, label", [(1, 8, "stabilized eps=1e-07 d=2"), (2, 2, "stabilized eps=1e-06 d=4")])
def test_near_singular_stabilized_boundary_ops_certify(monkeypatch, seed, index, label):
    """Two boundary ops whose solves stalled with a fixed centring cube."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import cycle
    from qot.transport import stabilized_cost

    op = next(o for o in cycle("boundary", seed, index) if o.label == label)
    rho, sigma = (DensityMatrix(m) for m in op.states)
    assert stabilized_cost(rho, sigma).gap <= 1e-8
