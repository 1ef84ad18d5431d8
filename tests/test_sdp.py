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
from qot.sdp import STATUS_OPTIMAL, complex_to_real_embedding, coupling_problem, feasibility_margin, solve

H = HermitianOperator


# ---------------------------------------------------------------------------
# Dense reference oracle: hand-built SDPs with an explicit constraint list,
# solved by the library's interior-point core through a dense (m, 2n, 2n)
# constraint stack per block.


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
    """Dense constraint stacks of the real embedding, one (m, 2n, 2n) array
    per block, for an ``SdpProblem`` or a ``CouplingProblem``."""
    m = problem.n_constraints
    stacks = []
    for j, n in enumerate(problem.blocks):
        stack = np.zeros((m, 2 * n, 2 * n))
        for i, (coeffs, _) in enumerate(problem.constraints):
            if coeffs[j] is not None:
                stack[i] = complex_to_real_embedding(coeffs[j].matrix)
        stacks.append(stack)
    return stacks


def schur_complement(a_blocks, xs, sinvs) -> np.ndarray:
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
    return (mat + mat.T) / 2


class DenseOperator:
    """Constraint maps and Schur complement through the dense real stacks,
    on (k, 2n, 2n) block stacks; the interface of ``sdp._CouplingOperator``,
    whose Schur complement takes S^-1 as its complex (k, n, n) blocks."""

    def __init__(self, stacks):
        self.stacks = stacks

    def apply_a(self, xs) -> np.ndarray:
        m = self.stacks[0].shape[0]
        out = np.zeros(m)
        for a, x in zip(self.stacks, xs):
            out += a.reshape(m, -1) @ x.T.reshape(-1)
        return out

    def apply_at(self, y) -> np.ndarray:
        return np.array([np.tensordot(y, a, axes=(0, 0)) for a in self.stacks])

    def schur(self, xs, tinvs) -> np.ndarray:
        return schur_complement(self.stacks, xs, complex_to_real_embedding(tinvs))


def dense_solve(problem: SdpProblem, tol: float) -> sdp.SdpSolution:
    """The library's interior-point core on a hand-built problem."""
    rhs = np.array([value for _, value in problem.constraints])
    return sdp._solve_embedded(problem.objective, rhs, DenseOperator(constraint_stacks(problem)), tol)


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


class TestEmbedding:
    def test_real_input_is_block_diagonal(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        out = complex_to_real_embedding(h)
        assert np.array_equal(out, np.block([[h, np.zeros((2, 2))], [np.zeros((2, 2)), h]]))

    def test_pauli_y(self):
        h = np.array([[0, -1j], [1j, 0]])
        out = complex_to_real_embedding(h)
        assert np.array_equal(out, out.T)
        assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [-1, -1, 1, 1])

    def test_trace_doubles(self):
        rho = random_density_matrix(4, 0).matrix
        assert np.isclose(np.trace(complex_to_real_embedding(rho)), 2 * np.trace(rho).real)

    def test_psd_iff(self):
        rho = random_density_matrix(3, 1).matrix
        assert np.linalg.eigvalsh(complex_to_real_embedding(rho))[0] >= -1e-14
        indef = np.diag([1.0, -0.5, 0.2])
        assert np.linalg.eigvalsh(complex_to_real_embedding(indef))[0] < -0.4

    def test_eigenvalues_doubled(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (g + g.conj().T) / 2
        emb = np.linalg.eigvalsh(complex_to_real_embedding(h))
        assert np.allclose(emb, np.repeat(np.linalg.eigvalsh(h), 2), atol=1e-12)

    def test_stack_embeds_matrix_by_matrix(self):
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        out = complex_to_real_embedding(stack)
        assert out.shape == (3, 4, 4)
        for got, h in zip(out, stack, strict=True):
            assert np.array_equal(got, complex_to_real_embedding(h))
        assert np.array_equal(sdp._compression(out) / 2, stack)
        assert np.array_equal(sdp._complex_of_image(out), stack)

    def test_compression_pairs_embedded_operators_with_any_real_matrix(self):
        """Tr[E(H) X] = Re Tr[H Z] for X off the image too, block by block."""
        rng = np.random.default_rng(9)
        hs = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        xs = rng.normal(size=(2, 6, 6))
        zs = sdp._compression(xs)
        assert zs.shape == (2, 3, 3)
        for h, x, z in zip(hs, xs, zs, strict=True):
            assert np.trace(complex_to_real_embedding(h) @ x) == pytest.approx(np.trace(h @ z).real, rel=1e-13)


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


def _marginal(r, seed):
    return random_density_matrix(r, seed).matrix if r > 1 else np.eye(1)


def _random_coupling_problem(ra, rb, k, seed=0):
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(k):
        g = rng.normal(size=(ra * rb, ra * rb)) + 1j * rng.normal(size=(ra * rb, ra * rb))
        costs.append((g + g.conj().T) / 2)
    return coupling_problem(tuple(costs), _marginal(ra, seed + 1), _marginal(rb, seed + 2))


class TestCouplingStructure:
    """The structured paths for ``coupling_problem`` against the dense oracle."""

    SHAPES = [(1, 1, 1), (1, 3, 1), (3, 1, 2), (2, 3, 1), (4, 4, 2), (8, 8, 1)]

    @staticmethod
    def _iterates(ra, rb, k, iterates):
        """Random SPD iterates: embedded ones lie in the image of the
        embedding; real ones are any SPD matrix of twice the size.  The
        ``complex`` kind is the complex n x n matrix of an embedded one."""
        rng = np.random.default_rng(ra * 100 + rb * 10 + k)
        n = ra * rb

        def pd():
            if iterates in ("embedded", "complex"):
                g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                h = g @ g.conj().T + 0.1 * np.eye(n)
                return h if iterates == "complex" else complex_to_real_embedding(h)
            g = rng.normal(size=(2 * n, 2 * n))
            return g @ g.T + 0.1 * np.eye(2 * n)

        return pd

    @pytest.mark.parametrize("ra, rb, k", SHAPES)
    @pytest.mark.parametrize("iterates", ["embedded", "real"])
    def test_structured_schur_matches_dense(self, ra, rb, k, iterates):
        problem = _random_coupling_problem(ra, rb, k)
        a_blocks = constraint_stacks(problem)
        pd = self._iterates(ra, rb, k, iterates)
        xs = np.array([pd() for _ in range(k)])
        # S is on the image of the embedding whatever X is
        s_pd = self._iterates(ra, rb, k + 1, "complex")
        tinvs = np.array([np.linalg.inv(s_pd()) for _ in range(k)])
        dense = schur_complement(a_blocks, xs, complex_to_real_embedding(tinvs))
        structured = sdp._CouplingOperator(problem).schur(xs, tinvs)
        assert structured.shape == dense.shape == (ra * ra + rb * rb - 1,) * 2
        assert np.max(np.abs(structured - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("ra, rb, k", SHAPES)
    @pytest.mark.parametrize("iterates", ["embedded", "real"])
    def test_structured_maps_match_dense(self, ra, rb, k, iterates):
        """rb = 1 has no B-side rows."""
        problem = _random_coupling_problem(ra, rb, k)
        dense = DenseOperator(constraint_stacks(problem))
        structured = sdp._CouplingOperator(problem)
        pd = self._iterates(ra, rb, k, iterates)
        # the solver also applies A to products such as X R S^-1, which are not symmetric
        xs = np.array([pd() for _ in range(k)] + [pd() @ pd() for _ in range(k)])
        for x_set in (xs[:k], xs[k:]):
            want = dense.apply_a(x_set)
            got = structured.apply_a(x_set)
            assert got.shape == want.shape == (problem.n_constraints,)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        y = np.random.default_rng(k).normal(size=problem.n_constraints)
        # one matrix, broadcast over the block stack: every block's A^T y
        got = structured.apply_at(y)
        assert got.shape == (2 * ra * rb,) * 2
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

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_orthogonal_basis(self, r):
        red = _marginal(r, 11)
        basis = sdp._orthogonal_basis(red)
        coords = np.einsum("kij,lji->kl", basis, basis).real
        assert basis.shape == (r * r - 1, r, r)
        assert np.allclose(coords, np.eye(r * r - 1), rtol=0, atol=1e-13)
        assert np.allclose(np.einsum("kij,ji->k", basis, red), 0, rtol=0, atol=1e-13)
        assert np.allclose(basis, basis.conj().transpose(0, 2, 1), rtol=0, atol=0)
        assert np.allclose(sdp._orthogonal_basis(np.eye(r) / r), hermitian_basis(r)[1:], rtol=0, atol=1e-15)

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
    w = scipy.linalg.solve_triangular(lo, w.T, lower=True)
    lam = float(np.linalg.eigvalsh((w + w.T) / 2)[0])
    return 1e30 if lam >= -1e-14 else -1.0 / lam


class TestMaxStep:
    # X blocks are real, and their step lengths are taken on real pencils;
    # S blocks are read as complex n x n matrices, and theirs on complex ones.
    FIELDS = ["real", "complex"]

    @pytest.mark.parametrize("n", [8, 32, 72])
    @pytest.mark.parametrize("kind", ["pd", "singular", "grazing", "unbounded"])
    def test_matches_cholesky_formula(self, n, kind):
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
    def _pencil(n, seed, field="real"):
        rng = np.random.default_rng(seed)
        g, h = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        if field == "complex":
            g, h = g + 1j * rng.normal(size=(n, n)), h + 1j * rng.normal(size=(n, n))
        return g @ g.conj().T + 0.1 * np.eye(n), (h + h.conj().T) / 2

    @pytest.mark.parametrize("n", [8, 18, 32, 72, 128])
    @pytest.mark.parametrize("field", FIELDS)
    def test_pencil_min_is_scipy_eigh_bit_for_bit(self, n, field):
        for seed in range(3):
            x, dx = self._pencil(n, 10 * n + seed, field)
            want = scipy.linalg.eigh(dx, x, eigvals_only=True, subset_by_index=[0, 0])[0]
            factor = sdp._cholesky(x)
            assert sdp._pencil_min(dx, factor) == want
            assert sdp._max_step(dx, factor) == -1.0 / want

    @pytest.mark.parametrize("n", [8, 18, 32, 72, 128])
    @pytest.mark.parametrize("field", FIELDS)
    def test_factored_pencil_min_is_pencil_min_bit_for_bit(self, n, field):
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
        x = (v * w) @ v.T
        return (x + x.T) / 2

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

    @pytest.mark.parametrize("field", FIELDS)
    def test_x_without_a_factor_goes_straight_to_the_shifted_pencil(self, monkeypatch, field):
        """x with a zero pivot is tried once as it is, then factored at the
        first shift, where it is PD."""
        x, dx = self._pencil(8, 0, field)
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

    @pytest.mark.parametrize("field", FIELDS)
    def test_pencil_min_raises_linalg_error_on_singular_x(self, field):
        """As scipy.linalg.eigh does: singular x has no Cholesky factor."""
        x, dx = self._pencil(8, 0, field)
        x[:, -1] = x[-1, :] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            sdp._pencil_min(dx, sdp._cholesky(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["x", "dx"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_non_finite_input_raises_value_error(self, bad, where, field):
        x, dx = self._pencil(8, 1, field)
        (x if where == "x" else dx)[2, 3] = bad
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
    @pytest.mark.parametrize("field", FIELDS)
    def test_cached_lwork_is_the_one_scipy_queries(self, n, field):
        """syevx (heevx) asks for the workspace that scipy.linalg.eigh
        queries for sygvx (hegvx), which hands it on."""
        name, dtype = ("sygvx_lwork", float) if field == "real" else ("hegvx_lwork", complex)
        (query,) = scipy.linalg.lapack.get_lapack_funcs((name,), dtype=dtype)
        assert sdp._evx_lwork(n, dtype) == scipy.linalg.lapack._compute_lwork(query, n, uplo="L")


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
        """A Schur complement of a coupling problem at random embedded SPD
        iterates, with a right-hand side."""
        problem = _random_coupling_problem(ra, rb, k, seed)
        pd = TestCouplingStructure._iterates(ra, rb, k, "complex")
        xs = complex_to_real_embedding([pd() for _ in range(k)])
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


class TestDualSideOnTheImage:
    """The solver reads each S block, and each S direction, as the complex
    matrix of its upper-left and lower-left quarters.  That is exact only on
    the image of the embedding, where S, the dual residual and dS stay: each
    is a sum of embeddings, scaled and symmetrized entry by entry."""

    @staticmethod
    def _watch(monkeypatch):
        """Check every S and dual residual an IPM step gets, and every stack
        the solver reads as complex, against the embedding of its read."""
        seen = {"steps": 0, "reads": 0}
        ipm_step, read = sdp._ipm_step, sdp._complex_of_image

        def assert_on_image(ms):
            assert ms.ndim == 3
            assert np.array_equal(ms, complex_to_real_embedding(read(ms)))

        def checked_read(ms):
            assert_on_image(ms)
            seen["reads"] += 1
            return read(ms)

        def checked_step(op, b, xs, ss, y, rds, mu, n_total):
            assert_on_image(ss)
            assert_on_image(rds)
            seen["steps"] += 1
            return ipm_step(op, b, xs, ss, y, rds, mu, n_total)

        monkeypatch.setattr(sdp, "_complex_of_image", checked_read)
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
        # S, then the predictor's and the corrector's dS, per step
        assert seen["steps"] > 0 and seen["reads"] == 3 * seen["steps"]

    def test_hand_built_problem(self, monkeypatch):
        seen = self._watch(monkeypatch)
        prob = transport_problem(random_density_matrix(3, 80).matrix, random_density_matrix(3, 81).matrix)
        assert dense_solve(prob, 1e-8).status == STATUS_OPTIMAL
        assert seen["steps"] > 0 and seen["reads"] == 3 * seen["steps"]


# Small-pairs benchmark ops whose certificates depend on rounding: the part of
# X off the image of the real embedding grows for about eight iterations
# before the solve recovers.  This guards the d = 2 path only: a rounding
# change can keep these counts and still move larger solves, as a C-ordered
# stack of the S^-1 blocks did.  The bit-for-bit check of every workload is
# scripts/op_fingerprints.py, run on this checkout and the previous commit.
@pytest.mark.parametrize("seed, index, iterations", [(5, 20, 21), (13, 107, 22), (44, 33, 23)])
def test_rounding_sensitive_qubit_transport_keeps_its_path(monkeypatch, seed, index, iterations):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import cycle

    op = next(o for o in cycle("small-pairs", seed, index) if o.label == "transport d=2")
    rho, sigma = op.states
    sol = solve(coupling_problem((proj_asym(2).matrix,), rho, sigma))
    assert sol.status == STATUS_OPTIMAL
    assert sol.iterations == iterations
