import numpy as np
import pytest

from qot import transport
from qot.quantum import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    PureState,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)
from qot.sdp import STATUS_UNCERTIFIED, SolverFailure
from qot.transport import (
    DualWitness,
    dual_value,
    stabilized_cost,
    stabilized_cost_via_tensoring,
    tensored_cost,
    transport_cost,
    wasserstein,
)

E0 = DensityMatrix(np.diag([1.0, 0.0]))
E1 = DensityMatrix(np.diag([0.0, 1.0]))


def swap_matrix(d):
    return np.eye(d * d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)


class TestTransportCost:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identical_states_cost_zero(self, d):
        rho = random_density_matrix(d, 14 + d)
        assert transport_cost(rho, rho).value == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure_states(self):
        # marginals pin the coupling to |01><01|; its antisymmetric
        # expectation, computed by hand, is 1/2
        res = transport_cost(E0, E1)
        assert res.value == pytest.approx(0.5, abs=1e-7)

    def test_maximally_mixed_pair(self):
        mm = DensityMatrix(np.eye(2) / 2)
        assert transport_cost(mm, mm).value == pytest.approx(0.0, abs=1e-7)

    def test_overlap_036_gives_032(self):
        psi = PureState(np.array([1.0, 0.0]))
        phi = PureState(np.array([0.6, 0.8]))
        res = transport_cost(psi.density(), phi.density())
        assert res.value == pytest.approx((1 - 0.36) / 2, abs=1e-7)

    @pytest.mark.parametrize("d", [2, 3])
    def test_coupling_reproduces_marginals(self, d):
        rho = random_density_matrix(d, 50 + d)
        sigma = random_density_matrix(d, 60 + d)
        res = transport_cost(rho, sigma)
        tau = res.coupling.matrix
        assert np.max(np.abs(partial_trace(tau, (d, d), (0,)) - rho.matrix)) <= transport.DEFAULT_TOL
        assert np.max(np.abs(partial_trace(tau, (d, d), (1,)) - sigma.matrix)) <= transport.DEFAULT_TOL
        assert 0 <= res.value <= 1 + 1e-9
        assert res.gap <= 1e-8

    def test_pure_inputs_still_give_certified_witness(self):
        psi = random_pure_state(3, 3)
        phi = random_pure_state(3, 4)
        res = transport_cost(psi.density(), phi.density())
        assert res.dual_witness.feasibility_margin >= -1e-7
        dv = dual_value(psi.density(), phi.density(), res.dual_witness)
        assert dv <= res.value + 1e-7
        assert dv == pytest.approx(res.value, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            transport_cost(E0, random_density_matrix(3, 0))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gap_is_that_of_the_returned_witness(self, seed):
        """For a rank-deficient input the witness is lifted off the support,
        which costs dual value; the reported gap includes that loss and the
        witness's infeasibility, if any."""
        vals, vecs = np.linalg.eigh(random_density_matrix(3, 70 + seed).matrix)
        rho = DensityMatrix((vecs[:, 1:] * (vals[1:] / vals[1:].sum())) @ vecs[:, 1:].conj().T)
        sigma = random_density_matrix(3, 80 + seed)
        res = transport_cost(rho, sigma)
        slack = max(0.0, -res.dual_witness.feasibility_margin)
        assert abs(res.gap - (res.value - dual_value(rho, sigma, res.dual_witness) + slack)) <= 1e-12
        assert res.gap >= res.value - dual_value(rho, sigma, res.dual_witness)

    def test_gap_counts_the_witness_infeasibility(self, monkeypatch):
        """A witness that is infeasible by delta certifies only dual - delta."""
        rho, sigma = random_density_matrix(3, 71), random_density_matrix(3, 81)
        delta = 5e-8

        def shifted(pot_a, pot_b):
            # raise the dual by delta/2 on each side: infeasible by delta
            return pot_a + delta / 2 * np.eye(3), pot_b + delta / 2 * np.eye(3)

        monkeypatch.setattr(transport, "_balance_traces", shifted)
        res = transport_cost(rho, sigma)
        margin = res.dual_witness.feasibility_margin
        assert margin < -delta / 2
        dual = dual_value(rho, sigma, res.dual_witness)
        assert abs(res.gap - (res.value - dual - margin)) <= 1e-12


def near_singular(d, eps, seed):
    """Random eigenbasis, smallest eigenvalue eps, the rest a flat Dirichlet draw."""
    rng = np.random.default_rng(seed)
    u = random_unitary(d, seed)
    vals = np.concatenate(([eps], (1 - eps) * rng.dirichlet(np.ones(d - 1))))
    return DensityMatrix((u * vals) @ u.conj().T)


def uncertified_pairs():
    """Full-rank qubit pairs with an eigenvalue of 1e-9 on both sides: their
    solves reach tol, but the potentials read off them are infeasible by
    1.6e-3 to 5.4e-2, so they certify nothing."""
    pairs = [(near_singular(2, 1e-9, 100 + s), near_singular(2, 1e-9, 200 + s)) for s in range(3)]
    return pairs + [(DensityMatrix(np.diag([1 - 1e-9, 1e-9])), DensityMatrix(np.diag([1e-9, 1 - 1e-9])))]


UNCERTIFIED_IDS = ["near-singular-0", "near-singular-1", "near-singular-2", "diagonal"]


class TestNearSingularMarginals:
    """Eigenvalues between SUPPORT_CUT and 1e-6 are kept, so these solves run
    next to the cone boundary; they must still return certified answers."""

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-6])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_certified_within_tol(self, d, eps):
        tol = 1e-8
        rho = near_singular(d, eps, 100 + d)
        sigma = random_density_matrix(d, 200 + d)
        res = transport_cost(rho, sigma, tol)
        assert res.dual_witness.feasibility_margin >= -tol
        assert abs(res.value - dual_value(rho, sigma, res.dual_witness)) <= tol
        tau = res.coupling.matrix
        assert np.max(np.abs(partial_trace(tau, (d, d), (0,)) - rho.matrix)) <= tol
        assert np.max(np.abs(partial_trace(tau, (d, d), (1,)) - sigma.matrix)) <= tol
        assert stabilized_cost(rho, sigma, tol).value <= res.value + 2 * tol

    @pytest.mark.parametrize("index", range(4), ids=UNCERTIFIED_IDS)
    def test_infeasible_witness_is_a_typed_failure(self, index):
        rho, sigma = uncertified_pairs()[index]
        with pytest.raises(SolverFailure, match="witness is infeasible") as info:
            transport_cost(rho, sigma)
        assert info.value.status == STATUS_UNCERTIFIED

    @pytest.mark.xfail(
        raises=SolverFailure,
        reason="ROADMAP item 1: the IPM stalls when both marginals carry an eigenvalue near zero",
    )
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_stabilized_both_sides_near_singular(self, s):
        tol = 1e-8
        rho = near_singular(3, 1e-7, 100 + s)
        sigma = near_singular(3, 1e-7, 200 + s)
        res = stabilized_cost(rho, sigma, tol)
        assert abs(res.gap) <= tol
        tau = res.sym_block.matrix + res.asym_block.matrix
        assert np.max(np.abs(partial_trace(tau, (3, 3), (0,)) - rho.matrix)) <= tol
        assert np.max(np.abs(partial_trace(tau, (3, 3), (1,)) - sigma.matrix)) <= tol

    @pytest.mark.xfail(
        raises=SolverFailure,
        reason="ROADMAP item 1: the IPM stalls when both marginals carry an eigenvalue near zero",
    )
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_transport_both_sides_near_singular(self, s):
        tol = 1e-8
        rho = near_singular(3, 1e-7, 100 + s)
        sigma = near_singular(3, 1e-7, 200 + s)
        res = transport_cost(rho, sigma, tol)
        assert res.gap <= tol
        assert res.dual_witness.feasibility_margin >= -tol
        tau = res.coupling.matrix
        assert np.max(np.abs(partial_trace(tau, (3, 3), (0,)) - rho.matrix)) <= tol
        assert np.max(np.abs(partial_trace(tau, (3, 3), (1,)) - sigma.matrix)) <= tol

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="ROADMAP item 10: a witness infeasible by up to 1e-7 passes DualWitness, and the gap counts it",
    )
    def test_returned_gap_is_within_tol(self):
        """Full-rank diagonal pairs rho = diag(p), sigma = diag(roll(p, 1)),
        p = (eps, (1 - eps) * a flat Dirichlet draw): the solves return, with
        gaps 6.2e-8 (eps = 1e-9, d = 4) and 1.1e-8 (eps = 1e-4, d = 3)."""
        tol = 1e-8
        gaps = []
        for eps, d in [(1e-9, 4), (1e-4, 3)]:
            p = np.concatenate(([eps], (1 - eps) * np.random.default_rng(0).dirichlet(np.ones(d - 1))))
            gaps.append(transport_cost(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(np.roll(p, 1))), tol).gap)
        assert max(gaps) <= tol


def rank_deficient(d, rank, seed):
    """G G^dagger normalized, G a complex Gaussian d x rank: exactly rank ``rank``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


RANK_DEFICIENT_CASES = [(d, r) for d in (3, 4, 5) for r in range(1, d)]


class TestLiftedWitness:
    """The witness of a rank-deficient pair is padded with -beta off the
    supports and shifted once into feasibility; the shift, and so the
    reported gap, stays within tol + 1/(4 (beta - t)), and t < 1 here."""

    TOL = transport.DEFAULT_TOL

    def assert_within_lift_bound(self, res):
        assert res.dual_witness.feasibility_margin >= -1e-8
        assert res.gap <= 1 / (4 * (transport._LIFT_BETA - 1)) + self.TOL

    @pytest.mark.parametrize("both_sides", [False, True], ids=["one-side", "both-sides"])
    @pytest.mark.parametrize("d, rank", RANK_DEFICIENT_CASES)
    def test_gap_within_lift_bound(self, d, rank, both_sides):
        rho = rank_deficient(d, rank, 300 + 10 * d + rank)
        if both_sides:
            sigma = rank_deficient(d, rank, 400 + 10 * d + rank)
        else:
            sigma = random_density_matrix(d, 500 + d)
        self.assert_within_lift_bound(transport_cost(rho, sigma, self.TOL))

    def test_infeasible_reduced_potentials_are_shifted_once(self, monkeypatch):
        """Reduced potentials infeasible by 1e-6 (the case the old pre-repair
        handled) still give a feasible witness within the same gap bound."""
        solution = transport.sdp.coupling_solution

        def raised(problem, sol):
            blocks, pot_a, pot_b = solution(problem, sol)
            return blocks, pot_a + 1e-6 * np.eye(pot_a.shape[0]), pot_b

        monkeypatch.setattr(transport.sdp, "coupling_solution", raised)
        rho, sigma = rank_deficient(4, 2, 601), random_density_matrix(4, 602)
        self.assert_within_lift_bound(transport_cost(rho, sigma, self.TOL))


class TestDualValue:
    def test_zero_witness_is_a_valid_lower_bound(self):
        w = DualWitness(HermitianOperator(np.zeros((2, 2))), HermitianOperator(np.zeros((2, 2))))
        assert dual_value(E0, E1, w) == 0.0

    def test_optimal_witness_attains_primal(self):
        rho = random_density_matrix(3, 70)
        sigma = random_density_matrix(3, 71)
        res = transport_cost(rho, sigma)
        assert dual_value(rho, sigma, res.dual_witness) == pytest.approx(res.value, abs=1e-6)

    def test_infeasible_pair_rejected_at_construction(self):
        with pytest.raises(ValueError, match="infeasible"):
            DualWitness(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(2)))

    def test_witness_dimension_checked(self):
        w = DualWitness(HermitianOperator(np.zeros((2, 2))), HermitianOperator(np.zeros((2, 2))))
        with pytest.raises(DimensionMismatchError):
            dual_value(random_density_matrix(3, 0), random_density_matrix(3, 1), w)


class TestWasserstein:
    def test_zero_on_diagonal(self):
        rho = random_density_matrix(2, 80)
        assert wasserstein(rho, rho) == pytest.approx(0.0, abs=1e-3)

    def test_orthogonal_pure(self):
        assert wasserstein(E0, E1) == pytest.approx(np.sqrt(0.5), abs=1e-7)

    def test_symmetry(self):
        rho = random_density_matrix(3, 81)
        sigma = random_density_matrix(3, 82)
        assert abs(wasserstein(rho, sigma) - wasserstein(sigma, rho)) <= 1e-7


class TestStabilizedCost:
    def test_identical_states(self):
        rho = random_density_matrix(3, 90)
        assert stabilized_cost(rho, rho).value == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure_brute_force_oracle(self):
        # forced split: both blocks are multiples t, 1-t of |01><01|; scan t
        swap = swap_matrix(2)
        psym, pasym = (np.eye(4) + swap) / 2, (np.eye(4) - swap) / 2
        e01 = np.zeros(4)
        e01[1] = 1.0
        grid = np.linspace(0.0, 1.0, 101)
        oracle = min(
            t * (e01 @ psym @ e01) + (1 - t) * (e01 @ pasym @ e01) for t in grid
        )
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert stabilized_cost(E0, E1).value == pytest.approx(oracle, abs=1e-7)

    def test_never_exceeds_transport_cost(self):
        for seed in (1, 2):
            rho = random_density_matrix(3, 100 + seed)
            sigma = random_density_matrix(3, 200 + seed)
            ts = stabilized_cost(rho, sigma)
            t = transport_cost(rho, sigma)
            assert ts.value <= t.value + 1e-7

    @pytest.mark.parametrize("rank", [3, 2], ids=["full-rank", "rank-deficient"])
    def test_blocks_sum_to_a_coupling(self, rank):
        d = 3
        rho = random_density_matrix(d, 110) if rank == d else rank_deficient(d, rank, 112)
        sigma = random_density_matrix(d, 111) if rank == d else rank_deficient(d, rank, 113)
        res = stabilized_cost(rho, sigma)
        total = res.sym_block.matrix + res.asym_block.matrix
        assert np.max(np.abs(partial_trace(total, (d, d), (0,)) - rho.matrix)) <= transport.DEFAULT_TOL
        assert np.max(np.abs(partial_trace(total, (d, d), (1,)) - sigma.matrix)) <= transport.DEFAULT_TOL
        assert np.linalg.eigvalsh(res.sym_block.matrix)[0] >= -1e-9
        assert np.linalg.eigvalsh(res.asym_block.matrix)[0] >= -1e-9


class TestStabilizedViaTensoring:
    def test_identical_states(self):
        rho = random_density_matrix(2, 120)
        assert stabilized_cost_via_tensoring(rho, rho) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_split_formulation(self, seed):
        rho = random_density_matrix(3, 300 + seed)
        sigma = random_density_matrix(3, 400 + seed)
        a = stabilized_cost(rho, sigma).value
        b = stabilized_cost_via_tensoring(rho, sigma)
        assert abs(a - b) <= 2e-8

    def test_desk_scale_guard(self):
        rho = random_density_matrix(9, 0)
        with pytest.raises(DimensionMismatchError, match="desk-scale"):
            stabilized_cost_via_tensoring(rho, rho)


class TestTensoredCost:
    def test_pure_shared_ancilla_equals_plain_cost(self):
        rho = random_density_matrix(3, 130)
        sigma = random_density_matrix(3, 131)
        gamma = random_pure_state(2, 132).density()
        tens = tensored_cost(rho, sigma, gamma, gamma)
        assert tens == pytest.approx(transport_cost(rho, sigma).value, abs=2e-8)

    def test_maximally_mixed_ancilla_equals_stabilized(self):
        rho = random_density_matrix(3, 140)
        sigma = random_density_matrix(3, 141)
        mm = DensityMatrix(np.eye(2) / 2)
        assert tensored_cost(rho, sigma, mm, mm) == pytest.approx(
            stabilized_cost(rho, sigma).value, abs=2e-8
        )

    def test_lower_bounded_by_stabilized(self):
        rho = random_density_matrix(3, 150)
        sigma = random_density_matrix(3, 151)
        ts = stabilized_cost(rho, sigma).value
        for seed in (152, 153):
            r2 = random_density_matrix(2, seed)
            s2 = random_density_matrix(2, seed + 10)
            assert tensored_cost(rho, sigma, r2, s2) >= ts - 1e-6

    @pytest.mark.parametrize("pure_first", [False, True], ids=["full-rank", "pure-first"])
    def test_factor_order_invariance(self, pure_first):
        if pure_first:
            r1, s1 = random_pure_state(3, 155).density(), random_pure_state(3, 156).density()
        else:
            r1, s1 = random_density_matrix(3, 155), random_density_matrix(3, 156)
        r2 = random_density_matrix(2, 157)
        s2 = random_density_matrix(2, 158)
        assert tensored_cost(r1, s1, r2, s2) == pytest.approx(tensored_cost(r2, s2, r1, s1), abs=2e-8)

    def test_guard(self):
        r5 = random_density_matrix(5, 0)
        r4 = random_density_matrix(4, 1)
        with pytest.raises(DimensionMismatchError, match="desk-scale"):
            tensored_cost(r5, r5, r4, r4)


class TestInvariances:
    def test_unitary_invariance(self):
        d = 3
        rho = random_density_matrix(d, 160)
        sigma = random_density_matrix(d, 161)
        u = random_unitary(d, 162)
        ru = DensityMatrix(u @ rho.matrix @ u.conj().T)
        su = DensityMatrix(u @ sigma.matrix @ u.conj().T)
        assert abs(transport_cost(rho, sigma).value - transport_cost(ru, su).value) <= 1e-6
        assert abs(stabilized_cost(rho, sigma).value - stabilized_cost(ru, su).value) <= 1e-6

    def test_monotone_under_tensoring_with_a_state(self):
        rho = random_density_matrix(3, 170)
        sigma = random_density_matrix(3, 171)
        gamma = random_density_matrix(2, 172)
        assert tensored_cost(rho, sigma, gamma, gamma) <= transport_cost(rho, sigma).value + 1e-6

    def test_stabilized_tensor_invariance(self):
        rho = random_density_matrix(2, 180)
        sigma = random_density_matrix(2, 181)
        gamma = random_density_matrix(2, 182)
        base = stabilized_cost(rho, sigma).value
        ext = stabilized_cost(
            DensityMatrix(np.kron(rho.matrix, gamma.matrix)),
            DensityMatrix(np.kron(sigma.matrix, gamma.matrix)),
        ).value
        assert abs(base - ext) <= 1e-6
