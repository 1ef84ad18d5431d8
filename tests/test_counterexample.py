import numpy as np
import pytest

from qot.counterexample import (
    chain_values,
    embed_witness,
    extract_violating_state,
    reference_witness,
    search_witness,
    symmetric_excess,
    tensor_feasibility_equivalence,
    violation_report,
)
from qot.quantum import HermitianOperator, partial_trace, proj_asym, proj_sym
from qot.transport import DualWitness

# retyped from the published 4x4 pair, independently of the module constants
EXPECTED_A = np.diag([-1.37, 0.02, 0.17, 0.26]).astype(complex)
EXPECTED_B = np.array(
    [
        [0.1165, -0.02 + 0.01j, 0.03 - 0.05j, -0.04 - 0.05j],
        [-0.02 - 0.01j, -0.0935, 0.02j, 0.16 - 0.11j],
        [0.03 + 0.05j, -0.02j, -0.2335, 0.06 + 0.11j],
        [-0.04 + 0.05j, 0.16 + 0.11j, 0.06 - 0.11j, -1.1435],
    ],
    dtype=complex,
)


def extension(witness):
    d = witness.dim
    return np.kron(witness.potential_a.matrix, np.eye(d)) + np.kron(
        np.eye(d), witness.potential_b.matrix
    )


class TestReferenceWitness:
    def test_constants_are_bit_exact(self):
        wit = reference_witness()
        assert np.array_equal(wit.potential_a.matrix, EXPECTED_A)
        assert np.array_equal(wit.potential_b.matrix, EXPECTED_B)
        assert wit.potential_a.matrix[0, 0] == -1.37
        assert wit.potential_b.matrix[1, 3] == 0.16 - 0.11j
        assert wit.potential_b.matrix[3, 1] == 0.16 + 0.11j

    def test_printed_pair_is_exactly_hermitian(self):
        assert np.max(np.abs(EXPECTED_B - EXPECTED_B.conj().T)) == 0.0

    def test_feasible_for_antisymmetric_bound(self):
        wit = reference_witness()
        excess = float(np.linalg.eigvalsh(extension(wit) - proj_asym(4).matrix)[-1])
        assert excess <= 1e-6
        assert wit.feasibility_margin >= -1e-7

    def test_breaks_symmetric_bound(self):
        assert symmetric_excess(reference_witness()) > 1e-4


class TestEquivalenceCheck:
    def test_strongly_negative_pair_passes_everything(self):
        half = HermitianOperator(-0.5 * np.eye(3))
        check = tensor_feasibility_equivalence(half, half, 2)
        assert check.joint_feasible and check.asym_feasible and check.sym_dominated

    def test_reference_pair_splits(self):
        wit = reference_witness()
        check = tensor_feasibility_equivalence(wit.potential_a, wit.potential_b, 2)
        assert check.asym_feasible
        assert not check.sym_dominated
        assert not check.joint_feasible
        m_joint, m_asym, m_sym = check.margins
        assert m_joint == pytest.approx(max(m_asym, m_sym), abs=1e-9)

    def test_large_pair_fails_everything(self):
        eye = HermitianOperator(np.eye(2))
        check = tensor_feasibility_equivalence(eye, eye, 2)
        assert not (check.joint_feasible or check.asym_feasible or check.sym_dominated)

    def test_rejects_trivial_ancilla(self):
        zero = HermitianOperator(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            tensor_feasibility_equivalence(zero, zero, 1)

    @pytest.mark.parametrize("d1", [2, 3])
    def test_random_pairs_consistent(self, d1):
        rng = np.random.default_rng(d1)
        for _ in range(50):
            scale = 0.3 * rng.random() + 0.05
            g = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
            a = scale * (g + g.conj().T) / 2
            g = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
            b = scale * (g + g.conj().T) / 2
            # raises internally if the boolean identity breaks outside the dead zone
            tensor_feasibility_equivalence(a, b, 2)


class TestEmbedding:
    @pytest.mark.parametrize("k", [1, 2])
    def test_bisection_embedding_keeps_violation(self, k):
        emb = embed_witness(reference_witness(), k)
        assert emb.dim == 4 + k
        assert emb.feasibility_margin >= -1e-7
        assert symmetric_excess(emb) > 1e-4

    def test_upper_left_block_preserved_exactly(self):
        emb = embed_witness(reference_witness(), 2)
        assert np.array_equal(emb.potential_a.matrix[:4, :4], EXPECTED_A)
        assert np.array_equal(emb.potential_b.matrix[:4, :4], EXPECTED_B)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sum_of_top_eigenvalues_plus_one_suffices(self, k):
        wit = reference_witness()
        alpha = (
            float(np.linalg.eigvalsh(wit.potential_a.matrix)[-1])
            + float(np.linalg.eigvalsh(wit.potential_b.matrix)[-1])
            + 1.0
        )
        emb = embed_witness(wit, k, alpha=alpha)
        assert emb.feasibility_margin >= -1e-9

    @pytest.mark.parametrize("k", [1, 2])
    def test_default_padding_is_twice_the_exact_threshold(self, k):
        # the flip pairs old (x) new with new (x) old; on each such pair the
        # extension minus the projector is this mirror block minus alpha
        half = np.eye(4) / 2
        mirror = np.block([[EXPECTED_A - half, half], [half, EXPECTED_B - half]])
        alpha_min = max(0.0, float(np.linalg.eigvalsh(mirror)[-1]))
        assert alpha_min > 1e-3
        emb = embed_witness(reference_witness(), k)
        assert abs(-emb.potential_a.matrix[4, 4].real - 2 * alpha_min) <= 1e-12
        assert embed_witness(reference_witness(), k, alpha=alpha_min).feasibility_margin >= -1e-12
        with pytest.raises(ValueError, match="infeasible"):
            embed_witness(reference_witness(), k, alpha=alpha_min - 1e-5)

    def test_negative_margin_base_rejected(self):
        # shifted up to margin -5e-8: still a witness, but no padding repairs it
        shift = reference_witness().feasibility_margin + 5e-8
        base = DualWitness(
            HermitianOperator(EXPECTED_A + shift * np.eye(4)), HermitianOperator(EXPECTED_B)
        )
        assert -1e-7 < base.feasibility_margin < 0
        with pytest.raises(ValueError, match="unusable"):
            embed_witness(base, 1)

    def test_infeasible_base_rejected(self):
        base = DualWitness(
            HermitianOperator(np.zeros((2, 2))), HermitianOperator(np.zeros((2, 2)))
        )
        # a zero pair is feasible, so embedding succeeds with alpha = 0
        emb = embed_witness(base, 1)
        assert emb.feasibility_margin >= -1e-9


class TestExtraction:
    def test_reference_extraction(self):
        psi = extract_violating_state(reference_witness())
        assert psi.dim == 16
        assert abs(np.linalg.norm(psi.amplitudes) - 1) <= 1e-12
        wit = reference_witness()
        violation = float(
            (psi.amplitudes.conj() @ (extension(wit) - proj_sym(4).matrix) @ psi.amplitudes).real
        )
        assert violation > 1e-4
        assert violation == pytest.approx(symmetric_excess(wit), abs=1e-12)

    def test_dominated_witness_rejected(self):
        tame = DualWitness(
            HermitianOperator(-np.eye(2)), HermitianOperator(-np.eye(2))
        )
        with pytest.raises(ValueError, match="does not exceed"):
            extract_violating_state(tame)


class TestViolationReport:
    def test_dimension_guards(self):
        with pytest.raises(ValueError, match="open"):
            violation_report(3)
        with pytest.raises(ValueError, match="desk-scale"):
            violation_report(7)

    def test_dim4_report(self):
        rep = violation_report(4, tol=1e-8)
        assert rep.gap > 10 * 1e-8
        assert rep.sym_violation > 1e-4
        assert rep.ts_value <= rep.sym_expectation + rep.chain_tol
        assert rep.sym_expectation < rep.dual_bound
        assert rep.dual_bound <= rep.t_value + rep.chain_tol
        assert rep.repair_shift == 0.0
        psi_dm = rep.psi.density().matrix
        assert np.max(np.abs(partial_trace(psi_dm, (4, 4), (0,)) - rep.rho.matrix)) <= 1e-12
        assert np.max(np.abs(partial_trace(psi_dm, (4, 4), (1,)) - rep.sigma.matrix)) <= 1e-12
        values = chain_values(rep)
        assert set(values) == {
            "stabilized_cost",
            "sym_expectation",
            "dual_bound",
            "transport_cost",
            "gap",
            "sym_violation",
        }

    def test_dim5_report_via_embedding(self):
        rep = violation_report(5, tol=1e-8)
        assert rep.dim == 5
        assert rep.gap > 1e-6

    def test_dim6_is_the_inclusive_cap(self):
        rep = violation_report(6, tol=1e-8)
        assert rep.dim == 6
        assert rep.gap > 1e-6

    def test_witness_bound_exceeds_stabilized_cost(self):
        from qot.transport import dual_value

        rep = violation_report(4, tol=1e-8)
        assert dual_value(rep.rho, rep.sigma, rep.witness) > rep.ts_value


class TestSearch:
    def test_dim4_search_finds_a_witness(self):
        wit = search_witness(4, seed=7, iterations=10_000)
        assert wit is not None
        assert wit.feasibility_margin >= -1e-7
        assert symmetric_excess(wit) > 1e-6
        check = tensor_feasibility_equivalence(wit.potential_a, wit.potential_b, 2)
        assert check.asym_feasible and not check.sym_dominated

    def test_qubit_search_comes_back_empty(self):
        assert search_witness(2, seed=7, iterations=2_000) is None

    def test_deterministic_under_seed(self):
        w1 = search_witness(4, seed=3, iterations=2_000)
        w2 = search_witness(4, seed=3, iterations=2_000)
        assert w1 is not None and w2 is not None
        assert np.array_equal(w1.potential_a.matrix, w2.potential_a.matrix)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            search_witness(1, seed=0, iterations=10)
