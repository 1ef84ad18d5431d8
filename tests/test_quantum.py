import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qot.quantum import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    KrausChannel,
    PureState,
    apply_channel,
    flip_operator,
    hermitian_basis,
    max_eig,
    partial_trace,
    proj_asym,
    proj_asym_reshuffled,
    proj_sym,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
    random_unitary,
    tensor,
    twirl,
)


class TestWrapperTypes:
    def test_hermitian_symmetrizes_rounding_noise(self):
        m = np.array([[1.0, 0.5 + 1e-10j], [0.5 - 2e-10j, 2.0]])
        h = HermitianOperator(m)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) == 0.0

    def test_hermitian_rejects_large_defect(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(DimensionMismatchError):
            HermitianOperator(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="NaN"):
            HermitianOperator(np.array([[np.nan, 0], [0, 1.0]]))

    def test_hermitian_is_immutable(self):
        h = HermitianOperator(np.eye(2))
        with pytest.raises((AttributeError, ValueError)):
            h.matrix = np.zeros((2, 2))
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0

    def test_density_invariants(self):
        DensityMatrix(np.eye(3) / 3)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(3))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_pure_state_normalization(self):
        psi = PureState(np.array([1.0, 1e-10]))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]))
        rho = psi.density()
        assert abs(np.trace(rho.matrix) - 1) < 1e-14

    def test_kraus_completeness_checked(self):
        KrausChannel([np.eye(2)])
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel([0.5 * np.eye(2)])
        with pytest.raises(DimensionMismatchError):
            KrausChannel([np.eye(2), np.eye(3)])


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_diagonal_entries_repeat(self):
        e = np.diag([-1.37, 0.02, 0.17, 0.26])
        out = tensor(e, np.eye(4))
        assert np.array_equal(np.diag(out), np.repeat(np.diag(e), 4))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_dims_multiply(self, a, b, c):
        out = tensor(np.eye(a), np.ones((b, c)))
        assert out.shape == (a * b, a * c)


class TestFlipAndProjectors:
    def test_flip_d1(self):
        assert np.array_equal(flip_operator(1).matrix, np.eye(1))

    def test_flip_d2_swaps_middle(self):
        f = flip_operator(2).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1
        expected[1, 2] = expected[2, 1] = 1
        assert np.array_equal(f, expected)

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_flip_involution(self, d):
        f = flip_operator(d).matrix
        assert np.max(np.abs(f @ f - np.eye(d * d))) == 0.0

    def test_singlet_projector(self):
        p = proj_asym(2).matrix
        assert np.allclose(np.diag(p), [0, 0.5, 0.5, 0])
        assert np.isclose(p[1, 2], -0.5)
        assert np.isclose(np.trace(p), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8])
    def test_traces_and_completeness(self, d):
        ps, pa = proj_sym(d).matrix, proj_asym(d).matrix
        assert np.isclose(np.trace(pa).real, d * (d - 1) / 2)
        assert np.isclose(np.trace(ps).real, d * (d + 1) / 2)
        assert np.max(np.abs(ps + pa - np.eye(d * d))) <= 1e-15
        assert np.max(np.abs(ps @ pa)) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projectors_idempotent_and_flip_invariant(self, d):
        f = flip_operator(d).matrix
        for p in (proj_sym(d).matrix, proj_asym(d).matrix):
            assert np.max(np.abs(p @ p - p)) < 1e-14
            assert np.max(np.abs(f @ p @ f - p)) < 1e-14


class TestReshuffledProjector:
    def test_trivial_second_factor(self):
        assert np.allclose(proj_asym_reshuffled(3, 1).matrix, proj_asym(3).matrix)

    def test_trace_matches_plain_projector(self):
        assert np.isclose(np.trace(proj_asym_reshuffled(2, 2).matrix).real, 6.0)

    @pytest.mark.parametrize("d1", [1, 2, 3, 4])
    @pytest.mark.parametrize("d2", [1, 2, 3, 4])
    def test_split_identity(self, d1, d2):
        lhs = proj_asym_reshuffled(d1, d2).matrix
        rhs = np.kron(proj_asym(d1).matrix, proj_sym(d2).matrix) + np.kron(
            proj_sym(d1).matrix, proj_asym(d2).matrix
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_is_projector(self):
        p = proj_asym_reshuffled(2, 3).matrix
        assert np.max(np.abs(p @ p - p)) < 1e-14


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        dm = np.outer(phi, phi.conj())
        assert np.allclose(partial_trace(dm, (2, 2), keep=(0,)), np.eye(2) / 2)

    def test_product_state(self):
        rho = random_density_matrix(2, 3).matrix
        sigma = random_density_matrix(3, 4).matrix
        assert np.allclose(partial_trace(np.kron(rho, sigma), (2, 3), keep=(0,)), rho)
        assert np.allclose(partial_trace(np.kron(rho, sigma), (2, 3), keep=(1,)), sigma)

    def test_trace_everything(self):
        m = np.arange(16).reshape(4, 4).astype(complex)
        out = partial_trace(m, (2, 2), keep=(0, 1))
        assert np.array_equal(out, m)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6), (2, 2), keep=(0,))

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), keep=())

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_trace_preserved_and_linear(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        red = partial_trace(a, (2, 3), keep=(1,))
        assert abs(np.trace(red) - np.trace(a)) < 1e-12
        combo = partial_trace(2 * a + 3j * b, (2, 3), keep=(1,))
        assert np.allclose(combo, 2 * red + 3j * partial_trace(b, (2, 3), keep=(1,)))


class TestTwirl:
    def test_projector_fixed_points(self):
        for d in (2, 3):
            pa = proj_asym(d)
            assert np.allclose(twirl(pa).matrix, pa.matrix, atol=1e-14)
            assert np.allclose(twirl(HermitianOperator(np.eye(d * d))).matrix, np.eye(d * d))

    def test_maximally_entangled_qubit_pair(self):
        # oracle built from explicit 4x4 arithmetic, independent of the module
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        x = np.outer(phi, phi.conj())
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        psym = (np.eye(4) + swap) / 2
        pasym = (np.eye(4) - swap) / 2
        expected = (
            np.trace(x @ psym).real * psym / np.trace(psym).real
            + np.trace(x @ pasym).real * pasym / np.trace(pasym).real
        )
        assert np.allclose(expected, psym / 3)  # singlet weight vanishes
        assert np.allclose(twirl(HermitianOperator(x)).matrix, expected, atol=1e-14)

    def test_rejects_nonsquare_dimension(self):
        with pytest.raises(DimensionMismatchError, match="perfect-square"):
            twirl(HermitianOperator(np.eye(6)))

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_idempotent_trace_preserving_commuting(self, seed):
        d = 3
        x = HermitianOperator(random_density_matrix(d * d, seed).matrix)
        t = twirl(x)
        assert np.max(np.abs(twirl(t).matrix - t.matrix)) <= 1e-12
        assert abs(np.trace(t.matrix) - np.trace(x.matrix)) <= 1e-12
        u = random_unitary(d, seed + 1)
        uu = np.kron(u, u)
        assert np.max(np.abs(t.matrix @ uu - uu @ t.matrix)) <= 1e-10


class TestChannels:
    def test_identity_channel(self):
        rho = random_density_matrix(3, 0)
        out = apply_channel(KrausChannel([np.eye(3)]), rho)
        assert np.allclose(out.matrix, rho.matrix)

    def test_completely_depolarizing(self):
        d = 3
        kraus = [
            np.outer(np.eye(d)[i], np.eye(d)[j]) / np.sqrt(d) for i in range(d) for j in range(d)
        ]
        rho = random_density_matrix(d, 1)
        out = apply_channel(KrausChannel(kraus), rho)
        assert np.allclose(out.matrix, np.eye(d) / d, atol=1e-12)

    def test_partial_trace_channel(self):
        d, dg = 2, 3
        kraus = [np.kron(np.eye(d), np.eye(dg)[k][None, :]) for k in range(dg)]
        rho = random_density_matrix(d, 5)
        gamma = random_density_matrix(dg, 6)
        joint = DensityMatrix(np.kron(rho.matrix, gamma.matrix))
        out = apply_channel(KrausChannel(kraus), joint)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(KrausChannel([np.eye(2)]), random_density_matrix(3, 0))

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_random_channels_preserve_state_invariants(self, seed):
        ch = random_kraus_channel(3, 4, 2, seed)
        rho = random_density_matrix(3, seed + 1)
        out = apply_channel(ch, rho)
        assert abs(np.trace(out.matrix).real - 1) <= 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10


class TestRandomGenerators:
    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_density_invariants_and_determinism(self, seed):
        a = random_density_matrix(3, seed)
        b = random_density_matrix(3, seed)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.linalg.eigvalsh(a.matrix)[0] >= 0
        assert abs(np.trace(a.matrix).real - 1) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_unitary(self, seed):
        u = random_unitary(4, seed)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
        assert np.array_equal(u, random_unitary(4, seed))

    def test_pure_state_norm(self):
        psi = random_pure_state(5, 9)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_kraus_generator_needs_room(self):
        with pytest.raises(ValueError):
            random_kraus_channel(4, 1, 2, 0)


class TestMaxEig:
    def test_singlet(self):
        value, state = max_eig(proj_asym(2))
        assert np.isclose(value, 1.0)
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.isclose(abs(np.vdot(state.amplitudes, singlet)), 1.0)

    def test_reference_diagonal(self):
        value, state = max_eig(HermitianOperator(np.diag([-1.37, 0.02, 0.17, 0.26])))
        assert value == pytest.approx(0.26)
        assert np.isclose(abs(state.amplitudes[3]), 1.0)

    def test_identity(self):
        value, state = max_eig(HermitianOperator(np.eye(3)))
        assert np.isclose(value, 1.0)
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_residual_contract(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = HermitianOperator((g + g.conj().T) / 2)
        value, state = max_eig(h)
        assert np.linalg.norm(h.matrix @ state.amplitudes - value * state.amplitudes) <= 1e-10

    @pytest.mark.parametrize("n", [4, 9, 16, 36, 64])
    def test_is_scipy_eigh_bit_for_bit(self, n):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = HermitianOperator((g + g.conj().T) / 2)
            vals, vecs = scipy.linalg.eigh(h.matrix)
            value, state = max_eig(h)
            assert value == vals[-1]
            assert np.array_equal(state.amplitudes, PureState(vecs[:, -1]).amplitudes)


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_orthonormal_and_complete(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        assert np.allclose(basis[0], np.eye(d) / np.sqrt(d))
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-13
        for b in basis:
            assert np.max(np.abs(b - b.conj().T)) < 1e-15
