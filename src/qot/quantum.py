"""Dense complex linear algebra and quantum-information primitives.

Plain 2-D complex :class:`numpy.ndarray` objects play the role of general
complex matrices.  The thin wrapper classes below validate their defining
invariants once, at construction, and are immutable afterwards, so values can
be shared freely across threads.  All wrappers implement ``__array__`` and can
be handed directly to numpy functions.

Conventions: tensor factors are combined with the row-major Kronecker product
(``numpy.kron``).  Operators on a doubled space ``C^d (x) C^d`` index the two
copies as A and B; four-factor operators built here use the interleaved
ordering A1 B1 A2 B2.
"""

from __future__ import annotations

from functools import reduce
from math import isqrt

import numpy as np

from . import _lapack

__all__ = [
    "DimensionMismatchError",
    "HermitianOperator",
    "DensityMatrix",
    "PureState",
    "KrausChannel",
    "as_complex_matrix",
    "tensor",
    "flip_operator",
    "proj_sym",
    "proj_asym",
    "proj_asym_reshuffled",
    "partial_trace",
    "twirl",
    "apply_channel",
    "max_eig",
    "hermitian_basis",
    "random_density_matrix",
    "random_unitary",
    "random_pure_state",
    "random_kraus_channel",
]

# Anti-Hermitian defects below this are treated as rounding noise and
# symmetrized away; anything larger is rejected as a bug in the caller.
HERMITICITY_REJECT_TOL = 1e-8
DENSITY_EIG_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
PURE_NORM_REJECT_TOL = 1e-8
KRAUS_COMPLETENESS_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions for the requested operation."""


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a finite 2-D complex array."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class HermitianOperator:
    """A d x d complex Hermitian matrix.

    Inputs are symmetrized as (M + M^dagger)/2; anti-Hermitian defects above
    ``HERMITICITY_REJECT_TOL`` (max-abs entrywise) are rejected.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = as_complex_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"Hermitian operator must be square, got {m.shape}")
        defect = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        if defect > HERMITICITY_REJECT_TOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e}")
        self.matrix: np.ndarray
        object.__setattr__(self, "matrix", _frozen((m + m.conj().T) / 2))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self.matrix.dtype:
            return self.matrix.astype(dtype)
        if copy:
            return self.matrix.copy()
        return self.matrix

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianOperator):
    """A quantum state: Hermitian, positive semidefinite, unit trace."""

    __slots__ = ()

    def __init__(self, matrix):
        super().__init__(matrix)
        eigs = np.linalg.eigvalsh(self.matrix)
        if eigs[0] < -DENSITY_EIG_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
        tr = np.trace(self.matrix).real
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")


class PureState:
    """A unit vector in C^d.  Norm defects above 1e-8 are rejected."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"expected a vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector contains NaN or Inf entries")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > PURE_NORM_REJECT_TOL:
            raise ValueError(f"state vector norm is {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", _frozen(v / norm))

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> DensityMatrix:
        """Rank-one projector |psi><psi| as a density matrix."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __array__(self, dtype=None, copy=None):
        if dtype is not None and dtype != self.amplitudes.dtype:
            return self.amplitudes.astype(dtype)
        if copy:
            return self.amplitudes.copy()
        return self.amplitudes

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class KrausChannel:
    """A quantum channel given by Kraus operators K_k: C^dim_in -> C^dim_out.

    Completeness sum_k K_k^dagger K_k = I is enforced within 1e-10.
    """

    __slots__ = ("dim_in", "dim_out", "kraus_ops")

    def __init__(self, kraus_ops):
        ops = [as_complex_matrix(k) for k in kraus_ops]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim_out, dim_in = ops[0].shape
        for k in ops:
            if k.shape != (dim_out, dim_in):
                raise DimensionMismatchError(
                    f"Kraus operators must share one shape, got {k.shape} vs {(dim_out, dim_in)}"
                )
        total = sum(k.conj().T @ k for k in ops)
        defect = np.max(np.abs(total - np.eye(dim_in)))
        if defect > KRAUS_COMPLETENESS_TOL:
            raise ValueError(f"Kraus operators are not trace preserving: defect {defect:.3e}")
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)
        object.__setattr__(self, "kraus_ops", tuple(_frozen(k.copy()) for k in ops))

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")

    def __repr__(self):
        return f"KrausChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, n_kraus={len(self.kraus_ops)})"


def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    mats = [as_complex_matrix(f) for f in factors]
    return reduce(np.kron, mats)


def flip_operator(d: int) -> HermitianOperator:
    """The unitary on C^d (x) C^d exchanging the two tensor factors."""
    if d < 1:
        raise ValueError("dimension must be positive")
    f = np.eye(d * d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    return HermitianOperator(f)


def proj_sym(d: int) -> HermitianOperator:
    """Orthogonal projector onto the exchange-symmetric subspace of C^d (x) C^d."""
    return HermitianOperator((np.eye(d * d) + flip_operator(d).matrix) / 2)


def proj_asym(d: int) -> HermitianOperator:
    """Orthogonal projector onto the exchange-antisymmetric subspace of C^d (x) C^d."""
    return HermitianOperator((np.eye(d * d) - flip_operator(d).matrix) / 2)


def proj_asym_reshuffled(d1: int, d2: int) -> HermitianOperator:
    """Antisymmetric projector for a product space, on interleaved factors.

    Acts on C^d1 (x) C^d1 (x) C^d2 (x) C^d2 with factors ordered A1 B1 A2 B2,
    projecting onto the subspace antisymmetric under the simultaneous exchange
    A1<->B1, A2<->B2.  Built directly as (I - F_d1 (x) F_d2)/2, never by index
    permutation of the plain d1*d2 projector.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be positive")
    f12 = np.kron(flip_operator(d1).matrix, flip_operator(d2).matrix)
    return HermitianOperator((np.eye((d1 * d2) ** 2) - f12) / 2)


def partial_trace(x, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix size; ``keep`` is a nonempty set of subsystem indices.  The kept
    subsystems stay in their original order.
    """
    m = as_complex_matrix(x)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionMismatchError(
            f"dims {dims} (product {total}) do not factor a {m.shape} matrix"
        )
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep must be a nonempty subset of 0..{n - 1}, got {keep}")

    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * n > len(letters):
        raise ValueError("too many subsystems")
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    t = m.reshape(dims + dims)
    reduced = np.einsum(f"{''.join(row)}{''.join(col)}->{''.join(out)}", t)
    k = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(k, k)


def twirl(x) -> HermitianOperator:
    """Average an operator on C^d (x) C^d over simultaneous unitary conjugation.

    Uses the closed form: the output is the projection onto the span of the
    symmetric and antisymmetric projectors, with weights chosen to preserve
    the overlaps with each.  Idempotent and trace preserving; the result
    commutes with U (x) U for every unitary U.
    """
    h = x if isinstance(x, HermitianOperator) else HermitianOperator(x)
    d = isqrt(h.dim)
    if d * d != h.dim:
        raise DimensionMismatchError(f"twirl needs a perfect-square dimension, got {h.dim}")
    ps = proj_sym(d).matrix
    pa = proj_asym(d).matrix
    w_sym = np.trace(h.matrix @ ps).real
    w_asym = np.trace(h.matrix @ pa).real
    out = w_sym * ps / np.trace(ps).real
    if d > 1:
        out = out + w_asym * pa / np.trace(pa).real
    return HermitianOperator(out)


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a Kraus channel to a state: rho -> sum_k K_k rho K_k^dagger."""
    if channel.dim_in != rho.dim:
        raise DimensionMismatchError(
            f"channel acts on dimension {channel.dim_in}, state has {rho.dim}"
        )
    out = sum(k @ rho.matrix @ k.conj().T for k in channel.kraus_ops)
    # Completeness holds only within tolerance; renormalize the residual drift.
    return DensityMatrix(out / np.trace(out).real)


def max_eig(h) -> tuple[float, PureState]:
    """Largest eigenvalue of a Hermitian operator and a unit eigenvector.

    One zheevr call with the arguments and workspace ``scipy.linalg.eigh``
    passes, so both are the ones ``eigh`` returns, bit for bit.
    """
    m = h.matrix if isinstance(h, HermitianOperator) else HermitianOperator(h).matrix
    lwork, lrwork, liwork = _lapack.workspace(_lapack.zheevr_lwork, m.shape[0], lower=1)
    vals, vecs, _, _, info = _lapack.zheevr(m, compute_v=1, lower=1, lwork=lwork, lrwork=lrwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevr failed with info {info}")
    return float(vals[-1]), PureState(vecs[:, -1])


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices, identity direction first.

    Returns an array of shape (d*d, d, d): the normalized identity, the
    real and imaginary off-diagonal pair elements, then the diagonal
    traceless elements.  Orthonormal under <A, B> = Tr[A B].
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[0] = np.eye(d) / np.sqrt(d)
    idx = 1
    for i in range(d):
        for j in range(i + 1, d):
            basis[idx, i, j] = basis[idx, j, i] = 1 / np.sqrt(2)
            idx += 1
            basis[idx, i, j] = -1j / np.sqrt(2)
            basis[idx, j, i] = 1j / np.sqrt(2)
            idx += 1
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -k
        basis[idx] = np.diag(diag / np.sqrt(k * (k + 1)))
        idx += 1
    return basis


def random_density_matrix(d: int, seed) -> DensityMatrix:
    """Random full-rank state: G G^dagger normalized, G complex Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian, phase normalized."""
    rng = np.random.default_rng(seed)
    g = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_pure_state(d: int, seed) -> PureState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v))


def random_kraus_channel(dim_in: int, dim_out: int, n_kraus: int, seed) -> KrausChannel:
    """Random channel from a Haar isometry split into n_kraus operators."""
    if dim_out * n_kraus < dim_in:
        raise ValueError("dim_out * n_kraus must be at least dim_in for an isometry")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim_out * n_kraus, dim_in)) + 1j * rng.normal(size=(dim_out * n_kraus, dim_in))
    q, _ = np.linalg.qr(g)
    return KrausChannel([q[k * dim_out : (k + 1) * dim_out] for k in range(n_kraus)])
