"""Transport-type cost functionals between quantum states.

The base cost ``transport_cost`` minimizes the expectation of the
antisymmetric projector over all couplings of two states; ``wasserstein`` is
its square root.  ``stabilized_cost`` is the infimum of the base cost over
tensoring both states with a shared ancilla, computed through its two-block
reformulation.  ``tensored_cost`` is the base cost between Kronecker-product
states, with the coupling on A1 A2 (x) B1 B2; ``stabilized_cost_via_tensoring``
evaluates the equivalent maximally-mixed-qubit extension that way and serves
as a cross-check independent of the two-block split.

Both costs are solved by one route, ``_solve_on_supports``, which builds
the coupling SDP with ``sdp.coupling_problem``, solves it and reads it back
with ``sdp.coupling_solution``.  The builder decomposes each state once and
states the problem in its eigenbasis, on the supports of the marginals: any
coupling of (rho, sigma) lives inside range(rho) (x) range(sigma), so
compressing there is exact (facial reduction) and leaves every solved SDP
with a strictly feasible interior point.  Full-rank and rank-deficient
states take the same path.  The couplings and the potentials come back on
C^d, the potentials zero off the supports.  The dual potentials of
``transport_cost`` are padded with -beta off the supports and shifted once
into exact feasibility; that costs at most about 1/(4 beta) of dual value,
which the reported gap includes (see ``_lift_potentials``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from . import sdp
from .quantum import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianOperator,
    proj_asym,
    proj_sym,
)

__all__ = [
    "DualWitness",
    "TransportResult",
    "StabilizedResult",
    "transport_cost",
    "dual_value",
    "wasserstein",
    "stabilized_cost",
    "stabilized_cost_via_tensoring",
    "tensored_cost",
    "DEFAULT_TOL",
    "WITNESS_FEASIBILITY_TOL",
    "MAX_TENSORED_DIM",
]

DEFAULT_TOL = sdp.DEFAULT_TOL
SUPPORT_CUT = sdp.SUPPORT_CUT
WITNESS_FEASIBILITY_TOL = 1e-7
MAX_TENSORED_DIM = 256

# Off-support padding of lifted dual potentials; costs about 1/(4 beta) of
# dual value (see ``_lift_potentials``).
_LIFT_BETA = 1e6


@dataclass(frozen=True)
class DualWitness:
    """A feasible pair for the dual program: two Hermitian potentials whose
    identity extension is dominated by the antisymmetric projector.

    ``feasibility_margin`` is minus the largest eigenvalue of
    ``potential_a (x) I + I (x) potential_b - proj_asym``; construction fails
    when it drops below -1e-7.
    """

    potential_a: HermitianOperator
    potential_b: HermitianOperator
    feasibility_margin: float = field(init=False)

    def __post_init__(self):
        if self.potential_a.dim != self.potential_b.dim:
            raise DimensionMismatchError("witness potentials must share one dimension")
        margin = -_excess(self.potential_a.matrix, self.potential_b.matrix, proj_asym(self.dim).matrix)
        if margin < -WITNESS_FEASIBILITY_TOL:
            raise ValueError(f"witness is infeasible: margin {margin:.3e}")
        object.__setattr__(self, "feasibility_margin", margin)

    @property
    def dim(self) -> int:
        return self.potential_a.dim


@dataclass(frozen=True)
class TransportResult:
    """Optimal transport cost with its primal coupling and dual certificate.

    ``gap`` is the primal-dual gap that the returned witness certifies:
    ``value`` minus the dual value of ``dual_witness`` on the input states,
    plus the witness's infeasibility ``max(0, -feasibility_margin)``.  A
    witness infeasible by delta bounds the cost of every unit-trace coupling
    only from dual value minus delta.
    """

    value: float
    coupling: DensityMatrix
    dual_witness: DualWitness
    gap: float

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1 + 1e-9:
            raise ValueError(f"cost {self.value!r} outside [0, 1]")


@dataclass(frozen=True)
class StabilizedResult:
    """Stabilized cost with the optimizers of its two-block formulation.

    ``sym_block`` is charged against the symmetric projector in the
    objective, ``asym_block`` against the antisymmetric one; their sum is a
    coupling of the two input states.  ``gap`` is the solver's primal-dual
    gap of that split SDP; no witness is returned.
    """

    value: float
    sym_block: HermitianOperator
    asym_block: HermitianOperator
    gap: float


def transport_cost(rho: DensityMatrix, sigma: DensityMatrix, tol: float = DEFAULT_TOL) -> TransportResult:
    """Minimum expectation of the antisymmetric projector over couplings.

    Returns the optimal value together with an optimizing coupling and a
    feasibility-checked dual witness certifying the matching lower bound.
    Raises SolverFailure if the solve stops short of ``tol``, with status
    ``uncertified`` if it reaches ``tol`` but its witness is infeasible.
    """
    d = _require_same_dim(rho, sigma)
    sol, (coupling,), pots, supports = _solve_on_supports(rho, sigma, (proj_asym(d).matrix,), tol)
    full_a, full_b = _balance_traces(*_lift_potentials(*pots, *supports))
    pot_a, pot_b = HermitianOperator(full_a), HermitianOperator(full_b)
    try:
        witness = DualWitness(pot_a, pot_b)
    except ValueError as exc:
        raise sdp.SolverFailure(sdp.STATUS_UNCERTIFIED, f"solve reached tolerance {tol:g}, but its {exc}") from exc
    value = float(sol.primal_value)
    return TransportResult(
        value=value,
        coupling=DensityMatrix(coupling / np.trace(coupling).real),
        dual_witness=witness,
        gap=value - dual_value(rho, sigma, witness) + max(0.0, -witness.feasibility_margin),
    )


def dual_value(rho: DensityMatrix, sigma: DensityMatrix, witness: DualWitness) -> float:
    """Lower bound Tr[potential_a rho] + Tr[potential_b sigma] on the cost."""
    d = _require_same_dim(rho, sigma)
    if witness.dim != d:
        raise DimensionMismatchError(f"witness dim {witness.dim} does not match states ({d})")
    return float(
        np.trace(witness.potential_a.matrix @ rho.matrix).real
        + np.trace(witness.potential_b.matrix @ sigma.matrix).real
    )


def wasserstein(rho: DensityMatrix, sigma: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Square root of the transport cost."""
    return sqrt(max(0.0, transport_cost(rho, sigma, tol).value))


def stabilized_cost(rho: DensityMatrix, sigma: DensityMatrix, tol: float = DEFAULT_TOL) -> StabilizedResult:
    """Stabilized transport cost via its two-block split formulation.

    Minimizes Tr[X P_sym] + Tr[Y P_asym] over PSD X, Y whose sum couples
    rho with sigma.
    """
    d = _require_same_dim(rho, sigma)
    sol, (sym, asym), _, _ = _solve_on_supports(rho, sigma, (proj_sym(d).matrix, proj_asym(d).matrix), tol)
    return StabilizedResult(
        value=float(sol.primal_value),
        sym_block=HermitianOperator(_psd_clean(sym)),
        asym_block=HermitianOperator(_psd_clean(asym)),
        gap=float(sol.gap),
    )


def stabilized_cost_via_tensoring(rho: DensityMatrix, sigma: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Stabilized cost evaluated as the base cost of the states tensored with
    a maximally mixed qubit; agrees with ``stabilized_cost`` within 2*tol."""
    qubit = DensityMatrix(np.eye(2) / 2)
    return tensored_cost(rho, sigma, qubit, qubit, tol)


def tensored_cost(
    rho1: DensityMatrix,
    sigma1: DensityMatrix,
    rho2: DensityMatrix,
    sigma2: DensityMatrix,
    tol: float = DEFAULT_TOL,
) -> float:
    """Base cost between the product states rho1 (x) rho2 and sigma1 (x) sigma2.

    This is ``transport_cost`` on the Kronecker products, so the coupling
    lives on A1 A2 (x) B1 B2 and is compressed to the support of each
    product state.
    """
    d1 = _require_same_dim(rho1, sigma1)
    d2 = _require_same_dim(rho2, sigma2)
    if (d1 * d2) ** 2 > MAX_TENSORED_DIM:
        raise DimensionMismatchError(
            f"tensored coupling dimension {(d1 * d2) ** 2} exceeds the desk-scale cap {MAX_TENSORED_DIM}"
        )
    return transport_cost(
        DensityMatrix(np.kron(rho1.matrix, rho2.matrix)),
        DensityMatrix(np.kron(sigma1.matrix, sigma2.matrix)),
        tol,
    ).value


# ---------------------------------------------------------------------------
# Problem assembly


def _require_same_dim(rho, sigma) -> int:
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"state dimensions differ: {rho.dim} vs {sigma.dim}")
    return rho.dim


def _psd_clean(mat: np.ndarray) -> np.ndarray:
    """Symmetrize and clip negative eigenvalue dust to zero, as carried by an
    epsilon-optimal block or a hand-rounded state file."""
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def _solve_on_supports(rho: DensityMatrix, sigma: DensityMatrix, costs, tol: float):
    """Solve the coupling SDP for ``costs`` (operators on C^d (x) C^d, one
    PSD block each) on range(rho) (x) range(sigma), raising SolverFailure
    unless it reaches ``tol``.

    Returns ``(solution, blocks, (pot_a, pot_b), (support_a, support_b))``:
    the blocks and the potentials on C^d (x) C^d and C^d, the potentials
    zero off the supports, and the supports, whose orthonormal columns span
    range(rho) and range(sigma).
    """
    problem = sdp.coupling_problem(costs, rho.matrix, sigma.matrix)
    sol = sdp.solve(problem, tol)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise sdp.SolverFailure(
            sol.status,
            f"coupling SDP did not reach tolerance {tol:g}: status {sol.status}, "
            f"gap {sol.gap:.3e}, residual {sol.primal_infeasibility:.3e}",
        )
    blocks, pot_a, pot_b = sdp.coupling_solution(problem, sol)
    return sol, blocks, (pot_a, pot_b), (problem.support_a, problem.support_b)


# ---------------------------------------------------------------------------
# Dual potential lifting


def _identity_extension(pot_a: np.ndarray, pot_b: np.ndarray) -> np.ndarray:
    """pot_a (x) I + I (x) pot_b, the operator a potential pair puts on the
    coupling space; the pair is dual feasible when this is dominated by the
    cost."""
    return np.kron(pot_a, np.eye(pot_b.shape[0])) + np.kron(np.eye(pot_a.shape[0]), pot_b)


def _excess(pot_a: np.ndarray, pot_b: np.ndarray, cost: np.ndarray) -> float:
    """Largest eigenvalue of pot_a (x) I + I (x) pot_b - cost: how far the
    pair's identity extension rises above the cost (<= 0 means feasible)."""
    return float(np.linalg.eigvalsh(_identity_extension(pot_a, pot_b) - cost)[-1])


def _balance_traces(pot_a: np.ndarray, pot_b: np.ndarray):
    """Fix the identity-shift ambiguity by equalizing the two traces."""
    d = pot_a.shape[0]
    c = (np.trace(pot_a).real - np.trace(pot_b).real) / (2 * d)
    return pot_a - c * np.eye(d), pot_b + c * np.eye(d)


def _shifted_feasible(pot_a: np.ndarray, pot_b: np.ndarray, cost: np.ndarray):
    """``(pot_a - shift I, shift)`` with shift = max(0, excess against
    ``cost``): the smallest downward shift of the first potential that makes
    the pair dual feasible.  It costs exactly ``shift`` of dual value, since
    states have unit trace."""
    shift = max(0.0, _excess(pot_a, pot_b, cost))
    return pot_a - shift * np.eye(pot_a.shape[0]), shift


def _lift_potentials(pot_a, pot_b, support_a, support_b):
    """Pad potentials that are zero off the supports, then make them
    feasible; potentials of two full-rank states are returned as they are.

    A rank-deficient side is padded with -beta (I - V V^*), V its support
    and beta = ``_LIFT_BETA``, which leaves the dual value unchanged up to
    the mass below ``SUPPORT_CUT``.  The first potential is then shifted
    once by the excess of the padded pair (``_shifted_feasible``), so the
    witness is feasible and the reported gap honest however large that
    excess is.

    The loss that shift causes is bounded.  The padded extension E is block
    diagonal over S = S_a (x) S_b and its complement: on S it is the reduced
    extension, and on the complement it is at most (t - beta) I, with
    t = max(0, lambda_max(pot_a), lambda_max(pot_b)).  P_asym couples S to
    its complement only through an off-diagonal block C, and since P_asym is
    a projector, C C^* = A - A^2 <= I/4 (A its S block), so ||C|| <= 1/2.
    Hence the padded excess is at most max(eps, 0) + 1/(4 (beta - t)), with
    eps the excess of the reduced pair against the compressed P_asym: about
    2.5e-7 of dual value at beta = 1e6.
    """
    d = pot_a.shape[0]
    if support_a.shape[1] == d and support_b.shape[1] == d:
        return pot_a, pot_b

    def pad(pot, support):
        if support.shape[1] == d:
            return pot
        return pot - _LIFT_BETA * (np.eye(d) - support @ support.conj().T)

    full_b = pad(pot_b, support_b)
    full_a, _ = _shifted_feasible(pad(pot_a, support_a), full_b, proj_asym(d).matrix)
    return full_a, full_b
