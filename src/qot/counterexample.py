"""Witness pairs that break partial-trace monotonicity of the transport cost.

A dual-feasible pair of potentials whose identity extension exceeds the
*symmetric* projector somewhere yields, through its top eigenvector, a pair
of states whose transport cost strictly drops after tensoring both with a
maximally mixed qubit (equivalently: the cost is not monotone under partial
traces).  This module ships an explicit 4x4 pair with that property, embeds
it into higher dimensions, extracts the violating state, and assembles the
whole inequality chain into a checked report.  A randomized local search for
fresh pairs is included; for qubit pairs it is expected to come back empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .quantum import (
    DensityMatrix,
    HermitianOperator,
    PureState,
    max_eig,
    partial_trace,
    proj_asym,
    proj_asym_reshuffled,
    proj_sym,
)
from .transport import (
    DEFAULT_TOL,
    DualWitness,
    _excess,
    _identity_extension,
    _shifted_feasible,
    dual_value,
    stabilized_cost,
    transport_cost,
)

__all__ = [
    "ChainCheckError",
    "EquivalenceCheck",
    "ViolationReport",
    "reference_witness",
    "tensor_feasibility_equivalence",
    "embed_witness",
    "extract_violating_state",
    "symmetric_excess",
    "violation_report",
    "search_witness",
    "chain_values",
    "MIN_VIOLATION_DIM",
    "MAX_VIOLATION_DIM",
]

MIN_VIOLATION_DIM = 4
MAX_VIOLATION_DIM = 6
CHAIN_TOL = 1e-7
# Margins of the feasibility split identity this close to zero are inconclusive.
SPLIT_DEAD_ZONE = 1e-9

# Known 4x4 pair: feasible for the antisymmetric-projector bound while
# exceeding the symmetric one.  Stored bit-exactly as decimal literals.
_REFERENCE_A = np.diag([-1.37, 0.02, 0.17, 0.26]).astype(complex)
_REFERENCE_B = np.array(
    [
        [0.1165, -0.02 + 0.01j, 0.03 - 0.05j, -0.04 - 0.05j],
        [-0.02 - 0.01j, -0.0935, 0.02j, 0.16 - 0.11j],
        [0.03 + 0.05j, -0.02j, -0.2335, 0.06 + 0.11j],
        [-0.04 + 0.05j, 0.16 + 0.11j, 0.06 - 0.11j, -1.1435],
    ],
    dtype=complex,
)


class ChainCheckError(RuntimeError):
    """A link of the violation inequality chain failed numerically."""


@dataclass(frozen=True)
class EquivalenceCheck:
    """Outcome of the tensored-feasibility equivalence test.

    ``joint_feasible`` tests domination by the interleaved antisymmetric
    projector on the product space; ``asym_feasible`` and ``sym_dominated``
    test domination by the plain antisymmetric and symmetric projectors.
    ``margins`` holds the three largest eigenvalues (joint, asym, sym);
    a condition holds when its margin is <= 0.
    """

    joint_feasible: bool
    asym_feasible: bool
    sym_dominated: bool
    margins: tuple[float, float, float]


@dataclass(frozen=True)
class ViolationReport:
    """Full record of one monotonicity violation.

    The inequality chain certified by the construction is
    ``ts_value <= sym_expectation < dual_bound <= t_value``; ``gap`` is
    ``t_value - ts_value`` and ``sym_violation`` the largest eigenvalue of
    the witness extension minus the symmetric projector.
    """

    dim: int
    witness: DualWitness
    psi: PureState
    rho: DensityMatrix
    sigma: DensityMatrix
    t_value: float
    ts_value: float
    gap: float
    sym_violation: float
    sym_expectation: float
    dual_bound: float
    repair_shift: float
    solver_tol: float
    chain_tol: float


def reference_witness() -> DualWitness:
    """The built-in 4x4 witness pair, bit-exact decimal constants.

    If the rounded constants ever violated antisymmetric feasibility, the
    first potential would be shifted down by the excess (see
    ``_reference_repaired``); as shipped the pair is strictly feasible and no
    shift is applied.
    """
    return _reference_repaired()[0]


def _reference_repaired() -> tuple[DualWitness, float]:
    pot_a, shift = _shifted_feasible(_REFERENCE_A, _REFERENCE_B, proj_asym(4).matrix)
    return DualWitness(HermitianOperator(pot_a), HermitianOperator(_REFERENCE_B)), shift


def symmetric_excess(witness: DualWitness) -> float:
    """Largest eigenvalue of the witness extension minus the symmetric
    projector; positive means the witness breaks monotonicity."""
    return _excess(witness.potential_a.matrix, witness.potential_b.matrix, proj_sym(witness.dim).matrix)


def tensor_feasibility_equivalence(pot_a, pot_b, d2: int) -> EquivalenceCheck:
    """Check that joint feasibility on a d1*d2 product space is equivalent to
    feasibility against both plain projectors on the d1 space.

    The equivalence is exact; margins within ``SPLIT_DEAD_ZONE`` of zero are
    treated as inconclusive and exempt from the consistency assertion.
    """
    a = pot_a if isinstance(pot_a, HermitianOperator) else HermitianOperator(pot_a)
    b = pot_b if isinstance(pot_b, HermitianOperator) else HermitianOperator(pot_b)
    if a.dim != b.dim:
        raise ValueError("potentials must share one dimension")
    if d2 < 2:
        raise ValueError("the ancilla factor needs dimension >= 2")
    d1 = a.dim
    # a (x) I_B1 (x) I_A2B2 + I_A1 (x) b (x) I_A2B2, split as A1 against B1 A2 B2
    joint = _identity_extension(a.matrix, np.kron(b.matrix, np.eye(d2 * d2)))
    m_joint = float(np.linalg.eigvalsh(joint - proj_asym_reshuffled(d1, d2).matrix)[-1])
    m_asym = _excess(a.matrix, b.matrix, proj_asym(d1).matrix)
    m_sym = _excess(a.matrix, b.matrix, proj_sym(d1).matrix)

    check = EquivalenceCheck(
        joint_feasible=m_joint <= 0,
        asym_feasible=m_asym <= 0,
        sym_dominated=m_sym <= 0,
        margins=(m_joint, m_asym, m_sym),
    )
    decisive = all(abs(m) > SPLIT_DEAD_ZONE for m in check.margins)
    if decisive and check.joint_feasible != (check.asym_feasible and check.sym_dominated):
        raise RuntimeError(f"feasibility split identity violated: margins {check.margins}")
    return check


def embed_witness(base: DualWitness, k: int, alpha: float | None = None) -> DualWitness:
    """Extend a witness to dimension dim+k by padding both potentials with
    -alpha on the new directions.

    The flip pairs each old (x) new vector |i, j> only with its mirror
    |j, i>, and on each such pair of blocks the padded extension minus the
    antisymmetric projector acts as M - alpha I, with
    M = [[A - I/2, I/2], [I/2, B - I/2]] built from the base potentials A, B.
    The new (x) new block needs only alpha >= 0, so the padded pair is
    feasible exactly when the base pair is and alpha >= max(0, lambda_max(M)).
    With ``alpha`` omitted, that threshold is doubled for margin; a base with
    a negative margin is rejected, since no padding repairs it.  The
    symmetric-side violation is inherited: the violating state embeds.
    """
    if k < 1:
        raise ValueError("need at least one padding dimension")
    pot_a, pot_b = base.potential_a.matrix, base.potential_b.matrix
    if alpha is None:
        if base.feasibility_margin < 0:
            raise ValueError(
                f"base pair unusable: margin {base.feasibility_margin:.3e}, no padding repairs it"
            )
        half = np.eye(base.dim) / 2
        mirror = np.block([[pot_a - half, half], [half, pot_b - half]])
        alpha = 2 * max(0.0, float(np.linalg.eigvalsh(mirror)[-1]))
    n, pad = base.dim, -float(alpha) * np.eye(k)

    def padded(pot: np.ndarray) -> HermitianOperator:
        out = np.zeros((n + k, n + k), dtype=complex)
        out[:n, :n], out[n:, n:] = pot, pad
        return HermitianOperator(out)

    return DualWitness(padded(pot_a), padded(pot_b))


def extract_violating_state(witness: DualWitness) -> PureState:
    """Top eigenvector of the witness extension minus the symmetric projector.

    Requires a strictly positive symmetric-side excess; the returned state
    attains it as an expectation-value violation.
    """
    lhs = _identity_extension(witness.potential_a.matrix, witness.potential_b.matrix)
    value, state = max_eig(lhs - proj_sym(witness.dim).matrix)
    if value <= 1e-9:
        raise ValueError(
            f"witness does not exceed the symmetric-side bound (excess {value:.3e})"
        )
    return state


def violation_report(d: int, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Build the witness for dimension d, extract the violating state pair,
    solve both costs, and verify every link of the inequality chain.

    Raises ChainCheckError when any link fails, which indicates a witness or
    solver defect rather than a mathematical possibility.
    """
    if d < MIN_VIOLATION_DIM:
        raise ValueError(
            f"no symmetric-side violating pair is known below dimension {MIN_VIOLATION_DIM} "
            f"(whether one exists for d=3 is open); got d={d}"
        )
    if d > MAX_VIOLATION_DIM:
        raise ValueError(f"dimension {d} exceeds the desk-scale cap {MAX_VIOLATION_DIM}")

    base, repair_shift = _reference_repaired()
    witness = base if d == MIN_VIOLATION_DIM else embed_witness(base, d - MIN_VIOLATION_DIM)

    psi = extract_violating_state(witness)
    psi_dm = psi.density().matrix
    rho = DensityMatrix(partial_trace(psi_dm, (d, d), keep=(0,)))
    sigma = DensityMatrix(partial_trace(psi_dm, (d, d), keep=(1,)))

    t_res = transport_cost(rho, sigma, tol)
    ts_res = stabilized_cost(rho, sigma, tol)
    amp = psi.amplitudes
    sym_expectation = float((amp.conj() @ proj_sym(d).matrix @ amp).real)
    extension = _identity_extension(witness.potential_a.matrix, witness.potential_b.matrix)
    extension_expectation = float((amp.conj() @ extension @ amp).real)
    dual_bound = dual_value(rho, sigma, witness)
    report = ViolationReport(
        dim=d,
        witness=witness,
        psi=psi,
        rho=rho,
        sigma=sigma,
        t_value=t_res.value,
        ts_value=ts_res.value,
        gap=t_res.value - ts_res.value,
        sym_violation=symmetric_excess(witness),
        sym_expectation=sym_expectation,
        dual_bound=dual_bound,
        repair_shift=repair_shift,
        solver_tol=tol,
        chain_tol=CHAIN_TOL,
    )

    checks = [
        ("marginal-expectation identity", abs(extension_expectation - dual_bound) <= CHAIN_TOL),
        ("stabilized cost below symmetric expectation", report.ts_value <= sym_expectation + CHAIN_TOL),
        ("strict symmetric-side violation", dual_bound > sym_expectation),
        ("dual bound below transport cost", dual_bound <= report.t_value + CHAIN_TOL),
        ("gap exceeds ten solver tolerances", report.gap > 10 * tol),
    ]
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise ChainCheckError(f"violation chain failed: {', '.join(failed)}")
    return report


def chain_values(report: ViolationReport) -> dict[str, float]:
    """The scalar chain of the report, in inequality order."""
    return {
        "stabilized_cost": report.ts_value,
        "sym_expectation": report.sym_expectation,
        "dual_bound": report.dual_bound,
        "transport_cost": report.t_value,
        "gap": report.gap,
        "sym_violation": report.sym_violation,
    }


def search_witness(d: int, seed, iterations: int) -> DualWitness | None:
    """Randomized local search for a violating witness pair in dimension d.

    Alternates two monotone steps from random starting states: extract the
    most violating state of the current pair (the top eigenvector against
    the symmetric projector) and refit the best feasible pair to that state
    (the dual witness of the transport cost between its marginals).  Each
    alternation round counts against ``iterations``; restarts stop early
    after 60 fruitless basins.  Returns a verified witness once the
    symmetric excess clears 1e-6, None otherwise; for d = 2 monotonicity
    holds and None is the expected outcome.
    """
    if d < 2:
        raise ValueError("search needs dimension >= 2")
    iterations = int(iterations)
    psym, pasym = proj_sym(d).matrix, proj_asym(d).matrix
    rng = np.random.default_rng(seed)

    rounds = 0
    fruitless = 0
    while rounds < iterations and fruitless < 60:
        fruitless += 1
        amp = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        amp /= np.linalg.norm(amp)
        best = -np.inf
        witness = None
        while rounds < iterations:
            rounds += 1
            dm = np.outer(amp, amp.conj())
            try:
                rho = DensityMatrix(partial_trace(dm, (d, d), keep=(0,)))
                sigma = DensityMatrix(partial_trace(dm, (d, d), keep=(1,)))
                candidate = transport_cost(rho, sigma).dual_witness
            except sdp.SolverFailure:
                break
            lhs = _identity_extension(candidate.potential_a.matrix, candidate.potential_b.matrix)
            vals, vecs = np.linalg.eigh(lhs - psym)
            amp = vecs[:, -1]
            witness = candidate
            if vals[-1] <= best + 1e-10:
                break
            best = float(vals[-1])
        if witness is None or best <= 1e-6:
            continue
        pot_a, _ = _shifted_feasible(witness.potential_a.matrix, witness.potential_b.matrix, pasym)
        witness = DualWitness(HermitianOperator(pot_a), witness.potential_b)
        if symmetric_excess(witness) > 1e-6:
            return witness
    return None
