"""Deterministic invariant battery behind the ``selftest`` CLI command.

Each check returns its worst margin (positive means the bound held with that
much room); a corrupted build, e.g. a wrong projector sign, fails loudly by
name.  All randomness flows from one seed.  The quick variant restricts to
dimensions at most 3 and fewer samples, targeting well under 30 seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import counterexample as ce
from . import quantum as q
from . import transport as tr

__all__ = ["CheckResult", "run_selftest", "DEFAULT_SEED"]

DEFAULT_SEED = 20220908


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


def _spawn(rng) -> int:
    return int(rng.integers(1 << 31))


def _check_projector_completeness(rng, quick):
    dims = range(1, 4 if quick else 9)
    worst = max(
        float(np.max(np.abs(q.proj_sym(d).matrix + q.proj_asym(d).matrix - np.eye(d * d))))
        for d in dims
    )
    return CheckResult(
        "projector-completeness", worst <= 1e-15, 1e-15 - worst,
        f"max entrywise defect {worst:.2e} over d <= {max(dims)}",
    )


def _check_reshuffled_identity(rng, quick):
    top = 3 if quick else 4
    worst = 0.0
    for d1 in range(1, top + 1):
        for d2 in range(1, top + 1):
            lhs = q.proj_asym_reshuffled(d1, d2).matrix
            rhs = np.kron(q.proj_asym(d1).matrix, q.proj_sym(d2).matrix) + np.kron(
                q.proj_sym(d1).matrix, q.proj_asym(d2).matrix
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CheckResult(
        "reshuffled-projector-identity", worst <= 1e-14, 1e-14 - worst,
        f"max residual {worst:.2e} over d1, d2 <= {top}",
    )


def _check_flip(rng, quick):
    worst = 0.0
    for d in range(1, 4 if quick else 7):
        f = q.flip_operator(d).matrix
        worst = max(worst, float(np.max(np.abs(f @ f - np.eye(d * d)))))
        for proj in (q.proj_sym(d).matrix, q.proj_asym(d).matrix):
            worst = max(worst, float(np.max(np.abs(f @ proj @ f - proj))))
    return CheckResult(
        "flip-involution-and-conjugation", worst <= 1e-14, 1e-14 - worst,
        f"max defect {worst:.2e}",
    )


def _check_partial_trace(rng, quick):
    worst = 0.0
    for dims in ((2, 2), (2, 3), (3, 2, 2)) if not quick else ((2, 2), (2, 3)):
        n = int(np.prod(dims))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for keep in range(len(dims)):
            red = q.partial_trace(g, dims, keep=(keep,))
            worst = max(worst, abs(np.trace(red) - np.trace(g)))
    return CheckResult(
        "partial-trace-preserves-trace", worst <= 1e-12, 1e-12 - worst,
        f"max trace drift {worst:.2e}",
    )


def _check_twirl(rng, quick):
    worst = 0.0
    for d in (2, 3) if quick else (2, 3, 4):
        h = q.random_density_matrix(d * d, _spawn(rng))
        t = q.twirl(q.HermitianOperator(h.matrix))
        t2 = q.twirl(t)
        worst = max(worst, float(np.max(np.abs(t2.matrix - t.matrix))))
        worst = max(worst, abs(np.trace(t.matrix).real - np.trace(h.matrix).real))
        for _ in range(20):
            u = q.random_unitary(d, _spawn(rng))
            uu = np.kron(u, u)
            comm = t.matrix @ uu - uu @ t.matrix
            worst = max(worst, float(np.max(np.abs(comm))))
    return CheckResult(
        "twirl-idempotent-invariant", worst <= 1e-10, 1e-10 - worst,
        f"max defect {worst:.2e} (idempotence, trace, 20 commutations per d)",
    )


def _check_strong_duality(rng, quick):
    dims = (2, 3) if quick else (2, 3, 4)
    pairs = 6 if quick else 20
    worst = 0.0
    weak = 0.0
    for d in dims:
        for _ in range(pairs):
            rho = q.random_density_matrix(d, _spawn(rng))
            sigma = q.random_density_matrix(d, _spawn(rng))
            res = tr.transport_cost(rho, sigma)
            dv = tr.dual_value(rho, sigma, res.dual_witness)
            worst = max(worst, abs(res.value - dv))
            weak = max(weak, dv - res.value)
    passed = worst <= 1e-6 and weak <= 1e-12
    return CheckResult(
        "strong-duality", passed, 1e-6 - worst,
        f"max |primal - dual| {worst:.2e} over {pairs} pairs per d in {dims}; "
        f"weak-duality excess {weak:.2e}",
    )


def _check_transport_symmetry(rng, quick):
    worst = 0.0
    for d in (2, 3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        worst = max(
            worst,
            abs(tr.transport_cost(rho, sigma).value - tr.transport_cost(sigma, rho).value),
        )
    return CheckResult(
        "transport-symmetry", worst <= 1e-7, 1e-7 - worst, f"max asymmetry {worst:.2e}"
    )


def _check_unitary_invariance(rng, quick):
    worst = 0.0
    for d in (2, 3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        u = q.random_unitary(d, _spawn(rng))
        ru = q.DensityMatrix(u @ rho.matrix @ u.conj().T)
        su = q.DensityMatrix(u @ sigma.matrix @ u.conj().T)
        worst = max(worst, abs(tr.transport_cost(rho, sigma).value - tr.transport_cost(ru, su).value))
        worst = max(worst, abs(tr.stabilized_cost(rho, sigma).value - tr.stabilized_cost(ru, su).value))
    return CheckResult(
        "unitary-invariance", worst <= 1e-6, 1e-6 - worst,
        f"max shift {worst:.2e} for base and stabilized costs",
    )


def _check_joint_convexity(rng, quick):
    worst = np.inf
    d = 3
    for _ in range(2 if quick else 3):
        r1, s1 = (q.random_density_matrix(d, _spawn(rng)) for _ in range(2))
        r2, s2 = (q.random_density_matrix(d, _spawn(rng)) for _ in range(2))
        for cost in (lambda a, b: tr.transport_cost(a, b).value,
                     lambda a, b: tr.stabilized_cost(a, b).value):
            base1, base2 = cost(r1, s1), cost(r2, s2)
            for lam in (0.25, 0.5, 0.75):
                mr = q.DensityMatrix(lam * r1.matrix + (1 - lam) * r2.matrix)
                ms = q.DensityMatrix(lam * s1.matrix + (1 - lam) * s2.matrix)
                slack = lam * base1 + (1 - lam) * base2 - cost(mr, ms)
                worst = min(worst, slack)
    return CheckResult(
        "joint-convexity", worst >= -1e-6, worst + 1e-6,
        f"min convexity slack {worst:.2e} for base and stabilized costs",
    )


def _check_tensoring_monotonicity(rng, quick):
    worst = np.inf
    d = 2 if quick else 3
    for _ in range(3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        gamma = q.random_density_matrix(2, _spawn(rng))
        slack = tr.transport_cost(rho, sigma).value - tr.tensored_cost(rho, sigma, gamma, gamma)
        worst = min(worst, slack)
    return CheckResult(
        "tensoring-monotonicity", worst >= -1e-6, worst + 1e-6,
        f"min slack of T - T(. (x) gamma) {worst:.2e}",
    )


def _check_stabilized_tensor_invariance(rng, quick):
    worst = 0.0
    for _ in range(2):
        rho = q.random_density_matrix(2, _spawn(rng))
        sigma = q.random_density_matrix(2, _spawn(rng))
        gamma = q.random_density_matrix(2, _spawn(rng))
        base = tr.stabilized_cost(rho, sigma).value
        ext = tr.stabilized_cost(
            q.DensityMatrix(np.kron(rho.matrix, gamma.matrix)),
            q.DensityMatrix(np.kron(sigma.matrix, gamma.matrix)),
        ).value
        worst = max(worst, abs(base - ext))
    return CheckResult(
        "stabilized-tensor-invariance", worst <= 1e-6, 1e-6 - worst,
        f"max drift {worst:.2e} at d=2 with a qubit ancilla",
    )


def _check_channel_monotonicity(rng, quick):
    worst = np.inf
    n = 5 if quick else 20
    top = 3 if quick else 4
    for _ in range(n):
        d_in = int(rng.integers(2, top + 1))
        d_out = int(rng.integers(2, top + 1))
        rho = q.random_density_matrix(d_in, _spawn(rng))
        sigma = q.random_density_matrix(d_in, _spawn(rng))
        channel = q.random_kraus_channel(d_in, d_out, 2, _spawn(rng))
        before = tr.stabilized_cost(rho, sigma).value
        after = tr.stabilized_cost(q.apply_channel(channel, rho), q.apply_channel(channel, sigma)).value
        worst = min(worst, before - after)
    return CheckResult(
        "stabilized-channel-monotonicity", worst >= -1e-6, worst + 1e-6,
        f"min monotonicity slack {worst:.2e} over {n} random channels",
    )


def _check_feasibility_split(rng, quick):
    n = 10 if quick else 50
    dead = 0
    for _ in range(n):
        d1 = int(rng.integers(2, 4))
        scale = 0.3 * rng.random() + 0.05
        g = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        a = scale * (g + g.conj().T) / 2
        g = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        b = scale * (g + g.conj().T) / 2
        check = ce.tensor_feasibility_equivalence(a, b, 2)
        if any(abs(m) <= 1e-9 for m in check.margins):
            dead += 1
    # tensor_feasibility_equivalence raises if the boolean identity breaks
    return CheckResult(
        "feasibility-split-equivalence", True, 1.0,
        f"{n} random pairs consistent ({dead} inside the 1e-9 dead zone)",
    )


def _check_pure_closed_form(rng, quick):
    worst = 0.0
    for d in (2, 3) if quick else (2, 3, 4):
        for _ in range(4):
            psi = q.random_pure_state(d, _spawn(rng))
            phi = q.random_pure_state(d, _spawn(rng))
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            got = tr.transport_cost(psi.density(), phi.density()).value
            worst = max(worst, abs(got - (1 - overlap) / 2))
    return CheckResult(
        "pure-state-closed-form", worst <= 1e-7, 1e-7 - worst,
        f"max deviation {worst:.2e} from (1-overlap)/2",
    )


def _check_cost_bounds(rng, quick):
    low, high = np.inf, -np.inf
    for d in (2, 3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        t = tr.transport_cost(rho, sigma).value
        ts = tr.stabilized_cost(rho, sigma).value
        low = min(low, ts, t - ts)
        high = max(high, t)
    passed = low >= -1e-7 and high <= 0.5 + 1e-9
    return CheckResult(
        "cost-order-and-bounds", passed, min(low + 1e-7, 0.5 + 1e-9 - high),
        f"0 <= stabilized <= base <= 1/2: min slack {low:.2e}, max base {high:.6f}",
    )


def _check_reference_witness(rng, quick):
    wit = ce.reference_witness()
    d = wit.dim
    lhs = tr._identity_extension(wit.potential_a.matrix, wit.potential_b.matrix)
    m_asym = float(np.linalg.eigvalsh(lhs - q.proj_asym(d).matrix)[-1])
    m_sym = float(np.linalg.eigvalsh(lhs - q.proj_sym(d).matrix)[-1])
    passed = m_asym <= 1e-6 and m_sym > 1e-4
    return CheckResult(
        "reference-witness-margins", passed, min(1e-6 - m_asym, m_sym - 1e-4),
        f"antisym excess {m_asym:.2e} (needs <= 1e-6), sym excess {m_sym:.2e} (needs > 1e-4)",
    )


_CHECKS = [
    _check_projector_completeness,
    _check_reshuffled_identity,
    _check_flip,
    _check_partial_trace,
    _check_twirl,
    _check_strong_duality,
    _check_transport_symmetry,
    _check_unitary_invariance,
    _check_joint_convexity,
    _check_tensoring_monotonicity,
    _check_stabilized_tensor_invariance,
    _check_channel_monotonicity,
    _check_feasibility_split,
    _check_pure_closed_form,
    _check_cost_bounds,
    _check_reference_witness,
]

# everything above dimension 3 is excluded from the quick subset
_QUICK_SKIP = {"_check_reference_witness"}


def run_selftest(seed: int = DEFAULT_SEED, quick: bool = False) -> list[CheckResult]:
    """Run the invariant battery; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    results = []
    for check in _CHECKS:
        if quick and check.__name__ in _QUICK_SKIP:
            continue
        try:
            results.append(check(rng, quick))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__.replace("_check_", "", 1), False, -np.inf, f"raised {exc!r}"))
    return results
