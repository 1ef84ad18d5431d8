"""Deterministic invariant battery behind the ``selftest`` CLI command.

``CHECKS`` is the one table of the invariants: ``qot selftest`` runs every
row and the acceptance suite runs rows at its own seeds and sizes.  Each
check returns its worst margin (positive means the bound held with that much
room); a corrupted build, e.g. a wrong projector sign, fails loudly by name.
All randomness flows from one seed.  ``--quick`` runs each row at its quick
sizes, which target well under 30 seconds: marginals of dimension 2 or 3,
4-dimensional products of qubit states in the tensoring and
tensor-invariance checks, and no reference-witness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import counterexample as ce
from . import quantum as q
from . import transport as tr

__all__ = ["Check", "CheckResult", "CHECKS", "run_selftest", "DEFAULT_SEED"]

DEFAULT_SEED = 20220908


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class Check:
    """One row of the invariant table.

    ``measure(rng, bound, **sizes)`` returns (passed, margin, detail).
    ``full`` holds the sizes of ``qot selftest`` and ``quick`` those of
    ``qot selftest --quick``, or None for a check the quick run skips.
    """

    name: str
    bound: float
    quick: dict | None
    full: dict
    measure: Callable

    def run(self, rng, **sizes) -> CheckResult:
        passed, margin, detail = self.measure(rng, self.bound, **sizes)
        return CheckResult(self.name, bool(passed), margin, detail)


def _spawn(rng) -> int:
    return int(rng.integers(1 << 31))


def _at_most(worst, bound, detail):
    return worst <= bound, bound - worst, detail


def _at_least(worst, bound, detail):
    return worst >= -bound, worst + bound, detail


def _projector_completeness(rng, bound, top):
    worst = max(
        float(np.max(np.abs(q.proj_sym(d).matrix + q.proj_asym(d).matrix - np.eye(d * d))))
        for d in range(1, top + 1)
    )
    return _at_most(worst, bound, f"max entrywise defect {worst:.2e} over d <= {top}")


def _reshuffled_identity(rng, bound, top):
    worst = 0.0
    for d1 in range(1, top + 1):
        for d2 in range(1, top + 1):
            lhs = q.proj_asym_reshuffled(d1, d2).matrix
            rhs = np.kron(q.proj_asym(d1).matrix, q.proj_sym(d2).matrix) + np.kron(
                q.proj_sym(d1).matrix, q.proj_asym(d2).matrix
            )
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _at_most(worst, bound, f"max residual {worst:.2e} over d1, d2 <= {top}")


def _flip(rng, bound, top):
    worst = 0.0
    for d in range(1, top + 1):
        f = q.flip_operator(d).matrix
        worst = max(worst, float(np.max(np.abs(f @ f - np.eye(d * d)))))
        for proj in (q.proj_sym(d).matrix, q.proj_asym(d).matrix):
            worst = max(worst, float(np.max(np.abs(f @ proj @ f - proj))))
    return _at_most(worst, bound, f"max defect {worst:.2e}")


def _partial_trace(rng, bound, shapes):
    worst = 0.0
    for dims in shapes:
        n = int(np.prod(dims))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for keep in range(len(dims)):
            red = q.partial_trace(g, dims, keep=(keep,))
            worst = max(worst, abs(np.trace(red) - np.trace(g)))
    return _at_most(worst, bound, f"max trace drift {worst:.2e}")


def _twirl(rng, bound, dims):
    worst = 0.0
    for d in dims:
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
    return _at_most(worst, bound, f"max defect {worst:.2e} (idempotence, trace, 20 commutations per d)")


def _strong_duality(rng, bound, dims, pairs):
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
    return (
        worst <= bound and weak <= 1e-12,
        bound - worst,
        f"max |primal - dual| {worst:.2e} over {pairs} pairs per d in {dims}; "
        f"weak-duality excess {weak:.2e}",
    )


def _transport_symmetry(rng, bound):
    worst = 0.0
    for d in (2, 3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        worst = max(
            worst,
            abs(tr.transport_cost(rho, sigma).value - tr.transport_cost(sigma, rho).value),
        )
    return _at_most(worst, bound, f"max asymmetry {worst:.2e}")


def _unitary_invariance(rng, bound):
    worst = 0.0
    for d in (2, 3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        u = q.random_unitary(d, _spawn(rng))
        ru = q.DensityMatrix(u @ rho.matrix @ u.conj().T)
        su = q.DensityMatrix(u @ sigma.matrix @ u.conj().T)
        worst = max(worst, abs(tr.transport_cost(rho, sigma).value - tr.transport_cost(ru, su).value))
        worst = max(worst, abs(tr.stabilized_cost(rho, sigma).value - tr.stabilized_cost(ru, su).value))
    return _at_most(worst, bound, f"max shift {worst:.2e} for base and stabilized costs")


def _joint_convexity(rng, bound, repeats):
    worst = np.inf
    d = 3
    for _ in range(repeats):
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
    return _at_least(worst, bound, f"min convexity slack {worst:.2e} for base and stabilized costs")


def _tensoring_monotonicity(rng, bound, d):
    worst = np.inf
    for _ in range(3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        gamma = q.random_density_matrix(2, _spawn(rng))
        slack = tr.transport_cost(rho, sigma).value - tr.tensored_cost(rho, sigma, gamma, gamma)
        worst = min(worst, slack)
    return _at_least(worst, bound, f"min slack of T - T(. (x) gamma) {worst:.2e}")


def _stabilized_tensor_invariance(rng, bound):
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
    return _at_most(worst, bound, f"max drift {worst:.2e} at d=2 with a qubit ancilla")


def _channel_monotonicity(rng, bound, n, top):
    worst = np.inf
    for _ in range(n):
        d_in = int(rng.integers(2, top + 1))
        d_out = int(rng.integers(2, top + 1))
        rho = q.random_density_matrix(d_in, _spawn(rng))
        sigma = q.random_density_matrix(d_in, _spawn(rng))
        channel = q.random_kraus_channel(d_in, d_out, 2, _spawn(rng))
        before = tr.stabilized_cost(rho, sigma).value
        after = tr.stabilized_cost(q.apply_channel(channel, rho), q.apply_channel(channel, sigma)).value
        worst = min(worst, before - after)
    return _at_least(worst, bound, f"min monotonicity slack {worst:.2e} over {n} random channels")


def _feasibility_split(rng, bound, n):
    """``bound`` is the dead zone of ``tensor_feasibility_equivalence``:
    pairs with a margin this close to zero are inconclusive, and counted."""
    dead = 0
    for _ in range(n):
        d1 = int(rng.integers(2, 4))
        scale = 0.3 * rng.random() + 0.05
        g = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        a = scale * (g + g.conj().T) / 2
        g = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        b = scale * (g + g.conj().T) / 2
        check = ce.tensor_feasibility_equivalence(a, b, 2)
        if any(abs(m) <= bound for m in check.margins):
            dead += 1
    # tensor_feasibility_equivalence raises if the boolean identity breaks
    return True, 1.0, f"{n} random pairs consistent ({dead} inside the {bound:g} dead zone)"


def _pure_closed_form(rng, bound, dims, pairs):
    worst = 0.0
    for d in dims:
        for _ in range(pairs):
            psi = q.random_pure_state(d, _spawn(rng))
            phi = q.random_pure_state(d, _spawn(rng))
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            got = tr.transport_cost(psi.density(), phi.density()).value
            worst = max(worst, abs(got - (1 - overlap) / 2))
    return _at_most(worst, bound, f"max deviation {worst:.2e} from (1-overlap)/2")


def _cost_bounds(rng, bound):
    low, high = np.inf, -np.inf
    for d in (2, 3):
        rho = q.random_density_matrix(d, _spawn(rng))
        sigma = q.random_density_matrix(d, _spawn(rng))
        t = tr.transport_cost(rho, sigma).value
        ts = tr.stabilized_cost(rho, sigma).value
        low = min(low, ts, t - ts)
        high = max(high, t)
    return (
        low >= -bound and high <= 0.5 + 1e-9,
        min(low + bound, 0.5 + 1e-9 - high),
        f"0 <= stabilized <= base <= 1/2: min slack {low:.2e}, max base {high:.6f}",
    )


def _reference_witness(rng, bound):
    wit = ce.reference_witness()
    m_asym, m_sym = -wit.feasibility_margin, ce.symmetric_excess(wit)
    return (
        m_asym <= bound and m_sym > 1e-4,
        min(bound - m_asym, m_sym - 1e-4),
        f"antisym excess {m_asym:.2e} (needs <= 1e-6), sym excess {m_sym:.2e} (needs > 1e-4)",
    )


# the rows run in this order on one generator, so the order fixes every draw
CHECKS = {
    check.name: check
    for check in (
        Check("projector-completeness", 1e-15, dict(top=3), dict(top=8), _projector_completeness),
        Check("reshuffled-projector-identity", 1e-14, dict(top=3), dict(top=4), _reshuffled_identity),
        Check("flip-involution-and-conjugation", 1e-14, dict(top=3), dict(top=6), _flip),
        Check(
            "partial-trace-preserves-trace", 1e-12,
            dict(shapes=((2, 2), (2, 3))), dict(shapes=((2, 2), (2, 3), (3, 2, 2))), _partial_trace,
        ),
        Check("twirl-idempotent-invariant", 1e-10, dict(dims=(2, 3)), dict(dims=(2, 3, 4)), _twirl),
        Check(
            "strong-duality", 1e-6,
            dict(dims=(2, 3), pairs=6), dict(dims=(2, 3, 4), pairs=20), _strong_duality,
        ),
        Check("transport-symmetry", 1e-7, {}, {}, _transport_symmetry),
        Check("unitary-invariance", 1e-6, {}, {}, _unitary_invariance),
        Check("joint-convexity", 1e-6, dict(repeats=2), dict(repeats=3), _joint_convexity),
        Check("tensoring-monotonicity", 1e-6, dict(d=2), dict(d=3), _tensoring_monotonicity),
        Check("stabilized-tensor-invariance", 1e-6, {}, {}, _stabilized_tensor_invariance),
        Check(
            "stabilized-channel-monotonicity", 1e-6,
            dict(n=5, top=3), dict(n=20, top=4), _channel_monotonicity,
        ),
        Check("feasibility-split-equivalence", ce.SPLIT_DEAD_ZONE, dict(n=10), dict(n=50), _feasibility_split),
        Check(
            "pure-state-closed-form", 1e-7,
            dict(dims=(2, 3), pairs=4), dict(dims=(2, 3, 4), pairs=4), _pure_closed_form,
        ),
        Check("cost-order-and-bounds", 1e-7, {}, {}, _cost_bounds),
        Check("reference-witness-margins", 1e-6, None, {}, _reference_witness),
    )
}


def run_selftest(seed: int = DEFAULT_SEED, quick: bool = False) -> list[CheckResult]:
    """Run the invariant battery; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    results = []
    for check in CHECKS.values():
        sizes = check.quick if quick else check.full
        if sizes is None:
            continue
        try:
            results.append(check.run(rng, **sizes))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.name, False, -np.inf, f"raised {exc!r}"))
    return results
