"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
margins; every tolerance is pinned here, nothing is deferred.  Criteria 3 and
5-7 run rows of the selftest's invariant table at their own seeds and sizes.
"""

import time

import numpy as np

from qot.cli import main
from qot.counterexample import (
    embed_witness,
    reference_witness,
    search_witness,
    symmetric_excess,
    violation_report,
)
from qot.quantum import proj_asym, proj_sym, random_density_matrix
from qot.selftest import CHECKS
from qot.serialize import read_report
from qot.transport import stabilized_cost, stabilized_cost_via_tensoring, tensored_cost

SOLVER_TOL = 1e-8


def _report(name, detail):
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def _holds(rng, name, bound, **sizes):
    """Run the selftest check ``name`` on ``rng`` at ``sizes``, pinning its bound."""
    check = CHECKS[name]
    assert check.bound == bound
    result = check.run(rng, **sizes)
    assert result.passed is True, f"{name}: {result.detail}"
    return result.detail


def test_criterion_01_counterexample_reproduction(tmp_path):
    start = time.monotonic()
    out = tmp_path / "violation.json"
    exit_code = main(["verify-counterexample", "--dim", "4", "--tol", "1e-8", "--out", str(out)])
    assert exit_code == 0
    doc = read_report(out)
    assert doc["gap"] > 1e-5

    rep = violation_report(4, tol=SOLVER_TOL)
    assert rep.t_value - rep.ts_value > 1e-5
    assert rep.ts_value <= rep.sym_expectation + 1e-7
    assert rep.sym_expectation < rep.dual_bound
    assert rep.dual_bound <= rep.t_value + 1e-7
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(
        "criterion 1 (counterexample reproduction)",
        f"exit 0, gap {rep.gap:.6e} > 1e-5, chain holds at 1e-7, {elapsed:.1f}s",
    )


def test_criterion_02_witness_feasibility():
    start = time.monotonic()
    wit = reference_witness()
    lhs = np.kron(wit.potential_a.matrix, np.eye(4)) + np.kron(np.eye(4), wit.potential_b.matrix)
    asym_excess = float(np.linalg.eigvalsh(lhs - proj_asym(4).matrix)[-1])
    sym_excess = float(np.linalg.eigvalsh(lhs - proj_sym(4).matrix)[-1])
    assert asym_excess <= 1e-6
    assert sym_excess > 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 1
    _report(
        "criterion 2 (witness feasibility)",
        f"antisym excess {asym_excess:.3e} <= 1e-6, sym excess {sym_excess:.3e} > 1e-4, {elapsed:.2f}s",
    )


def test_criterion_03_strong_duality():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    detail = _holds(rng, "strong-duality", 1e-6, dims=(2, 3, 4), pairs=20)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report("criterion 3 (strong duality)", f"{detail} (<= 1e-6; weak duality <= 1e-12), {elapsed:.1f}s")


def test_criterion_04_stabilized_equality():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        rho = random_density_matrix(3, int(rng.integers(1 << 31)))
        sigma = random_density_matrix(3, int(rng.integers(1 << 31)))
        split = stabilized_cost(rho, sigma, SOLVER_TOL).value
        tensored = stabilized_cost_via_tensoring(rho, sigma, SOLVER_TOL)
        worst = max(worst, abs(split - tensored))
    assert worst <= 2e-8
    _report(
        "criterion 4 (two-route stabilized equality)",
        f"max |split - tensored| {worst:.3e} <= 2e-8 over 10 random d=3 pairs",
    )


def test_criterion_05_pure_state_oracle():
    rng = np.random.default_rng(303)
    detail = _holds(rng, "pure-state-closed-form", 1e-7, dims=(2, 3, 4), pairs=20)
    _report("criterion 5 (pure-state closed form)", f"{detail} <= 1e-7 over 20 pairs x d in 2..4")


def test_criterion_06_invariance_suite():
    rng = np.random.default_rng(404)
    details = [
        _holds(rng, "unitary-invariance", 1e-6),
        _holds(rng, "joint-convexity", 1e-6, repeats=1),
        _holds(rng, "tensoring-monotonicity", 1e-6, d=3),
        _holds(rng, "stabilized-tensor-invariance", 1e-6),
        _holds(rng, "stabilized-channel-monotonicity", 1e-6, n=20, top=4),
    ]
    _report("criterion 6 (invariance suite)", "; ".join(details) + ", all within 1e-6")


def test_criterion_07_structural_identities():
    rng = np.random.default_rng(505)
    details = [
        _holds(rng, "reshuffled-projector-identity", 1e-14, top=4),  # draws nothing
        _holds(rng, "twirl-idempotent-invariant", 1e-10, dims=(2, 3)),
        _holds(rng, "feasibility-split-equivalence", 1e-9, n=50),  # raises on identity breach
    ]
    _report("criterion 7 (structural identities)", "; ".join(details))


def test_criterion_08_tensoring_is_weakest_extension():
    rep = violation_report(4, tol=SOLVER_TOL)
    rng = np.random.default_rng(606)
    worst = np.inf
    for _ in range(10):
        rho2 = random_density_matrix(2, int(rng.integers(1 << 31)))
        sigma2 = random_density_matrix(2, int(rng.integers(1 << 31)))
        value = tensored_cost(rep.rho, rep.sigma, rho2, sigma2, SOLVER_TOL)
        worst = min(worst, value - rep.ts_value)
    assert worst >= -1e-6
    _report(
        "criterion 8 (maximally mixed qubit is the strongest ancilla)",
        f"min tensored-minus-stabilized slack {worst:.3e} >= -1e-6 over 10 environments",
    )


def test_criterion_09_embedding(tmp_path):
    base = reference_witness()
    for k in (1, 2):
        emb = embed_witness(base, k)
        assert emb.feasibility_margin >= -1e-7
        assert symmetric_excess(emb) > 0
    out = tmp_path / "violation5.json"
    assert main(["verify-counterexample", "--dim", "5", "--out", str(out)]) == 0
    doc = read_report(out)
    assert doc["gap"] > 1e-5
    _report(
        "criterion 9 (embedding to higher dimension)",
        f"k=1,2 embeddings feasible with positive sym excess; dim-5 report gap {doc['gap']:.3e}",
    )


def test_criterion_10_no_qubit_witness():
    result = search_witness(2, seed=314159, iterations=10_000)
    assert result is None
    _report(
        "criterion 10 (negative control at d=2)",
        "search over 10^4-round budget returned no witness, matching qubit monotonicity",
    )
