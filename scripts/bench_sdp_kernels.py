#!/usr/bin/env python3
"""Check the coupling-SDP constraint map and Schur complement, and time the
Schur complement and the step length per call.

For d x d marginals (d = 2..8 by default, or the ``--dims`` given) and k = 1
or 2 PSD blocks, a coupling problem is built with
``qot.sdp.coupling_problem`` (the transport cost for k = 1, the stabilized
split for k = 2).  Before any timing, the partial-trace map
``_CouplingOperator.apply_a``, given the (k, 2n, 2n) stack of embedded
blocks as the solver gives it, is checked against 2 Re Tr[A_i X] summed over
the blocks, with A_i read from the explicit list ``problem.constraints``.
The Schur complement ``_CouplingOperator.schur``, assembled on complex
n x n blocks from a real X stack (random SPD, off the image of the
embedding) and the complex blocks T_j of S^-1, is checked against
sum_j Tr[E(A_i) X_j E(A_l) E(T_j)] from the same list to a relative 1e-12,
and timed per call.  The step length as the solver takes it (a potrf factor by ``_step_factor``,
then ``_max_step`` on it: sygst and syevx through cached LAPACK handles) is
then timed at each embedded block size 2 d^2 against sygvx through the
``scipy.linalg.eigh`` wrapper, and against the Cholesky, two triangular
solves and eigvalsh the solver took before it called LAPACK directly.  The
wrapper must give the same step bit for bit, the Cholesky route to a
relative 1e-12.  The script exits non-zero if a check fails.

BLAS is pinned to one thread, as in ``perfbench/run.py``, and the effective
count is read back and recorded.  Run from the repository root:

    PYTHONPATH=src python3 scripts/bench_sdp_kernels.py --out BENCH_sdp_kernels.json
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import blas  # noqa: E402  (must pin before numpy loads)

blas.pin_one_thread()

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from qot import sdp  # noqa: E402
from qot.sdp import complex_to_real_embedding  # noqa: E402
from qot.quantum import proj_asym, proj_sym, random_density_matrix  # noqa: E402

DIMS = range(2, 9)
BLOCKS = (1, 2)
REPEATS = 7
MIN_REPEAT_S = 0.02
MAP_RTOL = 1e-13
SCHUR_RTOL = 1e-12
STEP_RTOL = 1e-12


def per_call_us(fn) -> float:
    """Median over REPEATS of the mean time per call, with enough calls per
    repeat to fill MIN_REPEAT_S."""
    fn()
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= MIN_REPEAT_S:
            break
        calls *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(samples)


def rel_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))) / max(np.max(np.abs(want)), 1e-300))


def step_from(lam: float) -> float:
    return 1e30 if lam >= -1e-14 else -1.0 / lam


def step_reference(x, dx) -> float:
    """The step length by Cholesky, triangular solves and eigvalsh, for PD x."""
    lo = np.linalg.cholesky(x)
    w = scipy.linalg.solve_triangular(lo, dx, lower=True)
    w = scipy.linalg.solve_triangular(lo, w.T, lower=True)
    return step_from(float(np.linalg.eigvalsh((w + w.T) / 2)[0]))


def step_wrapper(x, dx) -> float:
    """The step length by sygvx through the scipy wrapper, for PD x."""
    return step_from(float(scipy.linalg.eigh(dx, x, eigvals_only=True, subset_by_index=[0, 0])[0]))


def step_direct(x, dx) -> float:
    """The step length as the solver takes it, for PD x."""
    return sdp._max_step(dx, sdp._step_factor(x))


def spd(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T / n + 0.1 * np.eye(n)


def coupling(d: int, k: int):
    """The transport (k = 1) or stabilized (k = 2) coupling SDP of two random
    full-rank d x d states."""
    costs = (proj_asym(d).matrix,) if k == 1 else (proj_sym(d).matrix, proj_asym(d).matrix)
    return sdp.coupling_problem(costs, random_density_matrix(d, d).matrix, random_density_matrix(d, d + 50).matrix)


def map_check(d: int, k: int) -> dict:
    """``apply_a`` on embedded random PSD blocks against the explicit
    constraint list: Tr[E(A) E(X)] = 2 Re Tr[A X] for Hermitian A and X."""
    rng = np.random.default_rng(100 * d + k)
    problem = coupling(d, k)
    n = d * d
    blocks = []
    for _ in range(k):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        blocks.append(g @ g.conj().T / n + 0.1 * np.eye(n))
    want = [
        sum(2.0 * np.trace(a.matrix @ x).real for a, x in zip(coeffs, blocks))
        for coeffs, _ in problem.constraints
    ]
    got = sdp._CouplingOperator(problem).apply_a(complex_to_real_embedding(blocks))
    err = rel_err(got, want)
    if err > MAP_RTOL:
        raise SystemExit(f"d={d} k={k}: apply_a differs from the constraint list by {err:.2e} relative")
    return {"d": d, "k": k, "block_dim": n, "m": problem.n_constraints, "apply_a_rel_err": err}


def schur_check(d: int, k: int) -> dict:
    """``schur`` against the embedded constraints of the explicit list, for
    real X blocks off the image of the embedding and complex blocks of S^-1."""
    rng = np.random.default_rng(200 * d + k)
    problem = coupling(d, k)
    n, m = d * d, problem.n_constraints
    xs = np.array([spd(rng, 2 * n) for _ in range(k)])
    tinvs = []
    for _ in range(k):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        tinvs.append(np.linalg.inv(g @ g.conj().T / n + 0.1 * np.eye(n)))
    tinvs = np.array(tinvs)
    want = np.zeros((m, m))
    for j in range(k):
        rows = complex_to_real_embedding([coeffs[j].matrix for coeffs, _ in problem.constraints])
        right = xs[j] @ rows @ complex_to_real_embedding(tinvs[j])
        # Tr[E(A_i) R_l] = <E(A_i), R_l^T> entrywise
        want += rows.reshape(m, -1) @ right.transpose(0, 2, 1).reshape(m, -1).T
    op = sdp._CouplingOperator(problem)
    err = rel_err(op.schur(xs, tinvs), want)
    if err > SCHUR_RTOL:
        raise SystemExit(f"d={d} k={k}: schur differs from the constraint list by {err:.2e} relative")
    return {
        "d": d,
        "k": k,
        "block_dim": n,
        "m": m,
        "schur_rel_err": err,
        "us_per_call": per_call_us(lambda: op.schur(xs, tinvs)),
    }


def step_row(d: int) -> dict:
    rng = np.random.default_rng(d)
    n = 2 * d * d
    x = spd(rng, n)
    h = rng.normal(size=(n, n))
    dx = (h + h.T) / 2
    step = step_direct(x, dx)
    if step != step_wrapper(x, dx):
        raise SystemExit(f"d={d}: the direct calls and the scipy wrapper give different steps")
    err = abs(step - step_reference(x, dx)) / step_reference(x, dx)
    if err > STEP_RTOL:
        raise SystemExit(f"d={d}: step lengths differ by {err:.2e} relative")
    return {
        "d": d,
        "n": n,
        "us_per_call": {
            "cholesky_eigvalsh": per_call_us(lambda: step_reference(x, dx)),
            "sygvx_scipy_wrapper": per_call_us(lambda: step_wrapper(x, dx)),
            "factored_direct": per_call_us(lambda: step_direct(x, dx)),
        },
        "rel_err": err,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write the JSON record here instead of stdout")
    parser.add_argument("--dims", type=int, nargs="+", default=list(DIMS), help="marginal dimensions d (>= 2)")
    args = parser.parse_args(argv)
    if min(args.dims) < 2:
        parser.error("every dimension must be at least 2")

    checks = [map_check(d, k) for d in args.dims for k in BLOCKS]
    schurs = [schur_check(d, k) for d in args.dims for k in BLOCKS]
    steps = [step_row(d) for d in args.dims]
    record = {
        "what": (
            "coupling-SDP apply_a and the complex-block Schur complement checked against the constraint"
            " list, the Schur complement timed; step length by direct potrf, sygst and syevx calls, by"
            " sygvx through scipy.linalg.eigh, and by Cholesky"
        ),
        "environment": blas.environment(),
        "apply_a_check": checks,
        "schur_check": schurs,
        "step_length": steps,
    }
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
