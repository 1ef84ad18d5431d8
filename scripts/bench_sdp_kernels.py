#!/usr/bin/env python3
"""Time the coupling-SDP kernels against the dense ones they replace, per call.

For d x d marginals (d = 2..8) and k = 1 or 2 PSD blocks, a coupling problem
is built with ``qot.sdp.coupling_problem`` (the transport cost for k = 1, the
stabilized split for k = 2).  Its constraints are applied through the dense
real stack (``_DenseOperator``) and through the partial-trace maps
(``_CouplingOperator``), and each operator's set-up (stack or structure, and
restorer Gram) is timed too.  The step length ``_max_step`` (one LAPACK sygvx
call) is timed against the Cholesky, two triangular solves and eigvalsh it
replaced, at each embedded block size 2 d^2.  Every pair of routines is
checked to give equal results before it is timed; the script exits non-zero
if one does not.  ``sdp.solve`` uses the partial-trace maps for every
coupling problem and the dense stack only for hand-built problems.

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


def step_reference(x, dx) -> float:
    """The step length as computed before sygvx, for PD x."""
    lo = np.linalg.cholesky(x)
    w = scipy.linalg.solve_triangular(lo, dx, lower=True)
    w = scipy.linalg.solve_triangular(lo, w.T, lower=True)
    lam = float(np.linalg.eigvalsh((w + w.T) / 2)[0])
    return 1e30 if lam >= -1e-14 else -1.0 / lam


def spd(rng, n, embedded):
    if embedded:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return complex_to_real_embedding(g @ g.conj().T / n + 0.1 * np.eye(n))
    g = rng.normal(size=(n, n))
    return g @ g.T / n + 0.1 * np.eye(n)


def coupling(d: int, k: int):
    """The transport (k = 1) or stabilized (k = 2) coupling SDP of two random
    full-rank d x d states."""
    costs = (proj_asym(d).matrix,) if k == 1 else (proj_sym(d).matrix, proj_asym(d).matrix)
    return sdp.coupling_problem(costs, random_density_matrix(d, d).matrix, random_density_matrix(d, d + 50).matrix)


def map_row(d: int, k: int) -> dict:
    rng = np.random.default_rng(100 * d + k)
    problem = coupling(d, k)
    rec, m = problem._coupling, problem.n_constraints

    def dense_setup():
        op = sdp._DenseOperator(sdp._constraint_stacks(problem))
        return op, op.gram_solver()

    def structured_setup():
        op = sdp._CouplingOperator(rec, k)
        return op, op.gram_solver()

    (dense, dense_gram), (structured, structured_gram) = dense_setup(), structured_setup()
    xs = [spd(rng, d * d, embedded=True) for _ in range(k)]
    y = rng.normal(size=m)
    r = rng.normal(size=m)
    errors = {
        "apply_a": rel_err(structured.apply_a(xs), dense.apply_a(xs)),
        "apply_at": max(rel_err(s, t) for s, t in zip(structured.apply_at(y), dense.apply_at(y))),
        "gram_solve": rel_err(structured_gram(r), dense_gram(r)),
    }
    if max(errors.values()) > MAP_RTOL:
        raise SystemExit(f"d={d} k={k}: structured and dense maps differ: {errors}")
    return {
        "d": d,
        "k": k,
        "block_dim": d * d,
        "m": m,
        "stack_mb": sum(a.nbytes for a in dense.stacks) / 1e6,
        "us_per_call": {
            "dense_apply_a": per_call_us(lambda: dense.apply_a(xs)),
            "structured_apply_a": per_call_us(lambda: structured.apply_a(xs)),
            "dense_apply_at": per_call_us(lambda: dense.apply_at(y)),
            "structured_apply_at": per_call_us(lambda: structured.apply_at(y)),
            "dense_setup": per_call_us(dense_setup),
            "structured_setup": per_call_us(structured_setup),
        },
        "max_rel_err": errors,
    }


def step_row(d: int) -> dict:
    rng = np.random.default_rng(d)
    n = 2 * d * d
    x = spd(rng, n, embedded=False)
    h = rng.normal(size=(n, n))
    dx = (h + h.T) / 2
    err = abs(sdp._max_step(x, dx) - step_reference(x, dx)) / step_reference(x, dx)
    if err > STEP_RTOL:
        raise SystemExit(f"d={d}: step lengths differ by {err:.2e} relative")
    return {
        "d": d,
        "n": n,
        "us_per_call": {
            "cholesky_eigvalsh": per_call_us(lambda: step_reference(x, dx)),
            "sygvx": per_call_us(lambda: sdp._max_step(x, dx)),
        },
        "rel_err": err,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write the JSON record here instead of stdout")
    args = parser.parse_args(argv)

    maps = [map_row(d, k) for d in DIMS for k in BLOCKS]
    steps = [step_row(d) for d in DIMS]
    record = {
        "what": "coupling-SDP constraint maps and step length, dense against structured",
        "environment": blas.environment(),
        "maps": maps,
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
