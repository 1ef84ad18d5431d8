#!/usr/bin/env python3
"""Check the coupling-SDP constraint maps and Schur complement, and time
them, the step length and its kernels per call.

For d x d marginals (d = 2..12 by default, or the ``--dims`` given) and k = 1
or 2 PSD blocks, a coupling problem is built with
``qot.sdp.coupling_problem`` (the transport cost for k = 1, the stabilized
split for k = 2).  Before its timing, the partial-trace map
``_CouplingOperator.apply_a``, given the complex (k, n, n) stack of
Hermitian blocks as the solver gives it, is checked against Re Tr[A_i X]
summed over the blocks, with A_i read from the explicit list
``problem.constraints``, and its adjoint ``apply_at(y)`` against
sum_i y_i A_i of every block, both to a relative 1e-13; each map is then
timed per call.  The Schur complement ``_CouplingOperator.schur``,
assembled from complex Hermitian PD blocks X_j and T_j (the blocks of
S^-1), is checked against sum_j Re Tr[A_i X_j A_l T_j] from the same list
to a relative 1e-12, and timed per call.  The step length on a complex
n x n pencil (dX, X), n = d^2, by a zpotrf factor from ``_step_factor``
and ``_max_step`` on it (hegst and heevx through cached LAPACK handles), is
timed against hegvx through the ``scipy.linalg.eigh`` wrapper and against
the Cholesky, two triangular solves and eigvalsh.  The wrapper must give
the same step bit for bit, the Cholesky route to a relative 1e-12.  On the
same X and dX the kernels of a step length are timed one by one: zhegst
and zheevx; the zpotrf that settles a full step (on X + dX scaled to half
its step length, so that it factors every column, as a full step does);
ztrtri of the factor; the two matmuls L^-1 dX L^-H that take the place of
zhegst; the pencil by the inverse factor (ztrtri, the two matmuls and
zheevx), which must give the hegvx step to a relative 1e-12;
and S^-1 for S = X by potrs with the identity and by L^-H L^-1 from the
inverse factor, which must agree to a relative 1e-13.  These rows set
``qot.sdp._INVERSE_FACTOR_ROWS``.  The script exits non-zero if a check fails.

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
from qot.quantum import proj_asym, proj_sym, random_density_matrix  # noqa: E402

DIMS = range(2, 13)
BLOCKS = (1, 2)
REPEATS = 7
MIN_REPEAT_S = 0.02
MAP_RTOL = 1e-13
SCHUR_RTOL = 1e-12
STEP_RTOL = 1e-12
INVERSE_RTOL = 1e-13


def per_call_us(fn) -> tuple[float, float]:
    """Median and interquartile range over REPEATS of the mean time per
    call, with enough calls per repeat to fill MIN_REPEAT_S."""
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
        samples.append(1e6 * (time.perf_counter() - start) / calls)
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q2, q3 - q1


def timings(fns: dict) -> dict:
    """``us_per_call`` and ``us_iqr`` of each named call, by ``per_call_us``."""
    medians, iqrs = zip(*(per_call_us(fn) for fn in fns.values()))
    return {"us_per_call": dict(zip(fns, medians)), "us_iqr": dict(zip(fns, iqrs))}


def rel_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))) / max(np.max(np.abs(want)), 1e-300))


def step_from(lam: float) -> float:
    return 1e30 if lam >= -1e-14 else -1.0 / lam


def step_reference(x, dx) -> float:
    """The step length by Cholesky, triangular solves and eigvalsh, for PD x."""
    lo = np.linalg.cholesky(x)
    w = scipy.linalg.solve_triangular(lo, dx, lower=True)
    w = scipy.linalg.solve_triangular(lo, w.conj().T, lower=True)
    return step_from(float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0]))


def step_wrapper(x, dx) -> float:
    """The step length by hegvx through the scipy wrapper, for PD x."""
    return step_from(float(scipy.linalg.eigh(dx, x, eigvals_only=True, subset_by_index=[0, 0])[0]))


def step_direct(x, dx) -> float:
    """The step length by hegst and heevx on a fresh factor, for PD x."""
    factor, _ = sdp._step_factor(x)
    return sdp._max_step(dx, factor)


def step_inverse_factor(factor, dx) -> float:
    """The step length by ztrtri, two matmuls and heevx on the factor of x,
    as the solver takes it on blocks with a row count in _INVERSE_FACTOR_ROWS."""
    return sdp._max_step(dx, factor, sdp._inverse_factor(factor))


def inverse_factor_pencil(factor, dx, lwork):
    """The LAPACK and matmul calls of ``step_inverse_factor`` alone, as the
    zhegst and zheevx rows time theirs."""
    inverse, _ = sdp._lapack.ztrtri(factor, lower=1)
    reduced = inverse @ dx @ inverse.conj().T
    return sdp._lapack.zheevx(reduced, compute_v=0, range="I", lower=1, il=1, iu=1, lwork=lwork)


def hermitian_pd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n + 0.1 * np.eye(n)


def coupling(d: int, k: int):
    """The transport (k = 1) or stabilized (k = 2) coupling SDP of two random
    full-rank d x d states."""
    costs = (proj_asym(d).matrix,) if k == 1 else (proj_sym(d).matrix, proj_asym(d).matrix)
    return sdp.coupling_problem(costs, random_density_matrix(d, d).matrix, random_density_matrix(d, d + 50).matrix)


def map_check(d: int, k: int) -> dict:
    """``apply_a`` on random Hermitian PD blocks and ``apply_at`` on a random
    vector against the explicit constraint list, then both timed."""
    rng = np.random.default_rng(100 * d + k)
    problem = coupling(d, k)
    n, m = d * d, problem.n_constraints
    blocks = np.array([hermitian_pd(rng, n) for _ in range(k)])
    y = rng.normal(size=m)
    op = sdp._CouplingOperator(problem)
    want_a = [sum(np.trace(a.matrix @ x).real for a, x in zip(coeffs, blocks)) for coeffs, _ in problem.constraints]
    # A^T y is one matrix, the same for every block
    want_at = [sum(yi * coeffs[j].matrix for yi, (coeffs, _) in zip(y, problem.constraints)) for j in range(k)]
    errs = {
        "apply_a": rel_err(op.apply_a(blocks), want_a),
        "apply_at": max(rel_err(op.apply_at(y), want) for want in want_at),
    }
    for name, err in errs.items():
        if err > MAP_RTOL:
            raise SystemExit(f"d={d} k={k}: {name} differs from the constraint list by {err:.2e} relative")
    return {
        "d": d,
        "k": k,
        "block_dim": n,
        "m": m,
        **{f"{name}_rel_err": err for name, err in errs.items()},
        **timings({"apply_a": lambda: op.apply_a(blocks), "apply_at": lambda: op.apply_at(y)}),
    }


def schur_check(d: int, k: int) -> dict:
    """``schur`` against the constraints of the explicit list, for complex
    Hermitian PD blocks of X and of S^-1."""
    rng = np.random.default_rng(200 * d + k)
    problem = coupling(d, k)
    n, m = d * d, problem.n_constraints
    xs = np.array([hermitian_pd(rng, n) for _ in range(k)])
    tinvs = np.array([np.linalg.inv(hermitian_pd(rng, n)) for _ in range(k)])
    want = np.zeros((m, m))
    for j in range(k):
        rows = np.array([coeffs[j].matrix for coeffs, _ in problem.constraints])
        right = xs[j] @ rows @ tinvs[j]
        # Tr[A_i R_l] = <A_i, R_l^T> entrywise
        want += (rows.reshape(m, -1) @ right.transpose(0, 2, 1).reshape(m, -1).T).real
    op = sdp._CouplingOperator(problem)
    err = rel_err(op.schur(xs, tinvs), want)
    if err > SCHUR_RTOL:
        raise SystemExit(f"d={d} k={k}: schur differs from the constraint list by {err:.2e} relative")
    us, iqr = per_call_us(lambda: op.schur(xs, tinvs))
    return {"d": d, "k": k, "block_dim": n, "m": m, "schur_rel_err": err, "us_per_call": us, "us_iqr": iqr}


def step_row(d: int) -> dict:
    rng = np.random.default_rng(d)
    n = d * d
    x = hermitian_pd(rng, n)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dx = (h + h.conj().T) / 2
    step = step_direct(x, dx)
    if step != step_wrapper(x, dx):
        raise SystemExit(f"d={d}: the direct calls and the scipy wrapper give different steps")
    factor, _ = sdp._step_factor(x)
    inverse = sdp._inverse_factor(factor)
    eye = np.eye(n, dtype=complex)
    s_inverse = sdp._cho_solve(factor, eye)
    errs = {
        "cholesky_eigvalsh": abs(step - step_reference(x, dx)) / step,
        "inverse_factor": abs(step_inverse_factor(factor, dx) - step) / step,
        "s_inverse_inverse_factor": rel_err(inverse.conj().T @ inverse, s_inverse),
    }
    for name, bound in (("cholesky_eigvalsh", STEP_RTOL), ("inverse_factor", STEP_RTOL)):
        if errs[name] > bound:
            raise SystemExit(f"d={d}: step lengths by hegvx and by {name} differ by {errs[name]:.2e} relative")
    err = errs["s_inverse_inverse_factor"]
    if err > INVERSE_RTOL:
        raise SystemExit(f"d={d}: S^-1 by potrs and by the inverse factor differ by {err:.2e} relative")
    reduced, _ = sdp._lapack.zhegst(dx, factor, itype=1, lower=1)
    lwork = sdp._evx_lwork(n)
    full = x + 0.5 * step * dx
    if not sdp._is_pd(full):
        raise SystemExit(f"d={d}: X + dX at half its step length is not numerically PD")
    calls = {
        "cholesky_eigvalsh": lambda: step_reference(x, dx),
        "hegvx_scipy_wrapper": lambda: step_wrapper(x, dx),
        "factored_direct": lambda: step_direct(x, dx),
        "zhegst": lambda: sdp._lapack.zhegst(dx, factor, itype=1, lower=1),
        "zheevx": lambda: sdp._lapack.zheevx(reduced, compute_v=0, range="I", lower=1, il=1, iu=1, lwork=lwork),
        "full_step_potrf": lambda: sdp._is_pd(full),
        "ztrtri": lambda: sdp._lapack.ztrtri(factor, lower=1),
        "two_matmuls": lambda: inverse @ dx @ inverse.conj().T,
        "inverse_factor": lambda: inverse_factor_pencil(factor, dx, lwork),
        "s_inverse_potrs": lambda: sdp._cho_solve(factor, eye),
        "s_inverse_inverse_factor": lambda: inverse.conj().T @ inverse,
    }
    return {"d": d, "n": n, **timings(calls), "rel_err": errs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="write the JSON record here instead of stdout")
    parser.add_argument("--dims", type=int, nargs="+", default=list(DIMS), help="marginal dimensions d (>= 2)")
    args = parser.parse_args(argv)
    if min(args.dims) < 2:
        parser.error("every dimension must be at least 2")

    maps = [map_check(d, k) for d in args.dims for k in BLOCKS]
    schurs = [schur_check(d, k) for d in args.dims for k in BLOCKS]
    steps = [step_row(d) for d in args.dims]
    record = {
        "what": (
            "coupling-SDP apply_a, apply_at and the Schur complement on complex blocks checked against the"
            " constraint list and timed (median and interquartile range over the repeats, in us per call);"
            " step length on a complex n x n pencil by direct potrf, hegst and heevx calls, by hegvx through"
            " scipy.linalg.eigh, and by Cholesky, triangular solves and eigvalsh; on the same pencil, zhegst"
            " and zheevx alone, the zpotrf of X + dX that settles a full step (dX scaled to half the step"
            " length), ztrtri of the factor, the two matmuls L^-1 dX L^-H, the pencil by ztrtri, the two"
            " matmuls and zheevx, and S^-1 by potrs with the identity and by L^-H L^-1 (S = X, L^-1 given)"
        ),
        "environment": blas.environment(),
        "map_check": maps,
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
