#!/usr/bin/env python3
"""Print the status of every transport and stabilized cost solve on a grid
of near-singular pairs.

Both costs run at tol 1e-8 on three kinds of pairs, for every eps, every
dimension d and every seed s of the grid:

- ``both-sided``: the eigenvalues eps and (1 - eps) Dirichlet(1, ..., 1)
  from ``default_rng(100 + s)`` in the eigenbasis
  ``random_unitary(d, 100 + s)``, against the same with 200 + s (the
  ``near_singular`` pairs of ``tests/test_transport.py``);
- ``misaligned``: rho = diag(p) against sigma = diag(roll(p, 1)), with
  p = (eps, (1 - eps) Dirichlet(1, ..., 1)) drawn from ``default_rng(s)``;
- ``two-small`` (d >= 3 only): the eigenvalues eps, 3 eps and
  (1 - 4 eps) Dirichlet(1, ..., 1) from ``default_rng(300 + s)`` in the
  eigenbasis ``random_unitary(d, 300 + s)``, against the same with 400 + s.

The default grid, eps in {2e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3},
d = 2..6 and s = 0..4, is 1120 calls; ``--eps``, ``--dims`` and ``--seeds``
run a subset.  Each call prints one line: kind, eps, d, s, cost, status,
the IPM iterations of its solve and ``repr`` of the value ("-" if none).
The status is ``ok`` for a returned result whose gap is within tol,
``gap>tol`` for one whose gap is not, or the status of a
``SolverFailure``.  A closing line counts the statuses per cost.  Two checkouts that print the same lines took the
same path on every call; ``diff`` shows the calls where they did not.

BLAS is pinned to one thread, as in ``perfbench/run.py``, since the thread
count can change the rounding.  Run from the repository root (about 20
seconds on one core for the default grid):

    python3 scripts/certify_sweep.py > sweep.txt
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from perfbench import blas  # noqa: E402  (must pin before numpy loads)

blas.pin_one_thread()

import numpy as np  # noqa: E402

from qot import sdp  # noqa: E402
from qot.quantum import DensityMatrix, random_unitary  # noqa: E402
from qot.transport import stabilized_cost, transport_cost  # noqa: E402

TOL = 1e-8
EPS = (2e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
DIMS = range(2, 7)
SEEDS = range(5)
COSTS = {"transport_cost": transport_cost, "stabilized_cost": stabilized_cost}


def spectral_state(d: int, small: list[float], rest: float, seed: int) -> DensityMatrix:
    """The eigenvalues ``small``, then ``rest`` times a flat Dirichlet draw
    from ``default_rng(seed)``, in the eigenbasis ``random_unitary(d, seed)``."""
    rng = np.random.default_rng(seed)
    u = random_unitary(d, seed)
    vals = np.concatenate((small, rest * rng.dirichlet(np.ones(d - len(small)))))
    return DensityMatrix((u * vals) @ u.conj().T)


def both_sided(d, eps, s):
    return spectral_state(d, [eps], 1 - eps, 100 + s), spectral_state(d, [eps], 1 - eps, 200 + s)


def misaligned(d, eps, s):
    p = np.concatenate(([eps], (1 - eps) * np.random.default_rng(s).dirichlet(np.ones(d - 1))))
    return DensityMatrix(np.diag(p)), DensityMatrix(np.diag(np.roll(p, 1)))


def two_small(d, eps, s):
    small = [eps, 3 * eps]
    return spectral_state(d, small, 1 - 4 * eps, 300 + s), spectral_state(d, small, 1 - 4 * eps, 400 + s)


# each kind with its smallest dimension
KINDS = {"both-sided": (both_sided, 2), "misaligned": (misaligned, 2), "two-small": (two_small, 3)}


def run_call(cost, rho, sigma) -> tuple[str, int, float | None]:
    """``(status, iterations, value)`` of one cost call, the iterations
    summed over its ``qot.sdp.solve`` calls."""
    solve, iterations = sdp.solve, 0

    def counted(*args, **kwargs):
        nonlocal iterations
        sol = solve(*args, **kwargs)
        iterations += sol.iterations
        return sol

    sdp.solve = counted
    try:
        result = cost(rho, sigma, TOL)
    except sdp.SolverFailure as exc:
        return exc.status, iterations, None
    finally:
        sdp.solve = solve
    return ("ok" if result.gap <= TOL else "gap>tol"), iterations, result.value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, nargs="+", default=list(EPS))
    parser.add_argument("--dims", type=int, nargs="+", default=list(DIMS))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    if min(args.dims) < 2:
        parser.error("every dimension must be at least 2")

    counts = {name: Counter() for name in COSTS}
    for kind, (pair, min_dim) in KINDS.items():
        for eps in args.eps:
            for d in (d for d in args.dims if d >= min_dim):
                for s in args.seeds:
                    rho, sigma = pair(d, eps, s)
                    for name, cost in COSTS.items():
                        status, iterations, value = run_call(cost, rho, sigma)
                        counts[name][status] += 1
                        shown = "-" if value is None else repr(value)
                        print(f"{kind} eps={eps:g} d={d} s={s} {name} {status} iterations={iterations} {shown}")
    total = sum(sum(c.values()) for c in counts.values())
    summary = " ".join(f"{name}[{' '.join(f'{k}={v}' for k, v in sorted(c.items()))}]" for name, c in counts.items())
    print(f"calls={total} {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
