#!/usr/bin/env python3
"""Print one digest per seed of every op's result on a perfbench workload.

Cycles 0..N-1 of the workload are rebuilt with ``perfbench.workloads.cycle``
and run in order through ``perfbench.ops``, untimed, with the same checks as
``perfbench/run.py`` (the tensored cross-check in cycle 0 only).  For each
seed one line gives the status counts, a digest of every op's label,
status and ``ops.verify`` fingerprint, the hash of the numbers it returned,
and the IPM iterations summed over every ``qot.sdp.solve`` call of the run,
the checks' own solves included.  Two checkouts that print the same line
returned the same numbers, bit for bit, on every op of those cycles, and
took the same number of IPM iterations.

BLAS is pinned to one thread, as in ``perfbench/run.py``, since the thread
count can change the rounding.  Run from the repository root.  A change
meant to keep every result bit for bit prints the same lines as the commit
before it on the standard seed sets (about two minutes in all on one core):

    python3 scripts/op_fingerprints.py --workload small-pairs --seeds 1 2 3 5 13 44 --cycles 120
    python3 scripts/op_fingerprints.py --workload boundary --seeds 1 2 3 --cycles 15
    python3 scripts/op_fingerprints.py --workload large-d --seeds 1 2 3 --cycles 7

Seeds 5, 13 and 44 of small-pairs hold three of the qubit transport solves
that ``tests/test_sdp.py`` pins by iteration count; the fourth is seed 2,
cycle 159, which the 120 cycles above do not reach.
"""

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from perfbench import blas  # noqa: E402  (must pin before numpy loads)

blas.pin_one_thread()

from perfbench import ops, workloads  # noqa: E402
from qot import sdp  # noqa: E402

STATUSES = (ops.CERTIFIED, ops.FAILED, ops.ERROR)


def run_seed(workload: str, seed: int, n_cycles: int, scratch: Path) -> tuple[list[tuple[str, str, str]], int]:
    """``_run_cycles`` and the IPM iterations of every ``qot.sdp.solve``
    call it made."""
    solve, iterations = sdp.solve, 0

    def counted(*args, **kwargs):
        nonlocal iterations
        sol = solve(*args, **kwargs)
        iterations += sol.iterations
        return sol

    sdp.solve = counted
    try:
        return _run_cycles(workload, seed, n_cycles, scratch), iterations
    finally:
        sdp.solve = solve


def _run_cycles(workload, seed, n_cycles, scratch):
    """(label, status, fingerprint) of every op of cycles 0..n_cycles-1."""
    rows = []
    for c in range(n_cycles):
        t_values = {}
        check_tensored = c == 0
        for op in workloads.cycle(workload, seed, c):
            args = ops.prepare(op, scratch)
            result = exc = None
            try:
                result = ops.invoke(op, args)
            except Exception as e:  # classified by ops.verify
                exc = e
            outcome = ops.verify(
                op, args, result, exc, t_value=t_values.get(op.pair), tensored_reference=check_tensored
            )
            if op.kind == "tensored":
                check_tensored = False
            if op.kind == "transport" and exc is None:
                t_values[op.pair] = result.value
            rows.append((op.label, outcome.status, outcome.fingerprint))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--cycles", type=int, required=True)
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            rows, iterations = run_seed(args.workload, seed, args.cycles, Path(tmp))
            counts = Counter(status for _, status, _ in rows)
            summary = " ".join(f"{s}={counts[s]}" for s in STATUSES)
            digest = ops.digest(rows)
            line = f"{args.workload} seed={seed} cycles={args.cycles} {summary} digest={digest} iterations={iterations}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
