#!/usr/bin/env python3
"""Reproduce the partial-trace monotonicity violation across dimensions.

Runs ``qot verify-counterexample`` once per requested dimension: it builds
the witness pair (the published 4x4 constants, padded upward when needed),
extracts the violating state, solves the base and stabilized costs, and
prints the certified inequality chain.  Returns the first non-zero exit code
of those runs, after running every dimension.
"""

import argparse
import sys

from qot import cli
from qot.transport import DEFAULT_TOL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[4, 5, 6])
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--out-prefix", default=None, help="write violation_<d>.json per dimension")
    args = parser.parse_args(argv)

    status = 0
    for d in args.dims:
        cmd = ["verify-counterexample", "--dim", str(d), "--tol", repr(args.tol)]
        if args.out_prefix:
            cmd += ["--out", f"{args.out_prefix}violation_{d}.json"]
        code = cli.main(cmd)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
