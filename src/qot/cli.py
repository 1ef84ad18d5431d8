"""Command-line front end.

Subcommands: ``transport`` and ``stabilized`` compute costs between two
density-matrix files, ``verify-counterexample`` reproduces the
partial-trace monotonicity violation, ``selftest`` runs the invariant
battery.  Exit codes are a stable contract: 0 success, 1 input error,
2 solver failure, 3 chain failure, 4 selftest failure.
"""

from __future__ import annotations

import argparse
import sys

from .counterexample import ChainCheckError, chain_values, violation_report
from .quantum import DimensionMismatchError
from .sdp import SolverFailure
from .selftest import DEFAULT_SEED, run_selftest
from .serialize import (
    FileFormatError,
    file_digest,
    read_density_matrix,
    stabilized_report,
    transport_report,
    violation_report_payload,
    write_report,
)
from .transport import (
    DEFAULT_TOL,
    MAX_TENSORED_DIM,
    dual_value,
    stabilized_cost,
    stabilized_cost_via_tensoring,
    transport_cost,
)

MAX_CLI_DIM = 8

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_CHAIN = 3
EXIT_SELFTEST = 4


def _load_state_pair(rho_path, sigma_path):
    rho = read_density_matrix(rho_path)
    sigma = read_density_matrix(sigma_path)
    if rho.dim != sigma.dim:
        raise FileFormatError(f"state dimensions differ: {rho.dim} vs {sigma.dim}")
    if rho.dim > MAX_CLI_DIM:
        raise FileFormatError(f"dimension {rho.dim} exceeds the CLI cap {MAX_CLI_DIM}")
    inputs = {
        "rho": {"path": str(rho_path), "sha256": file_digest(rho_path)},
        "sigma": {"path": str(sigma_path), "sha256": file_digest(sigma_path)},
    }
    return rho, sigma, inputs


def _cmd_transport(args) -> int:
    rho, sigma, inputs = _load_state_pair(args.rho, args.sigma)
    result = transport_cost(rho, sigma, args.tol)
    dual = dual_value(rho, sigma, result.dual_witness)
    print(f"transport cost:  {result.value:.12g}")
    print(f"dual value:      {dual:.12g}")
    print(f"certified gap:   {result.gap:.3e}")
    if args.out:
        write_report(args.out, transport_report(result, dual, args.tol, inputs))
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_stabilized(args) -> int:
    rho, sigma, inputs = _load_state_pair(args.rho, args.sigma)
    d = rho.dim
    if args.cross_check and 4 * d * d >= MAX_TENSORED_DIM:
        raise FileFormatError(
            f"--cross-check needs tensored coupling dimension below {MAX_TENSORED_DIM}, "
            f"got {4 * d * d} at d={d}; rerun without --cross-check"
        )
    result = stabilized_cost(rho, sigma, args.tol)
    print(f"stabilized cost: {result.value:.12g}")
    print(f"solver gap:      {result.gap:.3e}")
    cross = None
    if args.cross_check:
        cross = stabilized_cost_via_tensoring(rho, sigma, args.tol)
        discrepancy = abs(result.value - cross)
        print(f"cross-check:     {cross:.12g} (discrepancy {discrepancy:.3e})")
        if discrepancy > 2 * args.tol:
            print(
                f"error: cross-check discrepancy {discrepancy:.3e} exceeds 2*tol", file=sys.stderr
            )
            return EXIT_SOLVER
    if args.out:
        write_report(args.out, stabilized_report(result, args.tol, inputs, cross))
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_verify_counterexample(args) -> int:
    report = violation_report(args.dim, args.tol)
    print(f"dimension:        {report.dim}")
    print(f"transport cost:   {report.t_value:.12g}")
    print(f"stabilized cost:  {report.ts_value:.12g}")
    print(f"gap (violation):  {report.gap:.6e}")
    print(f"sym-side excess:  {report.sym_violation:.6e}")
    chain = chain_values(report)
    print(
        "chain: stabilized {stabilized_cost:.9f} <= sym expectation {sym_expectation:.9f}"
        " < dual bound {dual_bound:.9f} <= transport {transport_cost:.9f}".format(**chain)
    )
    if args.out:
        write_report(args.out, violation_report_payload(report, args.tol))
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {flag}  margin {r.margin:+.3e}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print(f"error: first failed property: {failed[0].name}", file=sys.stderr)
        return EXIT_SELFTEST
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qot",
        description="Quantum optimal transport costs as semidefinite programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transport", help="base transport cost between two density-matrix files")
    p.add_argument("rho", help="density matrix file (JSON, kind 'density')")
    p.add_argument("sigma", help="density matrix file (JSON, kind 'density')")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver tolerance (default %(default)g)")
    p.add_argument("--out", default=None, help="write a JSON report here")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("stabilized", help="stabilized transport cost between two files")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also evaluate via the maximally-mixed-qubit extension and compare",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stabilized)

    p = sub.add_parser(
        "verify-counterexample",
        help="reproduce the partial-trace monotonicity violation end to end",
    )
    p.add_argument("--dim", type=int, required=True, help="state dimension (4..6)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify_counterexample)

    p = sub.add_parser("selftest", help="run the invariant battery")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--quick",
        action="store_true",
        help="subset in < 30 s: marginals of dimension 2 or 3, 4-dimensional products of qubit states "
        "in the tensoring and tensor-invariance checks, and no reference-witness check",
    )
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ChainCheckError as exc:
        print(f"chain failure: {exc}", file=sys.stderr)
        return EXIT_CHAIN
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DimensionMismatchError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
