"""Calling the public API for one op, and checking what it returned.

Each op is one call through the name a user would use (``qot.transport.*``
and ``qot.cli.main``), looked up at call time so that the traced run's
wrappers see it.  The checks run outside the timed interval and hold
references to the library functions taken at import, before any wrapper is
installed, so they never appear in a trace.

Every tolerance comes from the library: ``TOL`` is the solver default the
ops run at, and the witness and chain tolerances are the library's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qot.cli
import qot.transport
from qot.counterexample import CHAIN_TOL, ChainCheckError
from qot.quantum import DensityMatrix, HermitianOperator, partial_trace, proj_asym
from qot.sdp import SolverFailure
from qot.serialize import FileFormatError, read_report
from qot.transport import DEFAULT_TOL, WITNESS_FEASIBILITY_TOL, dual_value, transport_cost

TOL = DEFAULT_TOL

# T - T_S for the shipped 4x4 witness pair, embedded at d = 4, 5 and 6, as
# solved at the commit that introduced this benchmark; the three agree to
# 6e-11.  Each cost is certified within TOL, so CHAIN_TOL (>= 4 * TOL)
# covers the honest spread.
REFERENCE_GAP = 6.4884068e-3

# Typed failures the library documents; anything else raised is a defect.
TYPED_FAILURES = (SolverFailure, ChainCheckError)

CERTIFIED = "certified"
FAILED = "failed"  # typed failure, non-zero CLI exit, or a failed result check
ERROR = "error"  # an exception the library does not document: not an honest answer


@dataclass(frozen=True)
class Outcome:
    status: str
    reason: str = ""
    fingerprint: str = ""  # digest of the returned numbers, for bit-identity checks


def prepare(op, scratch: Path):
    """Arguments for the call, built before the clock starts."""
    if op.kind == "cli":
        out = scratch / f"violation-d{op.dim}.json"
        return (["verify-counterexample", "--dim", str(op.dim), "--out", str(out)],)
    return tuple(DensityMatrix(s) for s in op.states)


def invoke(op, args):
    """The timed call itself."""
    if op.kind == "transport":
        return qot.transport.transport_cost(*args)
    if op.kind == "stabilized":
        return qot.transport.stabilized_cost(*args)
    if op.kind == "tensored":
        return qot.transport.tensored_cost(*args)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return qot.cli.main(*args)


def _update(h, obj) -> None:
    if isinstance(obj, HermitianOperator):
        obj = obj.matrix
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _update(h, item)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def digest(*objs) -> str:
    """Hash of arrays, operators and nested tuples of them, bit for bit."""
    h = hashlib.blake2b(digest_size=16)
    _update(h, objs)
    return h.hexdigest()


def _marginal_error(coupling, rho, sigma) -> float:
    d = rho.dim
    return max(
        float(np.max(np.abs(partial_trace(coupling, (d, d), keep=(0,)) - rho.matrix))),
        float(np.max(np.abs(partial_trace(coupling, (d, d), keep=(1,)) - sigma.matrix))),
    )


def _check_transport(args, res) -> Outcome:
    rho, sigma = args
    c = res.coupling.matrix
    pots = (res.dual_witness.potential_a.matrix, res.dual_witness.potential_b.matrix)
    fp = digest(res.value, res.gap, c, *pots)

    def outcome(status, reason=""):
        return Outcome(status, reason, fp)

    if np.linalg.eigvalsh(c)[0] < -TOL:
        return outcome(FAILED, "coupling is not PSD")
    if _marginal_error(c, rho, sigma) > TOL:
        return outcome(FAILED, "coupling marginals differ from the inputs")
    if abs(np.trace(c @ proj_asym(rho.dim).matrix).real - res.value) > TOL:
        return outcome(FAILED, "Tr[coupling P_asym] differs from the value")
    # A witness infeasible by delta certifies dual - delta (the coupling has unit trace).
    slack = max(0.0, -res.dual_witness.feasibility_margin)
    if slack > WITNESS_FEASIBILITY_TOL:
        return outcome(FAILED, "dual witness is infeasible")
    dual = dual_value(rho, sigma, res.dual_witness)
    if dual - slack > res.value + TOL:
        return outcome(FAILED, "dual bound exceeds the primal value")
    if res.value - dual > TOL:
        return outcome(FAILED, "primal-dual gap of the returned witness exceeds tol")
    return outcome(CERTIFIED)


def _check_stabilized(args, res, t_value) -> Outcome:
    rho, sigma = args
    x = res.sym_block.matrix + res.asym_block.matrix
    fp = digest(res.value, res.gap, res.sym_block, res.asym_block)
    if _marginal_error(x, rho, sigma) > TOL:
        return Outcome(FAILED, "sym_block + asym_block marginals differ from the inputs", fp)
    if t_value is not None and res.value > t_value + 2 * TOL:
        return Outcome(FAILED, "stabilized cost exceeds the transport cost", fp)
    return Outcome(CERTIFIED, "", fp)


def _check_tensored(args, value, with_reference: bool) -> Outcome:
    fp = digest(value)
    if with_reference:
        rho1, sigma1, rho2, sigma2 = args
        ref = transport_cost(
            DensityMatrix(np.kron(rho1.matrix, rho2.matrix)),
            DensityMatrix(np.kron(sigma1.matrix, sigma2.matrix)),
        ).value
        if abs(value - ref) > 2 * TOL:
            return Outcome(FAILED, "tensored cost differs from the cost of the product states", fp)
    return Outcome(CERTIFIED, "", fp)


def _check_cli(op, args, rc) -> Outcome:
    if rc != qot.cli.EXIT_OK:
        return Outcome(FAILED, f"CLI exit code {rc}", str(rc))
    try:
        doc = read_report(args[0][-1])
    except FileFormatError as exc:
        return Outcome(FAILED, f"report does not read back: {exc}", "unreadable")
    fp = digest({k: v for k, v in doc.items() if k != "timestamp"})
    if doc.get("report_type") != "violation" or doc.get("dim") != op.dim:
        return Outcome(FAILED, "report has the wrong type or dimension", fp)
    if not abs(doc["gap"] - REFERENCE_GAP) <= CHAIN_TOL:
        return Outcome(FAILED, f"violation gap {doc['gap']!r} differs from {REFERENCE_GAP}", fp)
    return Outcome(CERTIFIED, "", fp)


def verify(op, args, result, exc, t_value=None, tensored_reference=False) -> Outcome:
    """Classify one op.  ``t_value`` is the transport cost of the same pair
    in the same cycle, when it returned; ``tensored_reference`` asks for the
    (costly) cross-check of a tensored result against the product states."""
    if exc is not None:
        if isinstance(exc, TYPED_FAILURES):
            return Outcome(FAILED, f"{type(exc).__name__}: {exc}", type(exc).__name__)
        return Outcome(ERROR, f"untyped {type(exc).__name__}: {exc}", type(exc).__name__)
    if op.kind == "transport":
        return _check_transport(args, result)
    if op.kind == "stabilized":
        return _check_stabilized(args, result, t_value)
    if op.kind == "tensored":
        return _check_tensored(args, result, tensored_reference)
    return _check_cli(op, args, result)
