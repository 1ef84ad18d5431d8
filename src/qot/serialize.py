"""File formats: matrices as JSON with explicit re/im arrays, and scalar
reports for the cost computations.

Matrix files carry a ``kind`` tag (hermitian, density, unitary, general)
whose invariants are validated on parsing, up to 1e-8; density matrices are
then cleaned (eigenvalue-clipped and renormalized) to meet the stricter
in-memory invariants, so hand-rounded fixtures stay usable.  Reports hold
scalars only; floats round-trip losslessly through the shortest-repr JSON
encoding.  Report content is deterministic apart from the timestamp field.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .counterexample import ViolationReport, chain_values
from .quantum import DensityMatrix
from .transport import StabilizedResult, TransportResult, _psd_clean

__all__ = [
    "FileFormatError",
    "MATRIX_KINDS",
    "write_matrix",
    "read_matrix",
    "read_density_matrix",
    "file_digest",
    "write_report",
    "read_report",
    "transport_report",
    "stabilized_report",
    "violation_report_payload",
]

MATRIX_KINDS = ("hermitian", "density", "unitary", "general")
PARSE_TOL = 1e-8


class FileFormatError(ValueError):
    """A matrix or report file failed to parse or to meet its invariants."""


def _has_non_number(payload) -> bool:
    """Whether a parsed JSON value holds anything but numbers and lists;
    ``bool`` is a subclass of ``int``, so compare exact types."""
    if isinstance(payload, list):
        return any(_has_non_number(v) for v in payload)
    return type(payload) not in (int, float)


def _as_float_grid(payload, name: str, dim: int) -> np.ndarray:
    # np.asarray would read true as 1.0 and "0.5" as 0.5
    if _has_non_number(payload):
        raise FileFormatError(f"field '{name}' holds an entry that is not a JSON number")
    try:
        arr = np.asarray(payload, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"field '{name}' is not a numeric array: {exc}") from None
    if arr.shape != (dim, dim):
        raise FileFormatError(f"field '{name}' has shape {arr.shape}, expected {(dim, dim)}")
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(f"field '{name}' contains NaN or Inf")
    return arr


def write_matrix(path, matrix, kind: str) -> None:
    """Write a complex matrix as JSON with explicit re/im arrays."""
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"unknown matrix kind {kind!r}")
    m = np.asarray(matrix, dtype=complex)
    doc = {
        "kind": kind,
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def read_matrix(path) -> tuple[np.ndarray, str]:
    """Parse a matrix file, validating the invariants of its declared kind.

    Returns the raw complex matrix and its kind; use ``read_density_matrix``
    to obtain a cleaned DensityMatrix value.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"{path}: field 'kind' must be one of {MATRIX_KINDS}, got {kind!r}")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise FileFormatError(f"{path}: field 'dim' must be a positive integer, got {dim!r}")
    for field in ("re", "im"):
        if field not in doc:
            raise FileFormatError(f"{path}: missing field '{field}'")
    m = _as_float_grid(doc["re"], "re", dim) + 1j * _as_float_grid(doc["im"], "im", dim)

    if kind in ("hermitian", "density"):
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > PARSE_TOL:
            raise FileFormatError(f"{path}: '{kind}' matrix has Hermitian defect {defect:.3e}")
    if kind == "density":
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigs[0] < -PARSE_TOL:
            raise FileFormatError(f"{path}: density matrix has eigenvalue {eigs[0]:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > PARSE_TOL:
            raise FileFormatError(f"{path}: density matrix trace is {tr!r}")
    if kind == "unitary":
        defect = float(np.max(np.abs(m.conj().T @ m - np.eye(dim))))
        if defect > PARSE_TOL:
            raise FileFormatError(f"{path}: unitary defect {defect:.3e}")
    return m, kind


def read_density_matrix(path) -> DensityMatrix:
    """Parse a density-kind matrix file and clean rounding noise: symmetrize,
    clip negative eigenvalue dust, renormalize the trace."""
    m, kind = read_matrix(path)
    if kind != "density":
        raise FileFormatError(f"{path}: expected kind 'density', got '{kind}'")
    cleaned = _psd_clean(m)
    return DensityMatrix(cleaned / np.trace(cleaned).real)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Reports


def _base_report(kind: str, tol: float, inputs: dict) -> dict:
    return {
        "report_type": kind,
        "tool_version": _version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tolerance": float(tol),
        "inputs": inputs,
    }


def transport_report(result: TransportResult, dual: float, tol: float, inputs: dict) -> dict:
    doc = _base_report("transport", tol, inputs)
    doc.update(
        {
            "value": result.value,
            "dual_value": dual,
            "gap": result.gap,
            "witness_feasibility_margin": result.dual_witness.feasibility_margin,
            "wasserstein": float(np.sqrt(max(0.0, result.value))),
        }
    )
    return doc


def stabilized_report(result: StabilizedResult, tol: float, inputs: dict, cross_check: float | None = None) -> dict:
    doc = _base_report("stabilized", tol, inputs)
    doc.update(
        {
            "value": result.value,
            "gap": result.gap,
            "stabilized_wasserstein": float(np.sqrt(max(0.0, result.value))),
        }
    )
    if cross_check is not None:
        doc["cross_check_value"] = cross_check
        doc["cross_check_discrepancy"] = abs(result.value - cross_check)
    return doc


def violation_report_payload(report: ViolationReport, tol: float) -> dict:
    doc = _base_report("violation", tol, {})
    doc.update(
        {
            "dim": report.dim,
            "witness_feasibility_margin": report.witness.feasibility_margin,
            "chain_tolerance": report.chain_tol,
        }
    )
    doc.update(chain_values(report))
    return doc


def write_report(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def read_report(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse {path}: {exc}") from None
    if not isinstance(doc, dict) or "report_type" not in doc:
        raise FileFormatError(f"{path}: not a report file")
    return doc
