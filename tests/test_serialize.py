import json

import numpy as np
import pytest

from qot.quantum import random_density_matrix, random_unitary
from qot.serialize import (
    FileFormatError,
    read_density_matrix,
    read_matrix,
    read_report,
    write_matrix,
    write_report,
)


class TestMatrixFiles:
    @pytest.mark.parametrize("kind", ["hermitian", "density", "unitary", "general"])
    def test_round_trip_bitwise(self, tmp_path, kind):
        if kind == "density":
            m = random_density_matrix(3, 5).matrix
        elif kind == "unitary":
            m = random_unitary(3, 5)
        elif kind == "hermitian":
            g = np.random.default_rng(5).normal(size=(3, 3))
            m = (g + g.T) / 2 + 0j
        else:
            m = np.random.default_rng(5).normal(size=(3, 3)) * 1j
        path = tmp_path / "m.json"
        write_matrix(path, m, kind)
        back, back_kind = read_matrix(path)
        assert back_kind == kind
        assert np.array_equal(back, m)

    def test_hand_rounded_density_is_cleaned(self, tmp_path):
        path = tmp_path / "rho.json"
        third = 0.33333333
        doc = {
            "kind": "density",
            "dim": 3,
            "re": [[third, 0, 0], [0, third, 0], [0, 0, 1 - 2 * third]],
            "im": [[0.0] * 3 for _ in range(3)],
        }
        path.write_text(json.dumps(doc))
        rho = read_density_matrix(path)
        assert abs(np.trace(rho.matrix).real - 1) <= 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] >= 0

    def test_wrong_shape_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "density", "dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0]]}))
        with pytest.raises(FileFormatError, match="'im'"):
            read_matrix(path)

    def test_kind_invariants_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        zeros = [[0.0, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps({"kind": "density", "dim": 2, "re": [[1.5, 0], [0, -0.5]], "im": zeros}))
        with pytest.raises(FileFormatError, match="eigenvalue"):
            read_matrix(path)
        path.write_text(json.dumps({"kind": "unitary", "dim": 2, "re": [[2, 0], [0, 1]], "im": zeros}))
        with pytest.raises(FileFormatError, match="unitary"):
            read_matrix(path)
        path.write_text(json.dumps({"kind": "weird", "dim": 2, "re": zeros, "im": zeros}))
        with pytest.raises(FileFormatError, match="kind"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "field, value, dim",
        [("dim", True, 1), ("re", [["0.5", "0"], ["0", "0.5"]], 2), ("re", [[0.5, 0], [0, True]], 2)],
        ids=["bool-dim", "string-entries", "bool-entry"],
    )
    def test_non_numbers_rejected(self, tmp_path, field, value, dim):
        """JSON booleans and strings are not numbers, though numpy coerces them."""
        zeros = [[0] * dim for _ in range(dim)]
        doc = {"kind": "general", "dim": dim, "re": zeros, "im": zeros, field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"'{field}'"):
            read_matrix(path)

    def test_non_density_rejected_by_density_reader(self, tmp_path):
        path = tmp_path / "u.json"
        write_matrix(path, random_unitary(2, 0), "unitary")
        with pytest.raises(FileFormatError, match="expected kind 'density'"):
            read_density_matrix(path)


class TestReports:
    def test_float_round_trip_is_lossless(self, tmp_path):
        doc = {
            "report_type": "transport",
            "timestamp": "2024-01-01T00:00:00+00:00",
            "value": 0.1 + 0.2,
            "gap": 8.500000148181641e-10,
            "pi": np.pi,
        }
        path = tmp_path / "rep.json"
        write_report(path, doc)
        back = read_report(path)
        assert back["value"] == doc["value"]
        assert back["gap"] == doc["gap"]
        assert back["pi"] == doc["pi"]

    def test_deterministic_apart_from_timestamp(self, tmp_path):
        from qot.serialize import transport_report
        from qot.transport import dual_value, transport_cost
        from qot.quantum import random_density_matrix

        rho = random_density_matrix(2, 1)
        sigma = random_density_matrix(2, 2)
        res = transport_cost(rho, sigma)
        dv = dual_value(rho, sigma, res.dual_witness)
        doc1 = transport_report(res, dv, 1e-8, {"rho": {"sha256": "x"}})
        doc2 = transport_report(res, dv, 1e-8, {"rho": {"sha256": "x"}})
        doc1.pop("timestamp")
        doc2.pop("timestamp")
        assert doc1 == doc2

    def test_not_a_report(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(FileFormatError):
            read_report(path)
