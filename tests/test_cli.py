import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qot
from qot import quantum, transport
from qot.cli import EXIT_SOLVER, _build_parser, main
from qot.quantum import random_density_matrix
from qot.serialize import read_report, write_matrix
from test_transport import UNCERTIFIED_IDS, uncertified_pairs


@pytest.fixture
def qubit_files(tmp_path):
    e0, e1 = tmp_path / "e0.json", tmp_path / "e1.json"
    write_matrix(e0, np.diag([1.0, 0.0]).astype(complex), "density")
    write_matrix(e1, np.diag([0.0, 1.0]).astype(complex), "density")
    return str(e0), str(e1)


class TestTransportCommand:
    def test_identical_inputs_cost_zero(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        write_matrix(path, random_density_matrix(3, 1).matrix, "density")
        assert main(["transport", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split(":")[1])
        assert abs(value) <= 1e-7

    def test_orthogonal_pure_value_and_report(self, qubit_files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["transport", *qubit_files, "--out", str(out_path)]) == 0
        doc = read_report(out_path)
        assert doc["report_type"] == "transport"
        assert doc["value"] == pytest.approx(0.5, abs=1e-6)
        assert doc["dual_value"] <= doc["value"] + 1e-7
        assert "sha256" in doc["inputs"]["rho"]
        assert doc["tolerance"] == 1e-8

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "density", "dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0]]}')
        good = tmp_path / "good.json"
        write_matrix(good, np.eye(2) / 2, "density")
        assert main(["transport", str(bad), str(good)]) == 1
        assert "'im'" in capsys.readouterr().err

    def test_dimension_mismatch_is_input_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a, np.eye(2) / 2, "density")
        write_matrix(b, np.eye(3) / 3, "density")
        assert main(["transport", str(a), str(b)]) == 1

    def test_cli_dimension_cap(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        write_matrix(big, np.eye(9) / 9, "density")
        assert main(["transport", str(big), str(big)]) == 1
        assert "cap" in capsys.readouterr().err


class TestStabilizedCommand:
    def test_identical_inputs(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        write_matrix(path, random_density_matrix(2, 3).matrix, "density")
        assert main(["stabilized", str(path), str(path)]) == 0

    def test_cross_check_agreement(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix(a, random_density_matrix(3, 4).matrix, "density")
        write_matrix(b, random_density_matrix(3, 5).matrix, "density")
        out_path = tmp_path / "rep.json"
        assert main(["stabilized", str(a), str(b), "--cross-check", "--out", str(out_path)]) == 0
        doc = read_report(out_path)
        assert doc["cross_check_discrepancy"] <= 2e-8

    def test_cross_check_on_pure_states(self, qubit_files, tmp_path):
        out_path = tmp_path / "rep.json"
        assert main(["stabilized", *qubit_files, "--cross-check", "--out", str(out_path)]) == 0
        doc = read_report(out_path)
        assert doc["value"] == pytest.approx(0.5, abs=1e-6)
        assert doc["cross_check_discrepancy"] <= 2e-8

    def test_cross_check_guard_at_dim_8(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        write_matrix(big, np.eye(8) / 8, "density")
        assert main(["stabilized", str(big), str(big), "--cross-check"]) == 1
        assert "cross-check" in capsys.readouterr().err

    def test_plain_solve_still_offered_at_dim_8(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        write_matrix(big, np.eye(8) / 8, "density")
        assert main(["stabilized", str(big), str(big)]) == 0


class TestVerifyCounterexampleCommand:
    def test_dim4_succeeds(self, tmp_path, capsys):
        out_path = tmp_path / "violation.json"
        assert main(["verify-counterexample", "--dim", "4", "--out", str(out_path)]) == 0
        doc = read_report(out_path)
        assert doc["gap"] > 1e-5
        assert doc["transport_cost"] > doc["stabilized_cost"]

    def test_dim3_cites_open_question(self, capsys):
        assert main(["verify-counterexample", "--dim", "3"]) == 1
        assert "open" in capsys.readouterr().err

    def test_broken_chain_exits_3(self, monkeypatch, capsys):
        from qot import cli
        from qot.counterexample import ChainCheckError

        def broken(dim, tol=1e-8):
            raise ChainCheckError("violation chain failed: forced by test")

        monkeypatch.setattr(cli, "violation_report", broken)
        assert main(["verify-counterexample", "--dim", "4"]) == 3
        assert "chain failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["transport", "a", "b"], ["stabilized", "a", "b"], ["verify-counterexample", "--dim", "4"]]
)
def test_tol_defaults_to_the_library_default(argv):
    assert _build_parser().parse_args(argv).tol == transport.DEFAULT_TOL


class TestSolverFailureExitCode:
    def test_solver_failure_exits_2(self, monkeypatch, capsys, tmp_path):
        from qot import cli
        from qot.sdp import SolverFailure

        def stuck(rho, sigma, tol):
            raise SolverFailure("max_iterations", "forced by test")

        monkeypatch.setattr(cli, "transport_cost", stuck)
        path = tmp_path / "rho.json"
        write_matrix(path, np.eye(2) / 2, "density")
        assert main(["transport", str(path), str(path)]) == 2
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("index", range(4), ids=UNCERTIFIED_IDS)
    def test_uncertified_witness_exits_as_a_solver_failure(self, index, capsys, tmp_path):
        paths = [tmp_path / "rho.json", tmp_path / "sigma.json"]
        for path, state in zip(paths, uncertified_pairs()[index], strict=True):
            write_matrix(path, state.matrix, "density")
        assert main(["transport", *map(str, paths)]) == EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err


class TestSelftestCommand:
    def test_quick_passes_within_budget(self, capsys):
        start = time.monotonic()
        assert main(["selftest", "--quick"]) == 0
        assert time.monotonic() - start < 30
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_default_seed_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_corrupted_projector_is_named(self, monkeypatch, capsys):
        good = quantum.proj_asym_reshuffled

        def wrong_sign(d1, d2):
            ok = good(d1, d2)
            return quantum.HermitianOperator(np.eye(ok.dim) - ok.matrix)

        monkeypatch.setattr(quantum, "proj_asym_reshuffled", wrong_sign)
        assert main(["selftest", "--quick"]) == 4
        captured = capsys.readouterr()
        assert "reshuffled-projector-identity" in captured.err

    def test_corrupted_solver_value_is_named(self, monkeypatch, capsys):
        good = transport.transport_cost

        def off_by_1e5(rho, sigma, tol=transport.DEFAULT_TOL):
            res = good(rho, sigma, tol)
            return dataclasses.replace(res, value=res.value + 1e-5)

        monkeypatch.setattr(transport, "transport_cost", off_by_1e5)
        assert main(["selftest", "--quick"]) == 4
        assert "strong-duality" in capsys.readouterr().err


class TestConsoleEntry:
    def test_module_invocation(self, qubit_files):
        # the child must import the same qot as this process, which pytest
        # may have found through its own sys.path entry
        path = [str(Path(qot.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "qot", "transport", *qubit_files],
            capture_output=True,
            env=env,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "transport cost" in proc.stdout
