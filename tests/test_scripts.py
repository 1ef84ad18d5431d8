"""Smoke tests: each command-line script under ``scripts/`` runs, in-process
unless it pins BLAS threads (then in a subprocess, so the pin stays there)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _script_module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _script_main(name):
    return _script_module(name).main


def test_reproduce_violation_prints_the_chain(capsys):
    assert _script_main("reproduce_violation")(["--dims", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["dimension:", "4"]
    assert lines[-1].startswith("chain: stabilized ")


def test_reproduce_violation_returns_the_first_failing_exit_code(monkeypatch, capsys):
    from qot import cli
    from qot.counterexample import ChainCheckError

    def fails(dim, tol):
        if dim == 5:
            raise ChainCheckError("forced by test")
        raise ValueError("forced by test")

    monkeypatch.setattr(cli, "violation_report", fails)
    reproduce = _script_main("reproduce_violation")
    assert reproduce(["--dims", "5", "3"]) == cli.EXIT_CHAIN
    assert reproduce(["--dims", "3", "5"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.count("forced by test") == 4


def test_search_new_witnesses_finds_no_qubit_witness(capsys):
    assert _script_main("search_new_witnesses")(["--dims", "2", "--seeds", "0", "--iterations", "20"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["2", "0", "none", "-", "-"]


def test_bench_sdp_kernels_checks_and_times_the_requested_dims(tmp_path):
    out = tmp_path / "kernels.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_sdp_kernels.py"), "--dims", "2", "3", "--out", str(out)],
        env=env,
        check=True,
        timeout=120,
    )
    record = json.loads(out.read_text())
    assert record["environment"]["blas_threads"] == 1
    assert [(row["d"], row["k"]) for row in record["map_check"]] == [(2, 1), (2, 2), (3, 1), (3, 2)]
    for row in record["map_check"]:
        assert row["apply_a_rel_err"] <= 1e-13 and row["apply_at_rel_err"] <= 1e-13
        assert set(row["us_per_call"]) == set(row["us_iqr"]) == {"apply_a", "apply_at"}
        assert min(row["us_per_call"].values()) > 0
    assert [(row["d"], row["k"]) for row in record["schur_check"]] == [(2, 1), (2, 2), (3, 1), (3, 2)]
    for row in record["schur_check"]:
        assert row["schur_rel_err"] <= 1e-12 and row["us_per_call"] > 0 and row["us_iqr"] >= 0
    assert [row["d"] for row in record["step_length"]] == [2, 3]
    for row in record["step_length"]:
        assert set(row["us_per_call"]) == set(row["us_iqr"]) == {
            "cholesky_eigvalsh",
            "hegvx_scipy_wrapper",
            "factored_direct",
        }


def test_op_fingerprints_prints_one_repeatable_line_per_seed():
    script = str(SCRIPTS / "op_fingerprints.py")
    cmd = [sys.executable, script, "--workload", "small-pairs", "--seeds", "1", "--cycles", "1"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    (line,) = runs[0].stdout.splitlines()
    assert line.startswith("small-pairs seed=1 cycles=1 certified=6 failed=0 error=0 digest=")
    # the summed iteration count closes the line and repeats with it
    assert int(line.rsplit(" iterations=", 1)[1]) > 0


def test_op_fingerprints_boundary_cycle_keeps_its_status_counts():
    """The rank-deficient and near-singular ops of one boundary cycle: 25
    certify and 4 fail (ROADMAP item 1) at one BLAS thread."""
    script = str(SCRIPTS / "op_fingerprints.py")
    cmd = [sys.executable, script, "--workload", "boundary", "--seeds", "1", "--cycles", "1"]
    run = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    assert " certified=25 failed=4 error=0 " in run.stdout


def test_certify_sweep_prints_one_line_per_call():
    """One qutrit cell at eps = 1e-3, where every kind certifies both costs."""
    script = str(SCRIPTS / "certify_sweep.py")
    cmd = [sys.executable, script, "--dims", "3", "--eps", "1e-3", "--seeds", "0"]
    run = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    *lines, closing = run.stdout.splitlines()
    assert [line.split()[:5] for line in lines] == [
        [kind, "eps=0.001", "d=3", "s=0", cost]
        for kind in ("both-sided", "misaligned", "two-small")
        for cost in ("transport_cost", "stabilized_cost")
    ]
    for line in lines:
        status, iterations, value = line.split()[5:]
        assert status == "ok" and int(iterations.removeprefix("iterations=")) > 0 and 0 <= float(value) <= 1
    assert closing == "calls=6 transport_cost[ok=3] stabilized_cost[ok=3]"


def test_bench_e2e_times_the_import_row_in_a_pinned_child():
    bench = _script_module("bench_e2e")
    env = bench.child_env()
    assert bench.environment(env)["blas_threads"] == 1
    (row,) = bench.measure("import", bench.ROWS["import"], 1, [env])
    assert row["name"] == "import" and row["command"] == ["python3", "-c", "import qot.cli"]
    assert row["wall_s"]["samples"] == [row["wall_s"]["median"]] and row["wall_s"]["median"] > 0
    assert row["max_rss_mb"]["median"] > 0


def test_bench_e2e_cost_rows_solve_in_a_pinned_child():
    """The cost rows run one solve each; a qubit solve checks the command."""
    bench = _script_module("bench_e2e")
    assert {"transport_cost-8", "transport_cost-12", "transport_cost-16", "stabilized_cost-8"} <= set(bench.ROWS)
    for cost in ("transport_cost", "stabilized_cost"):
        (row,) = bench.measure(cost, bench.cost_command(cost, 2), 1, [bench.child_env()])
        assert row["wall_s"]["median"] > 0


def test_bench_e2e_times_two_checkouts_in_turns(monkeypatch):
    """Each run goes to the checkouts in turn, and each gets its own row."""
    bench = _script_module("bench_e2e")
    order = []
    monkeypatch.setattr(bench, "run_once", lambda cmd, env: order.append(env["PYTHONPATH"]) or (1.0, 2.0))
    envs = [bench.child_env(), bench.child_env(ROOT / "elsewhere")]
    rows = bench.measure("import", bench.ROWS["import"], 3, envs)
    assert order == [env["PYTHONPATH"] for env in envs] * 3
    assert [row["wall_s"]["samples"] for row in rows] == [[1.0] * 3] * 2
    assert envs[1]["PYTHONPATH"].startswith(str(ROOT / "elsewhere" / "src"))
