"""Smoke tests: each command-line script under ``scripts/`` runs in-process."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_reproduce_violation_prints_the_chain(capsys):
    assert _script_main("reproduce_violation")(["--dims", "4"]) == 0
    out = capsys.readouterr().out
    assert "d = 4" in out
    assert "  chain: " in out


def test_search_new_witnesses_finds_no_qubit_witness(capsys):
    assert _script_main("search_new_witnesses")(["--dims", "2", "--seeds", "0", "--iterations", "20"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["2", "0", "none", "-", "-"]
