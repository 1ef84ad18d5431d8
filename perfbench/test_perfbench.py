"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.cycle(workload, 3, 0))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    if workload != "boundary":
        assert result["failed"] == 0


def test_traced_run_prints_every_per_layer_metric():
    out = _bench("--workload", "small-pairs", "--seed", "3", "--seconds", "0.01", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert "traced results identical to untraced: True" in out.stdout
    assert "no layer has a wait-time metric" in out.stdout


def test_traced_replay_returns_bit_identical_results(tmp_path):
    """Wrappers must pass results through unchanged; the boundary workload
    reaches every traced layer, the CLI included."""
    run.set_up("boundary", 5, tmp_path)
    plain = run.run_cycles("boundary", 5, tmp_path, 1)
    tracer = tracing.Tracer()
    with tracer.installed():
        spanned = run.run_cycles("boundary", 5, tmp_path, 1, tracer=tracer)
    assert [r.outcome for r in plain] == [r.outcome for r in spanned]
    layers = {span[tracing.LAYER] for span in tracer.spans}
    assert layers == {*tracing.LAYERS, "trace"}
    # every wrapper is removed again
    import qot.cli
    import qot.sdp

    assert not hasattr(qot.sdp.solve, "__wrapped__")
    assert not hasattr(qot.cli.violation_report, "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", "transport", 0.0, 10.0, -1, 0],
        ["b", "sdp", 1.0, 7.0, 0, 0],
        ["c", "quantum", 2.0, 3.0, 1, 0],
        ["d", "quantum", 8.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 5.0, 1.0, 1.0]


def _thread_check(threads: str):
    code = (
        "import os; os.environ['OPENBLAS_NUM_THREADS'] = os.environ['OMP_NUM_THREADS'] = "
        f"{threads!r}; import numpy, scipy.linalg; from perfbench import blas; blas.require_single_thread()"
    )
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the core count")
def test_thread_check_fails_unless_blas_runs_one_thread():
    two = _thread_check("2")
    assert two.returncode != 0
    assert "BLAS must run one thread" in two.stderr
    assert _thread_check("1").returncode == 0


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench("--workload", "small-pairs", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_same_seed_same_inputs_and_whole_cycle_mix():
    a, b = workloads.cycle("boundary", 7, 2), workloads.cycle("boundary", 7, 2)
    assert [op.label for op in a] == [op.label for op in b]
    assert all(
        all((x == y).all() for x, y in zip(p.states, q.states)) for p, q in zip(a, b)
    )
    labels = sorted(op.label for op in workloads.cycle("small-pairs", 1, 0))
    assert labels == sorted(f"{k} d={d}" for k in ("transport", "stabilized") for d in (2, 3, 4))
