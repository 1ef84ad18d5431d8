#!/usr/bin/env python3
"""Time qot end to end, one fresh process per run, and record the result.

Each row is one command, run 7 times as a fresh interpreter with BLAS
pinned to one thread.  A row records the wall time from spawn to exit
(median and quartiles, and every sample) and each child's peak resident set
size (``ru_maxrss``).  The rows:

- ``import``: ``python -c "import qot.cli"``;
- ``selftest-quick``: ``qot selftest --quick``;
- ``verify-counterexample-4``: ``qot verify-counterexample --dim 4``;
- ``transport_cost-8``, ``transport_cost-12`` and ``transport_cost-16``: one
  ``transport_cost`` of two random full-rank states at d = 8, 12 and 16,
  import included;
- ``stabilized_cost-8``: one ``stabilized_cost`` of the same kind at d = 8.

With ``--against DIR`` every row is also timed on the qot sources of the
checkout in DIR, the two checkouts taking turns run by run, and those rows
are recorded under ``against``.

The environment record (``os.cpu_count()``, interpreter and library
versions, every loaded OpenBLAS and its thread count) is read back through
``perfbench.blas`` in one more child started like the timed ones, after
``qot.cli`` is imported; the script exits non-zero unless that child runs
one BLAS thread, or if any timed run exits non-zero.  Run from the
repository root:

    python3 scripts/bench_e2e.py --out BENCH_e2e.json [--against DIR]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench import blas  # noqa: E402  (loads no numpy)

QOT = [sys.executable, "-m", "qot"]


def cost_command(cost: str, d: int) -> list[str]:
    """One ``cost`` of two random full-rank d x d states, seeds 1 and 2."""
    code = f"from qot import {cost}, random_density_matrix as r; {cost}(r({d}, 1), r({d}, 2))"
    return [sys.executable, "-c", code]


ROWS = {
    "import": [sys.executable, "-c", "import qot.cli"],
    "selftest-quick": QOT + ["selftest", "--quick"],
    "verify-counterexample-4": QOT + ["verify-counterexample", "--dim", "4"],
    "transport_cost-8": cost_command("transport_cost", 8),
    "transport_cost-12": cost_command("transport_cost", 12),
    "transport_cost-16": cost_command("transport_cost", 16),
    "stabilized_cost-8": cost_command("stabilized_cost", 8),
}
RUNS = 7
READ_BACK = (
    "import json, qot.cli; from perfbench import blas; print(json.dumps(blas.environment()))"
)


def child_env(checkout: Path = ROOT) -> dict:
    """The caller's environment with the qot sources of ``checkout`` first on
    the path and BLAS pinned to one thread."""
    paths = [str(checkout / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    return {
        **os.environ,
        **{var: "1" for var in blas.PIN_VARS},
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
    }


def run_once(cmd, env) -> tuple[float, float]:
    """Wall seconds from spawn to exit, and the child's peak RSS in MB."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 reaps the child and reports its own rusage; Popen is told the
        # exit code so that it does not wait again
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{err.read().decode(errors='replace')}")
    return wall, usage.ru_maxrss / 1024.0


def summary(values) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": values}


def measure(name, cmd, runs, envs) -> list[dict]:
    """One row per environment of ``envs``, which take turns run by run."""
    samples = [[] for _ in envs]
    for _ in range(runs):
        for env, taken in zip(envs, samples):
            taken.append(run_once(cmd, env))
    return [
        {
            "name": name,
            "command": ["python3", *cmd[1:]],
            "runs": runs,
            "wall_s": summary([wall for wall, _ in taken]),
            "max_rss_mb": summary([rss for _, rss in taken]),
        }
        for taken in samples
    ]


def environment(env) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", READ_BACK], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    record = json.loads(out.stdout)
    if record["blas_threads"] != 1:
        sys.exit(f"BLAS must run one thread in the children, read back {record['blas_threads']}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    parser.add_argument("--against", type=Path, help="also time the checkout in this directory, in turns")
    args = parser.parse_args(argv)

    envs = [child_env()]
    record = {"environment": environment(envs[0]), "rows": []}
    tables = [record["rows"]]
    if args.against is not None:
        envs.append(child_env(args.against.resolve()))
        environment(envs[1])
        record["against"] = {"rows": []}
        tables.append(record["against"]["rows"])
    for name, cmd in ROWS.items():
        for label, table, row in zip(("", " (against)"), tables, measure(name, cmd, RUNS, envs)):
            table.append(row)
            wall, rss = row["wall_s"], row["max_rss_mb"]
            print(
                f"{name + label:35s} wall {wall['median']:.3f} s [{wall['q1']:.3f}-{wall['q3']:.3f}]"
                f"  max_rss {rss['median']:.1f} MB"
            )
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"record written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
