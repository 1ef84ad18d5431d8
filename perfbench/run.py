"""qot benchmark: certified transport costs per second on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload small-pairs --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each exists): ``small-pairs``,
``large-d`` and ``boundary``.  Each is a closed loop, one client in one
process, one public call per op, with BLAS pinned to one thread.  Inputs come
from ``--seed``; ``--seconds`` sets how many cycles of the workload run (see
``workloads``).  Every result is checked outside the timed interval.

An op is *certified* when it returns and passes its checks.  It *failed* when
the library raised a typed failure, the CLI exited non-zero, or a check did
not pass; failed ops count in ``failed`` and lower ``certified_ratio``.  The
run is not ``correct`` when an op raised an exception the library does not
document, or when the traced replay returned different numbers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
cycles untraced, replays them with spans around every traced qot function,
prints the per-layer metrics and the tracing overhead, and records one cycle
at the machine's default BLAS threading.  The last line of standard output
is one JSON object; the lines before it are a readable summary and the
environment record.
"""

from __future__ import annotations

import sys
import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "qot" / "__init__.py").is_file():
    _fail(f"qot sources not found under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import blas  # noqa: E402  (loads no numpy)

# Only the default-threading pass runs unpinned; the role is read from argv
# here because the pin must precede the first numpy import.
if "default-pass" not in sys.argv:
    blas.pin_one_thread()

from perfbench import ops, tracing, workloads  # noqa: E402  (loads qot, numpy, scipy.linalg)


# ---------------------------------------------------------------------------
# The loop


@dataclass(frozen=True)
class Record:
    label: str
    cycle: int
    latency: float
    outcome: ops.Outcome


def run_ops(op_list, scratch, tracer=None, cycle=0, check_tensored=False) -> list[Record]:
    """Time each op, then check it.  Only the call sits between the clock
    reads; argument building and checks are outside."""
    records = []
    t_values = {}
    for op in op_list:
        args = ops.prepare(op, scratch)
        if tracer is not None:
            tracer.begin_op(op.label)
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = ops.invoke(op, args)
        except Exception as e:  # classified by ops.verify, never hidden
            exc = e
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        outcome = ops.verify(
            op, args, result, exc, t_value=t_values.get(op.pair), tensored_reference=check_tensored
        )
        if op.kind == "tensored":
            check_tensored = False
        if op.kind == "transport" and exc is None:
            t_values[op.pair] = result.value
        records.append(Record(op.label, cycle, latency, outcome))
    return records


def run_cycles(workload, seed, scratch, n_cycles, tracer=None) -> list[Record]:
    """Cycles 0..n_cycles-1; the tensored cross-check runs once, in cycle 0."""
    records = []
    for c in range(n_cycles):
        records += run_ops(workloads.cycle(workload, seed, c), scratch, tracer, c, check_tensored=c == 0)
    return records


def set_up(workload, seed, scratch) -> None:
    """Imports are done by the caller; this generates inputs and makes one
    warm-up call per op kind, whose outcomes are not counted."""
    run_ops(workloads.warmup(workload, seed), scratch)


# ---------------------------------------------------------------------------
# Metrics


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def certified(records) -> int:
    return sum(r.outcome.status == ops.CERTIFIED for r in records)


def latency_metrics(records) -> dict:
    lat = [r.latency for r in records]
    return {
        "ops_per_s": certified(records) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail(lat)[0],
        "certified_ratio": certified(records) / len(records),
    }


def _with_units(values, section):
    """Metrics in the output format, with the units BENCHMARK.json declares
    for them; the names must be exactly the ones it lists."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(values) != set(units):
        _fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json {section}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def _result(records, metrics, identical=True):
    return {
        "correct": identical and all(r.outcome.status != ops.ERROR for r in records),
        "attempted": len(records),
        "failed": len(records) - certified(records),
        "metrics": metrics,
    }


def _summary(workload, name, records):
    m = latency_metrics(records)
    _, pct, beyond = tail([r.latency for r in records])
    n, failed = len(records), len(records) - certified(records)
    print(
        f"{workload} [{name}] ops={n} failed={failed} fail_ratio={failed / n:.4f} "
        f"ops_per_s={m['ops_per_s']:.4f} op_p50_ms={m['op_p50_ms']:.3f} "
        f"op_tail_ms={m['op_tail_ms']:.3f} (p{pct:.1f}, {beyond} samples beyond, n={n})"
    )
    failures = {}
    for r in records:
        if r.outcome.status != ops.CERTIFIED:
            key = (r.outcome.status, r.label, r.outcome.reason.split(":")[0])
            failures[key] = failures.get(key, 0) + 1
    for (status, label, reason), count in sorted(failures.items()):
        print(f"  {status}: {label}: {reason} x{count}")


# ---------------------------------------------------------------------------
# Child processes: repeated set-up and the default-threading pass


def _child(role, workload, seed, env):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        _fail(f"child process exited with code {proc.returncode}")
    return out


def setup_seconds(workload, seed) -> float:
    """Median wall time from spawning a fresh interpreter to the point where
    it would make its first timed op, over SETUP_PROBES processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _child("setup-probe", workload, seed, os.environ.copy())
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        _finish(proc)
        if line.strip() != "ready":
            _fail("set-up probe did not report ready")
    return statistics.median(times)


def default_blas_pass(workload, seed) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in blas.PIN_VARS}
    return json.loads(_finish(_child("default-pass", workload, seed, env)).splitlines()[-1])


# ---------------------------------------------------------------------------
# Roles


def untraced(args, scratch) -> dict:
    set_up(args.workload, args.seed, scratch)
    setup_here = time.perf_counter() - _T_START
    records = run_cycles(args.workload, args.seed, scratch, workloads.cycles_for(args.workload, args.seconds))
    values = latency_metrics(records)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["setup_s"] = setup_seconds(args.workload, args.seed)
    _summary(args.workload, "untraced", records)
    print(f"setup_s={values['setup_s']:.4f} (median of {SETUP_PROBES} fresh processes; "
          f"this process {setup_here:.4f} without interpreter start)")
    return _result(records, _with_units(values, "end_to_end"))


def traced(args, scratch) -> dict:
    """Untraced half, the same cycles again with tracing, then the
    default-threading pass.  The two halves must return identical results."""
    set_up(args.workload, args.seed, scratch)
    n_cycles = workloads.cycles_for(args.workload, args.seconds / 2)
    plain = run_cycles(args.workload, args.seed, scratch, n_cycles)
    tracer = tracing.Tracer()
    with tracer.installed():
        spanned = run_cycles(args.workload, args.seed, scratch, n_cycles, tracer)
    identical = [r.outcome.fingerprint for r in plain] == [r.outcome.fingerprint for r in spanned]

    layers = tracing.layer_metrics(tracer, sum(r.latency for r in spanned))
    layers["trace.overhead_ops_per_s"] = latency_metrics(plain)["ops_per_s"] - latency_metrics(spanned)["ops_per_s"]
    default = default_blas_pass(args.workload, args.seed)
    layers["default_blas.threads"] = default["threads"]
    layers["default_blas.slowdown"] = default["cycle_s"] / sum(r.latency for r in spanned if r.cycle == 0)
    layers["default_blas.sdp_share"] = default["sdp_share"]

    _summary(args.workload, "untraced half", plain)
    _summary(args.workload, "traced half", spanned)
    print(f"traced results identical to untraced: {identical}")
    print("no layer has a wait-time metric: one client in one process, no queue or contended resource")
    for name, value in layers.items():
        print(f"  {name} = {value:.6g}")
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": blas.environment(),
        "span_fields": ["name", "layer", "start", "end", "parent", "op"], "op_labels": tracer.op_labels,
        "spans": tracer.spans, "per_layer": layers, "default_blas_pass": default,
    }))
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return _result(plain + spanned, _with_units(layers, "per_layer"), identical)


def setup_probe(args, scratch) -> None:
    set_up(args.workload, args.seed, scratch)
    print("ready", flush=True)


def default_pass(args, scratch) -> None:
    """One traced cycle at the machine's default BLAS threading (ungated)."""
    set_up(args.workload, args.seed, scratch)
    tracer = tracing.Tracer()
    with tracer.installed():
        records = run_cycles(args.workload, args.seed, scratch, 1, tracer)
    cycle_s = sum(r.latency for r in records)
    layers = tracing.layer_metrics(tracer, cycle_s)
    print(json.dumps({"threads": blas.effective_threads(), "cycle_s": cycle_s, "sdp_share": layers["sdp.share"]}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time at the nominal cycle time; sets the number of cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup-probe", "default-pass"), default="run",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.role != "default-pass":
        try:
            blas.require_single_thread()
        except blas.BlasThreadError as exc:
            _fail(str(exc))

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        if args.role == "setup-probe":
            setup_probe(args, scratch)
            return 0
        if args.role == "default-pass":
            default_pass(args, scratch)
            return 0
        result = traced(args, scratch) if args.trace else untraced(args, scratch)
    print("env " + json.dumps(blas.environment()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
