"""Spans around the public functions of each qot module, for the traced run.

A wrapper replaces a function at every module attribute that holds it, so
the span appears wherever a caller looks the name up (``qot.cli`` calls
``violation_report`` through its own namespace, ``qot.transport`` calls
``sdp.solve`` through the ``sdp`` module, and so on).  Spans hold name,
layer, start, end, parent span and op id; they stay in memory until the run
writes them out.

Bookkeeping that the per-layer counters need (argument hashes, rank checks,
file sizes) runs inside ``trace`` spans, which are children of the caller's
span: they are subtracted from its self time and from the op time the
shares are taken of, so they inflate no layer.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import qot.transport
from perfbench.ops import digest
from qot.quantum import HermitianOperator

NAME, LAYER, START, END, PARENT, OP = range(6)

# layer -> (defining module, public functions traced)
LAYERS = {
    "sdp": ("qot.sdp", ("solve",)),
    "transport": ("qot.transport", ("transport_cost", "stabilized_cost", "tensored_cost", "dual_value")),
    "quantum": (
        "qot.quantum",
        ("hermitian_basis", "proj_asym", "proj_sym", "proj_asym_reshuffled", "partial_trace", "tensor"),
    ),
    "counterexample": ("qot.counterexample", ("violation_report", "embed_witness", "extract_violating_state")),
    "cli": ("qot.cli", ("main",)),
    "serialize": ("qot.serialize", ("write_report", "violation_report_payload")),
}


def _numerical_rank(state) -> int:
    return int(np.sum(np.linalg.eigvalsh(state.matrix) > qot.transport.SUPPORT_CUT))


class Tracer:
    """Span recorder plus the counters that must be measured where the work happens."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None  # id of the op in flight; None between ops
        self.op_labels: list[str] = []
        self.solves: list[dict] = []
        self.structure_keys: set[bytes] = set()
        self.quantum_keys: set[bytes] = set()
        self.quantum_repeats = 0
        self.transport_calls_rank_deficient = 0
        self.bytes_written = 0

    # -- spans ------------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    def end_op(self) -> None:
        self.op = None

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _bookkeeping(self, hook, *args) -> None:
        span = self._open(hook.__name__, "trace")
        try:
            hook(*args)
        finally:
            self._close(span)

    def wrap(self, layer: str, name: str, fn):
        before = getattr(self, f"_before_{layer}", None)
        after = getattr(self, f"_after_{layer}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:  # outside a timed op, e.g. a result check
                return fn(*args, **kwargs)
            if before is not None:
                self._bookkeeping(before, name, args)
            span = self._open(f"{layer}.{name}", layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                self._bookkeeping(after, name, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Replace each traced function at every ``qot`` module attribute that
        holds it, and restore them all on exit."""
        patched = []
        modules = [m for n, m in sys.modules.items() if n == "qot" or n.startswith("qot.")]
        try:
            for layer, (home, names) in LAYERS.items():
                for name in names:
                    original = getattr(sys.modules[home], name)
                    wrapper = self.wrap(layer, name, original)
                    for module in modules:
                        if getattr(module, name, None) is original:
                            patched.append((module, name, original))
                            setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)

    # -- counters ---------------------------------------------------------

    def _before_sdp(self, name, args) -> None:
        problem = args[0]
        key = digest(
            (problem.blocks, [c.matrix for c in problem.objective], [coeffs for coeffs, _ in problem.constraints])
        )
        repeat = key in self.structure_keys
        self.structure_keys.add(key)
        # A solve that raises keeps these defaults and counts as non-optimal.
        self.solves.append(
            {"m": problem.n_constraints, "blocks": problem.blocks, "repeat": repeat,
             "iterations": 0, "optimal": False, "gap_over_tol": 0.0}
        )

    def _after_sdp(self, name, args, sol) -> None:
        tol = args[1] if len(args) > 1 else qot.sdp.DEFAULT_TOL
        self.solves[-1].update(
            iterations=sol.iterations, optimal=sol.status == qot.sdp.STATUS_OPTIMAL, gap_over_tol=abs(sol.gap) / tol
        )

    def _before_transport(self, name, args) -> None:
        states = [a for a in args if isinstance(a, HermitianOperator)]
        if any(_numerical_rank(s) < s.dim for s in states):
            self.transport_calls_rank_deficient += 1

    def _before_quantum(self, name, args) -> None:
        key = digest((name, args))
        if key in self.quantum_keys:
            self.quantum_repeats += 1
        self.quantum_keys.add(key)

    def _after_serialize(self, name, args, out) -> None:
        if name == "write_report":
            self.bytes_written += os.path.getsize(args[0])


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(tracer: Tracer, op_time_s: float) -> dict[str, float]:
    """Per-layer counters of one traced segment; ``op_time_s`` is the summed
    latency of its ops, from which bookkeeping time is subtracted here."""
    spans = tracer.spans
    own = self_times(spans)
    busy = {layer: 0.0 for layer in [*LAYERS, "trace"]}
    self_s = dict(busy)
    calls = {layer: 0 for layer in busy}
    for s, o in zip(spans, own):
        layer = s[LAYER]
        calls[layer] += 1
        self_s[layer] += o
        if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer:
            busy[layer] += s[END] - s[START]
    op_time = max(op_time_s - busy["trace"], 1e-12)

    solves = tracer.solves
    iters = sum(s["iterations"] for s in solves)
    n_max = max((max(s["blocks"]) for s in solves), default=0)
    m_max = max((s["m"] for s in solves), default=0)
    # Kernel sizes computed from (m, blocks, iterations) as the dense real
    # embedding stores and multiplies them; not measured.
    stack_mb = max((sum(s["m"] * (2 * n) ** 2 * 8 for n in s["blocks"]) / 1e6 for s in solves), default=0.0)
    schur_gflop = sum(
        s["iterations"] * sum(2 * s["m"] * (2 * n) ** 3 + 2 * s["m"] ** 2 * (2 * n) ** 2 for n in s["blocks"])
        for s in solves
    ) / 1e9
    n_solves = max(len(solves), 1)
    n_transport = max(calls["transport"], 1)
    n_quantum = max(calls["quantum"], 1)
    return {
        "sdp.calls": calls["sdp"],
        "sdp.busy_s": busy["sdp"],
        "sdp.share": busy["sdp"] / op_time,
        "sdp.iters_per_solve": iters / n_solves,
        "sdp.ms_per_iter": 1e3 * busy["sdp"] / max(iters, 1),
        "sdp.non_optimal": sum(not s["optimal"] for s in solves),
        "sdp.gap_over_tol_max": max((s["gap_over_tol"] for s in solves), default=0.0),
        "sdp.m_max": m_max,
        "sdp.n_max": n_max,
        "sdp.stack_mb_computed": stack_mb,
        "sdp.schur_gflop_computed": schur_gflop / n_solves,
        "sdp.structure_repeat_ratio": sum(s["repeat"] for s in solves) / n_solves,
        "transport.calls": calls["transport"],
        "transport.self_s": self_s["transport"],
        "transport.self_share": self_s["transport"] / op_time,
        "transport.rank_deficient_ratio": tracer.transport_calls_rank_deficient / n_transport,
        "quantum.calls": calls["quantum"],
        "quantum.busy_s": busy["quantum"],
        "quantum.repeat_ratio": tracer.quantum_repeats / n_quantum,
        "counterexample.calls": calls["counterexample"],
        "counterexample.self_s": self_s["counterexample"],
        "cli.self_s": self_s["cli"],
        "serialize.busy_s": busy["serialize"],
        "serialize.bytes_written": tracer.bytes_written,
    }
