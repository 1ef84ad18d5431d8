"""Seeded inputs and the three workloads.

Every state is generated here with numpy's PCG64 generator, never with
``qot.random_*``, so that a change to ``qot.quantum`` cannot change what is
measured; the library receives only the finished matrices.

A workload is a sequence of cycles.  Cycle ``c`` of seed ``s`` is built from
its own generator, seeded with ``(s, workload, c)``, so any cycle can be
rebuilt on its own (the traced replay relies on this).  Each cycle holds
every op kind of the workload in fixed proportion.

A run of ``seconds`` measures a fixed number of whole cycles: ``seconds``
divided by the workload's nominal cycle time, which is what one cycle took
with one BLAS thread on a 2-core x86-64 machine when the benchmark was
written.  Every commit therefore runs the same ops for the same seed, and
its latency quantiles are taken over the same mix; a faster commit simply
finishes sooner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Op:
    """One public call.  ``states`` are complex ndarrays: (rho, sigma) for
    transport and stabilized, (rho1, sigma1, rho2, sigma2) for tensored,
    empty for cli.  Ops of one cycle with the same ``pair`` share inputs."""

    kind: str
    label: str
    states: tuple = ()
    dim: int = 0
    pair: int = -1


# ---------------------------------------------------------------------------
# States


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _unit_trace(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def full_rank(rng, d: int) -> np.ndarray:
    g = _ginibre(rng, d, d)
    return _unit_trace(g @ g.conj().T)


def rank_deficient(rng, d: int, rank: int) -> np.ndarray:
    """Exactly rank ``rank``: the null space carries only rounding dust."""
    g = _ginibre(rng, d, rank)
    return _unit_trace(g @ g.conj().T)


def near_singular(rng, d: int, eps: float) -> np.ndarray:
    """Random eigenbasis, smallest eigenvalue ``eps``, the rest a flat
    Dirichlet draw scaled to the remaining mass."""
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    vals = np.concatenate(([eps], (1 - eps) * rng.dirichlet(np.ones(d - 1))))
    return _unit_trace((q * vals) @ q.conj().T)


# ---------------------------------------------------------------------------
# Workloads


def _small_pairs(rng) -> list[Op]:
    ops = []
    for pair, d in enumerate(rng.permutation([2, 3, 4])):
        states = (full_rank(rng, d), full_rank(rng, d))
        ops.append(Op("transport", f"transport d={d}", states, pair=pair))
        ops.append(Op("stabilized", f"stabilized d={d}", states, pair=pair))
    return ops


def _large_d(rng) -> list[Op]:
    ops = []
    for pair, d in enumerate((6, 7, 8)):
        states = (full_rank(rng, d), full_rank(rng, d))
        ops.append(Op("transport", f"transport d={d}", states, pair=pair))
        if d == 6:
            ops.append(Op("stabilized", "stabilized d=6", states, pair=pair))
    states = (full_rank(rng, 4), full_rank(rng, 4), full_rank(rng, 2), full_rank(rng, 2))
    ops.append(Op("tensored", "tensored d=4x2", states))
    return ops


BOUNDARY_EPS = (1e-9, 1e-7, 1e-6)


def _boundary(rng) -> list[Op]:
    ops = []
    pair = 0
    for d in (3, 4, 5, 6):
        ra, rb = rng.integers(1, d, size=2)
        states = (rank_deficient(rng, d, int(ra)), rank_deficient(rng, d, int(rb)))
        ops.append(Op("transport", f"transport rank<d d={d}", states, pair=pair))
        ops.append(Op("stabilized", f"stabilized rank<d d={d}", states, pair=pair))
        pair += 1
    for eps in BOUNDARY_EPS:
        for d in (2, 3, 4):
            states = (near_singular(rng, d, eps), full_rank(rng, d))
            ops.append(Op("transport", f"transport eps={eps:g} d={d}", states, pair=pair))
            ops.append(Op("stabilized", f"stabilized eps={eps:g} d={d}", states, pair=pair))
            pair += 1
    for d in (4, 5, 6):
        ops.append(Op("cli", f"cli verify-counterexample d={d}", dim=d))
    return ops


WORKLOADS = {
    "small-pairs": _small_pairs,
    "large-d": _large_d,
    "boundary": _boundary,
}
NOMINAL_CYCLE_S = {"small-pairs": 0.18, "large-d": 4.5, "boundary": 2.1}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / NOMINAL_CYCLE_S[workload]))


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of cycle ``index``; identical for identical arguments."""
    tag = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([seed, tag, index]))


def warmup(workload: str, seed: int) -> list[Op]:
    """One small call per op kind the workload uses, to finish lazy set-up
    (imports inside scipy, BLAS buffers) before anything is timed.  The
    inputs are the same for every seed: they are never measured."""
    rng = np.random.default_rng(0)
    kinds = {op.kind for op in cycle(workload, seed, 0)}
    states = tuple(full_rank(rng, 2) for _ in range(4))
    ops = [
        Op("transport", "warm-up transport", states[:2]),
        Op("stabilized", "warm-up stabilized", states[:2]),
        Op("tensored", "warm-up tensored", states),
        Op("cli", "warm-up cli", dim=4),
    ]
    return [op for op in ops if op.kind in kinds]
