"""Seeded random instances and the benchmark harness.

Sample costs are summed as exact integers before dividing, and every
sample's seed is derived from (seed, qubits, gate count, index) alone, so
results are bit-identical however the work is split across processes.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing.util import Finalize
from random import Random

from .circuits import Circuit
from .coupling import CouplingGraph, linear
from .mapper import DEFAULT_STATE_CAP, solve_exact

CSV_HEADER = "gt,qt,gt_add,time,samples,seed"


@dataclass(frozen=True)
class RandomCircuitSpec:
    """Parameters of one random circuit draw."""

    qubits: int
    gates: int
    two_qubit_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.qubits < 2:
            raise ValueError("need at least 2 qubits")
        if self.gates < 1:
            raise ValueError("need at least 1 gate")
        if not 0.0 <= self.two_qubit_fraction <= 1.0:
            raise ValueError("two_qubit_fraction must be within [0, 1]")


@dataclass(frozen=True)
class ExperimentRow:
    """One benchmark point: mean swaps added and mean solve seconds over
    `samples` random circuits of `gt` gates on `qt` qubits."""

    gt: int
    qt: int
    gt_add: float
    time: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.gt_add < 0:
            raise ValueError("gt_add must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


def gen_random_circuit(spec: RandomCircuitSpec) -> Circuit:
    """Each gate is independently a CNOT on a uniform ordered distinct pair
    (probability two_qubit_fraction) or a single-qubit gate on a uniform
    qubit.  Deterministic per spec."""
    rng = Random(spec.seed)
    n = spec.qubits
    ops: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(spec.gates):
        if rng.random() < spec.two_qubit_fraction:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            ops.append(("cx", (a, b)))
        else:
            ops.append(("h", (rng.randrange(n),)))
    return Circuit.from_ops(n, ops)


def _child_seed(seed: int, qubits: int, gt: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{qubits}:{gt}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=8)
def _linear(nodes: int) -> CouplingGraph:
    """One path graph per node count in this process, shared by every chunk
    it solves: a graph is immutable, so its distance table, automorphisms
    and room sets are built once, not once per chunk."""
    return linear(nodes)


def _solve_chunk(args: tuple) -> tuple[int, float]:
    qubits, gt, frac, seeds, graph_nodes, state_cap, strict = args
    graph = _linear(graph_nodes)
    total = 0
    elapsed = 0.0
    for s in seeds:
        c = gen_random_circuit(RandomCircuitSpec(qubits, gt, frac, s))
        t0 = time.perf_counter()
        res = solve_exact(c, graph, strict=strict, state_cap=state_cap)
        elapsed += time.perf_counter() - t0
        if res.cost == math.inf:
            raise RuntimeError("unsolvable instance in benchmark sweep")
        total += int(res.cost)
    return total, elapsed


# The pool of the last parallel call, kept for the next one that needs as
# many workers: (workers, pool, finalizer that shuts the pool down).
_kept: tuple[int, ProcessPoolExecutor, Finalize] | None = None
_kept_lock = threading.Lock()


def _pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool if it has `workers` workers, else a new pool, kept."""
    global _kept
    if _kept is not None and _kept[0] == workers:
        return _kept[1]
    _close_pool()
    pool = ProcessPoolExecutor(max_workers=workers)
    # On exit, multiprocessing runs the finalizers of priority >= 0, highest
    # first, and then joins this process's children, pool workers included.
    # Queues close at priority 10, so the pool must be shut down above it, or
    # a multiprocessing child that built a pool never exits.
    close = Finalize(None, pool.shutdown, kwargs={"cancel_futures": True},
                     exitpriority=20)
    _kept = (workers, pool, close)
    return pool


def _close_pool() -> None:
    """Shut the kept pool down and wait for its workers to exit."""
    global _kept
    kept, _kept = _kept, None
    if kept is not None:
        kept[2]()


def _forget_pool() -> None:
    # A forked child has the parent's pool object but none of the threads
    # that drive it, and its finalizer runs only in the parent.  The child
    # builds its own pool when it needs one.
    global _kept, _kept_lock
    _kept = None
    _kept_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def run_benchmark(qubits: int, gate_range, samples: int, seed: int, *,
                  two_qubit_fraction: float = 1.0, graph_nodes: int | None = None,
                  threads: int = 1, state_cap: int = DEFAULT_STATE_CAP,
                  strict: bool = False) -> list[ExperimentRow]:
    """Solve `samples` random circuits per gate count on a linear graph
    (graph_nodes nodes, default one per qubit) and average the costs.

    All gate counts share one process pool of min(threads, CPUs, chunks)
    workers; with one worker the solves run in this process.  The pool is
    kept for later calls that need as many workers, rebuilt when the count
    changes or a call raised, and shut down when this process exits.  The
    arguments, the gate counts (distinct) and the draw parameters are
    checked before any job is dispatched, so a rejected call keeps the
    pool.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if state_cap < 1:
        raise ValueError("state_cap must be at least 1")
    nodes = qubits if graph_nodes is None else graph_nodes
    if nodes < qubits:
        raise ValueError(f"graph_nodes ({nodes}) must be at least qubits ({qubits})")
    gates = list(gate_range)
    # Rows are summed per gate count, so a repeated count would sum twice.
    if len(set(gates)) != len(gates):
        raise ValueError("gate counts must be distinct")
    # The draws' own checks, here and not in a worker, so that a rejected
    # call neither starts nor discards a pool.
    for gt in gates:
        RandomCircuitSpec(qubits, gt, two_qubit_fraction)
    workers = min(threads, os.cpu_count() or 1)
    step = -(-samples // workers)
    jobs = []
    for gt in gates:
        seeds = [_child_seed(seed, qubits, gt, i) for i in range(samples)]
        for lo in range(0, samples, step):
            jobs.append((qubits, gt, two_qubit_fraction, seeds[lo:lo + step],
                         nodes, state_cap, strict))
    workers = min(workers, len(jobs))
    if workers <= 1:
        parts = [_solve_chunk(job) for job in jobs]
    else:
        with _kept_lock:
            try:
                parts = list(_pool(workers).map(_solve_chunk, jobs))
            except BaseException:
                _close_pool()
                raise
    totals = {gt: [0, 0.0] for gt in gates}
    for job, (total, elapsed) in zip(jobs, parts):
        acc = totals[job[1]]
        acc[0] += total
        acc[1] += elapsed
    return [
        ExperimentRow(
            gt=gt, qt=qubits,
            gt_add=round(totals[gt][0] / samples, 3),
            time=totals[gt][1] / samples,
            samples=samples, seed=seed,
        )
        for gt in gates
    ]


def emit_csv(rows: list[ExperimentRow]) -> str:
    """gt_add keeps exactly 3 decimals; time round-trips via repr."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.gt},{r.qt},{r.gt_add:.3f},{r.time!r},{r.samples},{r.seed}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[ExperimentRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 6:
            raise ValueError(f"expected 6 fields, got {len(fields)}")
        rows.append(ExperimentRow(
            gt=int(fields[0]), qt=int(fields[1]), gt_add=float(fields[2]),
            time=float(fields[3]), samples=int(fields[4]), seed=int(fields[5]),
        ))
    return rows
