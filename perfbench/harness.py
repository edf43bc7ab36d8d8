"""Benchmark machinery shared by the workloads.

- ``import_qcmap`` loads the package from the checkout's ``src/`` and
  refuses any other copy, so the benchmark always measures the tree it
  sits in.
- ``Tracer`` records a span around each call into a qcmap layer; the
  untraced runs use ``NullTracer``, whose spans cost one attribute lookup.
- ``HostSpeed`` samples a fixed loop between ops, so that every reported
  time can be scaled to one reference host speed.
- ``time_imports`` times the imports in a fresh interpreter, once per
  round, so that the import share of ``setup_s`` is a median too.
- ``run_rounds`` is the closed loop: one client, one op at a time, whole
  rounds of the same ops, a fresh set-up before every round.
"""

from __future__ import annotations

import bisect
import gc
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (package missing, bad arguments)."""


class CheckFailure(AssertionError):
    """An output of the program failed an independent correctness check."""


def import_qcmap():
    """Import qcmap from ``<checkout>/src`` and nowhere else."""
    pkg = SRC / "qcmap"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no qcmap package at {pkg}")
    sys.path.insert(0, str(SRC))
    import qcmap
    if Path(qcmap.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"imported qcmap from {qcmap.__file__}, not from {pkg}")
    return qcmap


# --- tracing ----------------------------------------------------------------


class NullTracer:
    phase: tuple[str, int] = ("setup", 0)
    op: Any = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


class Tracer(NullTracer):
    """Spans kept in memory until the run ends.

    Each span is [name, start, end, parent index, op id, phase], where the
    phase is ("setup", i), ("round", i) or ("pass", 0).  Times that the
    program reports itself are recorded at the same boundaries as
    (name, seconds, phase, op id, clock).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.phase, self.op, time.perf_counter()))

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def by_phase(self, kind: str, scale: Callable[[float], float]) -> list[dict[str, float]]:
        """Self time per span name, one dict per phase of this kind, in order.

        Each span's self time is multiplied by ``scale`` at its midpoint, and
        each reported time by ``scale`` where it was recorded."""
        phases: dict[int, dict[str, float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            pk, pi = rec[5]
            if pk == kind:
                d = phases.setdefault(pi, {})
                d[rec[0]] = d.get(rec[0], 0.0) + own * scale((rec[1] + rec[2]) / 2)
        for name, value, (pk, pi), _, t in self.counts:
            if pk == kind:
                d = phases.setdefault(pi, {})
                d["#" + name] = d.get("#" + name, 0.0) + value * scale(t)
        return [phases[i] for i in sorted(phases)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": self.counts}, fh)


def median_of(phases: list[dict[str, float]], key: str) -> float:
    return statistics.median(p.get(key, 0.0) for p in phases) if phases else 0.0


# --- host speed -------------------------------------------------------------

# The shared host's speed drifts by tens of percent within a minute, and
# a fixed reference task slows down with it.  Every wall time the
# benchmark reports is therefore scaled to the reference speed, at which
# the task takes its nominal time: t * nominal / (median duration of the
# LOOP_WINDOW task samples taken nearest in time to t).
REFERENCE_LOOP_S = 0.0015
REFERENCE_POOL_S = 0.02
LOOP_STEPS = 10_000
LOOP_WINDOW = 9


def reference_loop() -> int:
    """A fixed pure-Python loop that allocates nothing."""
    x = 0
    table = [0] * 256
    for i in range(LOOP_STEPS):
        x = (x * 31 + i) & 0xFFFFF
        table[x & 255] += 1
    return x


def reference_pool() -> None:
    """Two forked workers run the loop once each: the pool start-up, the
    two cores and the teardown that every ``run_benchmark`` row pays."""
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        for fut in [pool.submit(reference_loop) for _ in range(2)]:
            fut.result()


def serve_pool() -> None:
    """Run ``reference_pool`` once per line read from stdin, answering each
    with a line, until stdin closes."""
    while sys.stdin.readline():
        reference_pool()
        sys.stdout.write("done\n")
        sys.stdout.flush()


_POOL_SERVER = "import sys; sys.path.insert(0, {bench!r}); import harness; harness.serve_pool()"


@contextmanager
def reference_task(kind: str):
    """The reference task, "loop" or "pool".

    "loop" runs ``reference_loop`` in this process.  "pool" runs
    ``reference_pool`` in a server process that is started here, before the
    first set-up, and is waited for when the block ends.  The server is a
    fresh interpreter that imports only this module, never qcmap, and its
    pools fork from it, not from this process.  So the memory that qcmap
    imports or keeps here cannot move the task's time, while it does move
    the pools that ``run_benchmark`` forks from this process.  The server is
    a plain subprocess, not a ``multiprocessing`` one, so that no resource
    tracker is started that would outlive this process.
    """
    if kind == "loop":
        yield reference_loop
        return
    server = subprocess.Popen([sys.executable, "-c", _POOL_SERVER.format(bench=str(BENCH_DIR))],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        def pool_in_server() -> None:
            server.stdin.write("run\n")
            server.stdin.flush()
            if not server.stdout.readline():
                raise SetupError(f"reference pool server exited {server.wait()}")

        yield pool_in_server
    finally:
        with suppress(OSError):
            server.stdin.close()
        try:
            server.wait(30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


class HostSpeed:
    """Samples of a reference task, taken between ops and set-ups."""

    def __init__(self, task: Callable[[], Any] = reference_loop,
                 nominal_s: float = REFERENCE_LOOP_S) -> None:
        self.task = task
        self.nominal_s = nominal_s
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        gc_on = gc.isenabled()
        gc.disable()  # the task allocates little; keep the heap's size out of it
        try:
            t0 = time.perf_counter()
            self.task()
            t1 = time.perf_counter()
        finally:
            if gc_on:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def scale(self, t: float) -> float:
        """Factor that turns a wall time around ``t`` into reference time."""
        i = bisect.bisect_left(self.times, t)
        lo = min(max(0, i - LOOP_WINDOW // 2), max(0, len(self.times) - LOOP_WINDOW))
        return self.nominal_s / statistics.median(self.durations[lo:lo + LOOP_WINDOW])


# --- imports ----------------------------------------------------------------

# What run.py imports before its first op, timed in a fresh interpreter.
_IMPORTS = """\
import sys, time
t = time.perf_counter()
import argparse, json, statistics, subprocess
sys.path[:0] = [{src!r}, {bench!r}]
import qcmap, harness, workloads
print(time.perf_counter() - t)
"""


def time_imports() -> tuple[float, float]:
    """(midpoint, seconds) of the benchmark's imports in a fresh interpreter.

    A process imports only once, so the run takes one such sample per
    round; their median is the import share of ``setup_s``."""
    code = _IMPORTS.format(src=str(SRC), bench=str(BENCH_DIR))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, check=True)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, float(proc.stdout)


# --- the closed loop --------------------------------------------------------


@dataclass
class Op:
    """One timed call: ``fn`` returns the output that the checks inspect."""

    key: str
    fn: Callable[[], Any]
    instances: int = 1


@dataclass
class RunResult:
    """Raw wall times as (midpoint, seconds); reported values are scaled.

    Ops are scaled by ``speed``, the workload's reference task.  Set-ups
    run in one process, on one core, whatever the ops do, so imports and
    builds are scaled by ``setup_speed``, the loop sampled around them.
    """

    speed: HostSpeed
    setup_speed: HostSpeed = field(default_factory=HostSpeed)
    imports: list[tuple[float, float]] = field(default_factory=list)
    builds: list[tuple[float, float]] = field(default_factory=list)
    ops: list[tuple[float, float, bool, int]] = field(default_factory=list)  # + ok, instances
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    # outputs[round][op key] = what Op.fn returned
    outputs: list[dict[str, Any]] = field(default_factory=list)
    inputs: Any = None

    def scaled(self, mid: float, secs: float) -> float:
        return secs * self.speed.scale(mid)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        timed = sum(self.scaled(m, s) for m, s, _, _ in self.ops)
        ok = [(m, s, n) for m, s, good, n in self.ops if good]
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        setup = self.setup_speed.scale
        return {
            "setup_s": (statistics.median(s * setup(m) for m, s in self.imports)
                        + statistics.median(s * setup(m) for m, s in self.builds), "s"),
            "instances_per_s": (sum(n for _, _, n in ok) / timed, "1/s"),
            "op_p50_ms": (statistics.median(self.scaled(m, s) for m, s, _ in ok) * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }

    def raw(self) -> str:
        """Unscaled figures and the host's speed, for the human-readable line."""
        ok = [s for _, s, good, _ in self.ops if good]
        factors = [self.speed.nominal_s / d for d in self.speed.durations]
        return (f"raw op_p50_ms={statistics.median(ok) * 1e3:.4g} "
                f"raw timed_s={sum(s for _, s, _, _ in self.ops):.4g} "
                f"scale median={statistics.median(factors):.3f} "
                f"[{min(factors):.3f}, {max(factors):.3f}]")


def run_rounds(workload, seed: int, seconds: float, tracer: NullTracer,
               speed: HostSpeed) -> RunResult:
    """Set up, run one round, and repeat until ``seconds`` of rounds are
    spent.  A set-up is one import sample and one build.

    A round starts only while the time left exceeds half a round, so runs
    end close to ``seconds`` and every round is whole.  The reference tasks
    run before the first set-up, after each import sample, after each
    build and after each op, outside every timed span.
    """
    clock = time.perf_counter
    speed.sample()
    res = RunResult(speed)
    res.setup_speed.sample()
    started = clock()
    i = 0
    while True:
        tracer.phase = ("setup", i)
        res.imports.append(time_imports())
        res.setup_speed.sample()
        t0 = clock()
        with tracer.span("setup"):
            inputs = workload.build(seed, tracer)
        t1 = clock()
        res.builds.append(((t0 + t1) / 2, t1 - t0))
        res.setup_speed.sample()
        res.inputs = inputs
        ops = workload.ops(inputs, tracer)
        speed.sample()
        tracer.phase = ("round", i)
        outputs: dict[str, Any] = {}
        with tracer.span("round"):
            for op in ops:
                tracer.op = (i, op.key)
                res.attempted += 1
                ok = True
                t = clock()
                try:
                    with tracer.span("op"):
                        outputs[op.key] = op.fn()
                except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                    ok = False
                    res.failed += 1
                    print(f"op {op.key} failed: {exc!r}", file=sys.stderr)
                t_end = clock()
                res.ops.append(((t + t_end) / 2, t_end - t, ok, op.instances))
                with tracer.span("reference"):
                    speed.sample()
        tracer.op = None
        res.outputs.append(outputs)
        i += 1
        spent = clock() - started
        if spent * (1 + 0.5 / i) >= seconds:
            res.rounds = i
            return res
