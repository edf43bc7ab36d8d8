"""The three workloads: what one set-up builds, what one round runs, and
how the outputs are checked.

Every round runs the same ops on inputs rebuilt from the same seed, so
rounds are interchangeable and a run's medians do not depend on how many
rounds fit in it.  Instance kinds are interleaved round-robin inside a
round, so a slow stretch of the host hits every kind alike.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import tracemalloc
from dataclasses import dataclass

from checks import (
    check_answer, check_bound, check_brute, check_decide, check_expected,
    check_plan, check_row, diameter_by_bfs,
)
from harness import (
    BENCH_DIR, OUT_DIR, REFERENCE_LOOP_S, REFERENCE_POOL_S, CheckFailure, Op,
)

POOL_FILE = BENCH_DIR / "pool.json"


def interleave(groups: list[list]) -> list:
    """Round-robin over groups: first of each, then second of each, ..."""
    out = []
    for layer in itertools.zip_longest(*groups):
        out.extend(x for x in layer if x is not None)
    return out


@dataclass
class DeviceInstance:
    key: str
    circuit: object
    graph: object
    opt: int
    brute: bool


def _build_graphs(qc, specs, tracer) -> dict:
    """Generator, text round trip and the distance table, per graph spec."""
    graphs = {}
    with tracer.span("coupling.build"):
        for spec in specs:
            if spec not in graphs:
                g = qc.parse_graph(qc.format_graph(qc.gen(spec[0], *spec[1:])))
                g.distances  # noqa: B018 - build the distance table now
                g.diameter  # noqa: B018
                graphs[spec] = g
    return graphs


def _device_instances(qc, seed: int, picks: dict[str, int], tracer) -> list[DeviceInstance]:
    """Pick ``picks[stratum]`` pool entries per stratum, seeded, interleaved."""
    pool = json.loads(POOL_FILE.read_text())
    rng = random.Random(seed)
    graphs = _build_graphs(qc, [tuple(pool[s]["graph"]) for s in picks], tracer)
    groups = []
    with tracer.span("circuits.build"):
        for name, k in picks.items():
            st = pool[name]
            group = []
            for entry in rng.sample(st["entries"], k):
                c = qc.gen_random_circuit(
                    qc.RandomCircuitSpec(st["qubits"], st["gates"], 1.0, entry["seed"]))
                c = qc.parse_circuit(qc.format_circuit(c))
                group.append(DeviceInstance(
                    f"{name}#{entry['seed']}", c, graphs[tuple(st["graph"])],
                    st["opt"], "brute_force_g" in st["evidence"]))
            groups.append(group)
    return interleave(groups)


def _level_counts(qc, instances) -> dict[str, float]:
    """search_levels work counts summed over distinct (circuit, graph) instances."""
    seeds = levels = placements = fragments = peak = 0
    for c, g in instances:
        snap = qc.search_levels(c, g)
        if snap:
            seeds += len(snap[0])
        levels += len(snap)
        for level in snap:
            placements += len(level)
            f = sum(len(s.fragments) for s in level)
            fragments += f
            peak = max(peak, f)
    return {"mapper.seeds": seeds, "mapper.levels": levels,
            "mapper.frontier_placements": placements,
            "mapper.frontier_fragments": fragments, "mapper.peak_frontier": peak}


def _alloc_peak_mb(qc, instances) -> float:
    """Largest tracemalloc peak inside one solve_exact."""
    peak = 0
    for c, g in instances:
        tracemalloc.start()
        try:
            qc.solve_exact(c, g)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def _brute_sample(seed: int, instances: list[DeviceInstance], k: int) -> list[DeviceInstance]:
    reachable = sorted((i for i in instances if i.brute), key=lambda i: i.key)
    return random.Random(seed ^ 0x5EED).sample(reachable, min(k, len(reachable)))


def _answer(out: dict, key: str):
    """Round 0's answer for ``key``; an op that raised left none."""
    if key not in out:
        raise CheckFailure(f"{key}: no answer in round 0")
    return out[key]


def _same_every_round(outputs: list[dict], summarize) -> None:
    first = {k: summarize(v) for k, v in outputs[0].items()}
    for r, out in enumerate(outputs[1:], 1):
        if out.keys() != first.keys():
            raise CheckFailure(f"round {r} answered {sorted(out.keys() ^ first.keys())} "
                               "differently from round 0")
        for k, v in out.items():
            if summarize(v) != first.get(k):
                raise CheckFailure(f"{k}: round {r} answered {summarize(v)}, round 0 {first.get(k)}")


# --- device_solve -----------------------------------------------------------


class DeviceSolve:
    """solve_exact then verify_plan (the path of ``qcmap solve --plan``) on
    seeded pool circuits over aspen(), grid_square(3,3) and tokyo().

    Per round: 16 ops.  6 cheaper ones (optimum 0-1 found within the
    first level, 10-25 ms; one full level over 3k seeds, 0.13-0.15 s) and
    6 dearer ones (optimum 3, 0.25-0.33 s; 98k seeds enumerated on tokyo,
    0.4 s; 15k seeds with a full level, 0.7-1 s) bracket the 4 entries of
    aspen.q3.opt2 (one full level over 3.4k seeds, 0.17-0.2 s), so the
    median op is the mean of two of those 4 and not a point in a gap
    between clusters.  grid33.q5.opt2 sets peak RSS through its frontier
    and provenance.  No op takes seconds: the host's speed cannot be
    sampled during an op, so one long op per round would dominate the
    run's error.
    """

    name = "device_solve"
    REFERENCE = ("loop", REFERENCE_LOOP_S)
    PICKS = {
        "tokyo.q4.opt0": 2, "grid33.q4.opt1": 2, "grid33.q4.opt2": 2,
        "aspen.q3.opt2": 4, "grid33.q4.opt3": 2, "tokyo.q5.opt0": 2,
        "grid33.q5.opt2": 2,
    }
    BRUTE_SAMPLE = 1

    def __init__(self, qc):
        self.qc = qc

    def build(self, seed, tracer):
        return _device_instances(self.qc, seed, self.PICKS, tracer)

    def ops(self, instances, tracer):
        qc = self.qc

        def solve(inst):
            with tracer.span("mapper.solve"):
                res = qc.solve_exact(inst.circuit, inst.graph)
            with tracer.span("oracle.verify"):
                qc.verify_plan(inst.circuit, inst.graph, res.plan)
            return res.cost, res.plan

        return [Op(i.key, lambda i=i: solve(i)) for i in instances]

    def check(self, run, seed):
        _same_every_round(run.outputs, lambda v: v)
        out = run.outputs[0]
        diam = {}
        for inst in run.inputs:
            cost, plan = _answer(out, inst.key)
            check_plan(inst.circuit, inst.graph, cost, plan, inst.key)
            g = inst.graph
            if id(g) not in diam:
                diam[id(g)] = diameter_by_bfs(g)
            check_bound(inst.circuit, g, cost, inst.key, diam[id(g)])
            check_expected(cost, inst.opt, inst.key)
        for inst in _brute_sample(seed, run.inputs, self.BRUTE_SAMPLE):
            check_brute(inst.circuit, inst.graph, out[inst.key][0], inst.key)

    def instrument(self, instances, tracer):
        from qcmap import cli
        qc = self.qc
        pairs = [(i.circuit, i.graph) for i in instances]
        metrics = _level_counts(qc, pairs)
        metrics["mapper.alloc_peak_mb"] = _alloc_peak_mb(qc, pairs)
        tmp = OUT_DIR / "cli"
        tmp.mkdir(parents=True, exist_ok=True)
        for n, inst in enumerate(instances):
            cq, cg, cp = (str(tmp / f"{n}.{ext}") for ext in ("qc", "cg", "plan"))
            qc.save_circuit(inst.circuit, cq)
            qc.save_graph(inst.graph, cg)
            buf = io.StringIO()
            with tracer.span("cli.solve"), contextlib.redirect_stdout(buf):
                rc = cli.main(["solve", "--circuit", cq, "--graph", cg, "--plan", cp])
            if rc != 0 or buf.getvalue().split() != [str(inst.opt)]:
                raise CheckFailure(f"{inst.key}: qcmap solve exited {rc}, printed "
                                   f"{buf.getvalue()!r}, optimum {inst.opt}")
        return metrics


# --- decide_mix -------------------------------------------------------------


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges}


def _tree(rng, nodes, maxdeg=None):
    """Random spanning tree over ``nodes`` (a list), degree-capped if asked."""
    edges = set()
    deg: dict[int, int] = {}
    for i in range(1, len(nodes)):
        cands = [v for v in nodes[:i] if maxdeg is None or deg.get(v, 0) < maxdeg]
        a, b = rng.choice(cands), nodes[i]
        edges.add((min(a, b), max(a, b)))
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    return edges


def _add_chords(rng, n, edges, count, maxdeg=None, allowed=lambda a, b: True):
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    rest = [(a, b) for a in range(n) for b in range(a + 1, n)
            if (a, b) not in edges and allowed(a, b)]
    rng.shuffle(rest)
    for a, b in rest:
        if count <= 0:
            break
        if maxdeg is not None and (deg[a] >= maxdeg or deg[b] >= maxdeg):
            continue
        edges.add((a, b))
        deg[a] += 1
        deg[b] += 1
        count -= 1
    return edges


def hamiltonian_graph(rng, n, chords, maxdeg=None):
    """A planted Hamiltonian cycle plus random chords: answer "yes"."""
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return _relabel(rng, n, _add_chords(rng, n, edges, chords, maxdeg))


def pendant_graph(rng, n, chords, maxdeg=None):
    """Connected, with one degree-1 node, so no Hamiltonian cycle: "no"."""
    core = list(range(n - 1))
    rng.shuffle(core)
    edges = _add_chords(rng, n - 1, _tree(rng, core, maxdeg), chords, maxdeg)
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    anchor = rng.choice([v for v in range(n - 1) if maxdeg is None or deg[v] < maxdeg])
    edges.add((anchor, n - 1))
    return _relabel(rng, n, edges)


def clique_graph(rng, n, k, chords):
    """A planted k-clique on a random connected graph: "yes"."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = _tree(rng, nodes) | {(a, b) for a in range(k) for b in range(a + 1, k)}
    return _relabel(rng, n, _add_chords(rng, n, edges, chords))


def bipartite_graph(rng, n, chords):
    """Connected and bipartite, so no clique above 2 nodes: "no"."""
    side = [v % 2 for v in range(n)]
    edges = set()
    for v in range(1, n):
        a = rng.choice([u for u in range(v) if side[u] != side[v]])
        edges.add((a, v))
    return _relabel(rng, n, _add_chords(rng, n, edges, chords,
                                        allowed=lambda a, b: side[a] != side[b]))


@dataclass
class Reduction:
    key: str
    kind: str        # hamcycle | hampath | clique
    source: object   # the source graph
    size: int        # clique size (clique kind only)
    planted: bool    # the answer built into the source graph
    circuit: object
    graph: object
    budget: int


class DecideMix:
    """decide on budget-0 reduction instances (embedding backtrack) and on
    device instances at budget opt-1 ("no", every level up to it expanded)
    and at opt ("yes").

    Per round: 30 reductions and 8 device decides.  14 of the reductions
    are "no" Hamiltonian-cycle instances on 12 nodes of degree at most 3,
    whose exhaustive backtrack costs 20-30 ms each.  12 cheaper ops (the
    "yes" instances, which stop at the first embedding, and small "no"
    ones) and 12 dearer ones (4 "no" instances on 14 nodes at 70-120 ms,
    the 8 device decides at 0.15-0.4 s) put the median op in the middle of
    those 14.  The device decides take most of the round's time.
    """

    name = "decide_mix"
    REFERENCE = ("loop", REFERENCE_LOOP_S)
    DEVICE = {"grid33.q4.opt2": 1, "aspen.q3.opt2": 1, "grid33.q4.opt3": 1,
              "aspen.q3.opt3": 1}
    # (kind, planted answer, node counts cycled through, how many)
    REDUCTIONS = [
        ("hamcycle", False, (12,), 14),
        ("hamcycle", False, (14,), 4),
        ("hamcycle", True, (8, 10, 12, 14), 4),
        ("hampath", True, (8, 10, 12), 2),
        ("hampath", False, (8, 10), 2),
        ("clique", True, (8, 11, 14), 2),
        ("clique", False, (8, 11, 14), 2),
    ]

    REDUCE = {
        "hamcycle": lambda qc, g, k: qc.reduce_hamcycle_to_qcm(g),
        "hampath": lambda qc, g, k: qc.reduce_hamcycle_to_hampath_qcm(g),
        "clique": lambda qc, g, k: qc.reduce_clique_to_qcm(g, k),
    }

    def __init__(self, qc):
        self.qc = qc

    def _source(self, rng, kind, planted, n):
        if kind == "hamcycle":
            if planted:
                return hamiltonian_graph(rng, n, n // 2 + 2), 0
            # near-cubic: the exhaustive backtrack's cost varies little between draws
            return pendant_graph(rng, n, n, maxdeg=3), 0
        if kind == "hampath":
            make = hamiltonian_graph if planted else pendant_graph
            return make(rng, n, n // 3, maxdeg=3), 0
        k = rng.choice((4, 5))
        if planted:
            return clique_graph(rng, n, k, n), k
        return bipartite_graph(rng, n, n), k

    def build(self, seed, tracer):
        qc = self.qc
        rng = random.Random(seed)
        device = _device_instances(qc, seed, self.DEVICE, tracer)
        sources = []
        with tracer.span("coupling.build"):
            for group, (kind, planted, sizes, count) in enumerate(self.REDUCTIONS):
                for j in range(count):
                    n = sizes[j % len(sizes)]
                    edges, k = self._source(rng, kind, planted, n)
                    g = qc.parse_graph(qc.format_graph(qc.CouplingGraph(n, edges)))
                    g.distances  # noqa: B018
                    key = f"{kind}.{'yes' if planted else 'no'}.n{n}.{j}"
                    sources.append((group, key, kind, planted, g, k))
        with tracer.span("gadgets.reduce"):
            built = [(src, self.REDUCE[src[2]](qc, src[4], src[5])) for src in sources]
        groups: list[list] = [[] for _ in self.REDUCTIONS]
        with tracer.span("circuits.build"):
            for (group, key, kind, planted, g, k), inst in built:
                c = qc.parse_circuit(qc.format_circuit(inst.circuit))
                groups[group].append(
                    Reduction(key, kind, g, k, planted, c, inst.graph, inst.budget))
        decides = [(d, d.opt - 1) for d in device] + [(d, d.opt) for d in device]
        return interleave([*groups, decides])

    def ops(self, items, tracer):
        qc = self.qc

        def run(c, g, k):
            with tracer.span("mapper.embed" if k == 0 else "mapper.decide"):
                return qc.decide(c, g, k)

        ops = []
        for item in items:
            if isinstance(item, Reduction):
                ops.append(Op(item.key, lambda r=item: run(r.circuit, r.graph, r.budget)))
            else:
                d, k = item
                ops.append(Op(f"{d.key}@{k}", lambda d=d, k=k: run(d.circuit, d.graph, k)))
        return ops

    def check(self, run, seed):
        qc = self.qc
        _same_every_round(run.outputs, lambda v: v)
        out = run.outputs[0]
        for item in run.inputs:
            if isinstance(item, Reduction):
                answer = _answer(out, item.key)
                if item.kind == "clique":
                    oracle = qc.max_clique_at_least(item.source, item.size)
                else:
                    oracle = qc.ham_cycle(item.source) is not None
                if oracle is not item.planted:
                    raise CheckFailure(f"{item.key}: generator planted {item.planted}, "
                                       f"oracle says {oracle}")
                check_answer(answer, oracle, item.key)
            else:
                d, k = item
                if k == d.opt:
                    check_decide(_answer(out, f"{d.key}@{d.opt}"),
                                 _answer(out, f"{d.key}@{d.opt - 1}"), d.opt, d.key)

    def instrument(self, items, tracer):
        qc = self.qc
        pairs = [(d.circuit, d.graph) for d, k in
                 (i for i in items if not isinstance(i, Reduction)) if k == d.opt]
        metrics = _level_counts(qc, pairs)
        metrics["mapper.alloc_peak_mb"] = _alloc_peak_mb(qc, pairs)
        return metrics


# --- sweep_linear -----------------------------------------------------------


class SweepLinear:
    """run_benchmark calls (threads=2) on linear(q), four gate counts each.

    Per round: 14 calls covering 54 rows, q = 3 over 3..25 gates, q = 4
    over 3..21 (the ranges of acceptance criterion 4) and q = 5 over
    3..14, 20 samples per row, interleaved by q.  run_benchmark starts a
    process pool per gate count, so pool start-up, circuit generation and
    per-solve set-up dominate; one call per row would hide the pool that a
    sweep-wide pool saves.  The median op is a 3- or 4-qubit call.
    """

    name = "sweep_linear"
    # The rows run in two forked workers; a one-core loop, or a loop in two
    # long-lived processes, misses most of what slows them down.
    REFERENCE = ("pool", REFERENCE_POOL_S)
    GATES = {3: range(3, 26), 4: range(3, 22), 5: range(3, 15)}
    BLOCK = 4
    SAMPLES = 20
    THREADS = 2
    RECHECK_ROWS = 8
    BRUTE_MAX_GATES = 10

    def __init__(self, qc):
        self.qc = qc

    @staticmethod
    def _child_seeds(seed, q, gt, samples):
        from qcmap.bench import _child_seed  # the harness's own per-sample seeds
        return [_child_seed(seed, q, gt, i) for i in range(samples)]

    def build(self, seed, tracer):
        """Blocks of (q, gate counts, graph, {gate count: sample circuits})."""
        qc = self.qc
        graphs = _build_graphs(qc, [("linear", q) for q in self.GATES], tracer)
        groups = []
        with tracer.span("circuits.build"):
            for q, gates in self.GATES.items():
                circuits = {gt: [qc.parse_circuit(qc.format_circuit(qc.gen_random_circuit(
                    qc.RandomCircuitSpec(q, gt, 1.0, s))))
                    for s in self._child_seeds(seed, q, gt, self.SAMPLES)] for gt in gates}
                groups.append([
                    (q, tuple(gates[i:i + self.BLOCK]), graphs[("linear", q)], circuits)
                    for i in range(0, len(gates), self.BLOCK)])
        return {"seed": seed, "blocks": interleave(groups)}

    def ops(self, inputs, tracer):
        qc, seed = self.qc, inputs["seed"]

        def call(q, gates):
            with tracer.span("bench.row"):
                rows = qc.run_benchmark(q, list(gates), self.SAMPLES, seed,
                                        threads=self.THREADS)
            tracer.count("bench.solve", sum(r.time * r.samples for r in rows))
            return rows

        return [Op(f"q{q}.g{gates[0]}-{gates[-1]}", lambda q=q, gates=gates: call(q, gates),
                   self.SAMPLES * len(gates))
                for q, gates, _, _ in inputs["blocks"]]

    def check(self, run, seed):
        qc = self.qc
        _same_every_round(run.outputs, lambda rows: [
            (r.gt, r.qt, r.gt_add, r.samples, r.seed) for r in rows])
        out = run.outputs[0]
        rows = []
        for q, gates, g, circuits in run.inputs["blocks"]:
            got = _answer(out, f"q{q}.g{gates[0]}-{gates[-1]}")
            if len(got) != len(gates):
                raise CheckFailure(f"q{q}: {len(got)} rows for gate counts {gates}")
            for gt, row in zip(gates, got):
                check_row(row, q, gt, self.SAMPLES, seed, None, f"q{q}.g{gt}")
                rows.append((q, gt, g, circuits[gt], row))
        rng = random.Random(seed ^ 0x5EED)
        for q, gt, g, circuits, row in rng.sample(rows, min(self.RECHECK_ROWS, len(rows))):
            where = f"q{q}.g{gt}"
            costs = []
            for n, c in enumerate(circuits):
                res = qc.solve_exact(c, g)
                check_plan(c, g, res.cost, res.plan, f"{where} sample {n}")
                check_bound(c, g, res.cost, f"{where} sample {n}", q - 1)
                if q <= 4 and gt <= self.BRUTE_MAX_GATES:
                    check_brute(c, g, res.cost, f"{where} sample {n}")
                costs.append(res.cost)
            check_row(row, q, gt, self.SAMPLES, seed, costs, where)

    def instrument(self, inputs, tracer):
        pairs = [(c, g) for q, gates, g, circuits in inputs["blocks"]
                 for gt in gates for c in circuits[gt]]
        metrics = _level_counts(self.qc, pairs)
        metrics["mapper.alloc_peak_mb"] = _alloc_peak_mb(self.qc, pairs)
        return metrics


WORKLOADS = {w.name: w for w in (SweepLinear, DeviceSolve, DecideMix)}
