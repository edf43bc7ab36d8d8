"""Acceptance gate: one test per shipped criterion, one pass/fail line each.

Criterion 4 checks the benchmark means against frozen reference columns;
its primary form is an absolute tolerance at three anchor gate counts per
qubit count, and its documented fallback (for a systematic offset from a
differently-distributed reference generator) is Spearman rank correlation
above 0.99 across the full sweep.  Everything else is exact.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g
from scipy.stats import spearmanr

from qcmap import (
    Circuit,
    CouplingGraph,
    Digraph,
    Placement,
    Subcircuit,
    brute_force_g,
    build_topology_graph,
    build_usp_gadget,
    check_fixed_k_instance,
    check_usp_instance,
    circuit_from_degree_bounded_graph,
    circuit_type,
    decide,
    descriptor,
    gen_random_circuit,
    ham_cycle,
    is_smaller,
    max_clique_at_least,
    minimize,
    reduce_clique_to_qcm,
    reduce_hamcycle_to_hampath_qcm,
    reduce_hamcycle_to_qcm,
    reduce_subcircuit,
    restore,
    run_benchmark,
    shortest_path,
    solve_exact,
    verify_plan,
    RandomCircuitSpec,
)

from helpers import (
    all_subcircuit_masks,
    criterion_1_instances,
    criterion_2_instances,
    random_cnot_circuit,
    random_connected_graph,
    random_deg3_connected_graph,
)

# Frozen reference columns: mean swaps added per gate count, for 3- and
# 4-qubit all-CNOT sweeps on a same-size linear graph.
REFERENCE_N3 = dict(zip(range(3, 26), [
    0.063, 0.177, 0.299, 0.461, 0.578, 0.726, 0.901, 1.033, 1.191, 1.318,
    1.466, 1.616, 1.792, 1.930, 2.081, 2.247, 2.379, 2.452, 2.756, 2.769,
    2.929, 3.111, 3.262,
]))
REFERENCE_N4 = dict(zip(range(3, 22), [
    0.111, 0.243, 0.471, 0.687, 1.015, 1.276, 1.568, 1.794, 2.117, 2.406,
    2.691, 2.933, 3.278, 3.604, 3.818, 4.102, 4.390, 4.798, 5.056,
]))

SAMPLES_PER_POINT = 1000
THREADS = os.cpu_count() or 1


def test_criterion_1_solver_matches_reference_search():
    started = time.monotonic()
    checked = 0
    for c, g in criterion_1_instances():
        assert solve_exact(c, g).cost == brute_force_g(c, g).cost
        checked += 1

    elapsed = time.monotonic() - started
    assert elapsed < 600, f"exhaustive sweep too slow: {elapsed:.0f}s"
    # 1589 relabeling classes (1 + 32 + 1556, Burnside: 6^t/6 for n=3, t >= 1)
    # across 6 distinct graphs, plus the 200 random draws
    assert checked == 1589 * 6 + 200


@pytest.fixture(scope="module")
def seeded_instances():
    return criterion_2_instances()


def test_criterion_2_plans_replay_at_claimed_cost(seeded_instances):
    for c, g in seeded_instances:
        res = solve_exact(c, g)
        report = verify_plan(c, g, res.plan)
        assert report.accepted, (c, g)
        assert report.swaps_used == res.cost


def test_criterion_3_cost_within_distance_bound(seeded_instances):
    for c, g in seeded_instances:
        cost = solve_exact(c, g).cost
        assert 0 <= cost <= c.two_qubit_count * (g.diameter - 1 if g.diameter else 0)


def test_criterion_4_benchmark_matches_reference_columns():
    rows3 = run_benchmark(3, sorted(REFERENCE_N3), SAMPLES_PER_POINT, seed=1,
                          threads=THREADS)
    rows4 = run_benchmark(4, sorted(REFERENCE_N4), SAMPLES_PER_POINT, seed=1,
                          threads=THREADS)
    ours3 = {r.gt: r.gt_add for r in rows3}
    ours4 = {r.gt: r.gt_add for r in rows4}

    anchors = [(ours3, REFERENCE_N3, (3, 10, 25), 0.10),
               (ours4, REFERENCE_N4, (3, 10, 21), 0.15)]
    primary_ok = all(
        abs(ours[gt] - ref[gt]) <= tol
        for ours, ref, gts, tol in anchors for gt in gts
    )
    if primary_ok:
        return

    # fallback: identical growth ordering across the whole sweep
    rho3 = spearmanr([ours3[gt] for gt in sorted(ours3)],
                     [REFERENCE_N3[gt] for gt in sorted(ours3)]).statistic
    rho4 = spearmanr([ours4[gt] for gt in sorted(ours4)],
                     [REFERENCE_N4[gt] for gt in sorted(ours4)]).statistic
    detail = (f"anchor means n=3 {[ours3[g] for g in (3, 10, 25)]}, "
              f"n=4 {[ours4[g] for g in (3, 10, 21)]}; spearman {rho3:.4f}/{rho4:.4f}")
    assert rho3 > 0.99 and rho4 > 0.99, detail


def _atlas_coupling_graphs():
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= 6 and nx.is_connected(g):
            yield CouplingGraph(n, list(g.edges()))


def test_criterion_5_reductions_agree_with_oracles():
    graphs = list(_atlas_coupling_graphs())
    assert sum(1 for g in graphs if g.num_nodes >= 3) == 141
    rng = random.Random(55511)
    for _ in range(150):
        graphs.append(random_connected_graph(rng, rng.randrange(3, 9), rng.randrange(0, 5)))
    for _ in range(150):
        graphs.append(random_deg3_connected_graph(rng, rng.randrange(3, 9), rng.randrange(0, 3)))

    for g in graphs:
        has_cycle = ham_cycle(g) is not None if g.num_nodes >= 3 else False
        if g.num_nodes >= 3:
            inst = reduce_hamcycle_to_qcm(g)
            assert decide(inst.circuit, inst.graph, inst.budget) == has_cycle
            if g.max_degree() <= 3:
                inst = reduce_hamcycle_to_hampath_qcm(g)
                assert decide(inst.circuit, inst.graph, inst.budget) == has_cycle
        for k in range(2, 6):
            inst = reduce_clique_to_qcm(g, k)
            assert (decide(inst.circuit, inst.graph, inst.budget)
                    == max_clique_at_least(g, k))


def _random_digraph(rng, m):
    arcs = set()
    order = list(range(m))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        arcs.add((a, b) if rng.random() < 0.7 else (b, a))
    for _ in range(rng.randrange(0, m)):
        a, b = rng.sample(range(m), 2)
        arcs.add((a, b))
    return Digraph.from_arc_list(m, sorted(arcs))


def _reachable(h, s, t):
    seen = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for w in h.out_neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return t in seen


def test_criterion_6_reachability_gadget_structure():
    rng = random.Random(77323)
    for _ in range(50):
        m = rng.randrange(2, 7)
        h = _random_digraph(rng, m)
        s, t = 0, m - 1
        graph, entry, exit_, target = build_usp_gadget(h, s, t)
        assert graph.max_degree() <= 3

        # independent row-distance check against the intended column layout
        cols = [s] + [v for v in range(m) if v not in (s, t)] + [t]
        colof = {v: j for j, v in enumerate(cols)}
        d = h.max_io_degree().bit_length()
        arc_cols = {(colof[a], colof[b]) for a, b in h.arcs}
        want = 2 * d + 2
        for i in range(m - 1):
            for j in range(m):
                for j2 in range(m):
                    allowed = j == j2 or (j, j2) in arc_cols
                    hop = graph.distance(i * m + j, (i + 1) * m + j2)
                    assert allowed == (hop == want)

        assert _reachable(h, s, t) == (graph.distance(entry, exit_) == target)

    # constructive-direction certificates for both swap-budget reductions
    for _ in range(12):
        g = random_deg3_connected_graph(rng, rng.randrange(3, 7))
        s, t = rng.sample(range(g.num_nodes), 2)
        dist = shortest_path(g, s, t)
        report = check_usp_instance(g, s, t, dist)
        assert report is not None and report.swaps_used == max(dist - 1, 0)
        if dist > 1:
            assert check_usp_instance(g, s, t, dist - 1) is None

    hits = 0
    for idx in range(12):
        g = random_deg3_connected_graph(rng, rng.randrange(3, 7))
        k = rng.randrange(1, 3)
        report = check_fixed_k_instance(g, k)
        assert (report is None) == (ham_cycle(g) is None)
        if report is not None:
            assert report.swaps_used == k
            hits += 1
    assert hits > 0


def test_criterion_7_structural_invariants():
    rng = random.Random(40127)

    # reduce: shrinking, idempotent, monotone
    for _ in range(30):
        n = rng.randrange(2, 4)
        c = random_cnot_circuit(rng, n, rng.randrange(1, 7))
        g = random_connected_graph(rng, rng.randrange(n, 6))
        phys = tuple(rng.sample(range(g.num_nodes), n))
        p = Placement(phys)
        masks = all_subcircuit_masks(c)
        a = Subcircuit._from_mask(c, rng.choice(masks))
        b = Subcircuit._from_mask(c, rng.choice(masks))
        ra = reduce_subcircuit(a, p, g)
        assert is_smaller(ra, a)
        assert reduce_subcircuit(ra, p, g) == ra
        if is_smaller(a, b):
            assert is_smaller(ra, reduce_subcircuit(b, p, g))

    # minimize: antichain and coverage
    for _ in range(20):
        c = random_cnot_circuit(rng, 3, rng.randrange(1, 7))
        masks = all_subcircuit_masks(c)
        subs = [Subcircuit._from_mask(c, m)
                for m in rng.sample(masks, min(len(masks), 6))]
        kept = minimize(subs)
        for x, y in itertools.combinations(kept, 2):
            assert not is_smaller(x, y) and not is_smaller(y, x)
        for s in subs:
            assert any(is_smaller(k, s) for k in kept)

    # descriptors: exact bijection over every subcircuit, small scale
    type_universe = {n: _well_formed_types(n) for n in (1, 2, 3)}
    for _ in range(20):
        n = rng.randrange(1, 4)
        t = rng.randrange(0, 7)
        ops = []
        for _ in range(t):
            if n == 1 or rng.random() < 0.3:
                ops.append(("h", (rng.randrange(n),)))
            else:
                a = rng.randrange(n)
                b = rng.randrange(n - 1)
                ops.append(("cx", (a, b + 1 if b >= a else b)))
        c = Circuit.from_ops(n, ops)
        masks = all_subcircuit_masks(c)
        assert len(masks) <= math.factorial(n) * (2 * max(c.depth, 1)) ** n
        seen = set()
        for mask in masks:
            s = Subcircuit._from_mask(c, mask)
            d = descriptor(s)
            assert restore(c, d) == s
            assert d not in seen
            seen.add(d)
            assert circuit_type(s).columns in type_universe[n]

    for n in (1, 2, 3):
        assert len(type_universe[n]) <= math.factorial(n) * 2 ** n

    # depth versus interaction degree, both directions
    for _ in range(10):
        h = random_deg3_connected_graph(rng, rng.randrange(3, 8))
        c = circuit_from_degree_bounded_graph(h, 3)
        assert sorted(build_topology_graph(c).edges) == sorted(h.edges)
        assert c.depth <= 4
    for _ in range(10):
        c = random_cnot_circuit(rng, rng.randrange(2, 6), rng.randrange(1, 9))
        assert build_topology_graph(c).max_degree <= c.depth

    # single-qubit gates never change the answer
    for _ in range(10):
        n = rng.randrange(2, 4)
        g = random_connected_graph(rng, rng.randrange(n, 6))
        c = gen_random_circuit(RandomCircuitSpec(n, rng.randrange(1, 8), 0.6,
                                                 rng.randrange(2 ** 30)))
        stripped = Circuit.from_ops(n, [(x.label, x.qubits)
                                        for x in c.gates if x.is_two_qubit])
        assert solve_exact(c, g).cost == solve_exact(stripped, g).cost

    # relabeling either side never changes the answer, up to 5 nodes
    for _ in range(10):
        n = rng.randrange(2, 4)
        b = rng.randrange(n, 6)
        g = random_connected_graph(rng, b, rng.randrange(0, 3))
        c = random_cnot_circuit(rng, n, rng.randrange(1, 6))
        base = solve_exact(c, g).cost
        node_perm = rng.sample(range(b), b)
        relabeled = CouplingGraph(b, [(node_perm[x], node_perm[y]) for x, y in g.edges])
        assert solve_exact(c, relabeled).cost == base
        qubit_perm = rng.sample(range(n), n)
        permuted = Circuit.from_ops(n, [
            (x.label, tuple(qubit_perm[q] for q in x.qubits)) for x in c.gates
        ])
        assert solve_exact(permuted, g).cost == base


def _well_formed_types(n):
    subsets = []
    for r in range(1, n + 1):
        subsets.extend(frozenset(x) for x in itertools.combinations(range(n), r))
    out = {()}
    stack = [(frozenset(), ())]
    while stack:
        prev, chain = stack.pop()
        for s in subsets:
            if prev < s:
                grown = chain + (s,)
                out.add(grown)
                stack.append((s, grown))
    return out


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "qcmap.cli", *map(str, args)],
                          capture_output=True, text=True)


def test_criterion_8_cli_determinism(tmp_path):
    circuit = tmp_path / "c.qc"
    graph = tmp_path / "g.cg"
    circuit.write_text("qubits 3\ncx 0 1\ncx 1 2\ncx 0 2\ncx 2 1\n")
    graph.write_text("nodes 4\nedge 0 1\nedge 1 2\nedge 2 3\n")

    plans = []
    for name in ("p1.plan", "p2.plan"):
        path = tmp_path / name
        proc = _cli("solve", "--circuit", circuit, "--graph", graph, "--plan", path)
        assert proc.returncode == 0
        plans.append(path.read_bytes())
    assert plans[0] == plans[1]

    csvs = []
    for threads, name in ((1, "a.csv"), (2, "b.csv")):
        path = tmp_path / name
        proc = _cli("bench", "--qubits", 3, "--gates", "3:6", "--samples", 25,
                    "--seed", 7, "--threads", threads, "--out", path)
        assert proc.returncode == 0
        csvs.append(path.read_text())

    def drop_time(text):
        return [line.split(",")[:3] + line.split(",")[4:]
                for line in text.splitlines()]

    assert drop_time(csvs[0]) == drop_time(csvs[1])
