import collections
import math
import random

import pytest

from qcmap import (
    Circuit,
    CouplingGraph,
    Placement,
    ResourceLimitError,
    SwapPlan,
    VerificationReport,
    brute_force_g,
    clique,
    cycle,
    grid_square,
    ham_cycle,
    ham_path,
    RandomCircuitSpec,
    gen_random_circuit,
    linear,
    max_clique_at_least,
    shortest_path,
    shortest_path_nodes,
    solve_exact,
    tokyo,
    verify_plan,
)
from qcmap.oracle import _advance

from helpers import random_cnot_circuit, random_connected_graph


def star():
    # one hub, three leaves
    return CouplingGraph(4, [(0, 1), (0, 2), (0, 3)])


def assert_valid_cycle(g, nodes):
    assert sorted(nodes) == list(range(g.num_nodes))
    ring = list(nodes) + [nodes[0]]
    for a, b in zip(ring, ring[1:]):
        assert g.has_edge(a, b)


def assert_valid_path(g, nodes):
    assert sorted(nodes) == list(range(g.num_nodes))
    for a, b in zip(nodes, nodes[1:]):
        assert g.has_edge(a, b)


class TestVerifyPlan:
    def test_accepts_embedded_circuit(self):
        c = Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
        report = verify_plan(c, clique(3), SwapPlan(Placement((0, 1, 2)), ()))
        assert report.accepted
        assert report.swaps_used == 0
        assert report.failure is None

    def test_accepts_two_swap_route(self):
        g = grid_square(4, 4)
        c = Circuit.from_ops(4, [("cx", (0, 3))])
        plan = SwapPlan(Placement((8, 9, 10, 6)), ((6, 10), (9, 10)))
        report = verify_plan(c, g, plan)
        assert report.accepted
        assert report.swaps_used == 2

    def test_swaps_used_is_earliest_finish(self):
        # padding an accepted plan leaves the count where execution finished
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        plan = SwapPlan(Placement((0, 2)), ((0, 1), (1, 2), (0, 1)))
        report = verify_plan(c, linear(3), plan)
        assert report.accepted
        assert report.swaps_used == 1

    def test_swap_through_empty_node(self):
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        report = verify_plan(c, linear(3), SwapPlan(Placement((0, 2)), ((0, 1),)))
        assert report.accepted and report.swaps_used == 1
        assert not report.strict

    def test_strict_reads_only_the_swaps_replayed(self):
        c = Circuit.from_ops(3, [("cx", (0, 2))])
        g = linear(4)
        # Both nodes held: strict.  A SWAP onto the empty node 3 after the
        # circuit finished is never replayed.
        plan = SwapPlan(Placement((0, 1, 2)), ((0, 1), (2, 3)))
        report = verify_plan(c, g, plan)
        assert report.accepted and report.swaps_used == 1 and report.strict
        # A rejected plan reports the SWAPs it replayed too.
        report = verify_plan(c, g, SwapPlan(Placement((0, 1, 2)), ((2, 3),)))
        assert not report.accepted and not report.strict
        report = verify_plan(c, g, SwapPlan(Placement((0, 1, 3)), ()))
        assert not report.accepted and report.strict

    def test_rejects_short_plan(self):
        c = Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
        report = verify_plan(c, linear(3), SwapPlan(Placement((0, 1, 2)), ()))
        assert not report.accepted
        step, reason = report.failure
        assert step == 0
        assert "pending" in reason

    def test_gate_order_respected(self):
        # both gates touch adjacent pairs eventually, but precedence blocks the
        # second until the first has run
        c = Circuit.from_ops(3, [("cx", (0, 2)), ("cx", (0, 1))])
        report = verify_plan(c, linear(3), SwapPlan(Placement((0, 1, 2)), ()))
        assert not report.accepted

    def test_malformed_plans_raise(self):
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        with pytest.raises(ValueError):
            verify_plan(c, linear(3), SwapPlan(Placement((0, 2)), ((0, 2),)))
        with pytest.raises(ValueError):
            verify_plan(c, linear(3), SwapPlan(Placement((0,)), ()))
        with pytest.raises(ValueError):
            verify_plan(c, linear(3), SwapPlan(Placement((0, 5)), ()))

    def test_extension_preserves_acceptance(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randrange(2, 4)
            g = random_connected_graph(rng, rng.randrange(n, 5))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 5))
            plan = solve_exact(c, g).plan
            edge = next(iter(g.sorted_edges))
            longer = SwapPlan(plan.initial, plan.swaps + (edge, edge))
            report = verify_plan(c, g, longer)
            assert report.accepted
            assert report.swaps_used == len(plan.swaps)


def rescan_advance(c, g, pos, executed):
    """The executability rule as first written: for each gate, rescan every
    earlier gate for a pending one on a shared qubit."""
    changed = True
    while changed:
        changed = False
        for gate in c.gates:
            i = gate.index
            if i in executed:
                continue
            mine = set(gate.qubits)
            if any(h.index not in executed and mine & set(h.qubits) for h in c.gates[:i]):
                continue
            if gate.is_two_qubit:
                qa, qb = gate.qubits
                if not g.has_edge(pos[qa], pos[qb]):
                    continue
            executed.add(i)
            changed = True


def rescan_verify(c, g, plan):
    """``verify_plan`` restated on ``rescan_advance``: after every SWAP,
    every gate is rescanned until nothing changes."""
    pos = list(plan.initial.to_physical)
    executed = set()
    rescan_advance(c, g, pos, executed)
    total = len(c.gates)
    if len(executed) == total:
        return VerificationReport(True, 0, None)
    strict = True
    for step, (a, b) in enumerate(plan.swaps, start=1):
        strict = strict and a in pos and b in pos
        pos = [b if p == a else a if p == b else p for p in pos]
        rescan_advance(c, g, pos, executed)
        if len(executed) == total:
            return VerificationReport(True, step, None, strict)
    left = total - len(executed)
    return VerificationReport(
        False, len(plan.swaps),
        (len(plan.swaps), f"{left} gate(s) still pending at end of plan"), strict)


class TestAdvance:
    def test_matches_rescan(self):
        rng = random.Random(89)
        for _ in range(300):
            n = rng.randrange(2, 6)
            g = random_connected_graph(rng, rng.randrange(n, 8), rng.randrange(0, 4))
            c = gen_random_circuit(RandomCircuitSpec(n, rng.randrange(1, 14),
                                                     rng.choice((1.0, 0.7)), rng.randrange(10**6)))
            pos = rng.sample(range(g.num_nodes), n)
            start = {i for i in range(len(c.gates)) if rng.random() < 0.3}
            pending = [i for i in range(len(c.gates)) if i not in start]
            fast = set(range(len(c.gates))) - set(_advance(c, g, pos, pending))
            slow = set(start)
            rescan_advance(c, g, pos, slow)
            assert fast == slow, (c, g, pos, start)

    def test_verify_plan_matches_rescan_replay(self):
        # Seeded random plans, mostly rejected: the one-scan replay, which
        # carries the pending gates from SWAP to SWAP, gives the report
        # of the rescanning replay on each, failure message included.
        rng = random.Random(131)
        graphs = [tokyo(), grid_square(3, 3), linear(5), cycle(6)]
        counts = collections.Counter()
        for _ in range(4000):
            g = rng.choice(graphs)
            n = rng.randrange(2, 6) if rng.random() < 0.95 else rng.randrange(2)
            if n >= 2:
                c = gen_random_circuit(RandomCircuitSpec(
                    n, rng.randrange(1, 18), rng.choice((1.0, 0.7)), rng.randrange(10**6)))
            else:
                c = Circuit.from_ops(n, [("h", (0,))] * n * rng.randrange(3))
            initial = Placement(tuple(rng.sample(range(g.num_nodes), n)))
            swaps = tuple(rng.choice(g.sorted_edges) for _ in range(rng.randrange(0, 5)))
            plan = SwapPlan(initial, swaps)
            report = verify_plan(c, g, plan)
            assert report == rescan_verify(c, g, plan), (c, g, plan)
            used = {q for gate in c.gates for q in gate.qubits}
            counts.update({
                "accepted": report.accepted,
                "rejected": not report.accepted,
                "longer than needed": report.accepted and report.swaps_used < len(swaps),
                "not strict": not report.strict,
                "single-qubit gates": any(len(gate.qubits) == 1 for gate in c.gates),
                "idle qubits": len(used) < n,
                "no qubits": not n,
            })
        assert counts["rejected"] >= 3000, counts
        for kind in ("accepted", "longer than needed", "not strict", "single-qubit gates",
                     "idle qubits", "no qubits"):
            assert counts[kind] >= 50, counts


class TestBruteForce:
    def test_guards(self):
        big_c = random_cnot_circuit(random.Random(1), 5, 3)
        with pytest.raises(ResourceLimitError):
            brute_force_g(big_c, clique(5))
        with pytest.raises(ResourceLimitError):
            brute_force_g(random_cnot_circuit(random.Random(2), 2, 9), linear(3))
        with pytest.raises(ResourceLimitError):
            brute_force_g(random_cnot_circuit(random.Random(3), 2, 2), linear(6))

    def test_guard_override(self):
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        res = brute_force_g(c, linear(6), max_nodes=6)
        assert res.cost == 0

    def test_matches_solver(self):
        rng = random.Random(67)
        for _ in range(25):
            n = rng.randrange(2, 5)
            g = random_connected_graph(rng, rng.randrange(n, 6), rng.randrange(0, 3))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 8))
            expect = brute_force_g(c, g)
            got = solve_exact(c, g)
            assert got.cost == expect.cost
            report = verify_plan(c, g, expect.plan)
            assert report.accepted and report.swaps_used == expect.cost

    def test_matches_solver_strict(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randrange(2, 4)
            g = random_connected_graph(rng, rng.randrange(n, 5))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 6))
            assert (brute_force_g(c, g, strict=True).cost
                    == solve_exact(c, g, strict=True).cost)

    def test_infeasible(self):
        c = random_cnot_circuit(random.Random(4), 3, 2)
        assert brute_force_g(c, linear(2)).cost == math.inf


class TestHamiltonianOracles:
    def test_cycle_found(self):
        for g in (cycle(6), clique(4), grid_square(2, 3)):
            found = ham_cycle(g)
            assert found is not None
            assert_valid_cycle(g, found)

    def test_cycle_absent(self):
        assert ham_cycle(star()) is None
        assert ham_cycle(linear(4)) is None
        # 3x3 grid is bipartite with odd node count: no Hamiltonian cycle
        assert ham_cycle(grid_square(3, 3)) is None

    def test_path_found(self):
        for g in (linear(5), grid_square(3, 3), cycle(5)):
            found = ham_path(g)
            assert found is not None
            assert_valid_path(g, found)

    def test_path_absent(self):
        assert ham_path(star()) is None

    def test_path_with_endpoints(self):
        g = linear(4)
        found = ham_path(g, endpoints=(0, 3))
        assert found is not None
        assert found[0] == 0 and found[-1] == 3
        assert ham_path(g, endpoints=(0, 2)) is None


class TestCliqueOracle:
    def test_thresholds(self):
        assert max_clique_at_least(clique(5), 5)
        assert not max_clique_at_least(cycle(6), 3)
        assert max_clique_at_least(cycle(6), 2)
        assert max_clique_at_least(grid_triangle_like(), 3)

    def test_small_budgets(self):
        assert max_clique_at_least(linear(2), 0)
        assert max_clique_at_least(linear(2), 1)
        assert not max_clique_at_least(clique(4), 5)


def grid_triangle_like():
    return CouplingGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


class TestShortestPath:
    def test_matches_distance(self):
        rng = random.Random(73)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randrange(2, 9), rng.randrange(0, 4))
            for _ in range(5):
                a = rng.randrange(g.num_nodes)
                b = rng.randrange(g.num_nodes)
                assert shortest_path(g, a, b) == g.distance(a, b)

    def test_node_sequence(self):
        g = grid_square(3, 3)
        nodes = shortest_path_nodes(g, 0, 8)
        assert nodes[0] == 0 and nodes[-1] == 8
        assert len(nodes) == g.distance(0, 8) + 1
        for a, b in zip(nodes, nodes[1:]):
            assert g.has_edge(a, b)
