import collections
import hashlib
import itertools
import math
import random
import time

import pytest

from qcmap import (
    DEFAULT_STATE_CAP,
    Circuit,
    CouplingGraph,
    MapResult,
    ParseError,
    Placement,
    RandomCircuitSpec,
    ResourceLimitError,
    SearchState,
    Subcircuit,
    SwapPlan,
    aspen,
    brute_force_g,
    clique,
    cycle,
    decide,
    descriptor,
    format_graph,
    format_plan,
    gen_clique_circuit,
    gen_cycle_circuit,
    gen_path_circuit,
    gen_random_circuit,
    grid_square,
    grid_triangle,
    ham_cycle,
    linear,
    load_plan,
    parse_graph,
    parse_plan,
    reduce_hamcycle_to_hampath_qcm,
    reduce_hamcycle_to_qcm,
    reduce_subcircuit,
    save_plan,
    search_levels,
    solve_exact,
    solve_from,
    tokyo,
    upper_bound,
    verify_plan,
)

from helpers import (
    assert_strict_plan,
    example_circuit,
    generalized_petersen,
    random_cnot_circuit,
    random_connected_graph,
)


def triangle_circuit():
    return Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])


def window_layers(c, g):
    """The gate-order layers L_1, ..., L_{B+1} as gate masks."""
    from qcmap.mapper import _CircuitInfo, _window_bound
    return _window_bound(_CircuitInfo(c), g)


def window_bound(c, g):
    """The search's gate-order lower bound B on every plan's SWAPs."""
    return len(window_layers(c, g)) - 1


def state_window_bound(layers, mask):
    """h_w of a state whose pending gates are ``mask``: the layers after
    the last one that holds a done gate."""
    last = 0
    for i, layer in enumerate(layers, 1):
        if layer & ~mask:
            last = i
    return len(layers) - last


def reads_window_bound(c, g):
    """Whether a free search reads the layers: bucket 0 fails and bucket 1
    yields more seeds than the circuit has gates."""
    from qcmap.mapper import _CircuitInfo, _seeds
    info = _CircuitInfo(c)
    if not info.pairs or any(True for _ in _seeds(info, g, 0)):
        return False
    return len(list(itertools.islice(_seeds(info, g, 1), len(c.gates) + 1))) > len(c.gates)


class TestPlacement:
    def test_injective(self):
        with pytest.raises(ValueError):
            Placement((0, 0))

    def test_apply_swap(self):
        p = Placement((0, 2))
        assert p.apply_swap(0, 1).to_physical == (1, 2)
        # swapping with an empty node moves the occupant over
        assert p.apply_swap(2, 3).to_physical == (0, 3)
        assert p.apply_swap(3, 4) == p

    def test_occupants(self):
        assert Placement((2, 0)).occupants(3) == (1, None, 0)

    def test_check_against(self):
        with pytest.raises(ValueError):
            Placement((0, 1)).check_against(triangle_circuit(), linear(3))
        with pytest.raises(ValueError):
            Placement((0, 1, 5)).check_against(triangle_circuit(), linear(3))


class TestUpperBound:
    def test_worked_example(self):
        # 4 two-qubit gates, diameter 3: 4 * 2
        assert upper_bound(example_circuit(), linear(4)) == 8

    def test_clique_target_is_free(self):
        assert upper_bound(example_circuit(), clique(4)) == 0

    def test_no_interactions(self):
        c = Circuit.from_ops(3, [("h", (0,)), ("t", (2,))])
        assert upper_bound(c, linear(3)) == 0

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            upper_bound(triangle_circuit(), linear(2))


class TestSolveExact:
    def test_clique_circuit_on_clique(self):
        res = solve_exact(gen_clique_circuit(5), clique(5))
        assert res.cost == 0
        assert res.plan is not None and len(res.plan) == 0

    def test_triangle_on_path_needs_one(self):
        res = solve_exact(triangle_circuit(), linear(3))
        assert res.cost == 1

    def test_cycle_circuit_on_ring(self):
        assert solve_exact(gen_cycle_circuit(5), cycle(5)).cost == 0

    def test_infeasible(self):
        res = solve_exact(triangle_circuit(), linear(2))
        assert res.cost == math.inf
        assert res.plan is None
        assert not res.feasible

    def test_empty_circuit(self):
        res = solve_exact(Circuit.from_ops(2, []), linear(3))
        assert res.cost == 0

    def test_plans_verify_at_cost(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randrange(2, 5)
            g = random_connected_graph(rng, rng.randrange(n, 6), rng.randrange(0, 3))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 7))
            res = solve_exact(c, g)
            report = verify_plan(c, g, res.plan)
            assert report.accepted
            assert report.swaps_used == res.cost

    def test_cost_bounds(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randrange(2, 5)
            g = random_connected_graph(rng, rng.randrange(n, 6))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 6))
            cost = solve_exact(c, g).cost
            assert 0 <= cost <= upper_bound(c, g)

    def test_state_cap(self):
        with pytest.raises(ResourceLimitError):
            solve_exact(triangle_circuit(), linear(3), state_cap=1)
        # The cap trips inside the search, in bucket 3 of this instance
        # (at 1,000 it trips while bucket 2 is still being seeded).
        c = gen_random_circuit(RandomCircuitSpec(6, 15, 1.0, 1))
        with pytest.raises(ResourceLimitError, match="at level 1"):
            solve_exact(c, aspen(), state_cap=2_000)
        with pytest.raises(ResourceLimitError, match="in bucket 2 at level 0"):
            solve_exact(c, aspen(), state_cap=1_000)

    def test_optimum_bucket_stops_at_its_first_finished_state(self):
        # A bucket is swept one state at a time, deepest level first, so
        # the bucket that holds the optimum passes a state's children
        # before its siblings.  Passing a whole level before any child
        # records about 66k states here; one at a time, about 16k.
        c = gen_random_circuit(RandomCircuitSpec(5, 15, 1.0, 27))
        g = tokyo()
        res = solve_exact(c, g, state_cap=20_000)
        assert res.cost == 2
        report = verify_plan(c, g, res.plan)
        assert report.accepted and report.swaps_used == 2

    def test_nothing_above_the_optimum_is_recorded(self):
        # Only children in the bucket being swept are built, so the
        # optimum of this instance is proved with about 26k records; a
        # search that records every child it generates needs about 116k.
        c = gen_random_circuit(RandomCircuitSpec(6, 15, 1.0, 1))
        g = aspen()
        res = solve_exact(c, g, state_cap=40_000)
        assert res.cost == 4
        report = verify_plan(c, g, res.plan)
        assert report.accepted and report.swaps_used == 4
        assert decide(c, g, 4, state_cap=40_000)
        assert not decide(c, g, 3, state_cap=40_000)

    def test_state_cap_counts_the_distance_table(self):
        # The graph's n**2 distance table is refused before it is built.
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        g = linear(40)
        for run in (lambda cap: solve_exact(c, g, state_cap=cap),
                    lambda cap: decide(c, g, 0, state_cap=cap),
                    lambda cap: solve_from(c, g, Placement((0, 1)), state_cap=cap)):
            with pytest.raises(ResourceLimitError, match="distance table"):
                run(1599)
            assert "distances" not in vars(g)
        assert solve_exact(c, g, state_cap=1600).cost == 0

    def test_state_cap_below_one_rejected(self):
        for cap in (0, -3):
            with pytest.raises(ValueError, match="state_cap"):
                solve_exact(triangle_circuit(), linear(3), state_cap=cap)
            with pytest.raises(ValueError, match="state_cap"):
                decide(triangle_circuit(), linear(3), 1, state_cap=cap)
            with pytest.raises(ValueError, match="state_cap"):
                solve_from(triangle_circuit(), linear(3), Placement((0, 1, 2)), state_cap=cap)

    def test_five_qubits_optimum_two_on_tokyo_within_a_quarter_cap(self):
        # Proving the optimum exhausts bucket 1, whose seeds mostly run no
        # gate: with them skipped and their children dropped, a quarter of
        # the default cap is enough (it used to need 524k-1M states).
        c = gen_random_circuit(RandomCircuitSpec(5, 15, 1.0, 27))
        g = tokyo()
        res = solve_exact(c, g, state_cap=262_144)
        assert res.cost == 2
        report = verify_plan(c, g, res.plan)
        assert report.accepted and report.swaps_used == 2

    def test_state_cap_counts_retained_states_not_placements(self):
        # tokyo() has P(20, 5) = 1.86M placements, more than the default
        # cap; only placements within the bound are seeded and retained.
        c = gen_random_circuit(RandomCircuitSpec(5, 12, 1.0, 4))
        g = tokyo()
        res = solve_exact(c, g)
        assert res.cost == 1
        report = verify_plan(c, g, res.plan)
        assert report.accepted and report.swaps_used == 1


class TestSolveFrom:
    def test_matches_figure_scenario(self):
        # one interaction, operands three hops apart on a 4x4 lattice
        g = grid_square(4, 4)
        c = Circuit.from_ops(4, [("cx", (0, 3))])
        p0 = Placement((8, 9, 10, 6))
        assert g.distance(8, 6) == 3
        assert solve_from(c, g, p0).cost == 2

    def test_zero_when_already_adjacent(self):
        g = grid_square(4, 4)
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        assert solve_from(c, g, Placement((5, 6))).cost == 0

    def test_solve_exact_is_min_over_starts(self):
        c = triangle_circuit()
        g = linear(4)
        best = min(solve_from(c, g, Placement(p)).cost
                   for p in itertools.permutations(range(4), 3))
        assert solve_exact(c, g).cost == best == 1

    def test_plan_starts_at_given_placement(self):
        c = triangle_circuit()
        p0 = Placement((0, 1, 2))
        res = solve_from(c, linear(3), p0)
        assert res.plan.initial == p0
        assert verify_plan(c, linear(3), res.plan).accepted


class TestStrictMode:
    def test_strict_never_cheaper(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randrange(2, 4)
            g = random_connected_graph(rng, rng.randrange(n, 6))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 5))
            assert solve_exact(c, g, strict=True).cost >= solve_exact(c, g).cost

    def test_strict_equals_plain_when_saturated(self):
        # every node occupied: each swap touches two qubits either way
        c = triangle_circuit()
        assert solve_exact(c, linear(3), strict=True).cost == solve_exact(c, linear(3)).cost

    def test_strict_fixed_start_can_be_stuck(self):
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        stuck = solve_from(c, linear(3), Placement((0, 2)), strict=True)
        assert stuck.cost == math.inf
        assert solve_from(c, linear(3), Placement((0, 2))).cost == 1


class TestDecide:
    def test_embedding_budget_zero(self):
        assert decide(gen_clique_circuit(5), clique(5), 0)
        assert not decide(triangle_circuit(), linear(3), 0)
        assert decide(triangle_circuit(), linear(3), 1)

    def test_monotone_in_budget(self):
        c = random_cnot_circuit(random.Random(37), 4, 6)
        g = linear(4)
        answers = [decide(c, g, k) for k in range(upper_bound(c, g) + 1)]
        assert answers[-1] is True
        for prev, cur in zip(answers, answers[1:]):
            assert not (prev and not cur)

    def test_agrees_with_solver(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randrange(2, 4)
            g = random_connected_graph(rng, rng.randrange(n, 5))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 6))
            cost = solve_exact(c, g).cost
            assert decide(c, g, cost)
            if cost > 0:
                assert not decide(c, g, cost - 1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            decide(triangle_circuit(), linear(3), -1)

    def test_infeasible_is_no(self):
        assert not decide(triangle_circuit(), linear(2), 99)


class TestNodeSymmetries:
    """The search seeds one placement per orbit of the graph's own
    automorphisms; it must agree with the unfiltered fixed-start searches
    over every placement."""

    @staticmethod
    def best_start(c, g, strict=False):
        return min(solve_from(c, g, Placement(p), strict=strict).cost
                   for p in itertools.permutations(range(g.num_nodes), c.num_qubits))

    def test_pruned_solve_matches(self):
        rng = random.Random(43)
        for _ in range(6):
            c = random_cnot_circuit(rng, 3, rng.randrange(1, 6))
            assert solve_exact(c, cycle(4)).cost == self.best_start(c, cycle(4)), c

    def test_pruned_decide_matches(self):
        c = triangle_circuit()
        best = self.best_start(c, cycle(4))
        assert best == 1
        for k in range(3):
            assert decide(c, cycle(4), k) == (k >= best)

    def test_automorphism_groups_keep_optima(self):
        cases = [(cycle(4), 3), (grid_square(3, 3), 3)]
        rng = random.Random(61)
        for g, qubits in cases:
            assert g.automorphisms
            for _ in range(4):
                c = random_cnot_circuit(rng, qubits, rng.randrange(2, 8))
                cost = self.best_start(c, g)
                assert solve_exact(c, g).cost == cost, (g, c)
                assert decide(c, g, cost), (g, c)
                if cost > 0:
                    assert not decide(c, g, cost - 1), (g, c)


class TestSeedOrbitFilter:
    """Free seeds, in every bucket, are filtered by the graph's own
    automorphisms; solve_from has a fixed start and is never filtered.
    Nor is it pruned by seed dominance (``TestSeedDominance``), which the
    free search applies too."""

    GRAPHS = [cycle(5), grid_square(2, 3), grid_square(3, 3), linear(5)]
    # 4 qubits only where the fixed starts number a few hundred.
    SIZES = [*((g, 3) for g in GRAPHS), (cycle(6), 3), (grid_square(2, 3), 4), (linear(5), 4)]

    def test_matches_min_over_fixed_starts(self):
        rng = random.Random(67)
        for g, qubits in self.SIZES:
            assert g.automorphisms
            starts = [Placement(p)
                      for p in itertools.permutations(range(g.num_nodes), qubits)]
            for _ in range(3):  # optima 0-3
                c = gen_random_circuit(RandomCircuitSpec(qubits, rng.randrange(8, 15), 1.0,
                                                         rng.randrange(1000)))
                for strict in (False, True):
                    where = (g, c, strict)
                    res = solve_exact(c, g, strict=strict)
                    assert res.cost == min(solve_from(c, g, p, strict=strict).cost
                                           for p in starts), where
                    if not res.feasible:
                        continue
                    report = verify_plan(c, g, res.plan)
                    assert report.accepted and report.swaps_used == res.cost, where
                    if strict:
                        assert_strict_plan(res.plan)
                    assert decide(c, g, res.cost, strict=strict), where
                    if res.cost > 0:
                        assert not decide(c, g, res.cost - 1, strict=strict), where

    @staticmethod
    def every_seed(info, g, qubits):
        """The unfiltered seeds, per bucket: every placement, keyed by h."""
        buckets = {}
        for p in itertools.permutations(range(g.num_nodes), qubits):
            h = max((g.distances[p[a]][p[b]] for a, b in info.pairs), default=1) - 1
            buckets.setdefault(h, set()).add(p)
        return buckets

    @classmethod
    def seeds_that_run_a_gate(cls, c, info, g):
        """``every_seed`` less the placements that run no gate of ``c``,
        those on which the full circuit reduces to itself."""
        full = Subcircuit.full(c)
        return {h: {p for p in ps if reduce_subcircuit(full, Placement(p), g) != full}
                for h, ps in cls.every_seed(info, g, c.num_qubits).items()}

    def test_every_orbit_keeps_a_seed(self):
        # Closing the filtered seeds of each bucket under the group gives
        # back every placement of that bucket that runs a gate.  Each group
        # here is complete.
        from qcmap.mapper import _CircuitInfo, _seeds
        rng = random.Random(73)
        for g in [*self.GRAPHS, aspen()]:
            group = [tuple(range(g.num_nodes)), *g.automorphisms]
            for qubits in (3, 4):
                c = gen_random_circuit(RandomCircuitSpec(qubits, 8, 1.0, rng.randrange(1000)))
                info = _CircuitInfo(c)
                buckets = self.seeds_that_run_a_gate(c, info, g)
                for k in range(g.diameter):
                    every = buckets.get(k, set())
                    kept = set(_seeds(info, g, k))
                    assert kept <= every, (g, c, k)
                    orbits = {tuple(p[x] for x in s) for s in kept for p in group}
                    assert orbits == every, (g, c, k)
                    if every:
                        assert len(kept) < len(every), (g, c, k)

    def test_complete_group_keeps_one_seed_per_orbit(self):
        # The converse of test_every_orbit_keeps_a_seed: with the whole
        # group as the filter, no two kept seeds share an orbit.
        from qcmap.mapper import _CircuitInfo, _seeds
        rng = random.Random(79)
        for g in [cycle(5), cycle(6), grid_square(2, 3), grid_square(3, 3), linear(5), aspen()]:
            group = {tuple(range(g.num_nodes)), *g.automorphisms}
            assert {tuple(p[x] for x in q) for p in group for q in group} == group, g
            for qubits in (3, 4):
                c = gen_random_circuit(RandomCircuitSpec(qubits, 8, 1.0, rng.randrange(1000)))
                info = _CircuitInfo(c)
                buckets = self.seeds_that_run_a_gate(c, info, g)
                for k in range(g.diameter):
                    every = buckets.get(k, set())
                    orbits = {frozenset(tuple(p[x] for x in s) for p in group) for s in every}
                    kept = list(_seeds(info, g, k))
                    kept_orbits = {frozenset(tuple(p[x] for x in s) for p in group)
                                   for s in kept}
                    assert len(kept) == len(kept_orbits) == len(orbits), (g, c, k)

    def test_budget_zero_decide_computes_the_group(self):
        # K(2,3) has no odd cycle and passes the Hall count on the grid, but
        # no two grid nodes share three neighbours: only the backtrack,
        # which reads the group, refutes it.
        g = grid_square(3, 3)
        c = Circuit.from_ops(5, [("cx", (a, b)) for a in (0, 1) for b in (2, 3, 4)])
        assert "automorphisms" not in vars(g)
        assert not decide(c, g, 0)
        assert "automorphisms" in vars(g)
        assert solve_exact(c, g).cost == 1

    def test_truncated_group_keeps_bucket_zero_exact(self):
        # Cliques and stars have groups far above 2 * num_nodes elements,
        # so the filter reads a subset; relabelling the nodes changes which
        # subset.  Budget 0 must still find an embedding whenever one exists.
        def star(leaves):
            return CouplingGraph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])

        k33 = CouplingGraph(6, [(a, b) for a in range(3) for b in range(3, 6)])
        rng = random.Random(97)
        graphs = []
        for g in (clique(5), star(13), k33, star(9)):
            perm = rng.sample(range(g.num_nodes), g.num_nodes)
            graphs += [g, CouplingGraph(g.num_nodes, [(perm[a], perm[b]) for a, b in g.edges])]
        answers = []
        for g in graphs:
            assert len(g.automorphisms) == 2 * g.num_nodes, g
            for _ in range(12):
                qubits = rng.randrange(3, 5 if g.num_nodes > 10 else 6)
                c = random_cnot_circuit(rng, qubits, rng.randrange(2, 6))
                # Idle qubits fit on any free node, so only the others are placed.
                active = sorted({q for gate in c.gates for q in gate.qubits})
                pairs = {(active.index(a), active.index(b)) for a, b in
                         (gate.qubits for gate in c.gates)}
                dist = g.distances
                embeds = any(all(dist[p[a]][p[b]] == 1 for a, b in pairs)
                             for p in itertools.permutations(range(g.num_nodes), len(active)))
                for strict in (False, True):
                    assert decide(c, g, 0, strict=strict) == embeds, (g, c, strict)
                answers.append(embeds)
        assert 20 <= answers.count(False) <= len(answers) - 20

    def test_huge_star_group_is_bounded(self):
        # A 299-leaf star: the whole group has 299! elements.
        c = triangle_circuit()
        for ask, want in ((lambda g: solve_exact(c, g).cost, 1),
                          (lambda g: decide(c, g, 0), False)):
            g = CouplingGraph(300, [(0, leaf) for leaf in range(1, 300)])
            t0 = time.perf_counter()
            assert ask(g) == want
            assert time.perf_counter() - t0 < 5.0
            assert len(g.automorphisms) <= 600

    def test_fixed_start_never_computes_the_group(self):
        g = cycle(5)
        c = gen_random_circuit(RandomCircuitSpec(3, 8, 1.0, 3))
        assert solve_from(c, g, Placement((0, 2, 4))).cost == 4  # buckets 1-4 seeded
        assert "automorphisms" not in vars(g)

    def test_fixed_start_is_its_own_buckets_one_seed(self):
        # Unfiltered: neither the orbit filter nor the no-gate rule drops it.
        from qcmap.mapper import _CircuitInfo, _seeds
        g = cycle(5)
        c = gen_random_circuit(RandomCircuitSpec(3, 8, 1.0, 3))
        info = _CircuitInfo(c)
        full = Subcircuit.full(c)
        idle, non_leader = 0, 0
        for p in itertools.permutations(range(g.num_nodes), 3):
            h = max(g.distances[p[a]][p[b]] for a, b in info.pairs) - 1
            for k in range(g.diameter):
                assert list(_seeds(info, g, k, p)) == ([p] if k == h else []), (p, k)
            idle += reduce_subcircuit(full, Placement(p), g) == full
            non_leader += p not in set(_seeds(info, g, h))
        assert idle and non_leader, (idle, non_leader)


class TestHallCount:
    """``_seeds`` refutes bucket k before its backtrack when the qubits'
    degrees fail Hall's condition on the room sets of k+1 hops: the c-th
    largest degree needs room on at least c nodes.  The count is restated
    here from the circuit's gates and the distance table, and checked
    against placements enumerated with ``itertools.permutations``."""

    @staticmethod
    def refutes(c, g, k):
        partners = [set() for _ in range(c.num_qubits)]
        for gate in c.gates:
            if len(gate.qubits) == 2:
                a, b = gate.qubits
                partners[a].add(b)
                partners[b].add(a)
        near = [sum(1 for d in row if 0 < d <= k + 1) for row in g.distances]
        degrees = sorted((len(p) for p in partners), reverse=True)
        return any(sum(1 for m in near if m >= d) < i for i, d in enumerate(degrees, 1))

    @staticmethod
    def cases():
        """Small circuits on a path, a star, a ring with a pendant node and
        the Petersen graph: seeded random ones, and path, cycle and clique
        circuits, which the count refutes on some of them."""
        star = CouplingGraph(7, [(0, leaf) for leaf in range(1, 7)])
        ring_pendant = CouplingGraph(7, [*cycle(6).edges, (0, 6)])
        rng = random.Random(101)
        for g, most in ((linear(5), 5), (star, 6), (ring_pendant, 7),
                        (generalized_petersen(5, 2), 5)):
            for qubits in range(3, most + 1):
                yield g, gen_path_circuit(qubits)
                yield g, gen_cycle_circuit(qubits)
                if qubits <= 5:
                    yield g, gen_clique_circuit(qubits)
                    yield g, random_cnot_circuit(rng, qubits, rng.randrange(3, 8))

    def test_budget_zero_matches_every_placement(self):
        cases = list(self.cases())
        counted = answers = 0
        for g, c in cases:
            pairs = {tuple(gate.qubits) for gate in c.gates if len(gate.qubits) == 2}
            embeds = any(all(g.has_edge(p[a], p[b]) for a, b in pairs)
                         for p in itertools.permutations(range(g.num_nodes), c.num_qubits))
            for strict in (False, True):
                assert decide(c, g, 0, strict=strict) == embeds, (g, c, strict)
            counted += self.refutes(c, g, 0)
            answers += embeds
        # The count refutes some "no" instances, and the backtrack others.
        assert 0 < counted < len(cases) - answers, (counted, answers, len(cases))

    def test_refuted_buckets_hold_no_placement(self):
        from qcmap.mapper import _CircuitInfo, _seeds
        refuted = 0
        for g, c in self.cases():
            info = _CircuitInfo(c)
            every = None
            for k in range(g.diameter):
                if not self.refutes(c, g, k):
                    continue
                refuted += 1
                if every is None:
                    every = TestSeedOrbitFilter.every_seed(info, g, c.num_qubits)
                assert not every.get(k), (g, c, k)
                assert not list(_seeds(info, g, k)), (g, c, k)
        assert refuted >= 20, refuted

    def test_refuted_bucket_never_backtracks(self, monkeypatch):
        # The count comes first, on room sets grown from the adjacency
        # masks, and seeding reads those sets alone: a decide whose buckets
        # up to its budget the count all refutes builds neither the
        # distance table, its diameter nor the group, nor the backtrack's
        # qubit order.  One that the count passes builds the table, the
        # group and the order.  On a path a qubit of degree 5 fits within
        # neither 1 nor 2 hops, and one of degree 3 fits within 2 only.
        from qcmap.mapper import _CircuitInfo
        orders = []
        backtrack = _CircuitInfo.backtrack

        def recorded(info):
            orders.append(info)
            return backtrack.__get__(info, _CircuitInfo)

        monkeypatch.setattr(_CircuitInfo, "backtrack", property(recorded))
        ring_pendant = format_graph(CouplingGraph(7, [*cycle(6).edges, (0, 6)]))
        path = format_graph(linear(40))
        for text, c, budget, refuted, fits in (
                (ring_pendant, gen_cycle_circuit(7), 0, True, False),
                (ring_pendant, gen_path_circuit(7), 0, False, True),
                (path, gen_clique_circuit(6), 1, True, False),
                (path, gen_clique_circuit(4), 1, False, False)):
            assert self.refutes(c, parse_graph(text), budget) == refuted
            assert all(self.refutes(c, parse_graph(text), k) for k in range(budget))
            g = parse_graph(text)
            orders.clear()
            assert decide(c, g, budget) == fits
            built = {"distances", "diameter", "automorphisms"} & set(vars(g))
            if refuted:
                assert not built and not orders, (built, orders)
            else:
                assert built == {"distances", "automorphisms"} and orders, (built, orders)

    def test_count_leaves_exhaustive_refutation(self):
        # Cubic sources with no Hamiltonian cycle: enough nodes have room
        # for every qubit's degree, so the count passes and only the
        # backtrack says "no".
        petersen, gp11 = generalized_petersen(5, 2), generalized_petersen(11, 2)
        for source, reduce in ((petersen, reduce_hamcycle_to_qcm),
                               (petersen, reduce_hamcycle_to_hampath_qcm),
                               (gp11, reduce_hamcycle_to_qcm)):
            inst = reduce(source)
            assert not self.refutes(inst.circuit, inst.graph, 0), (source, reduce)
            assert not decide(inst.circuit, inst.graph, 0), (source, reduce)
            assert ham_cycle(source) is None, source


class TestOddCycleRefutation:
    """On a bipartite graph ``_seeds`` refutes bucket 0 of an interaction
    topology with an odd cycle right after the Hall count, so such a
    budget-0 ``decide`` builds neither the distance table nor the group,
    nor the backtrack's qubit order."""

    @staticmethod
    def odd_cycle(c):
        """Whether two-colouring the interaction topology fails."""
        partners = collections.defaultdict(set)
        for gate in c.gates:
            if len(gate.qubits) == 2:
                a, b = gate.qubits
                partners[a].add(b)
                partners[b].add(a)
        side = {}
        for q in partners:
            if q in side:
                continue
            side[q] = 0
            todo = [q]
            while todo:
                x = todo.pop()
                for y in partners[x]:
                    if y not in side:
                        side[y] = 1 - side[x]
                        todo.append(y)
                    elif side[y] == side[x]:
                        return True
        return False

    def test_odd_cycle_refutes_before_any_table(self, monkeypatch):
        from qcmap.mapper import _CircuitInfo
        orders = []
        backtrack = _CircuitInfo.backtrack

        def recorded(info):
            orders.append(info)
            return backtrack.__get__(info, _CircuitInfo)

        monkeypatch.setattr(_CircuitInfo, "backtrack", property(recorded))
        rng = random.Random(137)
        for g in (grid_square(3, 3), aspen(), cycle(6), linear(6)):
            assert g.is_bipartite()
            text = format_graph(g)
            most = 4 if g.num_nodes > 9 else 5  # keeps the permutations few
            circuits = [gen_cycle_circuit(q) for q in range(3, most + 1)]
            circuits += [gen_path_circuit(most),
                         Circuit.from_ops(4, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2)),
                                              ("h", (3,)), ("cx", (2, 3))]),
                         Circuit.from_ops(4, [("cx", (0, 1)), ("h", (3,)), ("cx", (1, 2)),
                                              ("cx", (0, 2))])]
            circuits += [random_cnot_circuit(rng, rng.randrange(3, most + 1), rng.randrange(3, 8))
                         for _ in range(12)]
            refuted = 0
            for c in circuits:
                pairs = {tuple(gate.qubits) for gate in c.gates if len(gate.qubits) == 2}
                embeds = any(all(g.has_edge(p[a], p[b]) for a, b in pairs)
                             for p in itertools.permutations(range(g.num_nodes), c.num_qubits))
                for strict in (False, True):
                    assert decide(c, parse_graph(text), 0, strict=strict) == embeds, (g, c)
                if not self.odd_cycle(c) or TestHallCount.refutes(c, g, 0):
                    continue
                assert not embeds
                fresh = parse_graph(text)
                orders.clear()
                assert not decide(c, fresh, 0)
                built = {"distances", "diameter", "automorphisms"} & set(vars(fresh))
                assert not built and not orders, (g, c, built)
                refuted += 1
            assert refuted >= 3, (g, refuted)


class TestCircuitInfo:
    def test_pair_masks_match_a_scan_of_the_gates(self):
        # Per distinct operand pair, in order of first use and whatever the
        # operand order, the bitmask of the gates on it; single-qubit gates
        # are on no pair.
        from qcmap.mapper import _CircuitInfo
        rng = random.Random(2202)
        circuits = [
            Circuit(0, []),
            Circuit.from_ops(2, []),
            Circuit.from_ops(3, [("h", (1,)), ("t", (2,))]),
        ]
        for _ in range(80):
            qubits = rng.randrange(2, 6)
            ops = []
            for _ in range(rng.randrange(0, 25)):
                if rng.random() < 0.25:
                    ops.append(("h", (rng.randrange(qubits),)))
                else:
                    ops.append(("cx", tuple(rng.sample(range(qubits), 2))))
            circuits.append(Circuit.from_ops(qubits, ops))
        repeated = 0
        for c in circuits:
            info = _CircuitInfo(c)
            gates_of: dict[tuple[int, int], list[int]] = {}
            for i, g in enumerate(c.gates):
                if len(g.qubits) == 2:
                    gates_of.setdefault(tuple(sorted(g.qubits)), []).append(i)
            assert info.pairs == list(gates_of), c
            assert info.pair_gates == tuple(sum(1 << i for i in gs) for gs in gates_of.values()), c
            repeated += any(len({c.gates[i].qubits for i in gs}) == 2 for gs in gates_of.values())
        assert repeated >= 40, repeated

    def test_pair_masks_of_a_small_circuit(self):
        from qcmap.mapper import _CircuitInfo
        c = Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 0)), ("h", (0,)), ("cx", (2, 1)),
                                 ("cx", (0, 1))])
        info = _CircuitInfo(c)
        assert info.pairs == [(0, 1), (1, 2)]
        assert info.pair_gates == (0b10011, 0b01000)
        assert _CircuitInfo(Circuit(0, [])).pair_gates == ()


class TestSeedDominance:
    """A search over all placements drops every state equal to the seed
    state of its own placement (the full circuit reduced there) and never
    builds a seed that runs no gate; fixed starts keep both.  Its optima
    are checked against every fixed start in ``TestSeedOrbitFilter``."""

    @staticmethod
    def seed_state(c, placement, g):
        return reduce_subcircuit(Subcircuit.full(c), placement, g)

    def test_plan_never_passes_a_seed_state(self):
        rng = random.Random(89)
        for g in [grid_square(2, 3), cycle(6), linear(5), grid_square(3, 3), tokyo()]:
            for _ in range(4):
                c = gen_random_circuit(RandomCircuitSpec(
                    rng.randrange(3, 5), rng.randrange(6, 14), 1.0, rng.randrange(1000)))
                for strict in (False, True):
                    res = solve_exact(c, g, strict=strict)
                    placement = res.plan.initial
                    pending = self.seed_state(c, placement, g)
                    for a, b in res.plan.swaps:
                        placement = placement.apply_swap(a, b)
                        pending = reduce_subcircuit(pending, placement, g)
                        assert pending != self.seed_state(c, placement, g), (g, c, strict)
                    assert pending.is_empty

    def test_seeds_all_run_a_gate(self):
        # With every front gate two-qubit, a placement whose front pairs are
        # all apart runs no gate; the backtrack never yields one.  A front
        # gate on one qubit, or an empty circuit, keeps every placement.
        from qcmap.mapper import _CircuitInfo, _seeds
        rng = random.Random(83)
        dropped = 0
        for g in [cycle(5), linear(5), grid_square(2, 3), tokyo()]:
            for qubits in (2, 3, 4):
                c = gen_random_circuit(RandomCircuitSpec(qubits, 6, 1.0, rng.randrange(1000)))
                info = _CircuitInfo(c)
                full = Subcircuit.full(c)
                every = TestSeedOrbitFilter.every_seed(info, g, qubits)
                for k in range(g.diameter):
                    assert all(reduce_subcircuit(full, Placement(p), g) != full
                               for p in _seeds(info, g, k)), (g, c, k)
                    dropped += any(reduce_subcircuit(full, Placement(p), g) == full
                                   for p in every.get(k, ()))
        assert dropped >= 10, dropped
        g = linear(5)
        for c in (Circuit.from_ops(3, [("h", (2,)), ("cx", (0, 1)), ("cx", (1, 2))]),
                  Circuit.from_ops(3, [])):
            info = _CircuitInfo(c)
            every = TestSeedOrbitFilter.every_seed(info, g, 3)
            group = [tuple(range(g.num_nodes)), *g.automorphisms]
            for k in range(g.diameter if info.pairs else 1):
                kept = set(_seeds(info, g, k))
                assert {tuple(a[x] for x in s) for s in kept for a in group} == every.get(k, set())

    def test_free_frontiers_hold_no_seed_state(self):
        from qcmap.mapper import _solve
        g = grid_square(3, 3)
        checked = {}
        # Optimum 4 at a gate-order bound of 3, and optimum 3 at a bound of
        # 2: each search starts at its bound and lifts hundreds of states by
        # h_w into the optimum's bucket, where they are passed.
        for c in (gen_random_circuit(RandomCircuitSpec(5, 15, 1.0, 399253)),
                  gen_random_circuit(RandomCircuitSpec(5, 14, 1.0, 3))):
            full = (1 << len(c.gates)) - 1
            for strict in (False, True):
                seen = []
                _solve(c, g, strict=strict, budget=None, state_cap=DEFAULT_STATE_CAP,
                       on_level=lambda k, level, phys, mask: seen.append((level, phys, mask)))
                assert len(seen) > 10
                for level, phys, mask in seen:
                    seed = self.seed_state(c, Placement(phys), g)
                    if level == 0:
                        assert mask == seed.mask != full, (strict, phys)
                    else:
                        assert mask != seed.mask, (strict, level, phys)
                checked[strict] = checked.get(strict, 0) + len(seen)
        assert min(checked.values()) > 100, checked

    def test_fixed_start_keeps_seed_states(self):
        # One gate, operands three hops apart: the start runs no gate, and
        # each child is the seed state of its own placement.
        g = linear(4)
        c = Circuit.from_ops(2, [("cx", (0, 1))])
        p0 = Placement((0, 3))
        assert self.seed_state(c, p0, g) == Subcircuit.full(c)
        assert solve_from(c, g, p0).cost == 2
        levels = search_levels(c, g, p0)
        assert levels[0] == [SearchState(p0, (descriptor(Subcircuit.full(c)),))]
        assert any(d == descriptor(self.seed_state(c, s.placement, g))
                   for frontier in levels[1:] for s in frontier for d in s.fragments)
        # Strict: four qubits fill the path, so the start runs no gate.
        c4 = Circuit.from_ops(4, [("cx", (0, 3))])
        assert solve_from(c4, g, Placement.identity(4), strict=True).cost == 2
        assert solve_exact(c4, g, strict=True).cost == 0

    def test_free_search_never_reports_the_full_circuit(self):
        # A fragment that is the whole circuit is the seed state of its
        # placement: a seed that runs no gate, or a child of one.
        c = gen_random_circuit(RandomCircuitSpec(3, 8, 1.0, 3))
        g = cycle(5)
        full = descriptor(Subcircuit.full(c))
        assert any(self.seed_state(c, Placement(p), g) == Subcircuit.full(c)
                   for p in itertools.permutations(range(5), 3))
        assert all(full not in s.fragments for frontier in search_levels(c, g)
                   for s in frontier)

    def test_empty_circuit_seed_is_kept(self):
        # The empty circuit runs no gate, yet its seed has finished.
        for strict in (False, True):
            c = Circuit.from_ops(2, [])
            res = solve_exact(c, linear(3), strict=strict)
            assert res.cost == 0 and verify_plan(c, linear(3), res.plan).accepted
            assert decide(c, linear(3), 0, strict=strict)
            (frontier,) = search_levels(c, linear(3), strict=strict)
            assert frontier[0].fragments == (descriptor(Subcircuit.full(c)),)


class TestLowerBound:
    """Every state is passed in bucket f = level + h, where h is the largest
    hop distance, less one, between the operands of a two-qubit gate still
    pending in its fragment (0 for an empty fragment).  A search that reads
    the gate-order layers passes it in bucket level + max(h, h_w) instead:
    h_w drops by at most one per SWAP, as h does, so every state sits in the
    bucket of that f, the seeds below the bound B in bucket B."""

    @staticmethod
    def bucket(c, g, phys, mask, level):
        h = 0
        for i, gate in enumerate(c.gates):
            if mask >> i & 1 and len(gate.qubits) == 2:
                a, b = gate.qubits
                h = max(h, g.distances[phys[a]][phys[b]] - 1)
        return level + h

    def test_bucket_is_level_plus_pending_distance(self):
        from qcmap.mapper import _solve
        rng = random.Random(61)
        checked = floors = lifted = 0
        start_buckets = set()
        for g in (grid_square(3, 3), aspen(), linear(6)):
            for q in (3, 4, 5):
                c = gen_random_circuit(RandomCircuitSpec(
                    q, rng.randrange(10, 18), rng.choice([1.0, 0.8]), rng.randrange(1000)))
                p0 = Placement(tuple(rng.sample(range(g.num_nodes), q)))
                layers = window_layers(c, g)
                for start in (None, p0):
                    reads = start is None and reads_window_bound(c, g)
                    for strict in (False, True):
                        seen = []
                        _solve(c, g, start=start, strict=strict, budget=None,
                               state_cap=DEFAULT_STATE_CAP,
                               on_level=lambda k, level, phys, mask:
                                   seen.append((k, level, phys, mask)))
                        for k, level, phys, mask in seen:
                            f = self.bucket(c, g, phys, mask, level)
                            if reads:
                                fw = level + state_window_bound(layers, mask)
                                if level == 0:
                                    assert fw == len(layers) - 1  # a seed's h_w is B
                                lifted += fw > f
                                f = max(f, fw)
                            assert k == f, (g, c, start, strict, level, phys, mask)
                            checked += 1
                        floors += reads and seen[0][0] > self.bucket(c, g, *seen[0][2:], 0)
                        if start is not None:
                            start_buckets.add(seen[0][0])
        assert checked > 1000, checked
        assert len(start_buckets) > 2, start_buckets
        assert floors and lifted > 100, (floors, lifted)


class TestWindowBound:
    """The gate-order bound B: between two SWAPs the gates that run form
    an embeddable window, so a plan with s SWAPs runs the circuit in at
    most s + 1 windows, and B, the number of greedy steps that cover the
    circuit less one, never exceeds any plan's cost.  A search whose
    bucket 1 holds more seeds than the circuit has gates reads B, and a
    budget below it is refuted with no state built."""

    @staticmethod
    def device_draws():
        """Seeded all-CNOT draws on the device graphs and short paths,
        with a random fixed start each."""
        rng = random.Random(131)
        for g, qubits in ((aspen(), (3, 6)), (tokyo(), (3, 6)), (grid_square(3, 3), (3, 6)),
                          (linear(4), (3, 5)), (linear(5), (3, 6)), (linear(6), (3, 6))):
            for _ in range(8):
                c = gen_random_circuit(RandomCircuitSpec(
                    rng.randrange(*qubits), rng.randrange(6, 17), 1.0, rng.randrange(1000)))
                yield c, g, Placement(tuple(rng.sample(range(g.num_nodes), c.num_qubits)))

    def test_embedding_test_matches_every_placement(self):
        # The bound's last embedding answer, bucket 0's seed backtrack on
        # one CNOT per pair, against every injective placement, on graphs
        # with large and with no automorphism groups.  Each witness it
        # gives puts the qubits with partners on distinct nodes, every
        # other qubit at -1 and every pair on an edge, and its node mask
        # holds just their nodes.  On a bipartite graph the odd-cycle rule
        # refutes only patterns that do not embed.
        from qcmap.mapper import _embedding, _odd_cycle
        star = CouplingGraph(6, [(0, leaf) for leaf in range(1, 6)])
        rng = random.Random(137)
        answers = set()
        refuted = 0
        for g in (cycle(6), grid_square(2, 3), star, generalized_petersen(5, 2), linear(5),
                  random_connected_graph(rng, 6, 3)):
            for _ in range(25):
                qubits = rng.randrange(2, 6)
                candidates = list(itertools.combinations(range(qubits), 2))
                pairs = rng.sample(candidates, rng.randrange(1, min(len(candidates), 6) + 1))
                partners = [0] * qubits
                for a, b in pairs:
                    partners[a] |= 1 << b
                    partners[b] |= 1 << a
                fits = any(all(g.has_edge(p[a], p[b]) for a, b in pairs)
                           for p in itertools.permutations(range(g.num_nodes), qubits))
                witness = _embedding(partners, g)
                assert (witness is not None) == fits, (g, pairs)
                if witness is not None:
                    pos, taken = witness
                    held = [pos[q] for q in range(qubits) if partners[q]]
                    assert len(set(held)) == len(held) and min(held) >= 0, (g, pairs, pos)
                    assert all(pos[q] == -1 for q in range(qubits) if not partners[q]), (
                        g, pairs, pos)
                    assert all(g.has_edge(pos[a], pos[b]) for a, b in pairs), (g, pairs, pos)
                    assert taken == sum(1 << p for p in held), (g, pairs, witness)
                if g.is_bipartite() and _odd_cycle(partners):
                    assert not fits, (g, pairs)
                    refuted += 1
                answers.add(fits)
        assert answers == {False, True}
        assert refuted >= 10, refuted

    def test_repeated_triangles(self):
        # Each triangle needs a SWAP on a triangle-free graph; three in a
        # row need four, and the windows count all of them.
        for g in (grid_square(3, 3), aspen(), linear(3)):
            for times, opt in ((1, 1), (2, 2), (3, 4)):
                c = Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))] * times)
                assert window_bound(c, g) == opt == solve_exact(c, g).cost, (g, times)
                assert solve_exact(c, g, strict=True).cost == opt, (g, times)

    def test_never_above_the_optimum(self):
        # Criterion 1's and 2's corpora, against brute force where it
        # reaches (criterion 1 checks the solver against it on its own
        # corpus), free and strict; then device draws, free, strict and
        # from a fixed start.
        from helpers import criterion_1_instances, criterion_2_instances
        tight = 0
        for c, g in itertools.chain(criterion_1_instances(), criterion_2_instances()):
            b = window_bound(c, g)
            for strict in (False, True):
                cost = solve_exact(c, g, strict=strict).cost
                assert b <= cost, (c.gates, g, strict)
                tight += b == cost
        for c, g in criterion_2_instances()[:100]:
            limits = dict(max_nodes=g.num_nodes)
            assert window_bound(c, g) <= brute_force_g(c, g, **limits).cost, (c.gates, g)
        lower = 0
        for c, g, p0 in self.device_draws():
            b = window_bound(c, g)
            for strict in (False, True):
                for res in (solve_exact(c, g, strict=strict), solve_from(c, g, p0, strict=strict)):
                    assert b <= res.cost, (c.gates, g, p0, strict)
                    tight += b == res.cost
                    lower += b < res.cost
        assert tight > 1000 and lower > 20, (tight, lower)

    def test_budget_below_the_bound_builds_nothing(self):
        # Once bucket 1 has more seeds than the circuit has gates, the
        # search reads B, and a budget below B reports no state at all.
        from qcmap.mapper import _solve
        refuted = 0
        cases = [(gen_random_circuit(RandomCircuitSpec(6, 20, 1.0, 1)), tokyo())]
        cases += [(c, g) for c, g, _p0 in self.device_draws()]
        for c, g in cases:
            b = window_bound(c, g)
            gated = reads_window_bound(c, g)
            for k in range(1, b):
                calls = []
                res = _solve(c, g, strict=False, budget=k, state_cap=DEFAULT_STATE_CAP,
                             on_level=lambda *call: calls.append(call))
                assert not res.feasible and not decide(c, g, k), (c.gates, g, k)
                if gated:
                    assert not calls, (c.gates, g, k)
                    refuted += 1
        assert refuted >= 5, refuted

    def test_floor_passes_a_state_again_when_reached_lower(self):
        # A child is recorded when it is built, before its h_w lifts it
        # above its parent's bucket, so a second path can reach it lower
        # before that bucket is swept.  The closed map files it again at
        # the lower level, where it is passed once, and its lifted entry is
        # skipped as stale.  Under a write-once map these draws cost one
        # SWAP more, free or strict.
        from qcmap.mapper import _solve
        for g, qubits, gates, seed, strict, opt in (
                (grid_square(2, 3), 5, 14, 9452, True, 3),
                (aspen(), 5, 15, 19008, False, 3),
                (aspen(), 5, 15, 19008, True, 3)):
            c = gen_random_circuit(RandomCircuitSpec(qubits, gates, 1.0, seed))
            assert reads_window_bound(c, g) and window_bound(c, g) == opt, (g, seed)
            seen = []
            res = _solve(c, g, strict=strict, budget=None, state_cap=DEFAULT_STATE_CAP,
                         on_level=lambda k, level, phys, mask: seen.append((phys, mask)))
            assert res.cost == opt, (g, seed)
            report = verify_plan(c, g, res.plan)
            assert report.accepted and report.swaps_used == opt, (g, seed)
            assert len(set(seen)) == len(seen), (g, seed)
            assert not decide(c, g, opt - 1, strict=strict), (g, seed)

    def test_layers_partition_the_gates_into_downsets(self):
        # L_1, ..., L_{B+1} are disjoint and cover the circuit, and each
        # union L_1 | ... | L_j holds every ancestor of its gates.
        for c, g, _p0 in self.device_draws():
            layers = window_layers(c, g)
            union = 0
            for layer in layers:
                assert layer and not layer & union, (c.gates, g)
                union |= layer
                for i in range(len(c.gates)):
                    if union >> i & 1:
                        assert all(union >> p & 1 for p in c.direct_predecessors[i]), (c.gates, g)
            assert union == (1 << len(c.gates)) - 1, (c.gates, g)

    def test_layers_match_their_definition(self, monkeypatch):
        # The scan's layers equal reference_layers', which tests each
        # gate's closure, taken from Circuit.direct_predecessors, against
        # every injective placement.  Graphs: bipartite, trees and
        # non-bipartite; circuits: all-CNOT and mixed, some with an idle
        # qubit.  Each way the scan answers an embedding (a grown witness,
        # the odd-cycle rule, and bucket 0's seed backtrack's yes and no)
        # runs often enough that a wrong answer on it would show.  A
        # growth from a witness that places a qubit reaches every new pair
        # through pairs at placed qubits, since each closure's pairs are
        # connected, so only a growth from the empty witness starts a
        # component; both kinds run.
        from helpers import reference_layers
        from qcmap import mapper
        paths = collections.Counter()

        real_odd_cycle, real_extend = mapper._odd_cycle, mapper._extend

        def odd_cycle(partners):
            odd = real_odd_cycle(partners)
            paths["odd cycle"] += odd
            return odd

        def extend(witness, new, pairs, *rest):
            reached = {q for q, p in enumerate(witness[0]) if p >= 0}
            paths["from a witness" if reached else "from nothing"] += 1
            loose = [pairs[i] for i in range(len(pairs)) if new >> i & 1]
            reached = reached or set(loose[0])
            while loose:
                touching = [pair for pair in loose if reached.intersection(pair)]
                assert touching, (witness, new, pairs)
                loose = [pair for pair in loose if pair not in touching]
                reached.update(*touching)
            w = real_extend(witness, new, pairs, *rest)
            paths["grown"] += w is not None
            return w
        real_seeds = mapper._seeds

        def seeds(info, graph, k, start=None):
            found = list(itertools.islice(real_seeds(info, graph, k, start), 1))
            paths["backtrack yes" if found else "backtrack no"] += 1
            return iter(found)
        monkeypatch.setattr(mapper, "_odd_cycle", odd_cycle)
        monkeypatch.setattr(mapper, "_extend", extend)
        monkeypatch.setattr(mapper, "_seeds", seeds)
        star = CouplingGraph(6, [(0, leaf) for leaf in range(1, 6)])
        rng = random.Random(263)
        cases = []
        # The reference's permutations keep the Petersen graph to 4 qubits.
        # Of the non-bipartite graphs, the triangular patch is where a grown
        # witness fails most often on a pattern with an odd cycle.
        for g, most in ((grid_square(2, 3), 5), (cycle(6), 5), (linear(5), 5), (star, 5),
                        (cycle(5), 5), (clique(4), 4), (generalized_petersen(5, 2), 4),
                        (grid_triangle(1, 2), 5)):
            for _ in range(40):
                q = rng.randrange(3, most + 1)
                c = gen_random_circuit(RandomCircuitSpec(
                    q, rng.randrange(4, 25), rng.choice([1.0, 0.7]), rng.randrange(10**6)))
                if q < g.num_nodes and rng.random() < 0.25:
                    c = Circuit.from_ops(q + 1, [(gate.label, gate.qubits) for gate in c.gates])
                cases.append((c, g))
        # 5-qubit all-CNOT draws on trees, where a grown witness fails
        # most often.
        cases += [(gen_random_circuit(RandomCircuitSpec(5, 20, 1.0, seed)), g)
                  for g in (linear(5), star) for seed in range(60)]
        for c, g in cases:
            assert window_layers(c, g) == reference_layers(c, g), (c.gates, g)
        floors = {"grown": 1500, "odd cycle": 200, "from nothing": 700, "from a witness": 1500,
                  "backtrack yes": 250, "backtrack no": 300}
        assert all(paths[path] >= floor for path, floor in floors.items()), paths
        assert sum(c.num_qubits > len({q for gate in c.gates for q in gate.qubits})
                   for c, g in cases) >= 40

    def test_state_bound_never_above_the_cost_to_go(self):
        # For states that searches reading the layers report, the pending
        # fragment's circuit, solved from the state's placement, costs at
        # least h_w: the SWAPs the state still needs.  States with h_w above
        # h, which the search lifts, are among them.
        from qcmap.mapper import _solve
        checked = above_h = tight = 0
        draws = [(c, g) for c, g, _p0 in self.device_draws() if reads_window_bound(c, g)]
        draws += [(gen_random_circuit(RandomCircuitSpec(5, 15, 1.0, seed)), g)
                  for g, seed in ((grid_square(3, 3), 399253), (aspen(), 19008),
                                  (grid_square(2, 3), 9452))]
        for c, g in draws:
            layers = window_layers(c, g)
            for strict in (False, True):
                seen = []
                _solve(c, g, strict=strict, budget=None, state_cap=DEFAULT_STATE_CAP,
                       on_level=lambda k, level, phys, mask: seen.append((phys, mask)))
                for phys, mask in seen[::max(1, len(seen) // 24)]:
                    hw = state_window_bound(layers, mask)
                    rest = Subcircuit._from_mask(c, mask).to_circuit()
                    cost = solve_from(rest, g, Placement(phys), strict=strict).cost
                    assert cost >= hw, (c.gates, g, strict, phys, mask)
                    checked += 1
                    above_h += hw > TestLowerBound.bucket(c, g, phys, mask, 0)
                    tight += cost == hw
        assert len(draws) > 10 and checked > 400, (len(draws), checked)
        assert above_h > 150 and tight > 30, (above_h, tight)

    def test_lifting_keeps_every_answer(self, monkeypatch):
        # One layer holding every gate makes B = 0 and h_w at most 1, which
        # never exceeds h, so the search neither starts at the bound nor
        # lifts a state.  With it and without, on criterion 2's corpus, on
        # device draws with their fixed starts and on pinned draws that
        # read the layers with B > 1, free and strict: the same costs, plans
        # that verify at cost, and the same decide at opt and opt-1; and
        # brute force's cost where it reaches.  The pinned draws end with
        # two where a write-once closed map costs one SWAP more.
        from helpers import criterion_2_instances
        from qcmap import mapper
        cases = [(c, g, None) for c, g in criterion_2_instances()]
        cases += [(c, g, start) for c, g, p0 in self.device_draws() for start in (None, p0)]
        cases += [(gen_random_circuit(RandomCircuitSpec(qubits, gates, 1.0, seed)), g, None)
                  for g, qubits, gates in ((grid_square(2, 3), 5, 14), (grid_square(3, 3), 4, 12))
                  for seed in range(20)]
        cases += [(gen_random_circuit(RandomCircuitSpec(5, gates, 1.0, seed)), g, None)
                  for g, gates, seed in ((grid_square(2, 3), 14, 9452), (aspen(), 15, 19008))]

        def answers():
            out = []
            for c, g, start in cases:
                for strict in (False, True):
                    res = (solve_exact(c, g, strict=strict) if start is None
                           else solve_from(c, g, start, strict=strict))
                    row = [res.cost]
                    if res.feasible:
                        report = verify_plan(c, g, res.plan)
                        assert report.accepted and report.swaps_used == res.cost, (
                            c.gates, g, start, strict)
                        if start is None:
                            row += [decide(c, g, k, strict=strict)
                                    for k in sorted({max(res.cost - 1, 0), res.cost})]
                    out.append(row)
            return out

        real = mapper._window_bound
        reads = []

        def counted(info, graph):
            layers = real(info, graph)
            reads.append(len(layers) - 1)
            return layers

        monkeypatch.setattr(mapper, "_window_bound", counted)
        lifted = answers()
        assert sum(b > 1 for b in reads) > 150, reads
        monkeypatch.setattr(mapper, "_window_bound", lambda info, graph: (info.full_mask,))
        assert answers() == lifted
        for c, g in criterion_2_instances()[:100]:
            limits = dict(max_nodes=g.num_nodes)
            for strict in (False, True):
                cost = solve_exact(c, g, strict=strict).cost
                assert cost == brute_force_g(c, g, strict=strict, **limits).cost, (c.gates, g)

    def test_table_rows_keep_their_optima(self):
        # The ROADMAP limits table's rows that lifting shrinks or keeps,
        # under a second each: free and strict at the recorded optimum,
        # verified, and no plan one SWAP cheaper.
        for g, qubits, gates, seed, opt in ((tokyo(), 5, 15, 27, 2), (aspen(), 6, 15, 1, 4),
                                            (tokyo(), 6, 20, 1, 2)):
            c = gen_random_circuit(RandomCircuitSpec(qubits, gates, 1.0, seed))
            for strict in (False, True):
                res = solve_exact(c, g, strict=strict)
                report = verify_plan(c, g, res.plan)
                assert res.cost == opt and report.accepted and report.swaps_used == opt, (
                    g, seed, strict)
                assert not decide(c, g, opt - 1, strict=strict), (g, seed, strict)

    def test_decide_below_the_bound_on_tokyo(self):
        # 80,460 seeds in bucket 1 and a bound of 2: decide(1) says no
        # before any state is built, and the solve starts in bucket 2.
        from qcmap.mapper import _solve
        c = gen_random_circuit(RandomCircuitSpec(6, 20, 1.0, 1))
        g = tokyo()
        assert window_bound(c, g) == 2
        calls = []
        assert not _solve(c, g, strict=False, budget=1, state_cap=DEFAULT_STATE_CAP,
                          on_level=lambda *call: calls.append(call)).feasible
        assert not calls
        res = _solve(c, g, strict=False, budget=None, state_cap=DEFAULT_STATE_CAP,
                     on_level=lambda *call: calls.append(call))
        assert res.cost == 2 and 0 < len(calls) <= 10_000, len(calls)
        assert {k for k, *_ in calls} == {2}
        report = verify_plan(c, g, res.plan)
        assert report.accepted and report.swaps_used == 2


class TestChildBound:
    """The search files a child by an f computed from its parent alone,
    before the child is built: far, the largest distance between the
    parent's pending pairs at the placement after the SWAP.  The child's
    f, level + 1 + h of its own reduced fragment, must be level + far."""

    @staticmethod
    def far(c, g, phys, mask):
        return max((g.distances[phys[a]][phys[b]]
                    for i, gate in enumerate(c.gates)
                    if mask >> i & 1 and len(gate.qubits) == 2
                    for a, b in (gate.qubits,)), default=0)

    def test_parent_far_is_child_f(self):
        rng = random.Random(97)
        checked = finished = 0
        for g in (grid_square(3, 3), aspen(), linear(6), tokyo()):
            for strict in (False, True):
                for _ in range(10):
                    c = gen_random_circuit(RandomCircuitSpec(
                        rng.randrange(3, 6), rng.randrange(8, 16), 1.0, rng.randrange(1000)))
                    placement = Placement(tuple(rng.sample(range(g.num_nodes), c.num_qubits)))
                    sub = reduce_subcircuit(Subcircuit.full(c), placement, g)
                    # A seed state, then a random walk from it.
                    for _step in range(6):
                        if sub.is_empty:
                            break
                        phys = placement.to_physical
                        parent_far = self.far(c, g, phys, sub.mask)
                        children = []
                        for a, b in g.sorted_edges:
                            if (a in phys) + (b in phys) < (2 if strict else 1):
                                continue
                            moved = placement.apply_swap(a, b)
                            child = reduce_subcircuit(sub, moved, g)
                            far = self.far(c, g, moved.to_physical, sub.mask)
                            h = max(self.far(c, g, moved.to_physical, child.mask) - 1, 0)
                            assert far == 1 + h, (g, c, strict, phys, (a, b))
                            assert (far == 1) == child.is_empty, (g, c, strict, phys, (a, b))
                            assert 0 <= far - parent_far + 1 <= 2, (g, c, strict, phys, (a, b))
                            children.append((moved, child))
                            checked += 1
                            finished += child.is_empty
                        if not children:
                            break
                        placement, sub = rng.choice(children)
        assert checked > 2000 and finished > 10, (checked, finished)


class TestInvariances:
    def test_single_qubit_gates_are_free(self):
        rng = random.Random(47)
        for _ in range(8):
            n = rng.randrange(2, 4)
            g = random_connected_graph(rng, rng.randrange(n, 6))
            ops = []
            for _ in range(rng.randrange(1, 7)):
                if rng.random() < 0.4:
                    ops.append(("h", (rng.randrange(n),)))
                else:
                    a = rng.randrange(n)
                    b = rng.randrange(n - 1)
                    ops.append(("cx", (a, b + 1 if b >= a else b)))
            c = Circuit.from_ops(n, ops)
            stripped = Circuit.from_ops(n, [(g_.label, g_.qubits)
                                            for g_ in c.gates if g_.is_two_qubit])
            assert solve_exact(c, g).cost == solve_exact(stripped, g).cost

    def test_graph_relabeling_invariance(self):
        rng = random.Random(53)
        c = triangle_circuit()
        g = random_connected_graph(rng, 5, 2)
        base = solve_exact(c, g).cost
        for _ in range(4):
            perm = rng.sample(range(5), 5)
            relabeled = CouplingGraph(5, [(perm[a], perm[b]) for a, b in g.edges])
            assert solve_exact(c, relabeled).cost == base

    def test_subcircuit_never_costs_more(self):
        from qcmap import Subcircuit
        rng = random.Random(59)
        c = random_cnot_circuit(rng, 3, 6)
        g = linear(4)
        whole = solve_exact(c, g).cost
        for remaining in ({3, 4, 5}, {4, 5}, {5}, set()):
            try:
                s = Subcircuit(c, remaining)
            except ValueError:
                continue  # not dependency closed for this draw
            assert solve_exact(s.to_circuit(), g).cost <= whole


class TestSearchLevels:
    def test_level_zero_holds_reduced_sources(self):
        c = triangle_circuit()
        levels = search_levels(c, linear(3))
        assert levels, "at least the seed level is reported"
        for state in levels[0]:
            assert state.placement.num_qubits == 3
            for frag in state.fragments:
                assert frag.num_qubits == 3

    def test_frontier_states_are_distinct_and_reduced(self):
        from qcmap import reduce_subcircuit, restore
        draw = gen_random_circuit(RandomCircuitSpec(4, 18, 1.0, 1))  # optimum 4
        # Optimum 3 at a gate-order bound of 2: the floor holds buckets 1-2.
        below = gen_random_circuit(RandomCircuitSpec(5, 14, 1.0, 3))
        cases = [
            (triangle_circuit(), linear(4), False),
            (draw, grid_square(3, 3), False),
            (draw, grid_square(3, 3), True),
            (below, grid_square(3, 3), False),
            (below, grid_square(3, 3), True),
        ]
        checked = 0
        for c, g, strict in cases:
            # No state is expanded twice here: each appears in one frontier
            # of its search, at most once.
            states = [(s.placement, d) for frontier in search_levels(c, g, strict=strict)
                      for s in frontier for d in s.fragments]
            assert len(set(states)) == len(states), (c, g, strict)
            for placement, d in states:
                sub = restore(c, d)
                assert reduce_subcircuit(sub, placement, g) == sub, (c, g, strict)
            checked += len(states)
        assert checked > 1000, "the draw's searches expand hundreds of frontiers"

    def test_idle_qubits_keep_every_fragment_reduced(self):
        # The search's reduction stops once every qubit that carries a
        # gate is blocked; an idle qubit is never blocked, and a qubit with
        # single-qubit gates alone is not idle.  On circuits with both, each
        # reported state holds the fragment of reduce_subcircuit, which
        # scans every gate: a seed's is the full circuit reduced on its
        # placement, and no fragment has a gate left to run.
        from qcmap.mapper import _solve
        rng = random.Random(271)
        cases = [(Circuit.from_ops(4, [("cx", (0, 1)), ("cx", (1, 2))] + [("cx", (0, 2))] * 30),
                  grid_square(2, 3))]
        for g in (grid_square(3, 3), aspen(), linear(6)):
            for _ in range(3):
                q = rng.randrange(3, 5)
                ops = [(gate.label, gate.qubits) for gate in gen_random_circuit(RandomCircuitSpec(
                    q, rng.randrange(8, 16), 0.8, rng.randrange(1000))).gates]
                # Qubit q carries single-qubit gates alone, the last of them
                # after every other gate; qubit q + 1 is idle.
                ops.insert(rng.randrange(len(ops) + 1), ("h", (q,)))
                cases.append((Circuit.from_ops(q + 2, ops + [("t", (q,))]), g))
        checked = 0
        for c, g in cases:
            full = Subcircuit.full(c)
            p0 = Placement(tuple(rng.sample(range(g.num_nodes), c.num_qubits)))
            for start in (None, p0):
                for strict in (False, True):
                    seen = []
                    _solve(c, g, start=start, strict=strict, budget=None,
                           state_cap=DEFAULT_STATE_CAP,
                           on_level=lambda k, level, phys, mask: seen.append((level, phys, mask)))
                    for level, phys, mask in seen:
                        frag = Subcircuit._from_mask(c, mask)
                        placement = Placement(phys)
                        assert reduce_subcircuit(frag, placement, g) == frag, (c.gates, g, phys)
                        if level == 0:
                            assert reduce_subcircuit(full, placement, g) == frag, (c.gates, g, phys)
                        checked += 1
        assert checked > 500, checked

    def test_no_state_reported_twice_in_any_mode(self):
        # Across a whole search, over all placements or from a fixed
        # start, strict or not, each (placement, fragment) is reported
        # once, alone: every state is passed in the bucket of its own f, at
        # its lowest level.  A search that reads the gate-order layers can
        # record a child before h_w lifts it and reach it lower later; the
        # lifted entry, left at the old level, is stale and never passed.
        # Fuller graphs give strict fixed starts room to move.
        from qcmap.mapper import _solve
        rng = random.Random(113)
        cases = []
        for g, q in ((grid_square(3, 3), 4), (grid_square(3, 3), 7), (aspen(), 4),
                     (cycle(6), 6), (linear(6), 5)):
            c = gen_random_circuit(RandomCircuitSpec(
                q, rng.randrange(12, 18), 1.0, rng.randrange(1000)))
            p0 = Placement(tuple(rng.sample(range(g.num_nodes), q)))
            cases += [(c, g, start, strict) for start in (None, p0) for strict in (False, True)]
        # Draws whose searches pop a stale entry before they finish: passed,
        # each would report a state twice.
        for g, q, gates, seed, modes in ((grid_square(3, 3), 4, 20, 89885, (False, True)),
                                         (aspen(), 5, 19, 588512, (False,))):
            c = gen_random_circuit(RandomCircuitSpec(q, gates, 1.0, seed))
            cases += [(c, g, None, strict) for strict in modes]
        checked = {}
        for c, g, start, strict in cases:
            where = (g, c, start, strict)
            levels = search_levels(c, g, start, strict=strict, state_cap=100_000)
            assert all(len(frontier) == 1 and len(frontier[0].fragments) == 1
                       for frontier in levels), where
            seen = []
            _solve(c, g, start=start, strict=strict, budget=None, state_cap=100_000,
                   on_level=lambda k, level, phys, mask: seen.append((k, level, phys, mask)))
            assert len(seen) == len(levels), where
            assert len({(phys, mask) for _k, _level, phys, mask in seen}) == len(seen), where
            mode = (start is None, strict)
            checked[mode] = checked.get(mode, 0) + len(seen)
        assert len(checked) == 4 and min(checked.values()) > 500, checked

    def test_fixed_start_has_single_seed(self):
        c = triangle_circuit()
        levels = search_levels(c, linear(3), Placement((0, 1, 2)))
        assert len(levels[0]) == 1

    def test_optimum_zero_reports_its_seed(self):
        c = gen_cycle_circuit(5)
        levels = search_levels(c, cycle(5))
        assert len(levels) == 1
        (state,) = levels[0]
        assert state.fragments == (descriptor(Subcircuit(c, ())),)
        assert verify_plan(c, cycle(5), SwapPlan(state.placement, ())).accepted


class TestBoundedSearchAgainstBruteForce:
    """The lower bound, the bounded seeding and the closed map all prune;
    the unpruned full-state search must agree."""

    # (graph, qubits, [(gates, seed), ...]); optima 0-2.  Every interaction
    # graph on 4 qubits embeds in tokyo(), so its optima are 0.
    CASES = [
        (grid_square(3, 3), 3, [(6, 1), (10, 0), (10, 1)]),
        (grid_square(3, 3), 4, [(4, 0), (6, 0), (8, 1)]),
        (aspen(), 3, [(6, 0), (6, 1), (10, 0)]),
        (tokyo(), 3, [(10, 0)]),
        (tokyo(), 4, [(6, 1), (10, 0)]),
    ]

    def test_matches_brute_force(self):
        for g, qubits, draws in self.CASES:
            limits = dict(max_qubits=qubits, max_nodes=g.num_nodes, max_gates=10)
            for gates, seed in draws:
                c = gen_random_circuit(RandomCircuitSpec(qubits, gates, 1.0, seed))
                where = (g, qubits, gates, seed)
                res = solve_exact(c, g)
                assert res.cost == brute_force_g(c, g, **limits).cost, where
                report = verify_plan(c, g, res.plan)
                assert report.accepted and report.swaps_used == res.cost, where
                assert decide(c, g, res.cost), where
                if res.cost > 0:
                    assert not decide(c, g, res.cost - 1), where
                strict = solve_exact(c, g, strict=True)
                assert strict.cost == brute_force_g(c, g, strict=True, **limits).cost, where
                assert verify_plan(c, g, strict.plan).swaps_used == strict.cost, where
                assert_strict_plan(strict.plan)


class TestZeroQubits:
    """The circuit on no qubits: its one placement is the empty one, it
    is finished before any SWAP and its plan is a bare ``init`` line."""

    GRAPHS = (linear(3), CouplingGraph(1, []))

    def test_every_entry_point_costs_zero(self):
        c = Circuit(0, [])
        for g in self.GRAPHS:
            for strict in (False, True):
                for res in (solve_exact(c, g, strict=strict),
                            solve_from(c, g, Placement(()), strict=strict)):
                    assert res == MapResult(0, SwapPlan(Placement(()), ())), (g, strict)
                    assert verify_plan(c, g, res.plan).accepted
                assert decide(c, g, 0, strict=strict)
                for p0 in (None, Placement(())):
                    levels = search_levels(c, g, p0, strict=strict)
                    assert [[s.placement for s in entry] for entry in levels] == [[Placement(())]]


class TestPlanSerialization:
    def test_round_trip(self):
        for plan in (SwapPlan(Placement((2, 0, 3)), ((0, 1), (1, 2))),
                     solve_exact(Circuit(0, []), linear(3)).plan):
            assert parse_plan(format_plan(plan)) == plan

    def test_text_shape(self):
        text = format_plan(SwapPlan(Placement((1, 0)), ((0, 1),)))
        assert text.splitlines() == ["init 0:1 1:0", "swap 0 1"]
        # A zero-qubit plan is a bare init line.
        assert format_plan(solve_exact(Circuit(0, []), linear(3)).plan) == "init\n"

    def test_parse_errors(self):
        with pytest.raises(ParseError) as e:
            parse_plan("swap 0 1\n")
        assert e.value.line == 1
        with pytest.raises(ParseError):
            parse_plan("init 0:0 1:0\n")  # not injective
        with pytest.raises(ParseError):
            parse_plan("init 0:0 2:1\n")  # gap in qubit cover
        with pytest.raises(ParseError):
            parse_plan("")

    def test_file_round_trip(self, tmp_path):
        plan = solve_exact(triangle_circuit(), linear(3)).plan
        path = tmp_path / "route.plan"
        save_plan(plan, path)
        assert load_plan(path) == plan


class TestTraceDigest:
    """A sha256 over everything the search shows: each ``on_level`` call,
    each plan and cost, each ``ResourceLimitError`` text and, for a free
    search with a finite optimum, ``decide`` at 0, opt-1 and opt.  The
    digests were recorded when the search lifted states by the gate-order
    layers; a change that reorders the search records new ones and says
    so in CHANGES.md, and leaves ``ANSWERS_DIGEST`` as it is."""

    DIGEST = "af13e69dcbdec43afd63806068bca7f90b828792c8f2cdd129629c9f3997c85f"

    @staticmethod
    def corpus():
        """Seeded (circuit, graph, start, strict, state_cap) cases on seven
        small graphs: free and strict searches, fixed starts and small caps,
        and on each graph the zero-qubit circuit."""
        rng = random.Random(1801)
        star = CouplingGraph(6, [(0, leaf) for leaf in range(1, 6)])
        ring_pendant = CouplingGraph(6, [*cycle(5).edges, (0, 5)])
        graphs = [linear(5), cycle(6), grid_square(3, 3), clique(5), star, ring_pendant,
                  CouplingGraph(1, [])]
        for g in graphs:
            for _ in range(12):
                qubits = rng.randrange(1 if g.num_nodes == 1 else 2, min(g.num_nodes, 5) + 1)
                ops = []
                for _ in range(rng.randrange(0, 17)):
                    if qubits == 1 or rng.random() < 0.2:
                        ops.append(("h", (rng.randrange(qubits),)))
                    else:
                        a, b = rng.sample(range(qubits), 2)
                        ops.append(("cx", (a, b)))
                c = Circuit.from_ops(qubits, ops)
                start = Placement(tuple(rng.sample(range(g.num_nodes), qubits)))
                for strict in (False, True):
                    yield c, g, None, strict, DEFAULT_STATE_CAP
                    yield c, g, start, strict, DEFAULT_STATE_CAP
                yield c, g, None, False, rng.choice((3, 12, 40))
            empty = Circuit(0, [])
            for strict in (False, True):
                yield empty, g, None, strict, DEFAULT_STATE_CAP
                yield empty, g, Placement(()), strict, 1

    @staticmethod
    def digest(cases) -> str:
        from qcmap.mapper import _solve
        h = hashlib.sha256()

        def hook(k, level, phys, mask):
            h.update(f"{k} {level} {phys} {mask};".encode())

        for c, g, start, strict, cap in cases:
            h.update(f"case {c.num_qubits} {c.gates} {sorted(g.edges)} {start} {strict} {cap}\n"
                     .encode())
            try:
                res = _solve(c, g, start=start, strict=strict, budget=None, state_cap=cap,
                             on_level=hook)
            except ResourceLimitError as exc:
                h.update(f"cap {exc}\n".encode())
                continue
            h.update(f"cost {res.cost} {res.plan}\n".encode())
            if start is None and res.feasible:
                for k in sorted({0, max(res.cost - 1, 0), res.cost}):
                    h.update(f"decide {k} {decide(c, g, k, strict=strict, state_cap=cap)}\n"
                             .encode())
        return h.hexdigest()

    def test_digest_is_unchanged(self):
        assert self.digest(self.corpus()) == self.DIGEST

    # The device graphs, with their empty nodes and automorphism groups.
    DEVICE_DIGEST = "8db2409e71cdd3c697ec86b930aaa9fa426007d025f3efe855d0074150220057"

    @staticmethod
    def device_corpus():
        """Seeded all-CNOT circuits of 3-5 qubits and 8-14 gates on
        ``aspen()``, ``tokyo()`` and ``grid_square(3, 3)``: free and fixed
        starts, strict and not, and a free search under a cap a little
        above the distance table's n**2 entries."""
        rng = random.Random(2201)
        for g in (aspen(), tokyo(), grid_square(3, 3)):
            for _ in range(12):
                qubits = rng.randrange(3, 6)
                ops = []
                for _ in range(rng.randrange(8, 15)):
                    a, b = rng.sample(range(qubits), 2)
                    ops.append(("cx", (a, b)))
                c = Circuit.from_ops(qubits, ops)
                start = Placement(tuple(rng.sample(range(g.num_nodes), qubits)))
                for strict in (False, True):
                    yield c, g, None, strict, DEFAULT_STATE_CAP
                    yield c, g, start, strict, DEFAULT_STATE_CAP
                yield c, g, None, False, g.num_nodes ** 2 + rng.choice((0, 40, 400))

    def test_device_digest_is_unchanged(self):
        assert self.digest(self.device_corpus()) == self.DEVICE_DIGEST

    # The answers alone, which no reordering of the search may change:
    # recorded before the search started at the gate-order bound.
    ANSWERS_DIGEST = "a262d77b9d053fbf7b0fab1f9aa63ed0a6b2bb44c42c3f9ef8df0d10bd5be455"

    @classmethod
    def answer_cases(cls):
        """Every default-cap case of both corpora, and the brute-force
        cases free and strict."""
        for case in itertools.chain(cls.corpus(), cls.device_corpus()):
            if case[4] == DEFAULT_STATE_CAP:
                yield case
        for g, qubits, draws in TestBoundedSearchAgainstBruteForce.CASES:
            for gates, seed in draws:
                c = gen_random_circuit(RandomCircuitSpec(qubits, gates, 1.0, seed))
                for strict in (False, True):
                    yield c, g, None, strict, DEFAULT_STATE_CAP

    @staticmethod
    def answers(cases) -> str:
        """A sha256 over each case's cost and plan length, whether
        ``verify_plan`` accepts the plan, and for a free search with a
        finite optimum ``decide`` at 0, opt-1 and opt."""
        h = hashlib.sha256()
        for c, g, start, strict, cap in cases:
            h.update(f"case {c.num_qubits} {c.gates} {sorted(g.edges)} {start} {strict}\n"
                     .encode())
            res = (solve_exact(c, g, strict=strict) if start is None
                   else solve_from(c, g, start, strict=strict))
            if not res.feasible:
                h.update(f"cost {res.cost}\n".encode())
                continue
            h.update(f"cost {res.cost} {len(res.plan)} "
                     f"{verify_plan(c, g, res.plan).accepted}\n".encode())
            if start is None:
                for k in sorted({0, max(res.cost - 1, 0), res.cost}):
                    h.update(f"decide {k} {decide(c, g, k, strict=strict)}\n".encode())
        return h.hexdigest()

    def test_answers_are_unchanged(self):
        assert self.answers(self.answer_cases()) == self.ANSWERS_DIGEST
