import itertools
import math
import random

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
    format_plan,
    gen_clique_circuit,
    gen_cycle_circuit,
    gen_random_circuit,
    grid_square,
    linear,
    load_plan,
    parse_plan,
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
    random_cnot_circuit,
    random_connected_graph,
)


def triangle_circuit():
    return Circuit.from_ops(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])


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
    """From bucket 1 on, free seeds are filtered by the graph's own
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

    def test_every_orbit_keeps_a_seed(self):
        # Closing the filtered seeds of each bucket under the group gives
        # back every seed of that bucket.  Each group here is complete.
        from qcmap.mapper import _CircuitInfo, _seeds
        rng = random.Random(73)
        for g in [*self.GRAPHS, aspen()]:
            group = [tuple(range(g.num_nodes)), *g.automorphisms]
            for qubits in (3, 4):
                c = gen_random_circuit(RandomCircuitSpec(qubits, 8, 1.0, rng.randrange(1000)))
                info = _CircuitInfo(c)
                for k in range(1, g.diameter):
                    every = set(_seeds(info, g, k, False))
                    kept = set(_seeds(info, g, k, True))
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
                for k in range(1, g.diameter):
                    every = set(_seeds(info, g, k, False))
                    orbits = {frozenset(tuple(p[x] for x in s) for p in group) for s in every}
                    kept = list(_seeds(info, g, k, True))
                    kept_orbits = {frozenset(tuple(p[x] for x in s) for p in group)
                                   for s in kept}
                    assert len(kept) == len(kept_orbits) == len(orbits), (g, c, k)

    def test_bucket_zero_never_computes_the_group(self):
        g = grid_square(3, 3)
        c = gen_random_circuit(RandomCircuitSpec(4, 14, 1.0, 0))
        assert not decide(c, g, 0)
        assert "automorphisms" not in vars(g)
        assert solve_exact(gen_cycle_circuit(4), g).cost == 0
        assert "automorphisms" not in vars(g)
        assert solve_exact(c, g).cost == 3
        assert "automorphisms" in vars(g)

    def test_fixed_start_never_computes_the_group(self):
        g = cycle(5)
        c = gen_random_circuit(RandomCircuitSpec(3, 8, 1.0, 3))
        assert solve_from(c, g, Placement((0, 2, 4))).cost == 4  # buckets 1-4 seeded
        assert "automorphisms" not in vars(g)


class TestSeedDominance:
    """A search over all placements drops every state equal to the seed
    state of its own placement (the full circuit reduced there) and never
    expands a seed that runs no gate; fixed starts keep both.  Its optima
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

    def test_free_frontiers_hold_no_seed_state(self):
        from qcmap.mapper import _solve
        c = gen_random_circuit(RandomCircuitSpec(4, 18, 1.0, 1))  # optimum 4
        g = grid_square(3, 3)
        full = (1 << len(c.gates)) - 1
        for strict in (False, True):
            seen = []
            _solve(c, g, strict=strict, budget=None, state_cap=DEFAULT_STATE_CAP,
                   on_level=lambda k, level, phys, mask: seen.append((level, phys, mask)))
            assert len(seen) > 100
            for level, phys, mask in seen:
                seed = self.seed_state(c, Placement(phys), g)
                if level == 0:
                    assert mask == seed.mask != full, (strict, phys)
                else:
                    assert mask != seed.mask, (strict, level, phys)

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
    """Every state is filed in bucket f = level + h, where h is the largest
    hop distance, less one, between the operands of a two-qubit gate still
    pending in its fragment (0 for an empty fragment)."""

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
        checked = 0
        start_buckets = set()
        for g in (grid_square(3, 3), aspen(), linear(6)):
            for q in (3, 4):
                c = gen_random_circuit(RandomCircuitSpec(
                    q, rng.randrange(10, 18), rng.choice([1.0, 0.8]), rng.randrange(1000)))
                p0 = Placement(tuple(rng.sample(range(g.num_nodes), q)))
                for start in (None, p0):
                    for strict in (False, True):
                        seen = []
                        _solve(c, g, start=start, strict=strict, budget=None,
                               state_cap=DEFAULT_STATE_CAP,
                               on_level=lambda k, level, phys, mask:
                                   seen.append((k, level, phys, mask)))
                        for k, level, phys, mask in seen:
                            assert k == self.bucket(c, g, phys, mask, level), (
                                g, c, start, strict, level, phys, mask)
                            checked += 1
                        if start is not None:
                            start_buckets.add(seen[0][0])
        assert checked > 1000, checked
        assert len(start_buckets) > 2, start_buckets


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
        cases = [
            (triangle_circuit(), linear(4), False),
            (draw, grid_square(3, 3), False),
            (draw, grid_square(3, 3), True),
        ]
        checked = 0
        for c, g, strict in cases:
            # No state is expanded twice: each appears in one frontier of
            # its search, at most once.
            states = [(s.placement, d) for frontier in search_levels(c, g, strict=strict)
                      for s in frontier for d in s.fragments]
            assert len(set(states)) == len(states), (c, g, strict)
            for placement, d in states:
                sub = restore(c, d)
                assert reduce_subcircuit(sub, placement, g) == sub, (c, g, strict)
            checked += len(states)
        assert checked > 1000, "the draw's searches expand hundreds of frontiers"

    def test_no_state_reported_twice_in_any_mode(self):
        # The closed map is written once: across a whole search, over all
        # placements or from a fixed start, strict or not, each (placement,
        # fragment) is reported once, alone.
        # Fuller graphs give strict fixed starts room to move.
        rng = random.Random(113)
        checked = {}
        for g, q in ((grid_square(3, 3), 4), (grid_square(3, 3), 7), (aspen(), 4),
                     (cycle(6), 6), (linear(6), 5)):
            c = gen_random_circuit(RandomCircuitSpec(
                q, rng.randrange(12, 18), 1.0, rng.randrange(1000)))
            p0 = Placement(tuple(rng.sample(range(g.num_nodes), q)))
            for start in (None, p0):
                for strict in (False, True):
                    where = (g, c, start, strict)
                    levels = search_levels(c, g, start, strict=strict, state_cap=100_000)
                    assert all(len(frontier) == 1 and len(frontier[0].fragments) == 1
                               for frontier in levels), where
                    states = [(s.placement, s.fragments[0])
                              for frontier in levels for s in frontier]
                    assert len(set(states)) == len(states), where
                    mode = (start is None, strict)
                    checked[mode] = checked.get(mode, 0) + len(states)
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


class TestPlanSerialization:
    def test_round_trip(self):
        plan = SwapPlan(Placement((2, 0, 3)), ((0, 1), (1, 2)))
        assert parse_plan(format_plan(plan)) == plan

    def test_text_shape(self):
        text = format_plan(SwapPlan(Placement((1, 0)), ((0, 1),)))
        assert text.splitlines() == ["init 0:1 1:0", "swap 0 1"]

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
