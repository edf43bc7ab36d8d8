"""Metamorphic relations of the optimum: transformations of an instance
whose effect on the minimal SWAP count is known without computing it.

No oracle is needed, so these reach devices and qubit counts that
``brute_force_g`` cannot.  Each relation changes something the seed orbit
filter depends on: node labels change which placement leads each orbit,
qubit labels change the backtrack order the leaders are read in, an
added edge changes the automorphism group, a prefix changes which
seed placements run no gate, and an idle qubit adds backtrack positions
after those of the interacting qubits.  Cases are derandomized, so every
run checks the same instances.  Reversal and the prefix relation are also
checked on three fixed instances of the hard 5-6 qubit strata, free and
strict, and an added edge on two of them; ``decide`` at the optimum and
one below on a 7-qubit path instance and a 6-qubit ``tokyo()`` instance.
Budget-0 reduction instances, "yes" and "no", are checked under node
relabelling and an added edge: their "no" answers come from the seed
count (Hall's condition on the room sets) or from an exhaustive backtrack.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmap import (
    Circuit,
    CouplingGraph,
    RandomCircuitSpec,
    aspen,
    cycle,
    decide,
    gen_random_circuit,
    grid_square,
    linear,
    reduce_clique_to_qcm,
    reduce_hamcycle_to_hampath_qcm,
    reduce_hamcycle_to_qcm,
    solve_exact,
    tokyo,
)

from helpers import assert_strict_plan, generalized_petersen, random_deg3_connected_graph

GRAPHS = [grid_square(3, 3), aspen(), cycle(6), linear(6), tokyo()]
# Gate counts per qubit count: enough for optima up to 4, few enough that
# every solve takes milliseconds.
GATES = {3: (6, 14), 4: (6, 12), 5: (5, 9)}

CASES = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def instances(draw):
    """A device, a seeded random circuit of 3-5 qubits and a mode."""
    g = draw(st.sampled_from(GRAPHS))
    qubits = draw(st.integers(3, 5))
    spec = RandomCircuitSpec(qubits, draw(st.integers(*GATES[qubits])),
                             draw(st.sampled_from((1.0, 0.8))),
                             draw(st.integers(0, 10**6)))
    return g, gen_random_circuit(spec), draw(st.booleans())


def cost(c, g, strict):
    res = solve_exact(c, g, strict=strict)
    if strict and res.feasible:
        assert_strict_plan(res.plan)
    return res.cost


@CASES
@given(instances(), st.data())
def test_node_relabelling_keeps_optimum(case, data):
    g, c, strict = case
    perm = data.draw(st.permutations(range(g.num_nodes)))
    relabelled = CouplingGraph(g.num_nodes, [(perm[a], perm[b]) for a, b in g.edges])
    assert cost(c, relabelled, strict) == cost(c, g, strict)


@CASES
@given(instances(), st.data())
def test_qubit_relabelling_keeps_optimum(case, data):
    g, c, strict = case
    perm = data.draw(st.permutations(range(c.num_qubits)))
    relabelled = Circuit.from_ops(
        c.num_qubits, [(gate.label, tuple(perm[q] for q in gate.qubits)) for gate in c.gates])
    assert cost(relabelled, g, strict) == cost(c, g, strict)


@CASES
@given(instances(), st.data())
def test_added_edge_never_raises_optimum(case, data):
    # Every plan stays legal and every gate stays executable no later.
    g, c, strict = case
    missing = [(a, b) for a in range(g.num_nodes) for b in range(a + 1, g.num_nodes)
               if not g.has_edge(a, b)]
    edge = data.draw(st.sampled_from(missing))
    denser = CouplingGraph(g.num_nodes, [*g.edges, edge])
    assert cost(c, denser, strict) <= cost(c, g, strict)


@CASES
@given(instances(), st.data())
def test_prefix_never_costs_more(case, data):
    # A plan for the whole circuit runs every gate of a prefix on the way.
    g, c, strict = case
    cut = data.draw(st.integers(0, len(c.gates) - 1))
    prefix = Circuit.from_ops(c.num_qubits,
                              [(gate.label, gate.qubits) for gate in c.gates[:cut]])
    assert cost(prefix, g, strict) <= cost(c, g, strict)


def reversed_circuit(c):
    return Circuit.from_ops(c.num_qubits,
                            [(gate.label, gate.qubits) for gate in reversed(c.gates)])


@CASES
@given(instances())
def test_reversed_circuit_keeps_optimum(case):
    # A plan replays backwards from its final placement.
    g, c, strict = case
    assert cost(reversed_circuit(c), g, strict) == cost(c, g, strict)


# Hard strata: 5-6 qubits, where the search records tens of thousands of
# states and no oracle reaches.  Each pair takes 0.3-2.5 s.  The strict
# optima equal the free ones here.
HARD_CASES = [
    (tokyo(), RandomCircuitSpec(5, 15, 1.0, 27), 2),
    (aspen(), RandomCircuitSpec(6, 15, 1.0, 1), 4),
    (grid_square(3, 3), RandomCircuitSpec(6, 14, 1.0, 1), 3),
]
HARD = pytest.mark.parametrize("g, spec, opt", HARD_CASES,
                               ids=["tokyo-q5", "aspen-q6", "grid33-q6"])


@HARD
def test_reversal_keeps_optimum_on_hard_strata(g, spec, opt):
    c = gen_random_circuit(spec)
    assert cost(c, g, False) == opt
    assert cost(reversed_circuit(c), g, False) == opt


@HARD
def test_strict_reversal_keeps_optimum_on_hard_strata(g, spec, opt):
    c = gen_random_circuit(spec)
    assert cost(c, g, True) == opt
    assert cost(reversed_circuit(c), g, True) == opt


@HARD
@pytest.mark.parametrize("strict", [False, True])
def test_prefixes_never_cost_more_on_hard_strata(g, spec, opt, strict):
    # Every prefix but the last, whose solve costs as much as the whole.
    c = gen_random_circuit(spec)
    costs = [cost(Circuit.from_ops(c.num_qubits,
                                   [(gate.label, gate.qubits) for gate in c.gates[:cut]]),
                  g, strict)
             for cut in range(len(c.gates) - 1)]
    assert costs == sorted(costs)
    assert costs[-1] <= opt


# The added edge on grid33-q6 keeps three non-identity automorphisms, so
# the orbit filter still prunes there.
@pytest.mark.parametrize("g, spec, opt, edge", [
    (*HARD_CASES[0], (10, 12)),
    (*HARD_CASES[2], (3, 5)),
], ids=["tokyo-q5", "grid33-q6"])
@pytest.mark.parametrize("strict", [False, True])
def test_added_edge_never_raises_optimum_on_hard_strata(g, spec, opt, edge, strict):
    c = gen_random_circuit(spec)
    assert not g.has_edge(*edge)
    assert cost(c, CouplingGraph(g.num_nodes, [*g.edges, edge]), strict) <= opt


# At most 6 nodes and 10 gates: an idle qubit multiplies the placements.
SMALL_GRAPHS = [linear(5), cycle(5), cycle(6), grid_square(2, 3), linear(6)]


@CASES
@given(st.sampled_from(SMALL_GRAPHS), st.integers(2, 4), st.integers(1, 10),
       st.sampled_from((1.0, 0.8)), st.integers(0, 10**6), st.data())
def test_idle_qubit_keeps_optimum(g, qubits, gates, fraction, seed, data):
    # A qubit in no two-qubit gate sits on any free node and never blocks a
    # gate of the others.  Under strict SWAPs it is one more occupant, which
    # only makes more SWAPs legal.
    c = gen_random_circuit(RandomCircuitSpec(qubits, gates, fraction, seed))
    idle = data.draw(st.integers(0, qubits))
    ops = [(gate.label, tuple(q + (q >= idle) for q in gate.qubits)) for gate in c.gates]
    for at in sorted(data.draw(st.lists(st.integers(0, gates), max_size=2)), reverse=True):
        ops.insert(at, ("h", (idle,)))
    more = Circuit.from_ops(qubits + 1, ops)
    opt = cost(c, g, False)
    assert cost(more, g, False) == opt
    assert decide(more, g, opt)
    if opt > 0:
        assert not decide(more, g, opt - 1)
    assert cost(more, g, True) <= cost(c, g, True)


@CASES
@given(instances())
def test_decide_brackets_optimum(case):
    g, c, strict = case
    opt = cost(c, g, strict)
    assert decide(c, g, opt, strict=strict)
    if opt > 0:
        assert not decide(c, g, opt - 1, strict=strict)


def test_decide_brackets_optimum_on_a_hard_path():
    # linear(8), 7 qubits: optimum 9, far above the distance bound.
    c = gen_random_circuit(RandomCircuitSpec(7, 20, 1.0, 1))
    g = linear(8)
    assert decide(c, g, 9)
    assert not decide(c, g, 8)


def test_decide_brackets_optimum_on_tokyo_q6():
    # tokyo(), 6 qubits: optimum 2, so the "no" must exhaust bucket 1.
    c = gen_random_circuit(RandomCircuitSpec(6, 20, 1.0, 1))
    assert decide(c, tokyo(), 2)
    assert not decide(c, tokyo(), 1)


def reduction_cases():
    """Budget-0 reduction instances: the Hamiltonian-cycle question, asked
    directly and through a Hamiltonian path, and a 3- or 4-clique question,
    on seeded graphs of degree at most 3, the same graphs with a pendant
    node (so no Hamiltonian cycle), and the Petersen graph."""
    rng = random.Random(211)
    sources = [generalized_petersen(5, 2)]
    for _ in range(10):
        n = rng.randrange(6, 10)
        g = random_deg3_connected_graph(rng, n, rng.randrange(2, n))
        sources.append(g)
        low = [v for v in range(n) if len(g.neighbors[v]) < 3]
        if low:
            sources.append(CouplingGraph(n + 1, [*g.edges, (rng.choice(low), n)]))
    cases = []
    for i, g in enumerate(sources):
        cases += [reduce_hamcycle_to_qcm(g), reduce_hamcycle_to_hampath_qcm(g),
                  reduce_clique_to_qcm(g, 3 + i % 2)]
    return [(inst.provenance.split(";")[0], inst.circuit, inst.graph) for inst in cases]


REDUCTIONS = reduction_cases()


def test_node_relabelling_keeps_reduction_answers():
    rng = random.Random(223)
    seen = set()
    for kind, c, g in REDUCTIONS:
        perm = rng.sample(range(g.num_nodes), g.num_nodes)
        relabelled = CouplingGraph(g.num_nodes, [(perm[a], perm[b]) for a, b in g.edges])
        answer = decide(c, g, 0)
        assert decide(c, relabelled, 0) == answer, (kind, g, perm)
        seen.add((kind, answer))
    assert seen == {(kind, answer) for kind, _, _ in REDUCTIONS for answer in (False, True)}


def test_added_edge_never_turns_a_reduction_yes_into_no():
    rng = random.Random(227)
    yes = 0
    for kind, c, g in REDUCTIONS:
        missing = [(a, b) for a in range(g.num_nodes) for b in range(a + 1, g.num_nodes)
                   if not g.has_edge(a, b)]
        denser = CouplingGraph(g.num_nodes, [*g.edges, rng.choice(missing)])
        if decide(c, g, 0):
            yes += 1
            assert decide(c, denser, 0), (kind, g, denser)
    assert yes >= 10, yes
