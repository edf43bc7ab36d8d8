import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmap import (
    Circuit,
    CircuitType,
    CouplingGraph,
    Placement,
    Subcircuit,
    SubcircuitDescriptor,
    circuit_type,
    descriptor,
    front_gates,
    is_smaller,
    linear,
    minimize,
    reduce_subcircuit,
    restore,
)

from helpers import all_subcircuit_masks, example_circuit, random_cnot_circuit


@pytest.fixture
def c():
    return example_circuit()


@pytest.fixture
def sub_a(c):
    return Subcircuit(c, {2, 3, 4, 5, 6})


@pytest.fixture
def sub_b(c):
    return Subcircuit(c, {3, 4, 5, 6})


@pytest.fixture
def sub_c(c):
    return Subcircuit(c, {2, 4, 5, 6})


class TestSubcircuit:
    def test_closure_enforced(self, c):
        # gate 2 kept while its dependent 4 dropped: not a valid suffix
        with pytest.raises(ValueError):
            Subcircuit(c, {2, 3})
        with pytest.raises(ValueError):
            Subcircuit(c, {0, 7})

    def test_full_and_empty(self, c):
        full = Subcircuit.full(c)
        assert full.remaining == frozenset(range(7))
        assert len(full) == 7
        empty = Subcircuit(c, ())
        assert empty.is_empty
        assert len(empty) == 0

    def test_to_circuit(self, sub_b):
        tail = sub_b.to_circuit()
        assert [(g.label, g.qubits) for g in tail.gates] == [
            ("cx", (2, 3)), ("cx", (3, 1)), ("cx", (0, 1)), ("h", (3,)),
        ]
        assert tail.num_qubits == 4


class TestFrontGates:
    def test_full(self, c):
        assert front_gates(Subcircuit.full(c)) == {0, 1}

    def test_partial(self, sub_a, sub_b):
        assert front_gates(sub_a) == {2, 3}
        assert front_gates(sub_b) == {3}

    def test_empty(self, c):
        assert front_gates(Subcircuit(c, ())) == frozenset()


class TestReduce:
    def test_everything_adjacent_executes_all(self, c):
        # device wired exactly like the interaction topology
        g = CouplingGraph(4, [(0, 1), (1, 3), (2, 3)])
        out = reduce_subcircuit(Subcircuit.full(c), Placement.identity(4), g)
        assert out.is_empty

    def test_partial_execution(self, c, sub_b):
        # on a path, this placement runs gates 0..2 and then blocks on gate 3
        out = reduce_subcircuit(Subcircuit.full(c), Placement((1, 2, 0, 3)), linear(4))
        assert out == sub_b

    def test_single_qubit_gates_always_run(self):
        c = Circuit.from_ops(3, [("h", (0,)), ("t", (1,)), ("h", (2,)), ("h", (0,))])
        out = reduce_subcircuit(Subcircuit.full(c), Placement((0, 2, 4)), linear(5))
        assert out.is_empty

    def test_blocked_gate_blocks_dependents(self, c):
        # gate 3 stuck keeps 4, 5, 6 stuck even though their pairs are adjacent
        out = reduce_subcircuit(Subcircuit.full(c), Placement((1, 2, 0, 3)), linear(4))
        assert 4 in out.remaining and 5 in out.remaining and 6 in out.remaining

    def test_placement_validated(self, c):
        with pytest.raises(ValueError, match="does not cover the circuit's qubits"):
            reduce_subcircuit(Subcircuit.full(c), Placement((0, 1, 2)), linear(4))
        with pytest.raises(ValueError, match="targets node 9 outside the graph"):
            reduce_subcircuit(Subcircuit.full(c), Placement((0, 1, 2, 9)), linear(4))


class TestOrdering:
    def test_is_smaller_table(self, c, sub_a, sub_b, sub_c):
        empty = Subcircuit(c, ())
        full = Subcircuit.full(c)
        assert is_smaller(sub_b, sub_a)
        assert is_smaller(sub_c, sub_a)
        assert not is_smaller(sub_a, sub_b)
        assert not is_smaller(sub_b, sub_c)  # incomparable pair
        assert not is_smaller(sub_c, sub_b)
        assert is_smaller(sub_b, sub_b)
        assert is_smaller(empty, sub_c)
        assert is_smaller(sub_a, full)

    def test_cross_circuit_rejected(self, sub_a):
        other = Subcircuit.full(Circuit.from_ops(2, [("cx", (0, 1))]))
        with pytest.raises(ValueError):
            is_smaller(sub_a, other)

    def test_minimize_drops_dominated(self, sub_a, sub_b, sub_c):
        assert minimize([sub_a, sub_b, sub_c]) == (sub_b, sub_c)
        assert minimize([sub_c, sub_a, sub_b]) == (sub_c, sub_b)
        assert minimize([sub_a]) == (sub_a,)

    def test_minimize_collapses_duplicates(self, c, sub_b):
        dup = Subcircuit(c, {3, 4, 5, 6})
        assert minimize([sub_b, dup]) == (sub_b,)

    def test_minimize_empty_input(self):
        assert minimize([]) == ()


class TestCircuitType:
    def test_full_example(self, c):
        ct = circuit_type(Subcircuit.full(c))
        assert ct.columns == (frozenset({0, 2}), frozenset({0, 1, 2, 3}))
        assert ct.num_columns == 2
        assert ct.is_well_formed()

    def test_ladder_circuit_compresses(self):
        # four chained gates, depth 4, but only three distinct activity columns
        c = Circuit.from_ops(4, [
            ("cx", (0, 1)), ("cx", (1, 2)), ("cx", (1, 2)), ("cx", (2, 3)),
        ])
        assert c.depth == 4
        ct = circuit_type(Subcircuit.full(c))
        assert ct.columns == (
            frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 1, 2, 3}),
        )
        assert len(ct.as_matrix()) == 4 and ct.num_columns == 3

    def test_partial(self, sub_b):
        ct = circuit_type(sub_b)
        assert ct.columns == (
            frozenset({2, 3}), frozenset({1, 2, 3}), frozenset({0, 1, 2, 3}),
        )

    def test_empty(self, c):
        ct = circuit_type(Subcircuit(c, ()))
        assert ct.columns == ()
        assert ct.is_well_formed()

    def test_matrix_and_black_agree(self, sub_a):
        ct = circuit_type(sub_a)
        m = ct.as_matrix()
        for q in range(ct.num_qubits):
            for j in range(ct.num_columns):
                assert m[q][j] == ct.black(q, j)

    def test_well_formedness_rejects_non_growth(self):
        bad = CircuitType(2, (frozenset({0}), frozenset({0})))
        assert not bad.is_well_formed()


class TestDescriptor:
    def test_frozen_values(self, c, sub_b, sub_c):
        assert descriptor(Subcircuit.full(c)).entries == (
            (0, frozenset({0, 2})), (1, frozenset({0, 1, 2, 3})),
        )
        assert descriptor(sub_b).entries == (
            (1, frozenset({2, 3})), (2, frozenset({1, 2, 3})), (3, frozenset({0, 1, 2, 3})),
        )
        assert descriptor(sub_c).entries == (
            (1, frozenset({0, 1})), (2, frozenset({0, 1, 3})),
        )

    def test_round_trip(self, c, sub_b, sub_c):
        for s in (Subcircuit.full(c), sub_b, sub_c, Subcircuit(c, ())):
            assert restore(c, descriptor(s)) == s

    def test_validation(self):
        with pytest.raises(ValueError):
            SubcircuitDescriptor(2, ((1, frozenset({0})), (0, frozenset({0, 1}))))
        with pytest.raises(ValueError):
            SubcircuitDescriptor(2, ((0, frozenset({0})), (1, frozenset({0}))))
        with pytest.raises(ValueError):
            SubcircuitDescriptor(2, ((0, frozenset({5})),))

    def test_restore_rejects_foreign_descriptor(self, c):
        d = SubcircuitDescriptor(4, ((0, frozenset({0, 1, 2, 3})),))
        with pytest.raises(ValueError):
            restore(c, d)  # no subcircuit of c activates everyone in layer 0
        with pytest.raises(ValueError):
            restore(Circuit.from_ops(2, [("cx", (0, 1))]), descriptor(Subcircuit.full(c)))

    def test_bijection_exhaustive_small(self):
        # every subcircuit of every sampled small circuit round trips, and
        # descriptors separate distinct subcircuits
        rng = random.Random(7)
        for n, t in itertools.product((1, 2, 3), (0, 1, 3, 6)):
            for _ in range(4):
                ops = []
                for _ in range(t):
                    if n == 1 or rng.random() < 0.3:
                        ops.append(("h", (rng.randrange(n),)))
                    else:
                        a = rng.randrange(n)
                        b = rng.randrange(n - 1)
                        ops.append(("cx", (a, b + 1 if b >= a else b)))
                c = Circuit.from_ops(n, ops)
                seen = {}
                for mask in all_subcircuit_masks(c):
                    s = Subcircuit._from_mask(c, mask)
                    d = descriptor(s)
                    assert restore(c, d) == s
                    assert d not in seen, "two subcircuits share a descriptor"
                    seen[d] = mask


def _chains(n):
    """All strictly growing chains of nonempty subsets of range(n)."""
    subsets = []
    for r in range(1, n + 1):
        subsets.extend(frozenset(x) for x in itertools.combinations(range(n), r))
    out = [()]
    stack = [(frozenset(), ())]
    while stack:
        prev, chain = stack.pop()
        for s in subsets:
            if prev < s:
                grown = chain + (s,)
                out.append(grown)
                stack.append((s, grown))
    return out


class TestTypeCounts:
    def test_type_family_bound(self):
        # the well-formed n-qubit types number at most n! * 2^n
        for n in (1, 2, 3):
            chains = _chains(n)
            assert len(chains) <= math.factorial(n) * 2 ** n

    def test_observed_types_are_well_formed_chains(self):
        rng = random.Random(11)
        for n in (2, 3):
            allowed = set(_chains(n))
            for _ in range(6):
                c = random_cnot_circuit(rng, n, rng.randrange(1, 7))
                for mask in all_subcircuit_masks(c):
                    ct = circuit_type(Subcircuit._from_mask(c, mask))
                    assert ct.is_well_formed()
                    assert ct.columns in allowed

    def test_subcircuit_count_bound(self):
        # dependency-closed suffixes number at most n! * (2 * depth)^n
        rng = random.Random(13)
        for _ in range(8):
            n = rng.choice((2, 3))
            c = random_cnot_circuit(rng, n, rng.randrange(1, 7))
            count = len(all_subcircuit_masks(c))
            assert count <= math.factorial(n) * (2 * max(c.depth, 1)) ** n


# ---- property tests over random instances ----------------------------------

@st.composite
def circuit_and_masks(draw):
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    n = rng.randrange(2, 4)
    c = random_cnot_circuit(rng, n, rng.randrange(1, 7))
    masks = all_subcircuit_masks(c)
    a = draw(st.sampled_from(masks))
    b = draw(st.sampled_from(masks))
    return c, a, b, seed


@given(circuit_and_masks())
@settings(max_examples=120, deadline=None)
def test_reduce_properties(data):
    c, mask_a, mask_b, seed = data
    rng = random.Random(seed + 1)
    num_nodes = c.num_qubits + rng.randrange(0, 2)
    g = linear(max(num_nodes, 2))
    phys = tuple(rng.sample(range(g.num_nodes), c.num_qubits))
    p = Placement(phys)
    s = Subcircuit._from_mask(c, mask_a)
    r = reduce_subcircuit(s, p, g)
    # shrinking, idempotent, and monotone in the subcircuit order
    assert is_smaller(r, s)
    assert reduce_subcircuit(r, p, g) == r
    t = Subcircuit._from_mask(c, mask_b)
    if is_smaller(s, t):
        assert is_smaller(r, reduce_subcircuit(t, p, g))


@given(circuit_and_masks())
@settings(max_examples=60, deadline=None)
def test_minimize_properties(data):
    c, mask_a, mask_b, seed = data
    rng = random.Random(seed + 2)
    masks = all_subcircuit_masks(c)
    picks = [Subcircuit._from_mask(c, m)
             for m in rng.sample(masks, min(len(masks), 5))]
    picks.extend([Subcircuit._from_mask(c, mask_a), Subcircuit._from_mask(c, mask_b)])
    kept = minimize(picks)
    # antichain: no survivor dominates another
    for x, y in itertools.combinations(kept, 2):
        assert not is_smaller(x, y) and not is_smaller(y, x)
    # coverage: everything dropped is dominated by a survivor
    for s in picks:
        assert any(is_smaller(k, s) for k in kept)
