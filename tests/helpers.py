"""Shared builders for the test suite."""

import functools
import itertools
import random

from qcmap import Circuit, CouplingGraph, RandomCircuitSpec, clique, cycle, gen_random_circuit, linear


def example_circuit() -> Circuit:
    """4-qubit, 7-gate circuit used as the worked example across modules."""
    return Circuit.from_ops(4, [
        ("h", (0,)),
        ("t", (2,)),
        ("cx", (0, 1)),
        ("cx", (2, 3)),
        ("cx", (3, 1)),
        ("cx", (0, 1)),
        ("h", (3,)),
    ])


def random_connected_graph(rng: random.Random, num_nodes: int,
                           extra_edges: int = 2) -> CouplingGraph:
    """Random spanning tree plus up to extra_edges more edges."""
    order = list(range(num_nodes))
    rng.shuffle(order)
    edges = set()
    for i in range(1, num_nodes):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    rest = [(a, b) for a in range(num_nodes) for b in range(a + 1, num_nodes)
            if (a, b) not in edges]
    rng.shuffle(rest)
    edges.update(rest[:extra_edges])
    return CouplingGraph(num_nodes, edges)


def random_deg3_connected_graph(rng: random.Random, num_nodes: int,
                                extra_edges: int = 2) -> CouplingGraph:
    """Connected, every node degree <= 3: random path plus degree-safe extras."""
    order = list(range(num_nodes))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    deg = {v: 0 for v in range(num_nodes)}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    rest = [(a, b) for a in range(num_nodes) for b in range(a + 1, num_nodes)
            if (a, b) not in edges]
    rng.shuffle(rest)
    added = 0
    for a, b in rest:
        if added == extra_edges:
            break
        if deg[a] < 3 and deg[b] < 3:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
            added += 1
    return CouplingGraph(num_nodes, edges)


def generalized_petersen(n: int, k: int) -> CouplingGraph:
    """GP(n, k): an outer n-cycle, spokes to inner nodes n..2n-1, and inner
    node i joined to inner node i+k.  Cubic for k < n/2; GP(5, 2) is the
    Petersen graph, and GP(n, 2) has no Hamiltonian cycle exactly when
    n = 5 (mod 6) (Alspach, 1983)."""
    return CouplingGraph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                         + [(i, n + i) for i in range(n)]
                         + [(n + i, n + (i + k) % n) for i in range(n)])


def random_cnot_circuit(rng: random.Random, num_qubits: int, num_gates: int) -> Circuit:
    ops = []
    for _ in range(num_gates):
        a = rng.randrange(num_qubits)
        b = rng.randrange(num_qubits - 1)
        if b >= a:
            b += 1
        ops.append(("cx", (a, b)))
    return Circuit.from_ops(num_qubits, ops)


@functools.cache
def embeds_by_permutations(g: CouplingGraph, pairs: frozenset) -> bool:
    """Whether some injective placement, tried with itertools.permutations,
    puts every qubit pair of ``pairs`` on an edge of g."""
    qubits = sorted({q for p in pairs for q in p})
    slots = [(qubits.index(a), qubits.index(b)) for a, b in pairs]
    edges = g.edges | {(b, a) for a, b in g.edges}
    return any(all((place[i], place[j]) in edges for i, j in slots)
               for place in itertools.permutations(range(g.num_nodes), len(qubits)))


def reference_layers(c: Circuit, g: CouplingGraph) -> tuple[int, ...]:
    """The gate-order layers L_1, ..., L_{B+1} as gate masks, from their
    definition.  From the done set D, empty at first, a step adds every
    gate whose operand pairs, with those of its ancestors outside D,
    embed (``embeds_by_permutations``).  A gate's ancestors outside D are
    taken from Circuit.direct_predecessors."""
    preds = c.direct_predecessors
    n = len(c.gates)
    pair = [tuple(sorted(gate.qubits)) if len(gate.qubits) == 2 else None for gate in c.gates]
    done = 0
    layers = []
    while done != (1 << n) - 1:
        closure = [0] * n  # per gate outside D, it and its ancestors outside D
        layer = 0
        for i in range(n):
            if done >> i & 1:
                continue
            closure[i] = 1 << i
            for p in preds[i]:
                if not done >> p & 1:
                    closure[i] |= closure[p]
            pairs = frozenset(pair[j] for j in range(n) if closure[i] >> j & 1 and pair[j])
            if embeds_by_permutations(g, pairs):
                layer |= 1 << i
        layers.append(layer)
        done |= layer
    return tuple(layers)


def all_subcircuit_masks(c: Circuit) -> list[int]:
    """Every dependency-closed set of remaining gates, as bitmasks.

    A mask is valid when no executed gate still has a pending predecessor,
    i.e. the executed set is downward closed in the dependency order.
    """
    preds = c.predecessor_masks
    out = []
    for mask in range(1 << len(c.gates)):
        ok = True
        for j in range(len(c.gates)):
            if mask >> j & 1:
                continue
            if preds[j] & mask:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


def assert_strict_plan(plan) -> None:
    """Replay a plan and assert that both endpoints of every SWAP hold a
    qubit, as strict mode requires."""
    placement = plan.initial
    for a, b in plan.swaps:
        held = set(placement.to_physical)
        assert a in held and b in held, (plan, (a, b))
        placement = placement.apply_swap(a, b)


def _canonical_gate_seq(seq, n):
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple((perm[a], perm[b]) for a, b in seq)
        if best is None or mapped < best:
            best = mapped
    return best


def _canonical_cnot_circuits(n, max_gates):
    """All-CNOT circuits on n qubits, one representative per relabeling class."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    yield Circuit.from_ops(n, [])
    for t in range(1, max_gates + 1):
        for seq in itertools.product(pairs, repeat=t):
            if _canonical_gate_seq(seq, n) == seq:
                yield Circuit.from_ops(n, [("cx", p) for p in seq])


def criterion_1_instances():
    """Acceptance criterion 1's (circuit, graph) corpus: every all-CNOT
    circuit on 1-3 qubits with up to 5 gates, one per relabeling class, on
    each path, clique and ring of 2-4 nodes; then 200 seeded 4-qubit draws
    on random connected 4-node graphs."""
    graphs = []
    for b in (2, 3, 4):
        graphs.append(linear(b))
        graphs.append(clique(b))
        if b >= 3:
            graphs.append(cycle(b))
    graphs = list(dict.fromkeys(graphs))
    for n in (1, 2, 3):
        for c in _canonical_cnot_circuits(n, 5):
            for g in graphs:
                yield c, g
    rng = random.Random(20240)
    for _ in range(200):
        g = random_connected_graph(rng, 4, rng.randrange(0, 4))
        yield random_cnot_circuit(rng, 4, rng.randrange(1, 9)), g


def criterion_2_instances():
    """Acceptance criterion 2's 500 seeded (circuit, graph) instances:
    2-4 qubits, graphs of up to 6 nodes, 1-8 gates, every fifth with
    single-qubit gates mixed in."""
    rng = random.Random(99173)
    out = []
    for i in range(500):
        n = rng.randrange(2, 5)
        b = rng.randrange(n, 7)
        g = random_connected_graph(rng, b, rng.randrange(0, 4))
        gates = rng.randrange(1, 9)
        if i % 5 == 0:
            # every fifth instance mixes in single-qubit gates
            c = gen_random_circuit(RandomCircuitSpec(n, gates, 0.8, rng.randrange(2 ** 30)))
        else:
            c = random_cnot_circuit(rng, n, gates)
        out.append((c, g))
    return out
