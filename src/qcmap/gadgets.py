"""Hardness-construction toolkit: gadget circuits, problem reductions into
swap-budget instances, and checkers for the structural claims each
construction makes."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .circuits import Circuit
from .coupling import CouplingGraph
from .errors import ParseError
from .formats import format_graph, load_circuit, load_graph, save_circuit, save_graph
from .mapper import Placement, SwapPlan
from .oracle import VerificationReport, ham_cycle, shortest_path, shortest_path_nodes, verify_plan


@dataclass(frozen=True)
class Digraph:
    """Directed graph on nodes 0..num_nodes-1; arcs are (src, dst) pairs."""

    num_nodes: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        for a, b in self.arcs:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < self.num_nodes and 0 <= b < self.num_nodes):
                raise ValueError(f"arc ({a}, {b}) outside node range")

    @classmethod
    def from_arc_list(cls, num_nodes: int, arcs: list[tuple[int, int]]) -> Digraph:
        return cls(num_nodes, frozenset((a, b) for a, b in arcs))

    def out_neighbors(self, v: int) -> list[int]:
        return sorted(b for a, b in self.arcs if a == v)

    def in_neighbors(self, v: int) -> list[int]:
        return sorted(a for a, b in self.arcs if b == v)

    def out_degree(self, v: int) -> int:
        return sum(1 for a, _ in self.arcs if a == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for _, b in self.arcs if b == v)

    def max_io_degree(self) -> int:
        """Largest in- or out-degree over all nodes."""
        if not self.arcs:
            return 0
        return max(
            max(self.out_degree(v), self.in_degree(v))
            for v in range(self.num_nodes)
        )

    def underlying_connected(self) -> bool:
        """Is the graph connected once arc directions are forgotten?"""
        adj: list[set[int]] = [set() for _ in range(self.num_nodes)]
        for a, b in self.arcs:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_nodes

    def canonical_text(self) -> str:
        lines = [f"nodes {self.num_nodes}"]
        lines += [f"arc {a} {b}" for a, b in sorted(self.arcs)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReductionInstance:
    """A (circuit, graph, swap budget) triple plus a provenance tag naming
    the construction and a digest of its source instance."""

    circuit: Circuit
    graph: CouplingGraph
    budget: int
    provenance: str

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not self.provenance or "\n" in self.provenance:
            raise ValueError("provenance must be a single non-empty line")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def save_instance(inst: ReductionInstance, prefix: str | Path) -> None:
    """Write <prefix>.qc, <prefix>.cg, and <prefix>.hdr."""
    base = str(prefix)
    save_circuit(inst.circuit, base + ".qc")
    save_graph(inst.graph, base + ".cg")
    Path(base + ".hdr").write_text(
        f"budget {inst.budget} provenance {inst.provenance}\n"
    )


def load_instance(prefix: str | Path) -> ReductionInstance:
    base = str(prefix)
    circuit = load_circuit(base + ".qc")
    graph = load_graph(base + ".cg")
    line = Path(base + ".hdr").read_text().strip()
    parts = line.split(maxsplit=3)
    if len(parts) != 4 or parts[0] != "budget" or parts[2] != "provenance":
        raise ParseError("expected 'budget <k> provenance <tag>'", line=1)
    try:
        budget = int(parts[1])
    except ValueError:
        raise ParseError(f"bad budget {parts[1]!r}", line=1) from None
    return ReductionInstance(circuit, graph, budget, parts[3])


# --- gadget circuits --------------------------------------------------------

# Pairwise-CNOT schedule for 5 qubits, column by column.
_CLIQUE5_ORDER = (
    (0, 1), (2, 3), (0, 2), (3, 4), (0, 3),
    (0, 4), (1, 2), (1, 3), (1, 4), (2, 4),
)


def gen_clique_circuit(n: int) -> Circuit:
    """CNOTs on every qubit pair; topology graph is the n-clique."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if n == 5:
        pairs = _CLIQUE5_ORDER
    else:
        pairs = tuple((a, b) for a in range(n) for b in range(a + 1, n))
    return Circuit.from_ops(n, [("cx", p) for p in pairs])


def gen_path_circuit(n: int) -> Circuit:
    """CNOTs chaining qubit i to i+1; odd-position gates first so the whole
    thing fits in two layers."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    order = [i for i in range(1, n) if i % 2 == 1] + [i for i in range(1, n) if i % 2 == 0]
    return Circuit.from_ops(n, [("cx", (i - 1, i)) for i in order])


def gen_cycle_circuit(n: int) -> Circuit:
    """Path circuit plus a closing CNOT between the end qubits."""
    if n < 3:
        raise ValueError("need at least 3 qubits")
    base = gen_path_circuit(n)
    ops = [(g.label, g.qubits) for g in base.gates]
    ops.append(("cx", (0, n - 1)))
    return Circuit.from_ops(n, ops)


def repeat_circuit(c: Circuit, h: int) -> Circuit:
    """h consecutive copies of c on the same qubits."""
    if h < 1:
        raise ValueError("repetition count must be at least 1")
    ops = [(g.label, g.qubits) for g in c.gates] * h
    return Circuit.from_ops(c.num_qubits, ops)


def parallel_bridge(c1: Circuit, c2: Circuit) -> Circuit:
    """c1 and c2 on disjoint qubit blocks, then one CNOT joining their
    first qubits."""
    if not c1.gates or not c2.gates:
        raise ValueError("both circuits must be nonempty")
    off = c1.num_qubits
    ops = [(g.label, g.qubits) for g in c1.gates]
    ops += [(g.label, tuple(q + off for q in g.qubits)) for g in c2.gates]
    ops.append(("cx", (0, off)))
    return Circuit.from_ops(off + c2.num_qubits, ops)


# --- reductions with budget 0 ----------------------------------------------


def reduce_clique_to_qcm(g: CouplingGraph, n: int) -> ReductionInstance:
    """g has an n-clique iff this instance needs no swaps."""
    if n < 2:
        raise ValueError("clique size must be at least 2")
    prov = f"clique;n={n};src={_digest(format_graph(g))}"
    return ReductionInstance(gen_clique_circuit(n), g, 0, prov)


def reduce_hamcycle_to_qcm(g: CouplingGraph) -> ReductionInstance:
    """g has a Hamiltonian cycle iff this instance needs no swaps."""
    if g.num_nodes < 3:
        raise ValueError("need at least 3 nodes")
    prov = f"hamcycle;src={_digest(format_graph(g))}"
    return ReductionInstance(gen_cycle_circuit(g.num_nodes), g, 0, prov)


def reduce_hamcycle_to_hampath_qcm(g: CouplingGraph) -> ReductionInstance:
    """Route the Hamiltonian-cycle question through a Hamiltonian-path
    instance on an enlarged graph H, then ask for a zero-swap embedding of
    a path circuit.

    Two cases.  With a degree-2 node a: pendants hang off a and off one of
    its neighbors, |H| = n+2.  Without one: a pendant hangs off node a = 0,
    and a fresh edge (b, c) is tied in by joining b to every neighbor of a,
    |H| = n+3.  Either way the two pendant nodes force the path's ends.
    """
    if g.max_degree() > 3:
        raise ValueError("maximum degree must be at most 3")
    n = g.num_nodes
    if n < 3:
        raise ValueError("need at least 3 nodes")
    edges = set(g.edges)
    deg2 = [v for v in range(n) if len(g.neighbors[v]) == 2]
    if deg2:
        a = deg2[0]
        u = g.neighbors[a][0]
        edges.add((a, n))
        edges.add((u, n + 1))
        h = CouplingGraph(n + 2, edges)
        case = 1
    else:
        a = 0
        z, b, c = n, n + 1, n + 2
        edges.add((a, z))
        edges.add((b, c))
        for w in g.neighbors[a]:
            edges.add((w, b))
        h = CouplingGraph(n + 3, edges)
        case = 2
    if h.max_degree() > 4:
        raise AssertionError("construction exceeded degree 4")
    prov = f"hamcycle-via-hampath;case={case};src={_digest(format_graph(g))}"
    return ReductionInstance(gen_path_circuit(h.num_nodes), h, 0, prov)


# --- reachability gadget ----------------------------------------------------


def build_usp_gadget(h: Digraph, s: int, t: int) -> tuple[CouplingGraph, int, int, int]:
    """Turn directed s-to-t reachability into a distance question on a
    degree-3 undirected graph.

    Nodes of h become columns (s first, t last) in an m-row anchor grid.
    Between consecutive rows, binary trees of height d fan each anchor out
    to one shared connector per allowed column transition (stay put, or
    follow an arc).  Every tree leaf sits at depth exactly d and is merged
    with exactly one opposing leaf, so anchors in consecutive rows are at
    distance 2d+2 precisely when the transition is allowed.

    Returns (graph, entry anchor, exit anchor, target distance); s reaches
    t in h iff the two anchors are exactly target apart.
    """
    m = h.num_nodes
    if m < 2:
        raise ValueError("malformed input: need at least 2 nodes")
    if not (0 <= s < m and 0 <= t < m) or s == t:
        raise ValueError("malformed input: bad terminals")
    if not h.underlying_connected():
        raise ValueError("malformed input: underlying graph is disconnected")
    cols = [s] + [v for v in range(m) if v not in (s, t)] + [t]
    colof = {v: j for j, v in enumerate(cols)}
    degmax = h.max_io_degree()
    d = degmax.bit_length()  # ceil(log2(degmax + 1)); >= 1 here
    arc_cols = sorted((colof[a], colof[b]) for a, b in h.arcs)

    nid = m * m  # anchors come first: row i, column j -> i*m + j
    edges: list[tuple[int, int]] = []

    def fresh() -> int:
        nonlocal nid
        v = nid
        nid += 1
        return v

    def build_tree(anchor: int, leaves: list[int]) -> None:
        # Height-d binary tree under the anchor, left-filled so every
        # leaf-slot lands at depth exactly d.  Leaves are pre-allocated
        # connector nodes shared with the opposing tree.
        count = len(leaves)
        levels: list[list[int]] = []
        for k in range(d):
            width = -(-count // (1 << (d - k)))
            levels.append([fresh() for _ in range(width)])
        levels.append(leaves)
        edges.append((anchor, levels[0][0]))
        for k in range(1, d + 1):
            for idx, v in enumerate(levels[k]):
                edges.append((levels[k - 1][idx // 2], v))

    for i in range(m - 1):
        keys = sorted({(j, j) for j in range(m)} | set(arc_cols))
        conn = {key: fresh() for key in keys}
        for j in range(m):
            dsts = sorted(colof[w] for w in h.out_neighbors(cols[j]))
            build_tree(i * m + j, [conn[(j, j)]] + [conn[(j, jd)] for jd in dsts])
        for j in range(m):
            srcs = sorted(colof[w] for w in h.in_neighbors(cols[j]))
            build_tree((i + 1) * m + j, [conn[(j, j)]] + [conn[(js, j)] for js in srcs])

    graph = CouplingGraph(nid, edges)
    target = (m - 1) * (2 * d + 2)
    _check_usp_gadget(graph, m, d, set(arc_cols))
    return graph, 0, m * m - 1, target


def _check_usp_gadget(graph: CouplingGraph, m: int, d: int,
                      arc_cols: set[tuple[int, int]]) -> None:
    # Build-time self-check of the two claims the reduction rests on.
    if graph.max_degree() > 3:
        raise AssertionError("gadget degree exceeds 3")
    want = 2 * d + 2
    for i in range(m - 1):
        for j in range(m):
            dist = graph.distances[i * m + j]
            for j2 in range(m):
                allowed = j == j2 or (j, j2) in arc_cols
                if allowed != (dist[(i + 1) * m + j2] == want):
                    raise AssertionError("row-distance property violated")


def reduce_usp_to_qcm(g: CouplingGraph, s: int, t: int, k: int) -> ReductionInstance:
    """Is s within distance k of t?  Becomes: do k-1 swaps suffice for a
    10-qubit bridged double-block circuit on g plus two 4-cliques?

    Each block pins its copy to the full clique around s (resp. t); only
    the bridging CNOT can demand movement, and the cheapest way to run it
    walks one endpoint along an s-t shortest path.
    """
    if g.max_degree() > 3:
        raise ValueError("maximum degree must be at most 3")
    if k < 1:
        raise ValueError("distance bound must be at least 1")
    b = g.num_nodes
    if not (0 <= s < b and 0 <= t < b) or s == t:
        raise ValueError("bad terminals")
    edges = set(g.edges)
    for group, anchor in ((range(b, b + 4), s), (range(b + 4, b + 8), t)):
        for x in group:
            edges.add((anchor, x))
            for y in group:
                if x < y:
                    edges.add((x, y))
    graph = CouplingGraph(b + 8, edges)
    block = repeat_circuit(gen_clique_circuit(5), b)
    circuit = parallel_bridge(block, block)
    prov = f"usp;s={s};t={t};k={k};src={_digest(format_graph(g))}"
    return ReductionInstance(circuit, graph, k - 1, prov)


def usp_witness_plan(g: CouplingGraph, s: int, t: int) -> SwapPlan:
    """The constructive certificate for reduce_usp_to_qcm: both blocks on
    their cliques, then dist(s,t)-1 swaps walking the first qubit along a
    shortest path until the bridge gate becomes adjacent."""
    b = g.num_nodes
    nodes = shortest_path_nodes(g, s, t)
    place = (s, b, b + 1, b + 2, b + 3, t, b + 4, b + 5, b + 6, b + 7)
    swaps = tuple((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 2))
    return SwapPlan(Placement(place), swaps)


def check_usp_instance(g: CouplingGraph, s: int, t: int, k: int) -> VerificationReport | None:
    """Certify the yes-direction: if dist(s,t) <= k, the witness plan must
    pass verification within the reduced budget.  Returns None when the
    distance exceeds k (no certificate to check)."""
    inst = reduce_usp_to_qcm(g, s, t, k)
    if shortest_path(g, s, t) > k:
        return None
    plan = usp_witness_plan(g, s, t)
    report = verify_plan(inst.circuit, inst.graph, plan)
    if not report.accepted or report.swaps_used > inst.budget:
        raise AssertionError("witness plan rejected on a yes-instance")
    return report


# --- fixed swap budget ------------------------------------------------------


def reduce_hamcycle_to_fixed_k(h: CouplingGraph, k: int) -> ReductionInstance:
    """Hamiltonian cycle with the swap budget frozen at k: a 5-clique hangs
    off node 0 of h by a path of k+1 edges, and the circuit bridges a
    2k-fold clique block with a 2k-fold cycle block.  The repetition makes
    any placement off the intended spots cost more than k."""
    if h.max_degree() > 3:
        raise ValueError("maximum degree must be at most 3")
    if k < 1:
        raise ValueError("swap budget must be at least 1")
    n = h.num_nodes
    if n < 3:
        raise ValueError("need at least 3 nodes")
    edges = set(h.edges)
    for x in range(n, n + 5):
        for y in range(x + 1, n + 5):
            edges.add((x, y))
    chain = [n] + list(range(n + 5, n + 5 + k)) + [0]
    for a, b in zip(chain, chain[1:]):
        edges.add((a, b))
    graph = CouplingGraph(n + 5 + k, edges)
    circuit = parallel_bridge(
        repeat_circuit(gen_clique_circuit(5), 2 * k),
        repeat_circuit(gen_cycle_circuit(n), 2 * k),
    )
    prov = f"hamcycle-fixed-swaps;k={k};src={_digest(format_graph(h))}"
    return ReductionInstance(circuit, graph, k, prov)


def fixed_k_witness_plan(h: CouplingGraph, k: int, cycle: list[int]) -> SwapPlan:
    """Certificate for reduce_hamcycle_to_fixed_k given a Hamiltonian cycle
    of h: clique block on the attached 5-clique, cycle block laid along the
    cycle with its first qubit on node 0, then k swaps walking the clique's
    first qubit down the pendant path."""
    n = h.num_nodes
    if sorted(cycle) != list(range(n)):
        raise ValueError("not a Hamiltonian cycle")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not h.has_edge(a, b):
            raise ValueError("not a Hamiltonian cycle")
    i0 = cycle.index(0)
    rot = cycle[i0:] + cycle[:i0]
    place = tuple(range(n, n + 5)) + tuple(rot)
    path = [n] + list(range(n + 5, n + 5 + k))
    swaps = tuple(zip(path, path[1:]))
    return SwapPlan(Placement(place), swaps)


def check_fixed_k_instance(h: CouplingGraph, k: int) -> VerificationReport | None:
    """Certify the yes-direction: when h has a Hamiltonian cycle, the
    witness plan must verify within budget k.  None when no cycle exists."""
    cycle = ham_cycle(h)
    if cycle is None:
        return None
    inst = reduce_hamcycle_to_fixed_k(h, k)
    plan = fixed_k_witness_plan(h, k, cycle)
    report = verify_plan(inst.circuit, inst.graph, plan)
    if not report.accepted or report.swaps_used > inst.budget:
        raise AssertionError("witness plan rejected on a yes-instance")
    return report


# --- graphs back into circuits ----------------------------------------------


def circuit_from_degree_bounded_graph(h: CouplingGraph, d: int) -> Circuit:
    """A circuit of depth at most d+1 whose topology graph is exactly h,
    for any h of maximum degree d: properly color the edges with d+1
    colors, then play each color class as one layer of CNOTs."""
    if h.max_degree() > d:
        raise ValueError("degree bound violated")
    coloring = _edge_color(h, d + 1)
    classes: dict[int, list[tuple[int, int]]] = {}
    for edge, col in coloring.items():
        classes.setdefault(col, []).append(edge)
    ops = []
    for col in sorted(classes):
        for a, b in sorted(classes[col]):
            ops.append(("cx", (a, b)))
    return Circuit.from_ops(h.num_nodes, ops)


def _edge_color(g: CouplingGraph, ncolors: int) -> dict[tuple[int, int], int]:
    """Proper edge coloring with ncolors >= max_degree + 1 colors, by fan
    rotation and alternating-path inversion."""
    color: dict[tuple[int, int], int] = {}
    # at[v][c] = the neighbor joined to v by the c-colored edge
    at: list[dict[int, int]] = [{} for _ in range(g.num_nodes)]

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def free(v: int) -> int:
        for c in range(ncolors):
            if c not in at[v]:
                return c
        raise AssertionError("palette exhausted")

    def paint(a: int, b: int, c: int) -> None:
        color[key(a, b)] = c
        at[a][c] = b
        at[b][c] = a

    def unpaint(a: int, b: int) -> None:
        c = color.pop(key(a, b))
        del at[a][c]
        del at[b][c]

    for u, v0 in g.sorted_edges:
        fan = [v0]
        used = {v0}
        while True:
            ext = None
            for w in g.neighbors[u]:
                if w in used:
                    continue
                cw = color.get(key(u, w))
                if cw is not None and cw not in at[fan[-1]]:
                    ext = w
                    break
            if ext is None:
                break
            fan.append(ext)
            used.add(ext)
        c = free(u)
        dd = free(fan[-1])
        if dd != c and dd in at[u]:
            # invert the maximal path of edges alternately colored dd, c
            chain: list[tuple[int, int, int]] = []
            cur, want = u, dd
            while want in at[cur]:
                nxt = at[cur][want]
                chain.append((cur, nxt, want))
                cur, want = nxt, c if want == dd else dd
                if len(chain) > len(color):
                    raise AssertionError("alternating path looped")
            for a, b, _ in chain:
                unpaint(a, b)
            for a, b, cc in chain:
                paint(a, b, c if cc == dd else dd)
        # longest fan prefix that survived the inversion and ends dd-free
        wi = None
        for idx in range(len(fan) - 1, -1, -1):
            if dd in at[fan[idx]]:
                continue
            ok = True
            for p in range(idx):
                cn = color.get(key(u, fan[p + 1]))
                if cn is None or cn in at[fan[p]]:
                    ok = False
                    break
            if ok:
                wi = idx
                break
        if wi is None:
            raise AssertionError("no rotatable fan prefix")
        shift = [color[key(u, fan[p + 1])] for p in range(wi)]
        for p in range(1, wi + 1):
            unpaint(u, fan[p])
        for p in range(wi):
            paint(u, fan[p], shift[p])
        paint(u, fan[wi], dd)

    for a, b in g.edges:
        if key(a, b) not in color:
            raise AssertionError("edge left uncolored")
    for v in range(g.num_nodes):
        seen = [color[key(v, w)] for w in g.neighbors[v]]
        if len(seen) != len(set(seen)) or any(c >= ncolors for c in seen):
            raise AssertionError("coloring not proper")
    return color
