"""Coupling graphs: which hardware nodes support a two-qubit interaction.

Graphs are undirected, connected, simple, with nodes numbered 0..n-1.
Includes generators for the standard families (path, ring, clique, the
three regular tilings) and two fixed 20/16-node device layouts.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property


class CouplingGraph:
    """Immutable undirected connected graph with precomputed metrics."""

    def __init__(self, num_nodes: int, edges):
        # Use from_edge_list for duplicate detection on raw input.
        self.num_nodes = num_nodes
        self.edges: frozenset[tuple[int, int]] = frozenset(
            (min(a, b), max(a, b)) for a, b in edges
        )
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                raise ValueError(f"edge ({a}, {b}) outside [0, {num_nodes})")
        if num_nodes < 1:
            raise ValueError("graph needs at least one node")
        self._check_connected()
        self._max_degree = max(map(len, self.neighbors))
        # The levels of within(), from level 0: no node has another node
        # within 0 hops, so every node has room for 0 others and none for 1.
        self._within: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
            ((0,) * num_nodes, ((1 << num_nodes) - 1,) + (0,) * num_nodes)]

    @classmethod
    def from_edge_list(cls, num_nodes: int, edges) -> "CouplingGraph":
        """Build from raw pairs; rejects duplicates (in either orientation)."""
        seen = set()
        for a, b in edges:
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add(key)
        return cls(num_nodes, seen)

    def _check_connected(self) -> None:
        # A connected graph has at least n - 1 edges; checking that first
        # keeps a bare "nodes N" header from building N neighbor lists.
        if len(self.edges) < self.num_nodes - 1 or -1 in self._bfs(0):
            raise ValueError("graph is not connected")

    def _bfs(self, src: int) -> list[int]:
        """Hop counts from node src, -1 for nodes it does not reach."""
        nbrs = self.neighbors
        dist = [-1] * self.num_nodes
        dist[src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in out)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per node, a bitmask of its neighbors."""
        masks = [0] * self.num_nodes
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop counts via one BFS per node."""
        return tuple(tuple(self._bfs(src)) for src in range(self.num_nodes))

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Non-identity node permutations that keep every hop distance, and
        so every edge; ``p[v]`` is the image of node v.

        Found by backtracking over node images in node order: a node maps
        only to a node with the same sorted distance row, and each image
        keeps the distance to every node mapped before it.  The search
        stops after 2 * num_nodes elements, which bounds the time and
        memory of the group, its masks and the mapper's test of each
        partial placement against it on graphs with huge groups (a 12-leaf
        star has 12! automorphisms).  A ring's whole dihedral group fits:
        2 * num_nodes - 1 elements besides the identity.  A truncated
        subset still keeps the mapper's seed orbit filter exact: an
        orbit's leader, its least placement in the seed backtrack's order,
        is no larger than any of its images, so it passes the test for any
        subset.  Only the complete group makes the leader the one seed of
        its orbit; a subset may keep more.
        """
        n = self.num_nodes
        dist = self.distances
        rings = []  # rings[v][d]: bitmask of the nodes d hops from v
        for row in dist:
            ring = [0] * (max(row) + 1)
            for w, d in enumerate(row):
                ring[d] |= 1 << w
            rings.append(ring)
        # Per node, the nodes with the same sorted distance row, grouped in
        # one pass over the rows.
        profile = [tuple(sorted(row)) for row in dist]
        groups: dict[tuple[int, ...], int] = {}
        for v, key in enumerate(profile):
            groups[key] = groups.get(key, 0) | 1 << v
        same = [groups[key] for key in profile]
        identity = tuple(range(n))
        found: list[tuple[int, ...]] = []
        image = [0] * n
        # Depth-first over nodes: cands[i] holds the images still to try for
        # node i, given the images of nodes 0..i-1.
        cands = [0] * n
        cands[0] = same[0]
        i = 0
        while i >= 0:
            cand = cands[i]
            if not cand:
                i -= 1
                continue
            low = cand & -cand
            cands[i] = cand ^ low
            image[i] = low.bit_length() - 1
            if i + 1 == n:
                p = tuple(image)
                if p != identity:
                    found.append(p)
                    if len(found) == 2 * n:
                        break
                continue
            i += 1
            cand = same[i]
            for j in range(i):
                cand &= rings[image[j]][dist[j][i]]
            cands[i] = cand
        return tuple(found)

    @cached_property
    def automorphism_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The automorphisms as bitmasks, for the mapper's orbit filter:
        per node, the automorphisms that fix it (bit j for
        ``automorphisms[j]``); per automorphism, the nodes it maps lower."""
        fixes = [0] * self.num_nodes
        lowers = []
        for j, p in enumerate(self.automorphisms):
            down = 0
            for x, y in enumerate(p):
                if y == x:
                    fixes[x] |= 1 << j
                elif y < x:
                    down |= 1 << x
            lowers.append(down)
        return tuple(fixes), tuple(lowers)

    def within(self, hops: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per node, the bitmask of the other nodes at most ``hops`` away;
        and per count c from 0 to num_nodes, the bitmask of the nodes that
        have at least c such nodes.

        Built once per hop count from ``adjacency_masks``, never from the
        distance table: the levels start from level 0, where no node has
        another, and h hops reach the neighbors and whatever they reach in
        h-1 hops, so each level is grown from the one below it.  Growth
        stops at the first level whose balls hold every other node, the
        diameter's, since the graph is connected: the level above it
        equals it, so it stands for every larger count.  The mapper seeds
        from these sets and the adjacency masks alone; its distance table
        is built when a bucket's count passes, or at once for a fixed
        start."""
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        levels = self._within
        while len(levels) <= hops:
            n = self.num_nodes
            if levels[-1][1][n - 1] == (1 << n) - 1:
                return levels[-1]
            adjacency = self.adjacency_masks
            below = levels[-1][0]
            reach = []
            for v, ns in enumerate(self.neighbors):
                ball = adjacency[v]
                for w in ns:
                    ball |= below[w]
                reach.append(ball & ~(1 << v))
            # File each node under its own count, then OR the masks down
            # from the top count, so fits[c] holds every count >= c.
            fits = [0] * (n + 1)
            for x, near in enumerate(reach):
                fits[near.bit_count()] |= 1 << x
            for c in range(n - 1, -1, -1):
                fits[c] |= fits[c + 1]
            levels.append((tuple(reach), tuple(fits)))
        return levels[hops]

    def distance(self, a: int, b: int) -> int:
        for v in (a, b):
            if not 0 <= v < self.num_nodes:
                raise ValueError(f"node {v} outside graph")
        return self.distances[a][b]

    @cached_property
    def diameter(self) -> int:
        return max(max(row) for row in self.distances)

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def max_degree(self) -> int:
        """The largest number of neighbors of a node, counted once per graph."""
        return self._max_degree

    def is_bipartite(self) -> bool:
        # In a connected graph an edge joins nodes at equal hop counts from
        # node 0 or at counts one apart; only the first closes an odd cycle.
        d = self._bfs(0)
        return all(d[a] != d[b] for a, b in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingGraph):
            return NotImplemented
        return self.num_nodes == other.num_nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.edges))

    def __repr__(self) -> str:
        return f"CouplingGraph(num_nodes={self.num_nodes}, edges=<{len(self.edges)}>)"


# --- generators -------------------------------------------------------------


def linear(n: int) -> CouplingGraph:
    """Path on n nodes."""
    if n < 1:
        raise ValueError("linear graph needs n >= 1")
    return CouplingGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> CouplingGraph:
    """Ring on n nodes."""
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    return CouplingGraph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n: int) -> CouplingGraph:
    """Complete graph on n nodes."""
    if n < 1:
        raise ValueError("clique needs n >= 1")
    return CouplingGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_square(rows: int, cols: int) -> CouplingGraph:
    """Square-lattice patch with rows x cols nodes, numbered row-major."""
    if rows < 1 or cols < 1:
        raise ValueError("grid extent must be >= 1 in both directions")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return CouplingGraph(rows * cols, edges)


def grid_hex(rows: int, cols: int) -> CouplingGraph:
    """Honeycomb patch covering rows x cols hexagonal cells.

    Built brick-wall style: cell (r, c) spans corner points
    (2c + r % 2 .. +2, r .. r+1); shared corners merge.  Interior nodes
    have degree 3 and the graph is bipartite, as in the infinite tiling.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid extent must be >= 1 in both directions")
    # Edges between corner points keyed (row, x); the points are then
    # numbered row-major.
    pairs = set()
    for r in range(rows):
        for c in range(cols):
            x = 2 * c + r % 2
            for y in (r, r + 1):
                pairs.add(((y, x), (y, x + 1)))
                pairs.add(((y, x + 1), (y, x + 2)))
            pairs.add(((r, x), (r + 1, x)))
            pairs.add(((r, x + 2), (r + 1, x + 2)))
    number = {key: i for i, key in enumerate(sorted({key for pair in pairs for key in pair}))}
    return CouplingGraph(len(number), [(number[a], number[b]) for a, b in pairs])


def grid_triangle(rows: int, cols: int) -> CouplingGraph:
    """Triangular-lattice patch over a rows x cols rhombus grid.

    Nodes form a (rows+1) x (cols+1) array joined by horizontal, vertical
    and one diagonal direction; each unit cell splits into two triangles.
    Interior nodes have degree 6.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid extent must be >= 1 in both directions")
    width = cols + 1
    diagonals = [(r * width + c, (r + 1) * width + c + 1)
                 for r in range(rows) for c in range(cols)]
    return CouplingGraph((rows + 1) * width, [*grid_square(rows + 1, width).edges, *diagonals])


def tokyo() -> CouplingGraph:
    """20-node device layout: a 4x5 lattice with alternating diagonal pairs."""
    diagonals = [
        (1, 7), (2, 6), (3, 9), (4, 8),
        (5, 11), (6, 10), (7, 13), (8, 12),
        (11, 17), (12, 16), (13, 19), (14, 18),
    ]
    return CouplingGraph.from_edge_list(20, [*grid_square(4, 5).edges, *diagonals])


def aspen() -> CouplingGraph:
    """16-node device layout: two rings of eight bridged at (5,6) and (9,10)."""
    edges = [
        (0, 1), (0, 4), (1, 5), (2, 3), (2, 6), (3, 7),
        (4, 8), (5, 6), (5, 9), (6, 10), (7, 11), (8, 12),
        (9, 10), (9, 13), (10, 14), (11, 15), (12, 13), (14, 15),
    ]
    return CouplingGraph.from_edge_list(16, edges)


# Family name -> (generator, number of size parameters), in the order
# the CLI lists the families.
_GENERATORS = {
    "linear": (linear, 1),
    "cycle": (cycle, 1),
    "clique": (clique, 1),
    "grid_square": (grid_square, 2),
    "grid_hex": (grid_hex, 2),
    "grid_triangle": (grid_triangle, 2),
    "tokyo": (tokyo, 0),
    "aspen": (aspen, 0),
}
FAMILIES = tuple(_GENERATORS)


def gen(family: str, *params: int) -> CouplingGraph:
    """Dispatch to a generator by family name.

    linear/cycle/clique take one size; the grids take (rows, cols);
    tokyo/aspen take no parameters.
    """
    if family not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}")
    make, arity = _GENERATORS[family]
    if len(params) != arity:
        noun = "parameter" if arity == 1 else "parameters"
        raise ValueError(f"{family} takes {arity} size {noun}, got {len(params)}")
    return make(*params)
