"""Exact minimal-SWAP mapping of a circuit onto a coupling graph.

A search state is a placement plus a pending circuit fragment: the gates
not yet executed.  Applying a graph edge as a SWAP gives a new placement,
on which the fragment is re-reduced; a state whose fragment is empty has
executed the whole circuit, and its level (the SWAPs applied so far) is
its cost.

One best-first (A*) search runs over all initial placements at once.  A
state at level L is ordered by f = L + h, where h is the largest distance
between the operands of a pending two-qubit gate, minus one.  A SWAP
moves each qubit one hop, so it lowers h by at most one: h never
overestimates the SWAPs still needed and f never drops along a path, so
the first finished fragment is optimal.  States wait in f-buckets, swept
in increasing f.  Bucket K is seeded with the placements whose h is
exactly K, found by backtracking over partial placements that keep every
interacting pair within K+1 hops; at K = 0 that is the embedding test of
the interaction topology.  A count comes first: a qubit with d partners
needs a node with d others within K+1 hops, and if the c-th largest
degree has fewer than c such nodes (Hall's condition) the bucket has no
seed and its backtrack never runs; nor does bucket 0's on a bipartite
graph when the topology has an odd cycle.  Seeding reads the room sets
that ``CouplingGraph.within`` grows from the adjacency masks, and the
masks themselves: the count, the backtrack's hop limits and its tests
for a lower bucket and for a gate that runs.  Seeding ends at the first bucket
K >= 1 whose K-hop balls hold every node, since every placement's h is
then below K.  The distance table is built when a bucket's count passes,
or at once for a fixed start: the automorphism group and each state's
first pass read it.  The backtrack's qubit order is built after a count
passes too, so buckets these tests refute build none of them.  A fixed
start is the one seed of its search, in the bucket of its own h.
``_seeds`` decides both, so every search sweeps the buckets from 0, or
from the gate-order bound (below), and records each seed it is given.
Inside a bucket states are passed one at a time, deepest level first,
and when the bucket runs dry the next seed is enumerated as its level-0
entry; so the bucket that holds the optimum stops at its first finished
fragment.

States are expanded partially, and a child's f is known before the child
is built (enhanced partial expansion; Goldenberg et al., JAIR 2014).  Let
far be the largest distance between the parent's pending pairs, taken
after the SWAP; the child's f is L + far.  A pair 2 hops or more apart
cannot run, so it stays pending, and reduction only removes pairs: for
far >= 2 the child's own farthest pending pair is far hops apart.  At
far = 1 every pending gate runs and the child has finished.  Since far
moves by at most one per SWAP, a child's f is its parent's f plus 0, 1
or 2.  A pass of a state in bucket K builds only the children whose f
is K.  The state's first pass tests every SWAP, and the state is filed
again, at its own level, in buckets K+1 and K+2 with the SWAPs to build
there.  So no child above the optimum, or above a decide's budget, is
ever built or recorded, and none is built twice.

A pass spends its work on the edges at the placement's qubits.  It
fills a node -> qubit occupancy list once, which the first pass's slot
test and the child build read.  The first pass reads the fragment's
pending pairs from a memo: a fragment seen for the first time ORs the
per-pair gate masks of ``_CircuitInfo`` into its pair mask, in O(pairs)
and not O(gates), and fragments with one pair mask share one entry.
Nothing is kept per placement but its signature (its adjacent pairs,
read from the masks) and its seed fragment; an occupancy table per
placement was measured no faster.

Seeds and children take one path: a new state is recorded in a closed
map, which ``state_cap`` bounds, then returned if it is finished or else
passed in its bucket.  The closed map is the one duplicate check, with
one rule in every bucket.  It keeps each state's level next to its
parent link, and a state already recorded is skipped unless it is
reached at a strictly lower level; then it takes the new link and is
filed again, for a new first pass.  Levels only fall, so this ends, and
each link names a parent whose level is below the child's: the SWAPs
replayed from a finished state's links are a plan of at most its level.
An entry popped at a level that is no longer its state's record is
stale, and skipped.  Swept from bucket 0 with h alone, the rule never
re-opens a state, and the map is written once per state.  h depends on
the state alone, so in bucket K a state sits at level K - h only; a
child is built only in the bucket of its own f, and buckets are swept in
increasing f, so a state first recorded in bucket K is never reached
lower later.  Seeds sit at level 0, and no child equals a seed (seed
dominance, below; a fixed start is the one level-0 state of its search).
So any order inside a bucket is exact: every finished state in bucket K
costs K.

A second lower bound reads gate order (``_window_bound``).  Between two
SWAPs the placement is fixed, so the gates that run there, a window, have
their operand pairs on edges: the window's pair set embeds in the graph.
A plan with s SWAPs runs the circuit in s + 1 windows.  From a downset D
of done gates, a step adds every gate whose pairs, with those of its
ancestors outside D, embed.  A window after D adds no gate the step does
not (it runs a gate's ancestors outside D too, and a subset of an
embeddable pair set embeds), and a step from a larger D adds more.  The
steps from the empty set add the layers L_1, ..., L_{B+1}, so after
s + 1 windows the done gates lie within L_1 to L_{s+1}: every plan,
strict or from a fixed start too, costs at least B.  The same holds from
a state.  Let j be the last layer that holds one of its done gates D: D
lies within the first j layers, and a reduced state runs nothing until
its next SWAP, so s more SWAPs leave the done gates within the first
j + s layers, and the state needs h_w = B + 1 - j more SWAPs at least.

Each step is one ascending scan over the gates not yet in a layer, and
each pair set's embedding is answered once; ``_window_bound`` gives why
the scan builds these steps and the order of its answers, the last of
which is bucket 0's seed backtrack.

The search reads the layers once bucket 0 (the embedding test) has
failed and bucket 1 has yielded more seeds than the circuit has gates;
the seeds counted are kept, so none is enumerated twice, and small
searches never pay for the layers.  A budget below B is refuted with no
state built.  If B > 1 the sweep starts at bucket B, which seeds every
placement of buckets 1 to B.  From then on a state's f is
f' = L + max(h, h_w): on its first pass in bucket K, a state whose
L + h_w exceeds K is not passed but filed, unpassed at its level, in
bucket L + h_w, or dropped if that is above the bound.  A state passed
in bucket K whose L + h is below K (a seed of a bucket below B, or a
state that h_w lifts) is passed with top = K - L + 1 hops, above its far:
no pending pair is that far apart, so every SWAP counts as covered, each
child whose f is at most K (far below top) is built at once, and only a
child whose far equals top, whose f is K + 1, is filed in bucket K + 1.

Exactness with h_w.  It never overestimates, and it is consistent too:
the gates one SWAP runs form a window after D, which lies within the
first j + 1 layers, so h_w drops by at most one per SWAP, and so does
max(h, h_w).  Each state is therefore passed in the bucket of its own
f', seeds included (a seed's h_w is B), and a state is passed at its
lowest reachable level.  But a child is recorded when it is built, in
its parent's bucket, before its own h_w is read; so a child lifted above
its parent's bucket can be reached at a lower level before its own
bucket is swept.  The closed map's rule, which can fire in any bucket
from the start bucket on, then re-files it at the lower level, where it
is passed; its lifted entry at the old level is stale and skipped, so
no state is passed above its record.  Take an optimal plan of cost C
and its states, each at its lowest reachable level, so each f' <= C.
If a state on it is passed at its level, in a bucket at most C, the
entries of that pass build its successor in a bucket at most C, or find
it recorded no deeper already; either way the successor is filed at its
own level and passed there, or lifted to a bucket at most C and passed
there, and no later record makes that entry stale.  So a finished state
is built in a bucket at most C.  The first one, in bucket K <= C, has
level at most K (a child is built only if its f is at most K), and its
links replay a plan of at most its level: it is optimal.

A search over all placements drops seed-dominated states.  The seed
state of a placement is that placement with the full circuit reduced on
it, at level 0.  A state reached at level L >= 1 that equals the seed
state of its own placement is dropped before the closed map sees it: a
plan through it costs L more than the same plan started there, and
every state on an optimal plan sits at its lowest reachable level.  For
the same reason a seed that runs no gate is never built, since each of
its children is the seed state of its own placement (the empty circuit,
which runs no gate yet is finished, is the exception).  A placement runs
a gate iff one of the front gates, those sharing no qubit with an
earlier gate, is single-qubit or has adjacent operands; so the seed
backtrack drops one that runs none as soon as the interacting qubits are
placed, before the idle ones.  Both rules depend on a placement's
adjacency alone, so they commute with the orbit filter below.  A fixed
start is the one seed its search has, so fixed-start searches keep every
state.

Seeds are filtered by the coupling graph's symmetry.  A graph
automorphism keeps every distance, so it keeps h and the cost of every
SWAP sequence: all placements in one orbit reach the same optimum, and
they all lie in the same bucket.  Only orbit leaders are seeded, in
every bucket: a placement, read in the backtrack's qubit order, must be
lexicographically no larger than its image under each automorphism that
``CouplingGraph.automorphisms`` found.  The test is applied to every
partial placement of the backtrack, not to finished ones: a node is
refused at a position as soon as an automorphism that fixes every node
placed before it maps that node lower, so the backtrack never builds
anything below a prefix that cannot lead its orbit.  The orbit's leader
passes the test for any set of automorphisms, so every orbit keeps a
seed and the optimum stays exact; under the complete group the leader is
the only seed of its orbit.  A fixed start is a single seed and is never
filtered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import TYPE_CHECKING

from .circuits import Circuit
from .coupling import CouplingGraph
from .errors import ResourceLimitError

if TYPE_CHECKING:
    from .subcircuits import SubcircuitDescriptor

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class Placement:
    """Injective map logical qubit -> physical node; index = logical qubit."""

    to_physical: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.to_physical)) != len(self.to_physical):
            raise ValueError("placement must be injective")
        if self.to_physical and min(self.to_physical) < 0:
            raise ValueError("negative node index in placement")

    @classmethod
    def identity(cls, n: int) -> "Placement":
        return cls(tuple(range(n)))

    @property
    def num_qubits(self) -> int:
        return len(self.to_physical)

    def occupants(self, num_nodes: int) -> tuple[int | None, ...]:
        """Inverse view: per node, the logical qubit sitting there (or None)."""
        occ: list[int | None] = [None] * num_nodes
        for q, p in enumerate(self.to_physical):
            occ[p] = q
        return tuple(occ)

    def apply_swap(self, a: int, b: int) -> "Placement":
        """Exchange whatever sits on nodes a and b (either may be empty)."""
        return Placement(tuple(
            a if p == b else b if p == a else p for p in self.to_physical
        ))

    def check_against(self, circuit: Circuit, graph: CouplingGraph) -> None:
        if len(self.to_physical) != circuit.num_qubits:
            raise ValueError("placement does not cover the circuit's qubits")
        for p in self.to_physical:
            if p >= graph.num_nodes:
                raise ValueError(f"placement targets node {p} outside the graph")


@dataclass(frozen=True)
class SwapPlan:
    """An initial placement followed by SWAPs on graph edges, in order."""

    initial: Placement
    swaps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.swaps)


@dataclass(frozen=True)
class MapResult:
    """Outcome of a solve: optimal SWAP count and one witnessing plan.

    cost is ``math.inf`` (and plan None) when the circuit has more qubits
    than the graph has nodes, or when strict swapping leaves no route.
    """

    cost: int | float
    plan: SwapPlan | None

    @property
    def feasible(self) -> bool:
        return self.cost != math.inf


@dataclass(frozen=True)
class SearchState:
    """One frontier entry: a placement and the pending fragments on it."""

    placement: Placement
    fragments: tuple[SubcircuitDescriptor, ...]


class _CircuitInfo:
    """Preprocessed per-solve tables: operand pairs, per pair the bitmask
    of its gates, the front gates' pairs, per-gate qubit masks, the mask
    of the qubits that carry a gate, per-qubit partner masks and the
    degrees in decreasing order, all from one pass over the gates.  The
    seed backtrack's qubit order is built on first use (``backtrack``), so
    a bucket that the Hall count refutes never builds it.  The gate-order
    bound reads these tables alone: per-gate qubit masks and pairs give
    its scan everything that gate order holds."""

    def __init__(self, c: Circuit):
        gates = c.gates
        self.num_qubits = c.num_qubits
        self.num_gates = len(gates)
        self.full_mask = (1 << len(gates)) - 1
        # Per gate: the bitmask of its qubits and the index of its operand
        # pair among the distinct pairs in order of first use (-1 for
        # single-qubit gates); per pair, the bitmask of its gates.  The
        # front gates are those that share no qubit with an earlier gate: a
        # placement runs a gate iff one of them is single-qubit or has
        # adjacent operands.
        index: dict[tuple[int, int], int] = {}
        partners = [0] * c.num_qubits
        gate_qubits = []
        gate_pair = []
        pair_gates = []
        front, seen = [], 0
        front_single = False
        bit = 1  # the current gate's bit
        for g in gates:
            qubits = g.qubits
            if len(qubits) == 2:
                a, b = qubits
                qs = 1 << a | 1 << b
                key = (a, b) if a < b else (b, a)
                pi = index.get(key)
                if pi is None:
                    pi = index[key] = len(pair_gates)
                    partners[a] |= 1 << b
                    partners[b] |= 1 << a
                    pair_gates.append(bit)
                else:
                    pair_gates[pi] |= bit
                gate_pair.append(pi)
                if not qs & seen:
                    front.append(qubits)
            else:
                qs = 1 << qubits[0]
                gate_pair.append(-1)
                if not qs & seen:
                    front_single = True
            gate_qubits.append(qs)
            seen |= qs
            bit <<= 1
        self.gate_qubits = tuple(gate_qubits)
        # The qubits that carry a gate: once a scan has blocked all of them,
        # no later gate can run.  Idle qubits are never blocked.
        self.used_qubits = seen
        self.gate_pair = tuple(gate_pair)
        self.pair_gates = tuple(pair_gates)
        self.pairs = list(index)
        # The front gates' operand pairs; none when every placement runs a
        # gate, because a front gate is single-qubit or the circuit is empty.
        self.front_pairs = () if front_single else tuple(front)
        self.partners = partners
        self.num_active = len(partners) - partners.count(0)
        # The degrees in decreasing order, for the count in _seeds.
        self.degrees_down = tuple(sorted(map(int.bit_count, partners), reverse=True))

    @cached_property
    def backtrack(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The seed backtrack's qubit order and, per position, the qubit's
        degree and its partners placed before it.  Each next qubit is the
        one with most partners already placed, then most partners, then
        lowest index; so the idle qubits come last."""
        partners = self.partners
        degree = [p.bit_count() for p in partners]
        # Per qubit, its partners placed so far, in order, and its key: that
        # count times a stride above every degree, plus its degree.  max()
        # keeps the first of equal keys, and rest stays in index order.
        placed: list[list[int]] = [[] for _ in partners]
        key = degree[:]
        stride = len(partners)
        rest = list(range(len(partners)))
        order, back = [], []
        while rest:
            best = max(rest, key=key.__getitem__)
            rest.remove(best)
            order.append(best)
            back.append(tuple(placed[best]))
            m = partners[best]
            while m:
                low = m & -m
                m ^= low
                r = low.bit_length() - 1
                placed[r].append(best)
                key[r] += stride
        return tuple(order), tuple(degree[q] for q in order), tuple(back)


def _seeds(info: _CircuitInfo, graph: CouplingGraph, k: int, start: tuple[int, ...] | None = None):
    """The seeds of bucket k: initial placements with h exactly k.

    A fixed ``start`` is its search's one seed: it is yielded, unfiltered,
    in the bucket of its own h and in no other.  Otherwise the seeds are
    enumerated in backtracking order.  Every interacting pair lies within
    k+1 hops and, for k > 0, some pair exactly k+1 hops apart.  Partial
    placements that break the hop limit are never extended.  Nothing is
    yielded, and nothing placed, when the degrees fail Hall's condition on
    the room sets of k+1 hops: the c-th largest degree must have room on at
    least c nodes; nor at k = 0 on a bipartite graph when the pattern has
    an odd cycle (``_odd_cycle``).  The enumeration reads the
    ``graph.within`` balls of k and k+1 hops and the adjacency masks, never
    the distance table; only a fixed start reads it here, and otherwise
    ``graph.automorphisms`` builds it once a bucket passes these tests.  A
    placement that runs no gate (no pair of ``info.front_pairs`` adjacent)
    is dropped once its interacting qubits are placed, before the idle
    ones: each of its SWAP children is the seed state of its own placement
    (see the module docstring).  A placement is yielded only if, read in
    backtrack order (``info.backtrack``), it is lexicographically no larger
    than its image under each of ``graph.automorphisms``; under a complete
    group that is one placement per orbit, its leader.  The test runs on
    every prefix, so no placement below a prefix that cannot lead its orbit
    is built.  Call it with k > 0 only if some pair interacts: with none,
    every placement has h = 0.

    At k = 0 this is the embedding test of the interaction topology, the
    one that a budget-0 ``decide`` runs; the gate-order bound asks it too,
    through ``_embedding``, for each pattern its cheaper answers leave.
    """
    if start is not None:
        if max([graph.distances[start[a]][start[b]] for a, b in info.pairs], default=1) - 1 == k:
            yield start
        return
    # Per node, the other nodes within k+1 hops; per count d, the nodes
    # with room for d partners.  The room sets are nested (room[d] holds
    # room[d + 1]), so this count is the whole of Hall's condition on
    # them: when it fails, no placement gives every qubit a distinct node
    # with room for its partners.
    reach, room = graph.within(k + 1)
    c = 0
    for d in info.degrees_down:
        c += 1
        if room[d].bit_count() < c:
            return
    # At k = 0 a pattern with an odd cycle has no seed on a bipartite graph.
    if not k and graph.is_bipartite() and _odd_cycle(info.partners):
        return
    if not info.num_qubits:
        yield ()
        return
    n = graph.num_nodes
    # Per node, the other nodes within k hops: a placement that keeps every
    # pair there has h below k.
    near = graph.within(k)[0]
    adj = graph.adjacency_masks
    order, degree, back = info.backtrack
    # Per backtrack position, the nodes with room for the qubit's partners.
    fits = [room[d] for d in degree]
    pairs, front = info.pairs, info.front_pairs
    num_active, num_qubits = info.num_active, info.num_qubits
    # The lex-leader test, with the automorphisms as bits of a "tied" set:
    # the ones that fix every node placed so far.  A tied automorphism that
    # maps the next node lower makes the image smaller, so that node is
    # banned; one that maps it higher can reject nothing below it, so only
    # the automorphisms fixing the node stay tied.
    fixes, lowers = graph.automorphism_masks

    def ban(tied: int) -> int:
        """The nodes some automorphism of the tied set maps lower."""
        out = 0
        while tied:
            bit = tied & -tied
            tied ^= bit
            out |= lowers[bit.bit_length() - 1]
        return out

    pos = [0] * num_qubits
    # Depth-first over backtrack positions: cands[i] holds the nodes still
    # to try at position i, free[i] the nodes left free before it and
    # tied[i] the symmetries that fix the nodes placed before it.
    cands = [0] * num_qubits
    free = [0] * (num_qubits + 1)
    tied = [0] * (num_qubits + 1)
    free[0] = (1 << n) - 1
    tied[0] = (1 << len(lowers)) - 1
    cands[0] = free[0] & fits[0] & ~ban(tied[0])
    i = 0
    while i >= 0:
        cand = cands[i]
        if not cand:
            i -= 1
            continue
        low = cand & -cand
        cands[i] = cand ^ low
        x = low.bit_length() - 1
        pos[order[i]] = x
        i += 1
        if i == num_active:
            # Drop a seed of a lower bucket (every pair within k hops) and
            # one that runs no gate (no front pair adjacent).
            for a, b in pairs:
                if not near[pos[a]] >> pos[b] & 1:
                    break
            else:
                i -= 1
                continue
            if front:
                for a, b in front:
                    if adj[pos[a]] >> pos[b] & 1:
                        break
                else:
                    i -= 1
                    continue
        if i == num_qubits:
            i -= 1
            yield tuple(pos)
            continue
        free[i] = free[i - 1] ^ low
        cand = free[i] & fits[i]
        # Skipped outright without automorphisms, which many graphs have
        # none of: this loop runs once per partial placement.
        if lowers:
            t = tied[i] = tied[i - 1] & fixes[x]
            if t:
                cand &= ~ban(t)
        for r in back[i]:
            cand &= reach[pos[r]]
        cands[i] = cand


def _embedding(partners: list[int], graph: CouplingGraph) -> tuple[list[int], int] | None:
    """A witness that the pattern whose partner masks are ``partners``
    embeds in ``graph``: per qubit its node, -1 for a qubit without
    partners, and the mask of the nodes taken.  None when it does not
    embed.  Bucket 0's seed backtrack answers it, on one CNOT per pair:
    a placement with h = 0 puts every pair on an edge, and ``_seeds``
    keeps one per orbit.  Call it with at least one pair and with no more
    qubits than nodes."""
    nq = len(partners)
    ops = [("cx", (a, b)) for a in range(nq) for b in range(a + 1, nq) if partners[a] >> b & 1]
    pos = next(_seeds(_CircuitInfo(Circuit.from_ops(nq, ops)), graph, 0), None)
    if pos is None:
        return None
    pos = [p if partners[q] else -1 for q, p in enumerate(pos)]
    return pos, sum(1 << p for p in pos if p >= 0)


def _odd_cycle(partners: list[int]) -> bool:
    """Whether the pattern whose partner masks are ``partners`` has a cycle
    of odd length.  Such a pattern embeds in no bipartite graph: an
    embedding maps the cycle onto a closed walk of the same odd length,
    and a bipartite graph has none.

    Breadth-first over each component, one level at a time: an edge
    inside a level closes an odd cycle, and a component with none splits
    into its even and its odd levels."""
    seen = 0
    for q, m in enumerate(partners):
        if not m or seen >> q & 1:
            continue
        level = 1 << q
        seen |= level
        while level:
            reach = 0
            rest = level
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= partners[low.bit_length() - 1]
            if reach & level:
                return True
            level = reach & ~seen
            seen |= level
    return False


def _extend(witness: tuple[list[int], int], new: int, pairs: list[tuple[int, int]],
            links: list[list[tuple[int, int]]], adj: tuple[int, ...],
            hub: int) -> tuple[list[int], int] | None:
    """A witness for a pattern that embeds plus the pairs of the mask
    ``new``, grown from that pattern's ``witness``: per qubit its node, or
    -1, and the mask of the nodes taken.  None when this greedy growth
    fails, which says nothing about whether the larger pattern embeds.

    Only the qubits the witness lacks are placed.  Growth from the empty
    witness starts with the first new pair's first operand on ``hub``.  A
    new pair between two placed qubits must already lie on an edge.  The
    next qubit placed is the other operand of the first new pair with one
    operand placed; it goes on the lowest free node adjacent to all its
    placed partners (``links``: per qubit, each of its pairs' bit with the
    other operand).  The gate-order scan's patterns are connected, so such
    a pair is always left until every new pair is placed; the growth fails
    if none is.
    """
    pos, taken = witness
    pos = pos[:]
    if not taken:
        pos[pairs[(new & -new).bit_length() - 1][0]] = hub
        taken = 1 << hub
    loose = 0  # the new pairs with an operand not yet placed
    m = new
    while m:
        low = m & -m
        m ^= low
        a, b = pairs[low.bit_length() - 1]
        if pos[a] < 0 or pos[b] < 0:
            loose |= low
        elif not adj[pos[a]] >> pos[b] & 1:
            return None
    free = ((1 << len(adj)) - 1) ^ taken
    while loose:
        m = loose
        while m:
            low = m & -m
            m ^= low
            a, b = pairs[low.bit_length() - 1]
            if pos[a] >= 0:
                x = b
                break
            if pos[b] >= 0:
                x = a
                break
        else:
            return None
        cand = free
        for bit, y in links[x]:
            if loose & bit and pos[y] >= 0:
                cand &= adj[pos[y]]
                loose ^= bit
        if not cand:
            return None
        low = cand & -cand
        pos[x] = low.bit_length() - 1
        free ^= low
    return pos, ((1 << len(adj)) - 1) ^ free


def _window_bound(info: _CircuitInfo, graph: CouplingGraph) -> tuple[int, ...]:
    """The greedy layers of gate order: gate masks L_1, ..., L_{B+1},
    where L_i holds the gates that step i adds.  B, the number of steps
    less one, is a lower bound on the SWAPs of every plan.

    Why B bounds every plan, and each state's h_w its SWAPs still to
    come, is in the module docstring: a step from a downset D of done
    gates adds every gate g outside D whose pairs, with those of g's
    ancestors outside D (g's closure), embed.

    A step is one ascending scan over the gates outside D, the shape of
    the search's fragment reduction.  Per qubit it keeps the closure of
    the last gate it added on that qubit's line (none at first), and a
    refused gate blocks its qubits.  This gives the same steps as a
    closure computed per gate from its predecessors, for two reasons.  A
    gate with a blocked qubit is refused: the refused gate before it on
    that line is its ancestor, so its closure holds that gate's closure,
    which does not embed.  And otherwise the gate's closure is its own
    pair with its lines' kept closures: its ancestors outside D are those
    of the last gates before it on its lines, each of which the scan has
    added, or lies in D with every earlier gate on its line, since D is a
    downset, and then the line keeps none.  A single-qubit gate adds
    nothing to its line's closure, which embeds.  Once every qubit that
    carries a gate is blocked, the step adds nothing more.

    A pair mask's embedding is answered once, and kept.  Each "yes"
    keeps a witness: per qubit its node, and the nodes taken.  A new
    closure is tried first by growing the witness of the larger of its
    lines' closures (``_extend``), placing only the qubits it lacks,
    which never answers "no".  A closure's pairs are connected, since
    each ancestor reaches the gate through gates outside D that share a
    qubit; so a growth starts a component only from the empty witness.
    A closure that holds a pattern known not to embed does not embed; on
    a bipartite graph, nor does one with an odd cycle (``_odd_cycle``).
    Only then does bucket 0's seed backtrack answer it (``_embedding``),
    and its witness is kept.  Call it with no more qubits than nodes.
    """
    pairs, gate_pair, gate_qubits = info.pairs, info.gate_pair, info.gate_qubits
    used = info.used_qubits
    nq = info.num_qubits
    adj = graph.adjacency_masks
    hub = max(range(len(adj)), key=lambda v: adj[v].bit_count())  # lowest of largest degree
    links: list[list[tuple[int, int]]] = [[] for _ in range(nq)]
    for pi, (a, b) in enumerate(pairs):
        links[a].append((1 << pi, b))
        links[b].append((1 << pi, a))
    # Pair mask -> witness, for each mask known to embed; the empty
    # pattern's places nothing.  And the masks known not to embed.
    witnesses: dict[int, tuple[list[int], int]] = {0: ([-1] * nq, 0)}
    misfits: list[int] = []

    def embeds(pm: int, base: int) -> bool:
        w = _extend(witnesses[base], pm & ~base, pairs, links, adj, hub)
        if w is None:
            for m in misfits:
                if not m & ~pm:
                    return False
            partners = [0] * nq
            m = pm
            while m:
                low = m & -m
                m ^= low
                a, b = pairs[low.bit_length() - 1]
                partners[a] |= 1 << b
                partners[b] |= 1 << a
            w = (None if graph.is_bipartite() and _odd_cycle(partners)
                 else _embedding(partners, graph))
            if w is None:
                misfits.append(pm)
                return False
        witnesses[pm] = w
        return True

    rest = info.full_mask
    layers = []
    while rest:
        line = [0] * nq  # per qubit, the closure of its line's last added gate
        blocked = layer = 0
        m = rest
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            qs = gate_qubits[i]
            if not qs & blocked:
                pi = gate_pair[i]
                if pi < 0:
                    layer |= low  # its closure is its line's, which embeds
                    continue
                a, b = pairs[pi]
                la, lb = line[a], line[b]
                pm = la | lb | 1 << pi
                if pm in witnesses or embeds(pm, la if la.bit_count() >= lb.bit_count() else lb):
                    line[a] = line[b] = pm
                    layer |= low
                    continue
            blocked |= qs
            if blocked == used:
                break
        layers.append(layer)
        rest ^= layer
    return tuple(layers)


# A closed-map value packs the parent link above the state's level, in
# the low state_cap.bit_length() bits: level L is reached by passing L
# distinct recorded states from a seed, so L is at most state_cap.  The
# link is (parent key + 1) * nodes**2 + a * nodes + b for the SWAP on
# edge (a, b), a < b, and 0 for a seed.


def _search(info: _CircuitInfo, graph: CouplingGraph, start: tuple[int, ...] | None, *,
            strict: bool, bound: int | float, state_cap: int, on_level=None):
    """The search engine: best-first over (placement, fragment) states,
    with enhanced partial expansion.  The module docstring gives the
    account of it: the buckets and their seeds, the passes, the closed
    map, the gate-order layers and why the first finished state is
    optimal.

    ``start`` is a fixed initial placement, the one seed of its search,
    or None for a free search over the orbit leaders of
    ``graph.automorphisms`` that run a gate.  States with f above
    ``bound`` are never built (``math.inf`` for a solve).  Returns (cost,
    initial placement, swaps) for the first finished fragment, which is
    optimal, or None when nothing within the bound finishes.

    A frontier entry is a state and a mask of SWAP slots (qubit * max
    degree + index of the edge among its node's neighbors).  An empty
    mask marks the state's first pass, which lifts the state to a later
    bucket if its h_w asks for one, and otherwise re-files it at its own
    level in buckets k+1 and k+2 with the SWAPs whose children land
    there.

    ``on_level(k, level, placement, fragment mask)`` sees each state on
    the first pass that it is not lifted from, a seed that finished
    included, so each state is reported once; a state lifted above the
    optimum or the bound is never reported.  ``state_cap``
    bounds the closed-map records: each state reached, counted once
    however often it is filed again; the re-filed entries, at most two
    per state passed, are not counted.
    """
    n = graph.num_nodes
    nbrs = graph.neighbors
    adjacency = graph.adjacency_masks
    stride = n * n
    pairs = info.pairs
    npairs = len(pairs)
    pair_gates = info.pair_gates
    gate_qubits = info.gate_qubits
    used_qubits = info.used_qubits
    gate_pair = info.gate_pair
    gbits = info.num_gates
    full = info.full_mask
    # A frontier entry packs the state key above its SWAP-slot mask.
    width = graph.max_degree()
    nq = info.num_qubits
    nslots = nq * width
    slot_mask = (1 << nslots) - 1
    free_start = start is None
    # Buckets are swept from 0, and seeded until the first k >= 1 at which
    # every node has all n - 1 others within k hops: every placement's h is
    # then below k.  (A circuit with no pair finishes in bucket 0.)
    k = 0
    seeding = True

    # Interned placements, with per placement the bitmask of adjacent pairs
    # (its signature) and its seed fragment, the full circuit reduced on it.
    places: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    sigs: list[int] = []
    seed_of: list[int] = []
    reduce_memo: dict[int, int] = {}  # (fragment, sig) -> reduced fragment
    # Fragment -> the operand pairs of its pending two-qubit gates, and per
    # qubit its partners in those pairs.  Every fragment with the same pair
    # mask (bit i: a pending gate acts on pairs[i]) shares one entry.
    pending_memo: dict[int, tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]] = {}
    by_pairs: dict[int, tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]] = {}
    # State key (placement index << gates | fragment) -> parent link and
    # level, packed as above.
    closed: dict[int, int] = {}
    lbits = state_cap.bit_length()
    lmask = (1 << lbits) - 1
    # Node -> the qubit on it in the placement being passed, or -1: filled
    # at the start of each pass and cleared at its end, so that no pass
    # allocates one.
    occ = [-1] * n
    # The gate-order layers, last first, once they are read and B > 1: a
    # state whose done gates all lie in the first j of the B + 1 layers
    # needs at least B + 1 - j more SWAPs.  Until then none.
    layers_down: tuple[int, ...] = ()

    def intern(phys: tuple[int, ...]) -> int:
        idx = len(places)
        index[phys] = idx
        places.append(phys)
        sig = 0
        for pi, (a, b) in enumerate(pairs):
            if adjacency[phys[a]] >> phys[b] & 1:
                sig |= 1 << pi
        sigs.append(sig)
        m0 = reduce_memo.get(full << npairs | sig)
        seed_of.append(reduce_mask(full, sig) if m0 is None else m0)
        return idx

    def reduce_mask(mask: int, sig: int) -> int:
        # One ascending pass: a gate runs unless an earlier remaining gate
        # shares a qubit with it (that qubit is blocked) or its operands
        # are not adjacent.  Once every qubit that carries a gate is
        # blocked nothing else runs.
        out = mask
        m = mask
        blocked = 0
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            qs = gate_qubits[i]
            if not qs & blocked:
                pi = gate_pair[i]
                if pi < 0 or sig >> pi & 1:
                    out ^= low
                    continue
            blocked |= qs
            if blocked == used_qubits:
                break
        reduce_memo[mask << npairs | sig] = out
        return out

    def pending(mask: int):
        # The pair mask from the per-pair gate masks, in O(pairs).
        pm = 0
        for pi, gm in enumerate(pair_gates):
            if gm & mask:
                pm |= 1 << pi
        found = by_pairs.get(pm)
        if found is None:
            pend = []
            partners: list[list[int]] = [[] for _ in range(nq)]
            for pi, (a, b) in enumerate(pairs):
                if pm >> pi & 1:
                    pend.append((a, b))
                    partners[a].append(b)
                    partners[b].append(a)
            found = by_pairs[pm] = tuple(pend), tuple(map(tuple, partners))
        pending_memo[mask] = found
        return found

    def replay(key: int) -> tuple[int, tuple[int, ...], list[tuple[int, int]]]:
        """(level, initial placement, swaps) of the finished state ``key``."""
        swaps: list[tuple[int, int]] = []
        link = closed[key] >> lbits
        while link:
            parent, edge = divmod(link, stride)
            swaps.append(divmod(edge, n))
            key = parent - 1
            link = closed[key] >> lbits
        swaps.reverse()
        return len(swaps), places[key >> gbits], swaps

    def over_cap(level: int) -> ResourceLimitError:
        # Every bucket below k is exhausted or below the gate-order bound:
        # either way the optimum is at least k.
        return ResourceLimitError(
            f"search reached more than the state cap ({state_cap}) states in bucket {k} "
            f"at level {level} (the optimum is at least {k}); "
            "raise it to search this instance"
        )

    # f -> level -> frontier entries filed there, not yet passed.
    buckets: dict[int, dict[int, list[int]]] = {}
    while k <= bound:
        if seeding and k:
            seeding = graph.within(k)[1][n - 1].bit_count() < n
        if not seeding and not buckets:
            return None
        seeds = _seeds(info, graph, k, start) if seeding else iter(())
        if k == 1 and seeding:
            # Bucket 0, the embedding test, has failed and filed nothing.
            # Once bucket 1 holds more seeds than the circuit has gates,
            # read the gate-order bound: a budget below it is refuted with
            # no state built, and otherwise the sweep starts there, with the
            # seeds of every bucket below it.  The seeds counted are kept.
            ahead = list(islice(seeds, gbits + 1))
            seeds = chain(ahead, seeds)
            if len(ahead) > gbits:
                layers = _window_bound(info, graph)
                least = len(layers) - 1
                if least > bound:
                    return None
                if least > 1:
                    # With B = 1, h_w is at most 1 <= h for every unfinished
                    # state a free search keeps (each has run a gate), so
                    # it would lift none.
                    layers_down = layers[::-1]
                    k = least
                    seeds = chain(seeds, *(
                        _seeds(info, graph, j, start) for j in range(2, k + 1)
                        if graph.within(j)[1][n - 1].bit_count() < n))
        cur = buckets.setdefault(k, {})
        while True:
            if cur:
                # The deepest entry, so a state's children pass before its
                # siblings.
                level = max(cur)
                entries = cur[level]
                entry = entries.pop()
                if not entries:
                    del cur[level]
                key = entry >> nslots
                if closed[key] & lmask != level:
                    continue  # stale: the state was reached lower since
                todo = entry & slot_mask
                phys = places[key >> gbits]
            else:
                # Dry: the next seed is the bucket's one level-0 entry.
                phys = next(seeds, None)
                if phys is None:
                    break
                idx = index.get(phys)
                if idx is None:
                    idx = intern(phys)
                key = idx << gbits | seed_of[idx]
                closed[key] = 0
                if len(closed) > state_cap:
                    raise over_cap(0)
                level = todo = 0
            m = key & full
            if not todo and layers_down:
                # h_w, the layers after the last one that holds a done gate:
                # a state whose level + h_w exceeds k waits, unpassed, in
                # the bucket of that sum, or is dropped above the bound.
                done = full ^ m
                lift = level
                for layer in layers_down:
                    if layer & done:
                        break
                    lift += 1
                if lift > k:
                    if lift <= bound:
                        buckets.setdefault(lift, {}).setdefault(level, []).append(key << nslots)
                    continue
            for i, p in enumerate(phys):
                occ[p] = i
            if not todo:
                # First pass: report the state, then sort its SWAPs by the
                # bucket of their children, computed from the parent alone.
                if on_level is not None:
                    on_level(k, level, phys, m)
                if not m:
                    return replay(key)  # only a seed is still finished here
                dist = graph.distances
                pend = pending_memo.get(m)
                if pend is None:
                    pend = pending(m)
                pend, partners = pend
                # The parent's own far if its f is k.  In a sweep started at
                # the gate-order bound a state's f can be lower; then top
                # exceeds its far, no pair is top hops apart and every child
                # lands in todo unless its far is top, which files it in k+1,
                # where its f lies.
                top = k - level + 1
                # The parent's farthest pairs, top hops apart, counted per
                # qubit: a SWAP lowers far only if it moves a qubit of each.
                tops = [0] * nq
                ntop = 0
                for a, b in pend:
                    if dist[phys[a]][phys[b]] == top:
                        ntop += 1
                        tops[a] += 1
                        tops[b] += 1
                # The slots of the SWAPs whose children land in bucket k,
                # k+1 and k+2.  Along each edge at a qubit's node; an edge
                # between two qubits is taken from its lower end.  Only the
                # pairs at a moved qubit change, so far is the largest of
                # them, or top if that is smaller and some farthest pair did
                # not move.  (A pair of the two moved qubits stays one hop
                # apart and reads 0 here, which changes no outcome.)
                next1 = next2 = 0
                for i, p in enumerate(phys):
                    mine = partners[i]
                    for e, w in enumerate(nbrs[p]):
                        j = occ[w]
                        if j < 0:
                            if strict:
                                continue
                            covered = tops[i] == ntop
                        elif w < p:
                            continue
                        else:
                            covered = tops[i] + tops[j] == ntop
                        far = 0
                        row = dist[w]
                        for x in mine:
                            d = row[phys[x]]
                            if d > far:
                                far = d
                        if j >= 0:
                            row = dist[p]
                            for x in partners[j]:
                                d = row[phys[x]]
                                if d > far:
                                    far = d
                        if far > top:
                            next2 |= 1 << i * width + e
                        elif covered and far < top:
                            todo |= 1 << i * width + e
                        else:
                            next1 |= 1 << i * width + e
                # Filed at level in buckets k+1 and k+2, unless above bound.
                if next1 and k + 1 <= bound:
                    buckets.setdefault(k + 1, {}).setdefault(level, []).append(key << nslots | next1)
                if next2 and k + 2 <= bound:
                    buckets.setdefault(k + 2, {}).setdefault(level, []).append(key << nslots | next2)
            # Build the children of the slots in todo, all in bucket k.
            nlevel = level + 1
            link = (key + 1) * stride << lbits | nlevel  # less the SWAP
            children = []
            while todo:
                low = todo & -todo
                todo ^= low
                i, e = divmod(low.bit_length() - 1, width)
                p = phys[i]
                w = nbrs[p][e]
                moved = list(phys)
                j = occ[w]
                if j >= 0:
                    moved[j] = p
                moved[i] = w
                nphys = tuple(moved)
                nidx = index.get(nphys)
                if nidx is None:
                    nidx = intern(nphys)
                sig = sigs[nidx]
                nm = reduce_memo.get(m << npairs | sig)
                if nm is None:
                    nm = reduce_mask(m, sig)
                if free_start and nm == seed_of[nidx]:
                    continue  # the seed state of nphys: starting there is cheaper
                nkey = nidx << gbits | nm
                old = closed.get(nkey)
                if old is not None and old & lmask <= nlevel:
                    continue  # recorded no deeper: reached before, as cheaply
                closed[nkey] = link + ((p * n + w if p < w else w * n + p) << lbits)
                if len(closed) > state_cap:
                    raise over_cap(nlevel)
                if not nm:
                    return replay(nkey)
                children.append(nkey << nslots)
            if children:
                cur.setdefault(nlevel, []).extend(children)
            for p in phys:
                occ[p] = -1  # the pass is over
        del buckets[k]
        k += 1
    return None


def upper_bound(c: Circuit, g: CouplingGraph) -> int:
    """Worst-case SWAPs: each two-qubit gate walks at most diameter-1 steps."""
    if c.num_qubits > g.num_nodes:
        raise ValueError("infeasible: more qubits than graph nodes")
    t = c.two_qubit_count
    return t * (g.diameter - 1) if t else 0


def _solve(c: Circuit, g: CouplingGraph, *, start: Placement | None = None,
           strict: bool, budget: int | None, state_cap: int, on_level=None) -> MapResult:
    """The one result path behind solve_exact, solve_from, decide and
    search_levels.

    ``budget`` None asks for the optimum.  An integer budget keeps only
    states with f <= budget and reports cost ``inf`` when none finishes.
    ``state_cap`` bounds the closed-map records of the search and the
    graph's n**2 distance table, checked before the table is built.
    """
    if state_cap < 1:
        raise ValueError("state_cap must be at least 1")
    p0 = None
    if start is not None:
        start.check_against(c, g)
        p0 = start.to_physical
    if c.num_qubits > g.num_nodes:
        return MapResult(math.inf, None)
    if g.num_nodes ** 2 > state_cap:
        raise ResourceLimitError(
            f"the {g.num_nodes}-node graph's distance table has more entries than "
            f"the state cap ({state_cap}); raise it to search this instance")
    found = _search(_CircuitInfo(c), g, p0, strict=strict,
                    bound=math.inf if budget is None else budget,
                    state_cap=state_cap, on_level=on_level)
    if found is None:
        if strict or budget is not None:
            return MapResult(math.inf, None)
        raise RuntimeError("search exhausted its bound without a witness; this is a bug")
    cost, phys, swaps = found
    return MapResult(cost, SwapPlan(Placement(phys), tuple(swaps)))


def solve_exact(c: Circuit, g: CouplingGraph, *, strict: bool = False,
                state_cap: int = DEFAULT_STATE_CAP) -> MapResult:
    """Minimal SWAP count over all initial placements, with one witness plan.

    Every initial placement is covered: the search seeds each orbit of
    ``g.automorphisms`` through its leader, the placement that is
    lexicographically least in backtrack order, and automorphisms
    preserve every cost, so the result is exact.  ``strict``
    restricts SWAPs to edges whose endpoints both hold qubits; strict
    instances can be unsolvable, reported as cost ``inf``.
    """
    return _solve(c, g, strict=strict, budget=None, state_cap=state_cap)


def solve_from(c: Circuit, g: CouplingGraph, p0: Placement, *, strict: bool = False,
               state_cap: int = DEFAULT_STATE_CAP) -> MapResult:
    """Minimal SWAP count when the initial placement is fixed to ``p0``."""
    return _solve(c, g, start=p0, strict=strict, budget=None, state_cap=state_cap)


def decide(c: Circuit, g: CouplingGraph, k: int, *, strict: bool = False,
           state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Is the circuit mappable with at most k SWAPs?

    The search keeps only states whose lower bound f stays within k, so
    budget 0 seeds only embeddings of the interaction topology and stops
    at the first one.  The seeds are the orbit leaders of
    ``g.automorphisms``, as in ``solve_exact``.
    """
    if k < 0:
        raise ValueError("budget must be >= 0")
    return _solve(c, g, strict=strict, budget=k, state_cap=state_cap).feasible


def search_levels(c: Circuit, g: CouplingGraph, p0: Placement | None = None, *,
                  strict: bool = False,
                  state_cap: int = DEFAULT_STATE_CAP) -> list[list[SearchState]]:
    """Snapshot the states the search expands, for inspection and
    invariant checks.

    Each entry is one state, alone: a list holding one ``SearchState``
    with one fragment.  Entries come in search order: bucket by bucket in
    increasing bound f; inside a bucket the states that lower buckets
    filed there come first, then each seed followed by the states it leads
    to, one at a time, deepest level first.  A state is reported at its
    first pass, not when it is passed again to build children of higher
    f.  Once the search reads the gate-order layers, f is
    level + max(h, h_w), and a state whose f exceeds its bucket is
    reported in the bucket of its f, or never if that is above the
    optimum.  Each state sits in the bucket of its own f, at its lowest
    level, and is reported once.  Each state is taken just before it is
    expanded, so the one in which the search finished is included; when
    the optimum is 0 it is the seed that finished, with its empty
    fragment.  ``p0`` None seeds all placements, one per orbit of the
    graph's automorphisms; a seed that runs no gate is then never built,
    and no state above level 0 equals the seed state of its placement.
    """
    from .subcircuits import Subcircuit, descriptor

    collected: list[list[SearchState]] = []

    def snap(_bound: int, _level: int, phys: tuple[int, ...], mask: int) -> None:
        collected.append([
            SearchState(Placement(phys), (descriptor(Subcircuit._from_mask(c, mask)),))
        ])

    _solve(c, g, start=p0, strict=strict, budget=None, state_cap=state_cap,
           on_level=snap)
    return collected
