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
the interaction topology.  A fixed start is the one seed of its search,
filed in the bucket of its own h.  Inside a bucket states are passed
one at a time, deepest level first, and when the bucket runs dry the
next seed is enumerated as its level-0 entry; so the bucket that holds
the optimum stops at its first finished fragment.

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

Seeds and children take one path: a new state is recorded in a closed
map, which ``state_cap`` bounds, then returned if it is finished or else
passed in its bucket.  The closed map is written once per
(placement, fragment) and is the one duplicate check: a state already
in it is never filed again.  That is exact because a state's first
record is at its lowest level.  h depends on the state alone, so in
bucket K a state can sit at level K - h only; a child is built only in
the bucket of its own f, and buckets are swept in increasing f, so a
state first recorded in bucket K is never reached lower later.  Seeds
sit at level 0, and no child equals a seed (seed dominance, below; a
fixed start is the one level-0 state of its search).  So any order
inside a bucket is exact: every finished state in bucket K costs K.
The closed map stores each state's parent and SWAP, which replay into
the witness plan; the number of SWAPs replayed is the level.

A search over all placements drops seed-dominated states.  The seed
state of a placement is that placement with the full circuit reduced on
it, at level 0.  A state reached at level L >= 1 that equals the seed
state of its own placement is dropped before the closed map sees it: a
plan through it costs L more than the same plan started there, and
every state on an optimal plan sits at its lowest reachable level.  For
the same reason a seed that runs no gate is neither expanded, filed nor
reported, since each of its children is the seed state of its own
placement (the empty circuit, which runs no gate yet is finished, is the
exception).  Both rules depend on a placement's adjacency alone, so they
commute with the orbit filter below.  A fixed start is the one seed its
search has, so fixed-start searches keep every state.

Seeds are filtered by the coupling graph's symmetry.  A graph
automorphism keeps every distance, so it keeps h and the cost of every
SWAP sequence: all placements in one orbit reach the same optimum, and
they all lie in the same bucket.  From bucket 1 on, only orbit leaders
are seeded: a placement, read in the backtrack's qubit order, must be
lexicographically no larger than its image under each automorphism that
``CouplingGraph.automorphisms`` found.  The test is applied to every
partial placement of the backtrack, not to finished ones: a node is
refused at a position as soon as an automorphism that fixes every node
placed before it maps that node lower, so the backtrack never builds
anything below a prefix that cannot lead its orbit.  The orbit's leader
passes the test for any set of automorphisms, so every orbit keeps a
seed and the optimum stays exact; under the complete group the leader is
the only seed of its orbit.  Bucket 0 is left unfiltered: its first seed
finishes at once, so filtering would save nothing, and a budget-0 decide
never computes the group.  A fixed start is a single seed and is never
filtered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import Circuit
from .coupling import CouplingGraph
from .errors import ParseError, ResourceLimitError
from .subcircuits import Subcircuit, SubcircuitDescriptor, descriptor

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class Placement:
    """Injective map logical qubit -> physical node; index = logical qubit."""

    to_physical: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.to_physical)) != len(self.to_physical):
            raise ValueError("placement must be injective")
        if any(p < 0 for p in self.to_physical):
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
    """Preprocessed per-solve tables: operand pairs, per-gate qubit masks
    and the qubit order of the seed backtrack."""

    def __init__(self, c: Circuit):
        self.all_qubits = (1 << c.num_qubits) - 1
        self.num_gates = len(c.gates)
        self.full_mask = (1 << len(c.gates)) - 1
        # Per gate: the bitmask of its qubits and the index of its operand
        # pair among the distinct pairs in order of first use (-1 for
        # single-qubit gates).
        index: dict[tuple[int, int], int] = {}
        partners = [0] * c.num_qubits
        gate_qubits = []
        gate_pair = []
        for g in c.gates:
            if len(g.qubits) == 2:
                a, b = g.qubits
                gate_qubits.append(1 << a | 1 << b)
                key = (a, b) if a < b else (b, a)
                pi = index.get(key)
                if pi is None:
                    pi = index[key] = len(index)
                    partners[a] |= 1 << b
                    partners[b] |= 1 << a
                gate_pair.append(pi)
            else:
                gate_qubits.append(1 << g.qubits[0])
                gate_pair.append(-1)
        self.gate_qubits = tuple(gate_qubits)
        self.gate_pair = tuple(gate_pair)
        self.pairs = list(index)
        # Seed backtrack order: the interacting qubits, each next one the
        # qubit with most partners already placed (then most partners, then
        # lowest index), followed by the idle qubits.
        order: list[int] = []
        placed = 0
        rest = [q for q in range(c.num_qubits) if partners[q]]
        while rest:
            best, best_key = -1, (-1, -1)
            for q in rest:
                key = ((partners[q] & placed).bit_count(), partners[q].bit_count())
                if key > best_key:
                    best, best_key = q, key
            order.append(best)
            rest.remove(best)
            placed |= 1 << best
        self.num_active = len(order)
        order += [q for q in range(c.num_qubits) if not partners[q]]
        self.order = tuple(order)
        self.degree = tuple(partners[q].bit_count() for q in order)
        # Per backtrack position: the partners placed before it.
        self.placed_partners = tuple(
            tuple(r for r in order[:i] if partners[q] >> r & 1) for i, q in enumerate(order)
        )


def _seeds(info: _CircuitInfo, graph: CouplingGraph, k: int, orbits: bool):
    """Initial placements with h exactly k, in backtracking order.

    Every interacting pair lies within k+1 hops and, for k > 0, some pair
    exactly k+1 hops apart.  Partial placements that break the hop limit
    are never extended.  With ``orbits``, a placement is yielded only if,
    read in backtrack order (``info.order``), it is lexicographically no
    larger than its image under each of ``graph.automorphisms``; under a
    complete group that is one placement per orbit, its leader.  The test
    runs on every prefix, so no placement below a prefix that cannot lead
    its orbit is built.
    """
    n = graph.num_nodes
    dist = graph.distances
    # Per node, the other nodes within k+1 hops; per backtrack position,
    # the nodes with room for all of the qubit's partners.
    reach, room = graph.within(k + 1)
    fits = [room[d] for d in info.degree]
    order, back, pairs = info.order, info.placed_partners, info.pairs
    num_active, num_qubits = info.num_active, len(order)
    if k and not num_active:
        return  # nothing interacts: every seed has h = 0
    if not num_qubits:
        yield ()
        return
    # The lex-leader test, with the automorphisms as bits of a "tied" set:
    # the ones that fix every node placed so far.  A tied automorphism that
    # maps the next node lower makes the image smaller, so that node is
    # banned; one that maps it higher can reject nothing below it, so only
    # the automorphisms fixing the node stay tied.
    fixes, lowers = graph.automorphism_masks if orbits else ((), ())

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
        if i == num_active and k and all(dist[pos[a]][pos[b]] <= k for a, b in pairs):
            i -= 1  # every pair within k hops: a seed of a lower bucket
            continue
        if i == num_qubits:
            i -= 1
            yield tuple(pos)
            continue
        free[i] = free[i - 1] ^ low
        cand = free[i] & fits[i]
        # Skipped outright without automorphisms: the budget-0 embedding
        # test runs this loop on every call and pays for each added step.
        if lowers:
            t = tied[i] = tied[i - 1] & fixes[x]
            if t:
                cand &= ~ban(t)
        for r in back[i]:
            cand &= reach[pos[r]]
        cands[i] = cand


# A closed-map value is the parent link: (parent key + 1) * nodes**2 +
# a * nodes + b for the SWAP on edge (a, b), a < b, and 0 for a seed.


def _search(info: _CircuitInfo, graph: CouplingGraph, start: tuple[int, ...] | None, *,
            strict: bool, bound: int | None, state_cap: int, on_level=None):
    """The search engine: best-first over (placement, fragment) states,
    with enhanced partial expansion (see the module docstring).

    A free search (``start`` None) takes its seeds from ``_seeds``, which
    enumerates every placement bucket by bucket; from bucket 1 on, they
    pass the orbit filter of ``graph.automorphisms``.  A fixed ``start``
    is the one seed, in the bucket of its own h.  Free searches skip a
    seed that runs no gate of a non-empty circuit and drop a child equal
    to its placement's seed state; a fixed start keeps both.  States with
    f above ``bound`` are never built (None: no cut).  Returns (cost,
    initial placement, swaps) for the first finished fragment, which is
    optimal, or None when nothing within the bound finishes.

    One loop per bucket k passes one frontier entry at a time: it pops
    the entry at the deepest level, and when the bucket runs dry it takes
    the next seed as the bucket's level-0 entry.  An entry is a state and
    a mask of SWAP slots (qubit * max degree + index of the edge among its
    node's neighbors); an empty mask marks the state's first pass, which
    re-files the state at its own level in buckets k+1 and k+2 with the
    SWAPs whose children land there.  A pass builds the children whose f
    is k and files them at the next level of bucket k.

    ``on_level(k, level, placement, fragment mask)`` sees each state on
    its first pass, a seed that finished included, so each state is
    reported once.  ``state_cap`` bounds the closed-map records: each
    state reached, counted once; the re-filed entries, at most two per
    state passed, are not counted.
    """
    n = graph.num_nodes
    nbrs = graph.neighbors
    stride = n * n
    dist = graph.distances
    pairs = info.pairs
    npairs = len(pairs)
    gate_qubits = info.gate_qubits
    all_qubits = info.all_qubits
    gate_pair = info.gate_pair
    gbits = info.num_gates
    full = info.full_mask
    # A frontier entry packs the state key above its SWAP-slot mask.
    width = graph.max_degree()
    nq = len(info.order)
    nslots = nq * width
    slot_mask = (1 << nslots) - 1
    free_start = start is None
    # Buckets are swept from k on and seeded up to seed_max: a free search
    # seeds every h a placement can have, a fixed start only the bucket of
    # its own h, with itself as the one seed.
    if free_start:
        k, seed_max = 0, graph.diameter - 1 if pairs else 0
    else:
        k = seed_max = max([dist[start[a]][start[b]] for a, b in pairs], default=1) - 1

    # Interned placements, with per placement the bitmask of adjacent pairs
    # (its signature) and its seed fragment, the full circuit reduced on it.
    places: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    sigs: list[int] = []
    seed_of: list[int] = []
    reduce_memo: dict[int, int] = {}  # (fragment, sig) -> reduced fragment
    # Fragment -> the operand pairs of its pending two-qubit gates, and per
    # qubit its partners in those pairs.
    pending_memo: dict[int, tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]] = {}
    # State key (placement index << gates | fragment) -> parent link.
    closed: dict[int, int] = {}

    def intern(phys: tuple[int, ...]) -> int:
        idx = len(places)
        index[phys] = idx
        places.append(phys)
        sig = 0
        for pi, (a, b) in enumerate(pairs):
            if dist[phys[a]][phys[b]] == 1:
                sig |= 1 << pi
        sigs.append(sig)
        m0 = reduce_memo.get(full << npairs | sig)
        seed_of.append(reduce_mask(full, sig) if m0 is None else m0)
        return idx

    def reduce_mask(mask: int, sig: int) -> int:
        # One ascending pass: a gate runs unless an earlier remaining gate
        # shares a qubit with it (that qubit is blocked) or its operands
        # are not adjacent.  Once every qubit is blocked nothing else runs.
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
            if blocked == all_qubits:
                break
        reduce_memo[mask << npairs | sig] = out
        return out

    def pending(mask: int):
        pend = tuple({pairs[pi] for i, pi in enumerate(gate_pair) if pi >= 0 and mask >> i & 1})
        partners: list[list[int]] = [[] for _ in range(nq)]
        for a, b in pend:
            partners[a].append(b)
            partners[b].append(a)
        found = pending_memo[mask] = pend, tuple(map(tuple, partners))
        return found

    def replay(key: int) -> tuple[int, tuple[int, ...], list[tuple[int, int]]]:
        """(level, initial placement, swaps) of the finished state ``key``."""
        swaps: list[tuple[int, int]] = []
        link = closed[key]
        while link:
            parent, edge = divmod(link, stride)
            swaps.append(divmod(edge, n))
            key = parent - 1
            link = closed[key]
        swaps.reverse()
        return len(swaps), places[key >> gbits], swaps

    def over_cap(level: int) -> ResourceLimitError:
        # Every lower bucket is exhausted, so the optimum is at least k.
        return ResourceLimitError(
            f"search reached more than the state cap ({state_cap}) states in bucket {k} "
            f"at level {level} (the optimum is at least {k}); "
            "raise it to search this instance"
        )

    # f -> level -> frontier entries filed there, not yet passed.
    buckets: dict[int, dict[int, list[int]]] = {}
    while bound is None or k <= bound:
        if k > seed_max and not buckets:
            return None
        cur = buckets.setdefault(k, {})
        # Bucket 0 stops at its first seed, so only the free seeds from
        # bucket 1 on go through the orbit filter.
        if k > seed_max:
            seeds = iter(())
        elif free_start:
            seeds = _seeds(info, graph, k, k > 0)
        else:
            seeds = iter((start,))
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
                m0 = seed_of[idx]
                if m0 == full and full and free_start:
                    continue  # runs no gate: each child is another seed
                key = idx << gbits | m0
                closed[key] = 0
                if len(closed) > state_cap:
                    raise over_cap(0)
                level = todo = 0
            m = key & full
            if not todo:
                # First pass: report the state, then sort its SWAPs by the
                # bucket of their children, computed from the parent alone.
                if on_level is not None:
                    on_level(k, level, phys, m)
                if not m:
                    return replay(key)  # only a seed is still finished here
                top = k - level + 1  # the parent's own far
                at = dict(zip(phys, range(len(phys))))
                pend = pending_memo.get(m)
                if pend is None:
                    pend = pending(m)
                pend, partners = pend
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
                        j = at.get(w)
                        if j is None:
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
                        if j is not None:
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
                if next1 and (bound is None or k + 1 <= bound):
                    buckets.setdefault(k + 1, {}).setdefault(level, []).append(key << nslots | next1)
                if next2 and (bound is None or k + 2 <= bound):
                    buckets.setdefault(k + 2, {}).setdefault(level, []).append(key << nslots | next2)
            # Build the children of the slots in todo, all in bucket k.
            link = (key + 1) * stride  # parent link, less the SWAP
            children = []
            while todo:
                low = todo & -todo
                todo ^= low
                i, e = divmod(low.bit_length() - 1, width)
                p = phys[i]
                w = nbrs[p][e]
                moved = list(phys)
                if w in moved:
                    moved[moved.index(w)] = p
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
                if nkey in closed:
                    continue
                closed[nkey] = link + (p * n + w if p < w else w * n + p)
                if len(closed) > state_cap:
                    raise over_cap(level + 1)
                if not nm:
                    return replay(nkey)
                children.append(nkey << nslots)
            if children:
                cur.setdefault(level + 1, []).extend(children)
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
    found = _search(_CircuitInfo(c), g, p0, strict=strict, bound=budget,
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

    Every initial placement is covered: from bucket 1 on, the search
    seeds each orbit of ``g.automorphisms`` through its leader, the
    placement that is lexicographically least in backtrack order, and
    automorphisms preserve every cost, so the result is exact.  ``strict``
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
    at the first one.  From bucket 1 on, the seeds are the orbit leaders
    of ``g.automorphisms``, as in ``solve_exact``.
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
    first pass only, in the bucket of its own f, not when it is passed
    again to build children of higher f; so each (placement, fragment) is
    reported once.  Each state is taken just before it is expanded, so the
    one in which the search finished is included; when the optimum is 0
    it is the seed that finished, with its empty fragment.  ``p0`` None
    seeds all placements, from bucket 1 on one per orbit of the graph's
    automorphisms; a seed that runs no gate is then neither expanded nor
    reported, and no state above level 0 equals the seed state of its
    placement.
    """
    collected: list[list[SearchState]] = []

    def snap(_bound: int, _level: int, phys: tuple[int, ...], mask: int) -> None:
        collected.append([
            SearchState(Placement(phys), (descriptor(Subcircuit._from_mask(c, mask)),))
        ])

    _solve(c, g, start=p0, strict=strict, budget=None, state_cap=state_cap,
           on_level=snap)
    return collected


# --- plan text format -------------------------------------------------------
#
#   init 0:3 1:2 2:0
#   swap 3 2


def parse_plan(text: str) -> SwapPlan:
    initial: Placement | None = None
    swaps: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if initial is None:
            if tokens[0] != "init":
                raise ParseError("expected 'init <q>:<node> ...' first", lineno)
            mapping: dict[int, int] = {}
            for tok in tokens[1:]:
                try:
                    q_s, p_s = tok.split(":")
                    q, p = int(q_s), int(p_s)
                except ValueError:
                    raise ParseError(f"bad pair {tok!r}", lineno) from None
                if q in mapping:
                    raise ParseError(f"qubit {q} mapped twice", lineno)
                mapping[q] = p
            if sorted(mapping) != list(range(len(mapping))):
                raise ParseError("init must cover qubits 0..n-1", lineno)
            try:
                initial = Placement(tuple(mapping[q] for q in range(len(mapping))))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        if tokens[0] != "swap" or len(tokens) != 3:
            raise ParseError("expected 'swap <a> <b>'", lineno)
        try:
            a, b = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ParseError(f"bad node index in {line!r}", lineno) from None
        swaps.append((a, b))
    if initial is None:
        raise ParseError("missing 'init' line")
    return SwapPlan(initial, tuple(swaps))


def format_plan(plan: SwapPlan) -> str:
    pairs = " ".join(f"{q}:{p}" for q, p in enumerate(plan.initial.to_physical))
    lines = [("init " + pairs).rstrip()]
    for a, b in plan.swaps:
        lines.append(f"swap {a} {b}")
    return "\n".join(lines) + "\n"


def load_plan(path: str) -> SwapPlan:
    with open(path, encoding="utf-8") as fh:
        return parse_plan(fh.read())


def save_plan(plan: SwapPlan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_plan(plan))
