"""Independent checking tools: plan verification, brute-force optima, and
textbook graph solvers.

Everything here re-derives executability straight from the definitions
and shares no search or reduction code with the mapper, so agreement
between the two is meaningful evidence.  All solvers are exponential and
meant for small instances only.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .circuits import Circuit
from .coupling import CouplingGraph
from .errors import ResourceLimitError
from .mapper import MapResult, Placement, SwapPlan


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying a plan: accepted flag, swaps actually needed,
    on rejection a (step, reason) pair, and whether every SWAP replayed
    had a qubit on both of its nodes, as strict mode requires."""

    accepted: bool
    swaps_used: int
    failure: tuple[int, str] | None
    strict: bool = True


def _advance(c: Circuit, g: CouplingGraph, pos: Sequence[int],
             pending: Iterable[int]) -> list[int]:
    """Execute every gate that can run, straight from the definition, and
    return the gates still pending: a gate runs once all earlier gates
    sharing one of its qubits have run and (for two-qubit gates) its
    operands sit on adjacent nodes, an edge of ``g.edges``.

    One ascending scan over the indices ``pending`` reaches the fixpoint.
    It keeps the mask of the qubits of the gates it leaves pending.  When
    it reaches a gate, every earlier gate has run or been left pending in
    this scan, so an earlier gate sharing a qubit has not run exactly when
    one of the gate's qubits is in the mask: the definition's condition.
    After the scan no pending gate can run, since it is blocked by a gate
    that is still pending or by operand nodes that have not moved.  So a
    caller carries the list to the next SWAP, and the gates that ran are
    never scanned again."""
    gates, edges = c.gates, g.edges
    blocked = 0
    left = []
    for i in pending:
        qubits = gates[i].qubits
        if len(qubits) == 2:
            a, b = qubits
            qs = 1 << a | 1 << b
            if not blocked & qs:
                x, y = pos[a], pos[b]
                if ((x, y) if x < y else (y, x)) in edges:
                    continue
        else:
            qs = 1 << qubits[0]
            if not blocked & qs:
                continue
        blocked |= qs
        left.append(i)
    return left


def verify_plan(c: Circuit, g: CouplingGraph, plan: SwapPlan) -> VerificationReport:
    """Replay a plan and accept iff the whole circuit executes by its end."""
    plan.initial.check_against(c, g)
    for a, b in plan.swaps:
        if not g.has_edge(a, b):
            raise ValueError(f"swap ({a}, {b}) is not an edge of the graph")
    pos = list(plan.initial.to_physical)
    pending = _advance(c, g, pos, range(len(c.gates)))
    if not pending:
        return VerificationReport(True, 0, None)
    strict = True
    for step, (a, b) in enumerate(plan.swaps, start=1):
        strict = strict and a in pos and b in pos
        for q in range(c.num_qubits):
            if pos[q] == a:
                pos[q] = b
            elif pos[q] == b:
                pos[q] = a
        pending = _advance(c, g, pos, pending)
        if not pending:
            return VerificationReport(True, step, None, strict)
    return VerificationReport(
        False, len(plan.swaps),
        (len(plan.swaps), f"{len(pending)} gate(s) still pending at end of plan"), strict,
    )


def brute_force_g(c: Circuit, g: CouplingGraph, *, max_qubits: int = 4,
                  max_nodes: int = 5, max_gates: int = 8,
                  strict: bool = False) -> MapResult:
    """Exhaustive BFS over (occupancy, pending-gates) states; a state's
    pending gates are the index tuple that ``_advance`` leaves.

    Guards refuse instances beyond (max_qubits, max_nodes, max_gates);
    pass larger limits explicitly to override.  Exact but exponential.
    """
    if c.num_qubits > max_qubits or g.num_nodes > max_nodes or len(c.gates) > max_gates:
        raise ResourceLimitError(
            f"instance beyond brute-force guards (qubits<={max_qubits}, "
            f"nodes<={max_nodes}, gates<={max_gates}); override to proceed"
        )
    n, b = c.num_qubits, g.num_nodes
    if n > b:
        return MapResult(math.inf, None)
    edges = g.sorted_edges
    parents: dict[tuple, tuple | None] = {}
    queue: deque[tuple] = deque()

    def settle(pos: tuple[int, ...], rem: Iterable[int]) -> tuple[int, ...]:
        return tuple(_advance(c, g, pos, rem))

    def unwind(key: tuple) -> MapResult:
        swaps: list[tuple[int, int]] = []
        while True:
            link = parents[key]
            if link is None:
                break
            key, edge = link
            swaps.append(edge)
        swaps.reverse()
        return MapResult(len(swaps), SwapPlan(Placement(key[0]), tuple(swaps)))

    for pos in itertools.permutations(range(b), n):
        rem = settle(pos, range(len(c.gates)))
        key = (pos, rem)
        if key in parents:
            continue
        parents[key] = None
        if not rem:
            return MapResult(0, SwapPlan(Placement(pos), ()))
        queue.append(key)

    while queue:
        key = queue.popleft()
        pos, rem = key
        for edge in edges:
            if strict and (edge[0] not in pos or edge[1] not in pos):
                continue
            u, v = edge
            npos = tuple(u if p == v else v if p == u else p for p in pos)
            nrem = settle(npos, rem)
            nkey = (npos, nrem)
            if nkey in parents:
                continue
            parents[nkey] = (key, edge)
            if not nrem:
                return unwind(nkey)
            queue.append(nkey)
    return MapResult(math.inf, None)


# --- textbook graph solvers -------------------------------------------------


def _check_node(g: CouplingGraph, v: int) -> None:
    if not 0 <= v < g.num_nodes:
        raise ValueError(f"node {v} outside graph")


def ham_cycle(g: CouplingGraph) -> list[int] | None:
    """A Hamiltonian cycle as a node list (closing edge implied), or None."""
    n = g.num_nodes
    if n < 3:
        return None
    path = [0]
    on_path = {0}

    def extend() -> bool:
        if len(path) == n:
            return g.has_edge(path[-1], 0)
        for w in g.neighbors[path[-1]]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                if extend():
                    return True
                path.pop()
                on_path.discard(w)
        return False

    return path[:] if extend() else None


def ham_path(g: CouplingGraph, endpoints: tuple[int, int] | None = None) -> list[int] | None:
    """A Hamiltonian path, optionally with fixed endpoints, or None."""
    n = g.num_nodes
    if endpoints is not None:
        s, t = endpoints
        _check_node(g, s)
        _check_node(g, t)
        if s == t and n > 1:
            return None

    def search(start: int, goal: int | None) -> list[int] | None:
        path = [start]
        on_path = {start}

        def extend() -> bool:
            if len(path) == n:
                return goal is None or path[-1] == goal
            for w in g.neighbors[path[-1]]:
                if w not in on_path:
                    if goal is not None and w == goal and len(path) + 1 < n:
                        continue
                    path.append(w)
                    on_path.add(w)
                    if extend():
                        return True
                    path.pop()
                    on_path.discard(w)
            return False

        return path[:] if extend() else None

    if endpoints is not None:
        if n == 1:
            return [s] if s == t else None
        return search(s, t)
    for start in range(n):
        found = search(start, None)
        if found is not None:
            return found
    return None


def max_clique_at_least(g: CouplingGraph, k: int) -> bool:
    """Does the graph contain a clique on k nodes?"""
    if k <= 0:
        return True
    if k == 1:
        return g.num_nodes >= 1
    nodes = list(range(g.num_nodes))

    def extend(size: int, candidates: list[int]) -> bool:
        if size >= k:
            return True
        if size + len(candidates) < k:
            return False
        for i, v in enumerate(candidates):
            rest = [w for w in candidates[i + 1:] if g.has_edge(v, w)]
            if extend(size + 1, rest):
                return True
        return False

    return extend(0, nodes)


def shortest_path(g: CouplingGraph, s: int, t: int) -> int:
    """Hop count of a shortest s-t path, by plain BFS."""
    return len(shortest_path_nodes(g, s, t)) - 1


def shortest_path_nodes(g: CouplingGraph, s: int, t: int) -> list[int]:
    """The nodes of one shortest s-t path (lowest-index tie-break)."""
    _check_node(g, s)
    _check_node(g, t)
    parent: dict[int, int] = {s: s}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        if v == t:
            break
        for w in g.neighbors[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return path
