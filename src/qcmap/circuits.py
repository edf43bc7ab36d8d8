"""Quantum circuits as gate sequences, plus the graphs derived from them.

A circuit is an ordered sequence of labelled gates acting on one or two
qubits.  Everything downstream (dependency structure, layer partition,
interaction topology) is derived from that sequence and cached on the
circuit object; circuits are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Gate:
    """One gate: a label plus one or two distinct qubit operands.

    ``index`` is the position in the parent circuit's sequence and
    doubles as the gate's identity in derived structures.
    """

    index: int
    label: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.label or any(ch.isspace() for ch in self.label) or "#" in self.label:
            raise ValueError(f"bad gate label {self.label!r}")
        if len(self.qubits) not in (1, 2):
            raise ValueError(f"gate {self.index}: expected 1 or 2 operands, got {len(self.qubits)}")
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"gate {self.index}: two-qubit gate operands must differ")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"gate {self.index}: negative qubit index")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


class Circuit:
    """An immutable sequence of gates on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, gates: tuple[Gate, ...] | list[Gate]):
        if num_qubits < 0:
            raise ValueError("num_qubits must be >= 0")
        gates = tuple(gates)
        for pos, g in enumerate(gates):
            if g.index != pos:
                raise ValueError(f"gate at position {pos} carries index {g.index}")
            if any(q >= num_qubits for q in g.qubits):
                raise ValueError(f"gate {pos} operates qubit outside [0, {num_qubits})")
        self.num_qubits = num_qubits
        self.gates = gates

    @classmethod
    def from_ops(cls, num_qubits: int, ops: list[tuple[str, tuple[int, ...]]]) -> "Circuit":
        """Build from (label, qubits) pairs, assigning sequence indices."""
        return cls(num_qubits, [Gate(i, label, tuple(qs)) for i, (label, qs) in enumerate(ops)])

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.gates == other.gates

    def __hash__(self) -> int:
        return hash((self.num_qubits, self.gates))

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates=<{len(self.gates)}>)"

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)

    @cached_property
    def direct_predecessors(self) -> tuple[tuple[int, ...], ...]:
        """For each gate, the indices of the previous gate on each operand line."""
        last: dict[int, int] = {}
        preds: list[tuple[int, ...]] = []
        for g in self.gates:
            mine = sorted({last[q] for q in g.qubits if q in last})
            preds.append(tuple(mine))
            for q in g.qubits:
                last[q] = g.index
        return tuple(preds)

    @cached_property
    def predecessor_masks(self) -> tuple[int, ...]:
        """direct_predecessors as bitmasks, for set-free front-gate tests."""
        out = []
        for preds in self.direct_predecessors:
            m = 0
            for p in preds:
                m |= 1 << p
            out.append(m)
        return tuple(out)

    @cached_property
    def layer_index(self) -> tuple[int, ...]:
        """Earliest-possible layer of each gate (0-based, ASAP assignment)."""
        layer = []
        for g in self.gates:
            preds = self.direct_predecessors[g.index]
            layer.append(0 if not preds else 1 + max(layer[p] for p in preds))
        return tuple(layer)

    @property
    def depth(self) -> int:
        return 0 if not self.gates else 1 + max(self.layer_index)


@dataclass(frozen=True)
class DependencyGraph:
    """Gate precedence DAG: an edge (i, j) means gate j must wait for gate i.

    Edges connect consecutive gates per qubit line only; longer-range
    precedence is implied transitively.
    """

    num_gates: int
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class LayerPartition:
    """Gates grouped by earliest-possible layer, in layer order."""

    layers: tuple[frozenset[int], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class TopologyGraph:
    """Which qubit pairs interact: one undirected edge per two-qubit pair used."""

    num_qubits: int
    edges: frozenset[tuple[int, int]]

    def degree(self, q: int) -> int:
        return sum(1 for e in self.edges if q in e)

    @property
    def max_degree(self) -> int:
        if self.num_qubits == 0:
            return 0
        return max(self.degree(q) for q in range(self.num_qubits))


def build_dependency_graph(c: Circuit) -> DependencyGraph:
    """Precedence edges between consecutive gates sharing an operand qubit."""
    edges = set()
    for g in c.gates:
        for p in c.direct_predecessors[g.index]:
            edges.add((p, g.index))
    return DependencyGraph(len(c.gates), frozenset(edges))


def build_layers(c: Circuit) -> LayerPartition:
    """Partition gates into ASAP layers; gates in one layer share no qubit."""
    if not c.gates:
        return LayerPartition(())
    buckets: list[set[int]] = [set() for _ in range(c.depth)]
    for g in c.gates:
        buckets[c.layer_index[g.index]].add(g.index)
    return LayerPartition(tuple(frozenset(b) for b in buckets))


def build_topology_graph(c: Circuit) -> TopologyGraph:
    """Undirected interaction graph over the circuit's qubits."""
    edges = set()
    for g in c.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            edges.add((min(a, b), max(a, b)))
    return TopologyGraph(c.num_qubits, frozenset(edges))
