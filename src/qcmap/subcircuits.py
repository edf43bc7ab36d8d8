"""Suffixes of a circuit left over after executing a dependency-closed prefix.

A subcircuit is the set of gates still to run.  The set is always closed
upward under gate precedence: if a gate remains, everything depending on
it remains too.  Internally a subcircuit is a bitmask over gate indices;
the compact column descriptor form is the serialization of choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .circuits import Circuit

if TYPE_CHECKING:  # pragma: no cover
    from .coupling import CouplingGraph
    from .mapper import Placement


class Subcircuit:
    """The not-yet-executed tail of a parent circuit."""

    __slots__ = ("parent", "mask")

    def __init__(self, parent: Circuit, remaining: Iterable[int]):
        mask = 0
        for i in remaining:
            if not 0 <= i < len(parent.gates):
                raise ValueError(f"gate index {i} outside circuit")
            mask |= 1 << i
        _check_closed(parent, mask)
        self.parent = parent
        self.mask = mask

    @classmethod
    def _from_mask(cls, parent: Circuit, mask: int) -> "Subcircuit":
        s = cls.__new__(cls)
        s.parent = parent
        s.mask = mask
        return s

    @classmethod
    def full(cls, parent: Circuit) -> "Subcircuit":
        return cls._from_mask(parent, (1 << len(parent.gates)) - 1)

    @property
    def remaining(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subcircuit):
            return NotImplemented
        return self.mask == other.mask and self.parent == other.parent

    def __hash__(self) -> int:
        return hash((self.parent, self.mask))

    def __repr__(self) -> str:
        return f"Subcircuit({sorted(_bits(self.mask))})"

    def to_circuit(self) -> Circuit:
        """Materialize the remaining gates as a standalone circuit.

        Per-line gaps cannot occur (remaining gates form a suffix of every
        qubit line), so reindexing the subsequence preserves dependencies.
        """
        ops = [(g.label, g.qubits) for g in self.parent.gates if self.mask >> g.index & 1]
        return Circuit.from_ops(self.parent.num_qubits, ops)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_closed(parent: Circuit, mask: int) -> None:
    for j, preds in enumerate(parent.direct_predecessors):
        if mask >> j & 1:
            continue
        for p in preds:
            if mask >> p & 1:
                raise ValueError(f"gate {p} remains but its dependent {j} does not")


def front_gates(s: Subcircuit) -> frozenset[int]:
    """Remaining gates whose predecessors have all executed."""
    masks = s.parent.predecessor_masks
    return frozenset(i for i in _bits(s.mask) if not masks[i] & s.mask)


def reduce_subcircuit(s: Subcircuit, placement: "Placement", graph: "CouplingGraph") -> Subcircuit:
    """Strip every gate that can execute under the given placement.

    Front gates execute when single-qubit, or when their operands sit on
    adjacent nodes; execution repeats until nothing more can run.  One
    ascending pass suffices because precedence only points forward.
    """
    placement.check_against(s.parent, graph)
    phys = placement.to_physical
    adj = graph.adjacency_masks
    preds = s.parent.predecessor_masks
    gates = s.parent.gates
    out = s.mask
    for i in _bits(s.mask):
        if preds[i] & out:
            continue
        g = gates[i]
        if g.is_two_qubit:
            a, b = g.qubits
            if not adj[phys[a]] >> phys[b] & 1:
                continue
        out &= ~(1 << i)
    return Subcircuit._from_mask(s.parent, out)


def is_smaller(a: Subcircuit, b: Subcircuit) -> bool:
    """Partial order on subcircuits of one circuit: remaining-set inclusion."""
    if a.parent != b.parent:
        raise ValueError("subcircuits belong to different circuits")
    return a.mask & ~b.mask == 0


def minimize(subcircuits: Iterable[Subcircuit]) -> tuple[Subcircuit, ...]:
    """Keep only the inclusion-minimal subcircuits.

    Order-preserving and deterministic: survivors keep first-seen order,
    and of two equal subcircuits the first seen wins.
    """
    kept: list[Subcircuit] = []
    parent: Circuit | None = None
    for s in subcircuits:
        if parent is None:
            parent = s.parent
        elif s.parent != parent:
            raise ValueError("subcircuits belong to different circuits")
        if any(k.mask & ~s.mask == 0 for k in kept):
            continue
        kept = [k for k in kept if s.mask & ~k.mask != 0]
        kept.append(s)
    return tuple(kept)


@dataclass(frozen=True)
class CircuitType:
    """Compressed activity grid of a subcircuit.

    Column j holds the qubits already operated by layer ``j`` of the
    parent partition; equal consecutive columns are merged and leading
    all-idle columns dropped.  Columns therefore grow strictly, so a
    subcircuit of n qubits has at most n columns (the empty subcircuit
    has zero).
    """

    num_qubits: int
    columns: tuple[frozenset[int], ...]

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def black(self, qubit: int, column: int) -> bool:
        return qubit in self.columns[column]

    def as_matrix(self) -> tuple[tuple[bool, ...], ...]:
        """Rows = qubits, columns = compressed layers."""
        return tuple(
            tuple(q in col for col in self.columns) for q in range(self.num_qubits)
        )

    def is_well_formed(self) -> bool:
        """First column nonempty, rows monotone, every column adds a row."""
        prev: frozenset[int] = frozenset()
        for col in self.columns:
            if not prev < col:
                return False
            prev = col
        return True


@dataclass(frozen=True)
class SubcircuitDescriptor:
    """Compact exact encoding of a subcircuit: per compressed column, the
    first parent layer showing it plus its active-qubit set."""

    num_qubits: int
    entries: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self) -> None:
        prev_layer = -1
        prev_qubits: frozenset[int] = frozenset()
        for layer, qubits in self.entries:
            if layer <= prev_layer:
                raise ValueError("descriptor layers must strictly increase")
            if not prev_qubits < qubits:
                raise ValueError("descriptor qubit sets must strictly grow")
            if any(q < 0 or q >= self.num_qubits for q in qubits):
                raise ValueError("descriptor qubit outside range")
            prev_layer, prev_qubits = layer, qubits


def _first_active_layers(s: Subcircuit) -> list[int | None]:
    """Per qubit, the parent layer of its first remaining gate."""
    first: list[int | None] = [None] * s.parent.num_qubits
    layer_of = s.parent.layer_index
    for i in _bits(s.mask):
        for q in s.parent.gates[i].qubits:
            if first[q] is None or layer_of[i] < first[q]:
                first[q] = layer_of[i]
    return first


def _compressed_columns(s: Subcircuit) -> list[tuple[int, frozenset[int]]]:
    first = _first_active_layers(s)
    out: list[tuple[int, frozenset[int]]] = []
    for j in range(s.parent.depth):
        col = frozenset(q for q, f in enumerate(first) if f is not None and f <= j)
        if col and (not out or col != out[-1][1]):
            out.append((j, col))
    return out


def circuit_type(s: Subcircuit) -> CircuitType:
    return CircuitType(s.parent.num_qubits, tuple(col for _, col in _compressed_columns(s)))


def descriptor(s: Subcircuit) -> SubcircuitDescriptor:
    return SubcircuitDescriptor(s.parent.num_qubits, tuple(_compressed_columns(s)))


def restore(c: Circuit, d: SubcircuitDescriptor) -> Subcircuit:
    """Invert :func:`descriptor`.  Rejects descriptors no subcircuit of ``c`` has."""
    if d.num_qubits != c.num_qubits:
        raise ValueError("descriptor qubit count does not match circuit")
    for layer, _ in d.entries:
        if layer >= c.depth:
            raise ValueError(f"descriptor layer {layer} exceeds circuit depth {c.depth}")
    first: list[int | None] = [None] * c.num_qubits
    for layer, qubits in d.entries:
        for q in qubits:
            if first[q] is None:
                first[q] = layer
    mask = 0
    layer_of = c.layer_index
    for g in c.gates:
        fs = [first[q] for q in g.qubits]
        if all(f is not None and layer_of[g.index] >= f for f in fs):
            mask |= 1 << g.index
    try:
        s = Subcircuit(c, _bits(mask))
    except ValueError:
        raise ValueError("descriptor is inconsistent with the circuit") from None
    if descriptor(s) != d:
        raise ValueError("descriptor is inconsistent with the circuit")
    return s
