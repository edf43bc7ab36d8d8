"""The line formats of circuits (``.qc``), coupling graphs (``.cg``) and
SWAP plans (``.plan``): ``parse_*`` and ``format_*`` on text, ``load_*`` and
``save_*`` on files.

The three formats share one reader.  A ``#`` starts a comment that runs to
the end of its line, and a line left blank is skipped.  The first line left
is the header; every other line is one gate, edge or SWAP.  Numbers are
integers.  A malformed line raises ParseError carrying its 1-based
line number; a missing header, and a graph whose edges do not form a valid
coupling graph, raise it with no line.

    qubits 3        nodes 3         init 0:2 1:0 2:1
    h 0             edge 0 1        swap 0 1
    cx 0 1          edge 1 2
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .circuits import Circuit, Gate
from .coupling import CouplingGraph
from .errors import ParseError
from .mapper import Placement, SwapPlan

_Line = tuple[int, str, list[str]]


def _read(text: str, keyword: str, header: str, missing: str) -> tuple[_Line, Iterator[_Line]]:
    """Split text into its header line and an iterator over the lines after it.

    A line is (line number, line, tokens): its text with the ``#`` comment
    cut and both ends stripped, and that text split on blanks.  Lines left
    blank are skipped.  The header must start with keyword, else
    ``ParseError("expected " + header)``; a text with no line left raises
    ``ParseError("missing " + missing)``.
    """
    lines = ((lineno, line, line.split())
             for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.split("#", 1)[0].strip()))
    for first in lines:
        if first[2][0] != keyword:
            raise ParseError(f"expected {header}", first[0])
        return first, lines
    raise ParseError(f"missing {missing}")


def _ints(tokens: list[str], lineno: int, what: str, shown: str) -> tuple[int, ...]:
    """The tokens as integers, or ``ParseError("bad <what> <shown!r>")``."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ParseError(f"bad {what} {shown!r}", lineno) from None


def _count(text: str, keyword: str, noun: str) -> tuple[int, int, Iterator[_Line]]:
    """Read a text whose header is ``<keyword> <n>``: n, the header's line
    number and the lines after it."""
    form = f"'{keyword} <n>' header"
    (lineno, _, tokens), body = _read(text, keyword, form, form)
    if len(tokens) != 2:
        raise ParseError(f"expected {form}", lineno)
    (n,) = _ints(tokens[1:], lineno, f"{noun} count", tokens[1])
    return n, lineno, body


def _pairs(body: Iterator[_Line], keyword: str) -> list[tuple[int, ...]]:
    """The node pairs of the lines ``<keyword> <a> <b>``."""
    pairs = []
    for lineno, line, tokens in body:
        if tokens[0] != keyword or len(tokens) != 3:
            raise ParseError(f"expected '{keyword} <a> <b>'", lineno)
        pairs.append(_ints(tokens[1:], lineno, "node index in", line))
    return pairs


# --- circuits: "qubits <n>", then one "<label> <q>" or "<label> <q1> <q2>"
# line per gate.


def parse_circuit(text: str) -> Circuit:
    num_qubits, lineno, body = _count(text, "qubits", "qubit")
    if num_qubits < 0:
        raise ParseError("qubit count must be >= 0", lineno)
    gates: list[Gate] = []
    for lineno, line, tokens in body:
        if len(tokens) not in (2, 3):
            raise ParseError("expected '<label> <q>' or '<label> <q1> <q2>'", lineno)
        qubits = _ints(tokens[1:], lineno, "qubit index in", line)
        if any(q >= num_qubits for q in qubits):
            raise ParseError(f"qubit index outside [0, {num_qubits})", lineno)
        try:
            gates.append(Gate(len(gates), tokens[0], qubits))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return Circuit(num_qubits, gates)


def format_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.num_qubits}"]
    for g in c.gates:
        lines.append(" ".join([g.label, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


def load_circuit(path: str) -> Circuit:
    return parse_circuit(Path(path).read_text(encoding="utf-8"))


def save_circuit(c: Circuit, path: str) -> None:
    Path(path).write_text(format_circuit(c), encoding="utf-8")


# --- graphs: "nodes <n>", then one "edge <a> <b>" line per edge.


def parse_graph(text: str) -> CouplingGraph:
    num_nodes, _, body = _count(text, "nodes", "node")
    edges = _pairs(body, "edge")
    try:
        return CouplingGraph.from_edge_list(num_nodes, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_graph(g: CouplingGraph) -> str:
    lines = [f"nodes {g.num_nodes}"]
    for a, b in g.sorted_edges:
        lines.append(f"edge {a} {b}")
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> CouplingGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def save_graph(g: CouplingGraph, path: str) -> None:
    Path(path).write_text(format_graph(g), encoding="utf-8")


# --- plans: "init <q>:<node> ..." for qubits 0..n-1, then one "swap <a> <b>"
# line per SWAP.


def parse_plan(text: str) -> SwapPlan:
    (lineno, _, tokens), body = _read(text, "init", "'init <q>:<node> ...' first",
                                      "'init' line")
    mapping: dict[int, int] = {}
    for tok in tokens[1:]:
        pair = _ints(tok.split(":"), lineno, "pair", tok)
        if len(pair) != 2:
            raise ParseError(f"bad pair {tok!r}", lineno)
        q, p = pair
        if q in mapping:
            raise ParseError(f"qubit {q} mapped twice", lineno)
        mapping[q] = p
    if sorted(mapping) != list(range(len(mapping))):
        raise ParseError("init must cover qubits 0..n-1", lineno)
    try:
        initial = Placement(tuple(mapping[q] for q in range(len(mapping))))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return SwapPlan(initial, tuple(_pairs(body, "swap")))


def format_plan(plan: SwapPlan) -> str:
    pairs = " ".join(f"{q}:{p}" for q, p in enumerate(plan.initial.to_physical))
    lines = [("init " + pairs).rstrip()]
    for a, b in plan.swaps:
        lines.append(f"swap {a} {b}")
    return "\n".join(lines) + "\n"


def load_plan(path: str) -> SwapPlan:
    return parse_plan(Path(path).read_text(encoding="utf-8"))


def save_plan(plan: SwapPlan, path: str) -> None:
    Path(path).write_text(format_plan(plan), encoding="utf-8")
