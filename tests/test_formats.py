"""The rules the circuit, graph and plan line formats share: comments, blank
lines, blanks between tokens, line endings, and errors that name their line."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcmap import (
    Circuit,
    CouplingGraph,
    ParseError,
    Placement,
    SwapPlan,
    format_circuit,
    format_graph,
    format_plan,
    parse_circuit,
    parse_graph,
    parse_plan,
)

CASES = settings(derandomize=True, database=None, deadline=None, max_examples=50)

# No character here breaks a line (str.splitlines), separates tokens or
# starts a comment.
_WORD_CHARS = st.characters(blacklist_categories=("Cc", "Zs", "Zl", "Zp"),
                            blacklist_characters="#")
_BLANKS = st.text(" \t", max_size=3)
_COMMENT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=8).map(
    lambda text: "#" + text)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


# Not an integer, and splits into no other token or pair part.
_NOT_INT = st.text(_WORD_CHARS.filter(lambda ch: ch != ":"), min_size=1).filter(
    lambda token: not _is_int(token))


@st.composite
def circuits(draw):
    n = draw(st.integers(0, 6))
    ops = []
    for _ in range(draw(st.integers(0, 12)) if n else 0):
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(2, n),
                               unique=True))
        ops.append((draw(st.text(_WORD_CHARS, min_size=1, max_size=5)), tuple(qubits)))
    return Circuit.from_ops(n, ops)


@st.composite
def graphs(draw):
    """A random tree on 1-9 nodes plus up to six more edges."""
    n = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges.update((a, b) for a, b in draw(st.lists(pairs, max_size=6)) if a != b)
    return CouplingGraph(n, edges)


@st.composite
def plans(draw):
    nodes = draw(st.lists(st.integers(0, 30), max_size=6, unique=True))
    swaps = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=8))
    return SwapPlan(Placement(tuple(nodes)), tuple(swaps))


FORMATS = pytest.mark.parametrize("objects, fmt, parse", [
    (circuits(), format_circuit, parse_circuit),
    (graphs(), format_graph, parse_graph),
    (plans(), format_plan, parse_plan),
], ids=["circuit", "graph", "plan"])


def decorate(data, lines: list[str]) -> tuple[str, list[int]]:
    """Lay lines out again with comment and blank lines between them, extra
    blanks, trailing comments and a drawn line ending.  Returns the text and
    the 1-based line number each of the lines moved to."""
    out, moved = [], []
    for line in lines:
        for _ in range(data.draw(st.integers(0, 2))):
            out.append(data.draw(_BLANKS) + data.draw(st.sampled_from(["", "#"]) | _COMMENT))
        sep = " " + data.draw(_BLANKS)
        out.append(data.draw(_BLANKS) + sep.join(line.split()) + data.draw(_BLANKS)
                   + data.draw(st.just("") | _COMMENT))
        moved.append(len(out))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + data.draw(st.sampled_from(["", end, end + end])), moved


@FORMATS
@CASES
@given(data=st.data())
def test_parse_inverts_format(objects, fmt, parse, data):
    x = data.draw(objects)
    assert parse(fmt(x)) == x


@FORMATS
@CASES
@given(data=st.data())
def test_comments_blanks_and_line_endings_do_not_change_the_parse(objects, fmt, parse, data):
    x = data.draw(objects)
    text, _ = decorate(data, fmt(x).splitlines())
    assert parse(text) == x


@FORMATS
@CASES
@given(data=st.data())
def test_a_non_integer_token_names_its_line(objects, fmt, parse, data):
    lines = fmt(data.draw(objects)).splitlines()
    # Every token after a line's first word is a number, or a plan's q:node pair.
    spots = [(i, j) for i, line in enumerate(lines) for j in range(1, len(line.split()))]
    assume(spots)
    i, j = data.draw(st.sampled_from(spots))
    tokens = lines[i].split()
    parts = tokens[j].split(":")
    parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(_NOT_INT)
    tokens[j] = ":".join(parts)
    lines[i] = " ".join(tokens)
    text, moved = decorate(data, lines)
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.line == moved[i]


# Malformed inputs and the exact message and line each one raises.
MALFORMED = [
    # bad count, index and pair tokens
    (parse_circuit, "qubits 3x\n", "line 1: bad qubit count '3x'", 1),
    (parse_graph, "nodes 3x\n", "line 1: bad node count '3x'", 1),
    (parse_circuit, "qubits 2\ncx 0 x\n", "line 2: bad qubit index in 'cx 0 x'", 2),
    (parse_graph, "nodes 3\nedge 0 x\n", "line 2: bad node index in 'edge 0 x'", 2),
    (parse_plan, "init 0:0\nswap 0 x\n", "line 2: bad node index in 'swap 0 x'", 2),
    (parse_plan, "init 0:x\n", "line 1: bad pair '0:x'", 1),
    (parse_plan, "init 0:1:2\n", "line 1: bad pair '0:1:2'", 1),
    (parse_plan, "init 0\n", "line 1: bad pair '0'", 1),
    # missing and wrong headers
    (parse_circuit, "", "missing 'qubits <n>' header", None),
    (parse_circuit, "# only a comment\n\n", "missing 'qubits <n>' header", None),
    (parse_graph, "", "missing 'nodes <n>' header", None),
    (parse_plan, "\n", "missing 'init' line", None),
    (parse_circuit, "cx 0 1\n", "line 1: expected 'qubits <n>' header", 1),
    (parse_circuit, "qubits 2 3\n", "line 1: expected 'qubits <n>' header", 1),
    (parse_graph, "edge 0 1\n", "line 1: expected 'nodes <n>' header", 1),
    (parse_graph, "nodes\n", "line 1: expected 'nodes <n>' header", 1),
    (parse_plan, "swap 0 1\ninit 0:0\n", "line 1: expected 'init <q>:<node> ...' first", 1),
    # counts and indices out of range
    (parse_circuit, "qubits -1\n", "line 1: qubit count must be >= 0", 1),
    (parse_circuit, "qubits 2\ncx 0 5\n", "line 2: qubit index outside [0, 2)", 2),
    (parse_circuit, "qubits 2\nh -1\n", "line 2: gate 0: negative qubit index", 2),
    (parse_plan, "init 0:-1\n", "line 1: negative node index in placement", 1),
    # malformed lines
    (parse_circuit, "qubits 2\ncx\n", "line 2: expected '<label> <q>' or '<label> <q1> <q2>'", 2),
    (parse_circuit, "qubits 3\ncx 1 1\n", "line 2: gate 0: two-qubit gate operands must differ", 2),
    (parse_graph, "nodes 3\nvertex 0 1\n", "line 2: expected 'edge <a> <b>'", 2),
    (parse_plan, "init 0:0\nswap 0\n", "line 2: expected 'swap <a> <b>'", 2),
    # init lines that place no qubits 0..n-1 one to a node
    (parse_plan, "init 0:0 0:1\n", "line 1: qubit 0 mapped twice", 1),
    (parse_plan, "init 0:0 2:1\n", "line 1: init must cover qubits 0..n-1", 1),
    (parse_plan, "init 0:0 1:0\n", "line 1: placement must be injective", 1),
    # graph-level errors carry no line
    (parse_graph, "nodes 3\nedge 0 1\nedge 1 0\n", "duplicate edge (1, 0)", None),
    (parse_graph, "nodes 3\nedge 0 5\n", "edge (0, 5) outside [0, 3)", None),
    (parse_graph, "nodes 3\nedge 0 1\n", "graph is not connected", None),
    (parse_graph, "nodes 0\n", "graph needs at least one node", None),
]


@pytest.mark.parametrize("parse, text, message, line", MALFORMED)
def test_malformed_input_message(parse, text, message, line):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message
    assert e.value.line == line
