import hashlib

import pytest

from qcmap import (
    Circuit,
    Gate,
    ParseError,
    RandomCircuitSpec,
    build_layers,
    build_topology_graph,
    format_circuit,
    gen_random_circuit,
    load_circuit,
    parse_circuit,
    save_circuit,
)

from helpers import example_circuit


class TestGate:
    def test_rejects_blank_label(self):
        with pytest.raises(ValueError):
            Gate(0, "", (0,))
        with pytest.raises(ValueError):
            Gate(0, "c x", (0, 1))
        with pytest.raises(ValueError):  # '#' starts a comment in the text format
            Gate(0, "c#x", (0, 1))

    def test_rejects_bad_operands(self):
        with pytest.raises(ValueError):
            Gate(0, "cx", (1, 1))
        with pytest.raises(ValueError):
            Gate(0, "cx", (-1, 0))
        with pytest.raises(ValueError):
            Gate(0, "ccx", (0, 1, 2))  # arity capped at two

    def test_arity(self):
        assert Gate(0, "h", (3,)).is_two_qubit is False
        assert Gate(0, "cx", (0, 1)).is_two_qubit is True


class TestCircuitConstruction:
    def test_operand_range_checked(self):
        with pytest.raises(ValueError):
            Circuit.from_ops(2, [("cx", (0, 2))])
        with pytest.raises(ValueError):
            Circuit(-1, ())
        with pytest.raises(ValueError):
            # gate indices must match sequence position
            Circuit(2, (Gate(1, "h", (0,)),))

    def test_counts(self):
        c = example_circuit()
        assert c.num_qubits == 4
        assert len(c.gates) == 7
        assert c.two_qubit_count == 4

    def test_empty_circuit_allowed(self):
        c = Circuit.from_ops(3, [])
        assert c.depth == 0
        assert c.two_qubit_count == 0


class TestWorkedExample:
    """One 7-gate circuit, every derived structure frozen by hand."""

    @staticmethod
    def dependency_edges(c):
        return sorted((i, j) for j, preds in enumerate(c.direct_predecessors) for i in preds)

    def test_dependency_edges(self):
        assert self.dependency_edges(example_circuit()) == [
            (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (4, 5), (4, 6),
        ]

    def test_dependencies_only_on_shared_qubits(self):
        c = example_circuit()
        for i, j in self.dependency_edges(c):
            assert i < j
            assert set(c.gates[i].qubits) & set(c.gates[j].qubits)

    def test_layers(self):
        lp = build_layers(example_circuit())
        assert [sorted(layer) for layer in lp.layers] == [[0, 1], [2, 3], [4], [5, 6]]
        assert lp.depth == 4

    def test_depth_matches_layers(self):
        c = example_circuit()
        assert c.depth == build_layers(c).depth == 4

    def test_layer_index(self):
        c = example_circuit()
        assert list(c.layer_index) == [0, 0, 1, 1, 2, 3, 3]

    def test_topology(self):
        topo = build_topology_graph(example_circuit())
        assert sorted(topo.edges) == [(0, 1), (1, 3), (2, 3)]
        assert topo.num_qubits == 4
        assert topo.degree(1) == 2
        assert topo.degree(2) == 1
        assert topo.max_degree == 2

    def test_layer_gates_share_no_qubit(self):
        c = example_circuit()
        for layer in build_layers(c).layers:
            seen = set()
            for i in layer:
                ops = set(c.gates[i].qubits)
                assert not ops & seen
                seen |= ops


class TestSerialization:
    def test_format_parse_round_trip(self):
        c = example_circuit()
        assert parse_circuit(format_circuit(c)) == c

    def test_text_shape(self):
        text = format_circuit(Circuit.from_ops(2, [("cx", (0, 1)), ("h", (1,))]))
        assert text.splitlines() == ["qubits 2", "cx 0 1", "h 1"]

    def test_comments_and_blank_lines(self):
        text = "# silly header\n\nqubits 2\ncx 0 1  # inline note\n\nh 0\n"
        c = parse_circuit(text)
        assert [(g.label, g.qubits) for g in c.gates] == [("cx", (0, 1)), ("h", (0,))]

    def test_parse_error_line_numbers(self):
        with pytest.raises(ParseError) as e:
            parse_circuit("qubits 2\ncx 0 5\n")
        assert e.value.line == 2
        with pytest.raises(ParseError) as e:
            parse_circuit("qubits two\n")
        assert e.value.line == 1
        with pytest.raises(ParseError) as e:
            parse_circuit("cx 0 1\n")  # header missing
        assert e.value.line == 1

    def test_parse_rejects_duplicate_operand(self):
        with pytest.raises(ParseError) as e:
            parse_circuit("qubits 3\ncx 1 1\n")
        assert e.value.line == 2

    def test_file_round_trip(self, tmp_path):
        c = example_circuit()
        path = tmp_path / "example.qc"
        save_circuit(c, path)
        assert load_circuit(path) == c


# Every input that the constructors reject, with the exception's type and
# text, recorded at commit 62b27aa.  Rows with two faults pin the order of
# the checks: label, operand count, equal operands, negative operands; then,
# per gate in sequence order, the index and the range.
BAD_GATES = [
    (("", (0, 1)), "bad gate label ''"),
    ((" ", (0, 1)), "bad gate label ' '"),
    (("c\tx", (0, 1)), "bad gate label 'c\\tx'"),
    (("cx\n", (0, 1)), "bad gate label 'cx\\n'"),
    (("c\u00a0x", (0, 1)), "bad gate label 'c\\xa0x'"),
    (("c#x", (0, 1)), "bad gate label 'c#x'"),
    ((None, (0, 1)), "bad gate label None"),
    (("h", ()), "gate 3: expected 1 or 2 operands, got 0"),
    (("ccx", (0, 1, 2)), "gate 3: expected 1 or 2 operands, got 3"),
    (("cx", (1, 1)), "gate 3: two-qubit gate operands must differ"),
    (("h", (-1,)), "gate 3: negative qubit index"),
    (("cx", (-1, 0)), "gate 3: negative qubit index"),
    (("cx", (0, -1)), "gate 3: negative qubit index"),
    (("c x", ()), "bad gate label 'c x'"),
    (("c x", (1, 1)), "bad gate label 'c x'"),
    (("#", (-1,)), "bad gate label '#'"),
    (("", (0, 1, 2)), "bad gate label ''"),
    (("ccx", (0, 0, -1)), "gate 3: expected 1 or 2 operands, got 3"),
    (("cx", (-1, -1)), "gate 3: two-qubit gate operands must differ"),
]

BAD_CIRCUITS = [
    ((2, [(1, "h", (0,))]), "gate at position 0 carries index 1"),
    ((3, [(0, "h", (0,)), (2, "cx", (0, 1))]), "gate at position 1 carries index 2"),
    ((2, [(0, "cx", (0, 2))]), "gate 0 operates qubit outside [0, 2)"),
    ((2, [(0, "cx", (2, 0))]), "gate 0 operates qubit outside [0, 2)"),
    ((2, [(0, "h", (2,))]), "gate 0 operates qubit outside [0, 2)"),
    ((0, [(0, "h", (0,))]), "gate 0 operates qubit outside [0, 0)"),
    ((-1, [(0, "h", (0,))]), "num_qubits must be >= 0"),
    ((2, [(1, "cx", (0, 5))]), "gate at position 0 carries index 1"),
    ((2, [(0, "cx", (0, 5)), (2, "h", (0,))]), "gate 0 operates qubit outside [0, 2)"),
    ((2, [(0, "h", (0,)), (1, "h", (2,)), (1, "h", (0,))]),
     "gate 1 operates qubit outside [0, 2)"),
]

BAD_TEXTS = [
    ("qubits 2\ncx 0 2\n", "line 2: qubit index outside [0, 2)"),
    ("qubits 3\nh 0\ncx 5 1\n", "line 3: qubit index outside [0, 3)"),
    ("qubits 0\nh 0\n", "line 2: qubit index outside [0, 0)"),
    ("qubits 2\ncx 1 1\n", "line 2: gate 0: two-qubit gate operands must differ"),
    ("qubits 2\nh -1\n", "line 2: gate 0: negative qubit index"),
    ("qubits 2\ncx 0 -3\n", "line 2: gate 0: negative qubit index"),
    ("qubits 2\nc\u00a0x 0 1\n", "line 2: expected '<label> <q>' or '<label> <q1> <q2>'"),
    ("qubits 2\ncx 2 2\n", "line 2: qubit index outside [0, 2)"),
    ("qubits 2\ncx -1 2\n", "line 2: qubit index outside [0, 2)"),
    ("qubits 2\ncx -1 -1\n", "line 2: gate 0: two-qubit gate operands must differ"),
    ("qubits 2\ncx 0 1 # c#x\nh 2\n", "line 3: qubit index outside [0, 2)"),
]


class TestRejections:
    @pytest.mark.parametrize("args, message", BAD_GATES)
    def test_gate(self, args, message):
        with pytest.raises(ValueError) as e:
            Gate(3, *args)
        assert type(e.value) is ValueError and str(e.value) == message

    def test_label_that_is_not_a_string(self):
        # Rejected like any other bad label, not with a TypeError from the
        # string methods the check calls.
        with pytest.raises(ValueError, match=r"^bad gate label 5$"):
            Gate(0, 5, (0, 1))

    @pytest.mark.parametrize("args, message", BAD_CIRCUITS)
    def test_circuit(self, args, message):
        num_qubits, gates = args
        gates = [Gate(*g) for g in gates]
        with pytest.raises(ValueError) as e:
            Circuit(num_qubits, gates)
        assert type(e.value) is ValueError and str(e.value) == message

    @pytest.mark.parametrize("text, message", BAD_TEXTS)
    def test_text(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_circuit(text)
        assert str(e.value) == message

    def test_whitespace_labels(self):
        # The label check splits on what str.isspace() calls whitespace.
        for ch in map(chr, range(0x3000 + 1)):
            label = f"c{ch}x"
            bad = ch.isspace() or ch == "#"
            try:
                Gate(0, label, (0,))
            except ValueError:
                assert bad, repr(ch)
            else:
                assert not bad, repr(ch)


class TestRandomCircuitDigest:
    """A sha256 over the text of seeded random circuits: q 2-6, 1-30 gates,
    two-qubit fractions 0, 0.5 and 1.  It guards the generator's RNG stream
    and the circuit text; recorded at commit 62b27aa."""

    DIGEST = "b33060ac9338538ebeccf06f3b06b7bc40b576091fc5f3a58548292ad6d72697"

    def test_digest(self):
        h = hashlib.sha256()
        for q in range(2, 7):
            for g in range(1, 31):
                for frac in (0.0, 0.5, 1.0):
                    spec = RandomCircuitSpec(q, g, frac, 100 * q + g)
                    h.update(format_circuit(gen_random_circuit(spec)).encode())
        assert h.hexdigest() == self.DIGEST
