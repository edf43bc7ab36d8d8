import pytest

from qcmap import (
    Circuit,
    Gate,
    ParseError,
    build_dependency_graph,
    build_layers,
    build_topology_graph,
    format_circuit,
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

    def test_dependency_edges(self):
        dep = build_dependency_graph(example_circuit())
        assert sorted(dep.edges) == [
            (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (4, 5), (4, 6),
        ]

    def test_dependencies_only_on_shared_qubits(self):
        c = example_circuit()
        dep = build_dependency_graph(c)
        for i, j in dep.edges:
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
