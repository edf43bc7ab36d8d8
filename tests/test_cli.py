"""End-to-end command-line runs in subprocesses, and in-process runs
where the solver is replaced."""

import subprocess
import sys

import pytest

from qcmap import (
    MapResult,
    Placement,
    SwapPlan,
    format_circuit,
    format_graph,
    gen_cycle_circuit,
    linear,
    load_instance,
    load_plan,
    parse_csv,
    cycle,
)
from qcmap import cli

from helpers import example_circuit


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qcmap.cli", *map(str, args)],
        capture_output=True, text=True, **kwargs,
    )


@pytest.fixture
def triangle_files(tmp_path):
    circuit = tmp_path / "tri.qc"
    graph = tmp_path / "path3.cg"
    circuit.write_text("qubits 3\ncx 0 1\ncx 1 2\ncx 0 2\n")
    graph.write_text(format_graph(linear(3)))
    return circuit, graph


class TestSolve:
    def test_prints_cost_and_writes_plan(self, tmp_path, triangle_files):
        circuit, graph = triangle_files
        plan_path = tmp_path / "out.plan"
        proc = run_cli("solve", "--circuit", circuit, "--graph", graph,
                       "--plan", plan_path)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"
        plan = load_plan(plan_path)
        assert len(plan.swaps) == 1

    def test_zero_qubit_circuit(self, tmp_path, triangle_files):
        _, graph = triangle_files
        circuit = tmp_path / "empty.qc"
        circuit.write_text("qubits 0\n")
        plan_path = tmp_path / "out.plan"
        proc = run_cli("solve", "--circuit", circuit, "--graph", graph, "--plan", plan_path)
        assert (proc.returncode, proc.stdout.strip()) == (0, "0"), proc.stderr
        assert plan_path.read_text() == "init\n"
        proc = run_cli("verify", "--circuit", circuit, "--graph", graph, "--plan", plan_path)
        assert (proc.returncode, proc.stdout.strip()) == (0, "accepted swaps_used=0"), proc.stderr

    def test_infeasible_prints_inf(self, tmp_path, triangle_files):
        circuit, _ = triangle_files
        graph = tmp_path / "tiny.cg"
        graph.write_text(format_graph(linear(2)))
        proc = run_cli("solve", "--circuit", circuit, "--graph", graph)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "inf"

    def test_state_cap_exit_code(self, triangle_files):
        circuit, graph = triangle_files
        proc = run_cli("solve", "--circuit", circuit, "--graph", graph,
                       "--state-cap", 1)
        assert proc.returncode == 3
        assert "error" in proc.stderr

    def test_distance_table_over_state_cap_exits_3(self, tmp_path):
        circuit = tmp_path / "pair.qc"
        circuit.write_text("qubits 2\ncx 0 1\n")
        graph = tmp_path / "path.cg"
        graph.write_text(format_graph(linear(40)))
        for cmd in (["solve"], ["decide", "--k", 0]):
            proc = run_cli(*cmd, "--circuit", circuit, "--graph", graph,
                           "--state-cap", 1599)
            assert proc.returncode == 3, cmd
            assert "distance table" in proc.stderr
        proc = run_cli("solve", "--circuit", circuit, "--graph", graph, "--state-cap", 1600)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"

    def test_state_cap_below_one_exits_2(self, triangle_files):
        circuit, graph = triangle_files
        for cap in (0, -3):
            for cmd in (["solve"], ["decide", "--k", 1]):
                proc = run_cli(*cmd, "--circuit", circuit, "--graph", graph,
                               "--state-cap", cap)
                assert proc.returncode == 2, (cmd, cap)
                assert "state_cap must be at least 1" in proc.stderr
            proc = run_cli("bench", "--qubits", 3, "--gates", 4, "--samples", 2,
                           "--state-cap", cap)
            assert proc.returncode == 2, cap
            assert "state_cap must be at least 1" in proc.stderr

    def test_malformed_circuit_reports_line(self, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text("qubits 2\ncx 0 7\n")
        graph = tmp_path / "g.cg"
        graph.write_text(format_graph(linear(2)))
        proc = run_cli("solve", "--circuit", bad, "--graph", graph)
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_edgeless_large_graph_header_exits_2(self, tmp_path, triangle_files):
        circuit, _ = triangle_files
        graph = tmp_path / "huge.cg"
        graph.write_text("nodes 1000000\n")
        proc = run_cli("solve", "--circuit", circuit, "--graph", graph)
        assert proc.returncode == 2
        assert "not connected" in proc.stderr

    def test_strict_flag(self, tmp_path):
        circuit = tmp_path / "pair.qc"
        circuit.write_text("qubits 2\ncx 0 1\n")
        graph = tmp_path / "g.cg"
        graph.write_text(format_graph(linear(3)))
        proc = run_cli("solve", "--circuit", circuit, "--graph", graph,
                       "--strict-swaps")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"

    @pytest.mark.parametrize("strict", [False, True])
    def test_strict_plan_self_verified(self, tmp_path, capsys, monkeypatch, strict):
        # A cost-1 plan whose SWAP moves qubit 0 onto the empty node 1: legal
        # unless SWAPs are strict, when self-verification must refuse it.
        circuit = tmp_path / "pair.qc"
        circuit.write_text("qubits 2\ncx 0 1\n")
        graph = tmp_path / "g.cg"
        graph.write_text(format_graph(linear(3)))
        plan = SwapPlan(Placement((0, 2)), ((0, 1),))
        monkeypatch.setattr(cli, "solve_exact", lambda *a, **kw: MapResult(1, plan))
        argv = ["solve", "--circuit", str(circuit), "--graph", str(graph),
                "--plan", str(tmp_path / "out.plan")]
        code = cli.main(argv + ["--strict-swaps"] * strict)
        err = capsys.readouterr().err
        if strict:
            assert code == 2 and "self-verification" in err
            assert not (tmp_path / "out.plan").exists()
        else:
            assert code == 0 and err == ""
            assert load_plan(tmp_path / "out.plan") == plan


class TestDecide:
    def test_yes_and_no_exit_codes(self, triangle_files):
        circuit, graph = triangle_files
        yes = run_cli("decide", "--circuit", circuit, "--graph", graph, "--k", 1)
        assert yes.returncode == 0 and yes.stdout.strip() == "yes"
        no = run_cli("decide", "--circuit", circuit, "--graph", graph, "--k", 0)
        assert no.returncode == 1 and no.stdout.strip() == "no"

    def test_gate_order_bound_refutes_without_a_state(self, tmp_path):
        # README's example: 80,460 placements have h = 1, but the circuit
        # needs three embeddable windows, so one SWAP cannot do.  The bound
        # answers before any state is recorded, so a cap that holds only
        # the 400-entry distance table is enough.
        graph, circuit = tmp_path / "tokyo.cg", tmp_path / "c6.qc"
        assert run_cli("gen-graph", "--family", "tokyo", "--out", graph).returncode == 0
        assert run_cli("gen-circuit", "--kind", "random", "--qubits", 6, "--gates", 20,
                       "--seed", 1, "--out", circuit).returncode == 0
        no = run_cli("decide", "--circuit", circuit, "--graph", graph, "--k", 1,
                     "--state-cap", 400)
        assert no.returncode == 1 and no.stdout.strip() == "no", no.stderr
        yes = run_cli("decide", "--circuit", circuit, "--graph", graph, "--k", 2)
        assert yes.returncode == 0 and yes.stdout.strip() == "yes"


class TestVerify:
    def test_accepts_solver_output(self, tmp_path, triangle_files):
        circuit, graph = triangle_files
        plan_path = tmp_path / "out.plan"
        run_cli("solve", "--circuit", circuit, "--graph", graph, "--plan", plan_path)
        proc = run_cli("verify", "--circuit", circuit, "--graph", graph,
                       "--plan", plan_path)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "accepted swaps_used=1"

    def test_rejects_empty_plan(self, tmp_path, triangle_files):
        circuit, graph = triangle_files
        plan_path = tmp_path / "noop.plan"
        plan_path.write_text("init 0:0 1:1 2:2\n")
        proc = run_cli("verify", "--circuit", circuit, "--graph", graph,
                       "--plan", plan_path)
        assert proc.returncode == 1
        assert proc.stdout.startswith("rejected at step 0")

    def test_bad_swap_edge_is_an_error(self, tmp_path, triangle_files):
        circuit, graph = triangle_files
        plan_path = tmp_path / "offgraph.plan"
        plan_path.write_text("init 0:0 1:1 2:2\nswap 0 2\n")
        proc = run_cli("verify", "--circuit", circuit, "--graph", graph,
                       "--plan", plan_path)
        assert proc.returncode == 2


class TestGenerators:
    def test_gen_circuit_gadget(self, tmp_path):
        out = tmp_path / "ring.qc"
        proc = run_cli("gen-circuit", "--kind", "cycle", "--size", 5, "--out", out)
        assert proc.returncode == 0
        assert out.read_text() == format_circuit(gen_cycle_circuit(5))

    def test_gen_circuit_random_to_stdout(self):
        a = run_cli("gen-circuit", "--kind", "random", "--qubits", 3,
                    "--gates", 6, "--seed", 4)
        b = run_cli("gen-circuit", "--kind", "random", "--qubits", 3,
                    "--gates", 6, "--seed", 4)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.startswith("qubits 3\n")

    def test_gen_graph(self, tmp_path):
        out = tmp_path / "ring.cg"
        proc = run_cli("gen-graph", "--family", "cycle", "--params", 6, "--out", out)
        assert proc.returncode == 0
        assert out.read_text() == format_graph(cycle(6))

    def test_gen_graph_bad_family(self):
        proc = run_cli("gen-graph", "--family", "moebius", "--params", 4)
        assert proc.returncode == 2

    def test_gen_graph_bad_params(self):
        proc = run_cli("gen-graph", "--family", "grid_square", "--params", 3)
        assert proc.returncode == 2
        assert "grid_square takes 2 size parameters, got 1" in proc.stderr


class TestReduce:
    def test_hamcycle_instance(self, tmp_path):
        graph = tmp_path / "ring.cg"
        graph.write_text(format_graph(cycle(5)))
        prefix = tmp_path / "inst"
        proc = run_cli("reduce", "--from", "hamcycle", "--graph", graph,
                       "--out", prefix)
        assert proc.returncode == 0
        assert "provenance hamcycle;src=" in proc.stdout
        inst = load_instance(prefix)
        assert inst.budget == 0
        assert len(inst.circuit.gates) == 5

    def test_usp_instance_requires_terminals(self, tmp_path):
        graph = tmp_path / "p4.cg"
        graph.write_text(format_graph(linear(4)))
        prefix = tmp_path / "inst"
        ok = run_cli("reduce", "--from", "usp", "--graph", graph, "--s", 0,
                     "--t", 3, "--k", 3, "--out", prefix)
        assert ok.returncode == 0
        inst = load_instance(prefix)
        assert inst.budget == 2
        missing = run_cli("reduce", "--from", "usp", "--graph", graph, "--out", prefix)
        assert missing.returncode == 2

    def test_clique_instance(self, tmp_path):
        graph = tmp_path / "ring.cg"
        graph.write_text(format_graph(cycle(5)))
        prefix = tmp_path / "inst"
        proc = run_cli("reduce", "--from", "clique", "--graph", graph, "--n", 3,
                       "--out", prefix)
        assert proc.returncode == 0
        assert load_instance(prefix).provenance.startswith("clique;n=3;")

    def test_hampath_instance(self, tmp_path):
        graph = tmp_path / "ring.cg"
        graph.write_text(format_graph(cycle(5)))
        prefix = tmp_path / "inst"
        proc = run_cli("reduce", "--from", "hampath", "--graph", graph, "--out", prefix)
        assert proc.returncode == 0
        assert "provenance hamcycle-via-hampath;" in proc.stdout
        assert load_instance(prefix).budget == 0

    def test_fixed_k_instance(self, tmp_path):
        graph = tmp_path / "ring.cg"
        graph.write_text(format_graph(cycle(5)))
        prefix = tmp_path / "inst"
        proc = run_cli("reduce", "--from", "fixed-k", "--graph", graph, "--k", 1,
                       "--out", prefix)
        assert proc.returncode == 0
        inst = load_instance(prefix)
        assert inst.budget == 1
        assert inst.provenance.startswith("hamcycle-fixed-swaps;k=1;")

    @pytest.mark.parametrize("kind, message", [
        ("fixed-k", "fixed-k reduction needs --k"),
        ("clique", "clique reduction needs --n"),
        ("usp", "usp reduction needs --s, --t and --k"),
    ])
    def test_missing_flag_exits_2(self, tmp_path, kind, message):
        graph = tmp_path / "ring.cg"
        graph.write_text(format_graph(cycle(5)))
        proc = run_cli("reduce", "--from", kind, "--graph", graph, "--out", tmp_path / "inst")
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: {message}"


class TestBench:
    def test_csv_to_file_and_thread_stability(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["bench", "--qubits", 3, "--gates", "3:5", "--samples", 8,
                "--seed", 17]
        assert run_cli(*base, "--threads", 1, "--out", out1).returncode == 0
        assert run_cli(*base, "--threads", 2, "--out", out2).returncode == 0

        def drop_time(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [r[:3] + r[4:] for r in rows]

        assert drop_time(out1.read_text()) == drop_time(out2.read_text())
        rows = parse_csv(out1.read_text())
        assert [r.gt for r in rows] == [3, 4, 5]

    def test_gate_range_forms(self):
        proc = run_cli("bench", "--qubits", 3, "--gates", "4", "--samples", 2,
                       "--seed", 1)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "gt,qt,gt_add,time,samples,seed"
        assert len(proc.stdout.splitlines()) == 2
        stepped = run_cli("bench", "--qubits", 3, "--gates", "3:9:3",
                          "--samples", 2, "--seed", 1)
        assert [line.split(",")[0] for line in stepped.stdout.splitlines()[1:]] == ["3", "6", "9"]

    def test_bad_range_rejected(self):
        proc = run_cli("bench", "--qubits", 3, "--gates", "4:x", "--samples", 2)
        assert proc.returncode == 2

    def test_range_without_gate_counts_rejected(self):
        # Empty ranges and steps below 1 hold no gate count.
        for gates in ("5:3", "3:10:-1", "3:10:0"):
            proc = run_cli("bench", "--qubits", 3, "--gates", gates, "--samples", 2)
            assert proc.returncode == 2, gates
            assert f"bad gate range '{gates}'" in proc.stderr
            assert proc.stdout == ""

    def test_fewer_graph_nodes_than_qubits_exits_2(self):
        for threads in (1, 2):
            proc = run_cli("bench", "--qubits", 4, "--gates", 3, "--samples", 2,
                           "--graph-nodes", 3, "--threads", threads)
            assert proc.returncode == 2, threads
            assert "graph_nodes (3) must be at least qubits (4)" in proc.stderr
            assert "Traceback" not in proc.stderr


class TestModuleEntryPoint:
    def test_python_m_qcmap_help(self):
        proc = subprocess.run([sys.executable, "-m", "qcmap", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "usage:" in proc.stdout
