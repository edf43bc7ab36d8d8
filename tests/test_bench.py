import pytest

import bench_lifecycle
import qcmap.bench
from qcmap import (
    CSV_HEADER,
    ExperimentRow,
    RandomCircuitSpec,
    emit_csv,
    gen_random_circuit,
    parse_csv,
    run_benchmark,
    solve_exact,
    linear,
)


def strip_time(rows):
    return [(r.gt, r.qt, r.gt_add, r.samples, r.seed) for r in rows]


@pytest.fixture
def no_kept_pool():
    """No pool kept by an earlier call leaks into the test, nor out of it."""
    qcmap.bench._close_pool()
    yield
    qcmap.bench._close_pool()


class TestRandomCircuits:
    def test_deterministic_per_spec(self):
        spec = RandomCircuitSpec(4, 10, 1.0, 12345)
        assert gen_random_circuit(spec) == gen_random_circuit(spec)
        other = RandomCircuitSpec(4, 10, 1.0, 12346)
        assert gen_random_circuit(spec) != gen_random_circuit(other)

    def test_shape(self):
        c = gen_random_circuit(RandomCircuitSpec(3, 20, 1.0, 7))
        assert c.num_qubits == 3 and len(c.gates) == 20
        assert all(g.is_two_qubit for g in c.gates)

    def test_fraction_zero_gives_single_qubit_gates(self):
        c = gen_random_circuit(RandomCircuitSpec(3, 15, 0.0, 7))
        assert all(not g.is_two_qubit for g in c.gates)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomCircuitSpec(1, 5)
        with pytest.raises(ValueError):
            RandomCircuitSpec(3, 0)
        with pytest.raises(ValueError):
            RandomCircuitSpec(3, 5, 1.5)


class TestRunBenchmark:
    def test_deterministic_across_runs(self):
        a = run_benchmark(3, range(3, 6), 20, seed=99)
        b = run_benchmark(3, range(3, 6), 20, seed=99)
        assert strip_time(a) == strip_time(b)

    def test_thread_count_does_not_change_results(self):
        a = run_benchmark(3, range(3, 6), 17, seed=5, threads=1)
        b = run_benchmark(3, range(3, 6), 17, seed=5, threads=2)
        c = run_benchmark(3, range(3, 6), 17, seed=5, threads=3)
        assert strip_time(a) == strip_time(b) == strip_time(c)

    def test_row_fields(self):
        rows = run_benchmark(3, [4], 10, seed=1)
        (row,) = rows
        assert row.gt == 4 and row.qt == 3
        assert row.samples == 10 and row.seed == 1
        assert row.gt_add == round(row.gt_add, 3)
        assert row.time >= 0

    def test_single_qubit_circuits_cost_nothing(self):
        rows = run_benchmark(3, [5, 8], 6, seed=3, two_qubit_fraction=0.0)
        assert all(r.gt_add == 0.0 for r in rows)

    def test_mean_matches_direct_solves(self):
        from qcmap.bench import _child_seed

        rows = run_benchmark(3, [4], 12, seed=42)
        g = linear(3)
        total = 0
        for i in range(12):
            s = _child_seed(42, 3, 4, i)
            total += int(solve_exact(gen_random_circuit(RandomCircuitSpec(3, 4, 1.0, s)), g).cost)
        assert rows[0].gt_add == round(total / 12, 3)

    def test_wider_graph_option(self):
        rows = run_benchmark(3, [4], 8, seed=11, graph_nodes=5)
        assert rows[0].qt == 3

    def test_pool_kept_until_its_size_changes(self, no_kept_pool, monkeypatch):
        import qcmap.bench as bench

        pools = []

        class InlinePool:
            """Records its size and shutdown and runs the jobs in this process."""

            def __init__(self, max_workers):
                self.size = max_workers
                self.shut = False
                pools.append(self)

            def map(self, fn, jobs):
                return map(fn, jobs)

            def shutdown(self, **kwargs):
                self.shut = True

        def sizes():
            return [(p.size, p.shut) for p in pools]

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 3)
        expected = strip_time(run_benchmark(3, range(3, 7), 5, seed=2))
        # 3 CPUs: 4 gate counts x 3 chunks = 12 jobs
        assert strip_time(run_benchmark(3, range(3, 7), 5, seed=2, threads=10_000)) == expected
        assert sizes() == [(3, False)]
        run_benchmark(3, [3, 4], 4, seed=2, threads=3)
        assert sizes() == [(3, False)]
        # 1 gate count x 2 chunks = 2 jobs: a new pool, and the old one shut down
        run_benchmark(3, [4], 2, seed=2, threads=10_000)
        assert sizes() == [(3, True), (2, False)]
        run_benchmark(3, range(3, 7), 5, seed=2, threads=2)
        assert sizes() == [(3, True), (2, False)]
        # a single worker runs in this process, without a pool
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
        assert strip_time(run_benchmark(3, range(3, 7), 5, seed=2, threads=8)) == expected
        assert sizes() == [(3, True), (2, False)]

    def test_validation(self, no_kept_pool, monkeypatch):
        import qcmap.bench as bench

        with pytest.raises(ValueError):
            run_benchmark(3, [4], 0, seed=1)
        with pytest.raises(ValueError):
            run_benchmark(3, [4], 5, seed=1, threads=0)
        for cap in (0, -3):
            with pytest.raises(ValueError, match="state_cap"):
                run_benchmark(3, [4], 5, seed=1, state_cap=cap)
        # Fewer graph nodes than qubits is rejected before any solve or pool.
        monkeypatch.setattr(bench, "_solve_chunk", None)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", None)
        for threads in (1, 2):
            with pytest.raises(ValueError, match="graph_nodes"):
                run_benchmark(4, [3], 2, seed=1, graph_nodes=3, threads=threads)

    def test_rejected_call_keeps_the_pool(self, no_kept_pool, monkeypatch):
        # Repeated gate counts and bad draw parameters are refused before
        # dispatch: the kept pool stays, and the next call's rows are
        # unchanged.
        import qcmap.bench as bench

        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        before = strip_time(run_benchmark(3, range(3, 6), 4, seed=5, threads=2))
        pool = bench._kept[1]
        bad = [
            ((3, [0], 4, 0), {}, "at least 1 gate"),
            ((3, [4, 0, 5], 4, 0), {}, "at least 1 gate"),
            ((3, [4, 5, 4], 4, 0), {}, "distinct"),
            ((1, [4], 4, 0), {}, "at least 2 qubits"),
            ((3, [4], 4, 0), {"two_qubit_fraction": 1.5}, "two_qubit_fraction"),
            ((3, [4], 4, 0), {"two_qubit_fraction": -0.1}, "two_qubit_fraction"),
        ]
        for args, kwargs, message in bad:
            with pytest.raises(ValueError, match=message):
                run_benchmark(*args, threads=2, **kwargs)
            assert bench._kept is not None and bench._kept[1] is pool
        assert strip_time(run_benchmark(3, range(3, 6), 4, seed=5, threads=2)) == before
        assert bench._kept[1] is pool


@pytest.mark.parametrize("case", bench_lifecycle.CASES)
def test_kept_pool_lifecycle(case):
    """Each case runs in its own interpreter; see tests/bench_lifecycle.py."""
    bench_lifecycle.run_case(case)


class TestCsv:
    def test_header(self):
        assert CSV_HEADER == "gt,qt,gt_add,time,samples,seed"

    def test_round_trip(self):
        rows = run_benchmark(3, range(3, 7), 9, seed=8)
        text = emit_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert parse_csv(text) == rows

    def test_round_trip_preserves_exact_times(self):
        row = ExperimentRow(5, 3, 1.234, 0.000123456789, 9, 2)
        assert parse_csv(emit_csv([row])) == [row]

    def test_gt_add_fixed_width(self):
        row = ExperimentRow(5, 3, 0.5, 0.01, 4, 2)
        line = emit_csv([row]).splitlines()[1]
        assert line.split(",")[2] == "0.500"

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_csv("a,b\n1,2\n")
