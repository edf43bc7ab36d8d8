"""Each correctness check of the benchmark rejects a corrupted answer.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import CheckFailure, HostSpeed, NullTracer, RunResult, import_qcmap  # noqa: E402

qc = import_qcmap()

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    g = qc.grid_square(3, 3)
    c = qc.gen_random_circuit(qc.RandomCircuitSpec(4, 10, 1.0, 0))
    res = qc.solve_exact(c, g)
    assert res.cost == 2
    return c, g, res


def test_correct_answers_pass(solved):
    c, g, res = solved
    checks.check_plan(c, g, res.cost, res.plan, "t")
    checks.check_bound(c, g, res.cost, "t")
    checks.check_brute(c, g, res.cost, "t")
    checks.check_expected(res.cost, 2, "t")
    checks.check_decide(True, False, 2, "t")
    checks.check_answer(False, False, "t")


def test_wrong_cost_is_rejected(solved):
    c, g, res = solved
    for check in (
        lambda: checks.check_plan(c, g, res.cost + 1, res.plan, "t"),
        lambda: checks.check_brute(c, g, res.cost - 1, "t"),
        lambda: checks.check_expected(res.cost + 1, 2, "t"),
        lambda: checks.check_bound(c, g, 10**6, "t"),
    ):
        with pytest.raises(CheckFailure):
            check()


def test_plan_with_a_swap_dropped_is_rejected(solved):
    c, g, res = solved
    short = dataclasses.replace(res.plan, swaps=res.plan.swaps[:-1])
    with pytest.raises(CheckFailure, match="swaps"):
        checks.check_plan(c, g, res.cost, short, "t")
    with pytest.raises(CheckFailure, match="rejected"):
        checks.check_plan(c, g, res.cost - 1, short, "t")


def test_flipped_decide_is_rejected():
    for at_opt, below in ((False, False), (True, True), (False, True)):
        with pytest.raises(CheckFailure):
            checks.check_decide(at_opt, below, 2, "t")
    with pytest.raises(CheckFailure):
        checks.check_answer(True, False, "t")


def test_wrong_row_mean_is_rejected():
    rows = qc.run_benchmark(3, [6], 4, seed=3)
    g = qc.linear(3)
    from qcmap.bench import _child_seed
    costs = [qc.solve_exact(qc.gen_random_circuit(qc.RandomCircuitSpec(3, 6, 1.0, s)), g).cost
             for s in (_child_seed(3, 3, 6, i) for i in range(4))]
    checks.check_row(rows[0], 3, 6, 4, 3, costs, "t")
    bad = dataclasses.replace(rows[0], gt_add=rows[0].gt_add + 0.25)
    with pytest.raises(CheckFailure, match="recomputed"):
        checks.check_row(bad, 3, 6, 4, 3, costs, "t")
    with pytest.raises(CheckFailure, match="outside"):
        checks.check_row(dataclasses.replace(rows[0], gt_add=7.0), 3, 6, 4, 3, None, "t")


def _answered(workload, keep):
    """Run the ops whose key passes ``keep`` once, as one round of a run
    whose inputs are those ops' instances."""
    inputs = workload.build(1, NullTracer())
    kept = [(i, op) for i, op in zip(inputs, workload.ops(inputs, NullTracer()))
            if keep(op.key)]
    res = RunResult(HostSpeed())
    res.inputs = [i for i, _ in kept]
    res.outputs = [{op.key: op.fn() for _, op in kept}]
    return res


def test_device_solve_run_fails_on_a_wrong_cost():
    w = workloads.DeviceSolve(qc)
    res = _answered(w, lambda k: k.startswith(("grid33.q4.opt1", "tokyo.q4")))
    w.check(res, 1)
    key = next(k for k in res.outputs[0] if k.startswith("grid33"))
    cost, plan = res.outputs[0][key]
    res.outputs[0][key] = (cost + 1, plan)
    with pytest.raises(CheckFailure):
        w.check(res, 1)


def test_decide_mix_run_fails_on_a_flipped_answer():
    w = workloads.DecideMix(qc)
    res = _answered(w, lambda k: k.startswith(("clique", "hampath")))
    w.check(res, 1)
    key = next(iter(res.outputs[0]))
    res.outputs[0][key] = not res.outputs[0][key]
    with pytest.raises(CheckFailure):
        w.check(res, 1)


def test_a_round_that_disagrees_with_the_first_fails():
    w = workloads.DecideMix(qc)
    res = _answered(w, lambda k: k.startswith("clique"))
    second = dict(res.outputs[0])
    key = next(iter(second))
    second[key] = not second[key]
    res.outputs.append(second)
    with pytest.raises(CheckFailure, match="round 1"):
        w.check(res, 1)


def test_an_op_that_left_no_answer_fails():
    w = workloads.DeviceSolve(qc)
    res = _answered(w, lambda k: k.startswith("grid33.q4.opt1"))
    del res.outputs[0][next(iter(res.outputs[0]))]
    with pytest.raises(CheckFailure, match="no answer"):
        w.check(res, 1)
