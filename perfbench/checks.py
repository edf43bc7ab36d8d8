"""Correctness checks on the program's outputs, run outside the timed phase.

Each check compares an answer with something computed independently of
the solver: a plan replay by ``oracle.verify_plan``, a distance bound from
plain BFS, ``brute_force_g``, the backtracking graph oracles, or a budget
established by ``pool.py``.  Each raises ``CheckFailure`` on a bad answer.
"""

from __future__ import annotations

from harness import CheckFailure


def _fail(what: str) -> None:
    raise CheckFailure(what)


def diameter_by_bfs(g) -> int:
    """Graph diameter from ``oracle.shortest_path``, not the graph's own table."""
    from qcmap import shortest_path
    n = g.num_nodes
    return max((shortest_path(g, a, b) for a in range(n) for b in range(a + 1, n)),
               default=0)


def check_plan(c, g, cost, plan, where: str) -> None:
    """The plan replays under ``verify_plan`` using exactly ``cost`` swaps."""
    from qcmap import verify_plan
    if plan is None:
        _fail(f"{where}: no plan returned for cost {cost}")
    if len(plan.swaps) != cost:
        _fail(f"{where}: plan has {len(plan.swaps)} swaps, claimed cost {cost}")
    try:
        report = verify_plan(c, g, plan)
    except ValueError as exc:
        _fail(f"{where}: plan is malformed: {exc}")
    if not report.accepted:
        _fail(f"{where}: plan rejected at step {report.failure[0]}: {report.failure[1]}")
    if report.swaps_used != cost:
        _fail(f"{where}: plan executes after {report.swaps_used} swaps, claimed cost {cost}")


def check_bound(c, g, cost, where: str, diameter: int | None = None) -> None:
    """cost <= t * (diameter - 1), t the number of two-qubit gates."""
    d = diameter_by_bfs(g) if diameter is None else diameter
    t = sum(1 for gate in c.gates if len(gate.qubits) == 2)
    if not 0 <= cost <= t * max(d - 1, 0):
        _fail(f"{where}: cost {cost} outside [0, {t}*({d}-1)]")


def check_brute(c, g, cost, where: str) -> None:
    """cost equals ``brute_force_g`` with its guards raised to this instance."""
    from qcmap import brute_force_g
    ref = brute_force_g(c, g, max_qubits=c.num_qubits, max_nodes=g.num_nodes,
                        max_gates=len(c.gates))
    if ref.cost != cost:
        _fail(f"{where}: cost {cost}, brute force finds {ref.cost}")


def check_expected(cost, expected: int, where: str) -> None:
    """cost equals the optimum that ``pool.py`` established for the instance."""
    if cost != expected:
        _fail(f"{where}: cost {cost}, pool optimum {expected}")


def check_decide(yes_at_opt, yes_below, opt: int, where: str) -> None:
    """decide answers "yes" at the optimum and "no" one swap below it."""
    if yes_at_opt is not True:
        _fail(f"{where}: decide says {yes_at_opt} at budget {opt} = optimum")
    if yes_below is not False:
        _fail(f"{where}: decide says {yes_below} at budget {opt - 1} < optimum")


def check_answer(answer, oracle_answer: bool, where: str) -> None:
    """A reduction's decide answer equals the source problem's oracle answer."""
    if answer is not oracle_answer:
        _fail(f"{where}: decide says {answer}, oracle says {oracle_answer}")


def check_row(row, q: int, gt: int, samples: int, seed: int, costs: list[int] | None,
              where: str) -> None:
    """A sweep row describes its own point, respects the bound, and, when the
    sample costs were recomputed, reports their mean."""
    if (row.qt, row.gt, row.samples, row.seed) != (q, gt, samples, seed):
        _fail(f"{where}: row is for {(row.qt, row.gt, row.samples, row.seed)}")
    if not 0 <= row.gt_add <= gt * max(q - 2, 0):
        _fail(f"{where}: mean {row.gt_add} outside [0, {gt}*({q}-2)]")
    if costs is not None:
        mean = round(sum(costs) / len(costs), 3)
        if len(costs) != samples or row.gt_add != mean:
            _fail(f"{where}: row mean {row.gt_add}, recomputed {mean}")
