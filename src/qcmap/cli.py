"""Command-line front end.

Exit codes: 0 success (or "yes"), 1 "no"/rejected, 2 usage or validation
error, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bench import emit_csv, gen_random_circuit, run_benchmark, RandomCircuitSpec
from .coupling import FAMILIES, gen
from .errors import ResourceLimitError
from .formats import format_circuit, format_graph, load_circuit, load_graph, load_plan, save_plan
from .gadgets import (
    gen_clique_circuit, gen_cycle_circuit, gen_path_circuit,
    reduce_clique_to_qcm, reduce_hamcycle_to_fixed_k, reduce_hamcycle_to_hampath_qcm,
    reduce_hamcycle_to_qcm, reduce_usp_to_qcm, save_instance,
)
from .mapper import DEFAULT_STATE_CAP, decide, solve_exact
from .oracle import verify_plan


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                   help="abort with exit code 3 beyond this many recorded search "
                        "states, or when the graph's n*n distance table is larger")
    p.add_argument("--strict-swaps", action="store_true",
                   help="only allow swaps on edges with both endpoints occupied")


def _write_or_print(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out``, or to stdout when none is given."""
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    c = load_circuit(args.circuit)
    g = load_graph(args.graph)
    res = solve_exact(c, g, strict=args.strict_swaps, state_cap=args.state_cap)
    print("inf" if res.cost == math.inf else res.cost)
    if args.plan:
        if res.plan is None:
            print("error: no plan to write (infeasible instance)", file=sys.stderr)
            return 2
        report = verify_plan(c, g, res.plan)
        if (not report.accepted or report.swaps_used != res.cost
                or args.strict_swaps and not report.strict):
            print("error: self-verification of the solved plan failed", file=sys.stderr)
            return 2
        save_plan(res.plan, args.plan)
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    c = load_circuit(args.circuit)
    g = load_graph(args.graph)
    ok = decide(c, g, args.k, strict=args.strict_swaps, state_cap=args.state_cap)
    print("yes" if ok else "no")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    c = load_circuit(args.circuit)
    g = load_graph(args.graph)
    plan = load_plan(args.plan)
    report = verify_plan(c, g, plan)
    if report.accepted:
        print(f"accepted swaps_used={report.swaps_used}")
        return 0
    step, reason = report.failure
    print(f"rejected at step {step}: {reason}")
    return 1


def _cmd_gen_circuit(args: argparse.Namespace) -> int:
    if args.kind == "random":
        if args.qubits is None or args.gates is None:
            raise ValueError("random circuits need --qubits and --gates")
        spec = RandomCircuitSpec(args.qubits, args.gates,
                                 args.two_qubit_fraction, args.seed)
        c = gen_random_circuit(spec)
    else:
        if args.size is None:
            raise ValueError(f"{args.kind} circuits need --size")
        builder = {"clique": gen_clique_circuit, "path": gen_path_circuit,
                   "cycle": gen_cycle_circuit}[args.kind]
        c = builder(args.size)
    return _write_or_print(format_circuit(c), args.out)


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    return _write_or_print(format_graph(gen(args.family, *args.params)), args.out)


# Per ``reduce --from`` kind: the builder, and the flags it takes after
# the graph, in order.
_REDUCTIONS = {
    "clique": (reduce_clique_to_qcm, ("n",)),
    "hamcycle": (reduce_hamcycle_to_qcm, ()),
    "hampath": (reduce_hamcycle_to_hampath_qcm, ()),
    "usp": (reduce_usp_to_qcm, ("s", "t", "k")),
    "fixed-k": (reduce_hamcycle_to_fixed_k, ("k",)),
}


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    kind = getattr(args, "from")
    builder, flags = _REDUCTIONS[kind]
    values = [getattr(args, f) for f in flags]
    if None in values:
        names = [f"--{f}" for f in flags]
        needs = names[0] if len(names) == 1 else f"{', '.join(names[:-1])} and {names[-1]}"
        raise ValueError(f"{kind} reduction needs {needs}")
    inst = builder(g, *values)
    save_instance(inst, args.out)
    print(f"budget {inst.budget} provenance {inst.provenance}")
    print(f"wrote {args.out}.qc {args.out}.cg {args.out}.hdr")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = run_benchmark(
        args.qubits, _parse_range(args.gates), args.samples, args.seed,
        two_qubit_fraction=args.two_qubit_fraction, graph_nodes=args.graph_nodes,
        threads=args.threads, state_cap=args.state_cap, strict=args.strict_swaps,
    )
    return _write_or_print(emit_csv(rows), args.out)


def _parse_range(text: str) -> list[int]:
    """N, LO:HI or LO:HI:STEP, HI inclusive; STEP at least 1, and the range
    must hold at least one gate count."""
    try:
        nums = [int(p) for p in text.split(":")]
    except ValueError:
        nums = []
    if len(nums) == 1:
        return nums
    if len(nums) in (2, 3):
        step = nums[2] if len(nums) == 3 else 1
        counts = list(range(nums[0], nums[1] + 1, step)) if step >= 1 else []
        if counts:
            return counts
    raise ValueError(f"bad gate range {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcmap",
        description="Exact swap-minimal circuit mapping onto coupling graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="print the minimal swap count, optionally write a plan")
    p.add_argument("--circuit", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--plan", help="write the optimal plan here (self-verified first)")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide", help="do k swaps suffice? exit 0 yes, 1 no")
    p.add_argument("--circuit", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("verify", help="replay a plan; exit 0 accepted, 1 rejected")
    p.add_argument("--circuit", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--plan", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen-circuit", help="write a random or gadget circuit")
    p.add_argument("--kind", choices=["random", "clique", "path", "cycle"],
                   default="random")
    p.add_argument("--qubits", type=int)
    p.add_argument("--gates", type=int)
    p.add_argument("--two-qubit-fraction", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, help="qubit count for gadget kinds")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_circuit)

    p = sub.add_parser("gen-graph", help="write a generated coupling graph")
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--params", type=int, nargs="*", default=[])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("reduce", help="build a reduction instance (.qc/.cg/.hdr)")
    p.add_argument("--from", choices=list(_REDUCTIONS), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, help="clique size")
    p.add_argument("--k", type=int, help="distance bound or swap budget")
    p.add_argument("--s", type=int, help="source node (usp)")
    p.add_argument("--t", type=int, help="destination node (usp)")
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("bench", help="seeded random-circuit sweep, CSV output")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--gates", required=True, help="gate counts: N, LO:HI, or LO:HI:STEP")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--two-qubit-fraction", type=float, default=1.0)
    p.add_argument("--graph-nodes", type=int, help="linear graph size (default: one node per qubit)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
