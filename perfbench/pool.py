"""Regenerate pool.json: the device instances and their optimal swap counts.

    python3 perfbench/pool.py [--out perfbench/pool.json]

Each stratum is a (graph, qubits, gates, optimum) class of seeded random
CNOT circuits.  Circuit seeds are scanned from 0; a candidate joins the
stratum when ``solve_exact`` returns the stratum's optimum and
``verify_plan`` replays the returned plan at that cost (the upper side).
Where ``brute_force_g`` can reach, it must agree (the lower side); the
``evidence`` field says which held.  Of the first CANDIDATES hits, the
KEEP whose search work is closest to the stratum median are kept, so that
the seed that picks among them changes a round's work little.  Search
work is the number of (placement, fragment) states over the completed BFS
levels, or for an optimum of 0 the number of placements enumerated before
one embeds the circuit.  Run time: a few minutes on two cores.

tokyo() appears only with optimum 0: a 5-qubit circuit with a nonzero
optimum enumerates P(20,5) = 1.86M seeds and trips the state cap, so such
candidates are skipped by ``decide(c, g, 0)`` before any solve.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
from pathlib import Path

from harness import BENCH_DIR, import_qcmap
from checks import check_brute, check_plan

# name: graph family and parameters, qubits, gates, optimum, brute force in reach
STRATA = {
    "tokyo.q4.opt0": (("tokyo",), 4, 8, 0, True),
    "tokyo.q5.opt0": (("tokyo",), 5, 10, 0, False),
    "grid33.q4.opt1": (("grid_square", 3, 3), 4, 6, 1, True),
    "grid33.q4.opt2": (("grid_square", 3, 3), 4, 10, 2, True),
    "grid33.q4.opt3": (("grid_square", 3, 3), 4, 14, 3, True),
    "aspen.q3.opt2": (("aspen",), 3, 8, 2, True),
    "aspen.q3.opt3": (("aspen",), 3, 14, 3, True),
    "grid33.q5.opt2": (("grid_square", 3, 3), 5, 12, 2, False),
}
CANDIDATES = 8
KEEP = 4
SCAN_LIMIT = 400


def make_graph(qcmap, spec):
    return qcmap.gen(spec[0], *spec[1:])


def make_circuit(qcmap, qubits: int, gates: int, seed: int):
    return qcmap.gen_random_circuit(qcmap.RandomCircuitSpec(qubits, gates, 1.0, seed))


def search_work(qcmap, c, g, opt: int) -> int:
    if opt == 0:
        pairs = [gate.qubits for gate in c.gates if len(gate.qubits) == 2]
        for n, p in enumerate(itertools.permutations(range(g.num_nodes), c.num_qubits), 1):
            if all(g.has_edge(p[a], p[b]) for a, b in pairs):
                return n
        raise AssertionError("optimum-0 candidate does not embed")
    levels = qcmap.search_levels(c, g)
    return sum(len(s.fragments) for level in levels for s in level)


def build_stratum(qcmap, name: str) -> dict:
    spec, qubits, gates, opt, brute = STRATA[name]
    g = make_graph(qcmap, spec)
    hits = []
    for seed in range(SCAN_LIMIT):
        c = make_circuit(qcmap, qubits, gates, seed)
        if qcmap.decide(c, g, 0) != (opt == 0):
            continue
        res = qcmap.solve_exact(c, g)
        if res.cost != opt:
            continue
        check_plan(c, g, res.cost, res.plan, f"{name} seed {seed}")
        hits.append((search_work(qcmap, c, g, opt), seed))
        print(f"{name}: seed {seed} work {hits[-1][0]}", file=sys.stderr, flush=True)
        if len(hits) == CANDIDATES:
            break
    if len(hits) < KEEP:
        raise SystemExit(f"{name}: only {len(hits)} candidates in {SCAN_LIMIT} seeds")
    mid = statistics.median(w for w, _ in hits)
    kept = sorted(hits, key=lambda h: (abs(h[0] - mid), h[1]))[:KEEP]
    entries = []
    for work, seed in sorted(kept, key=lambda h: h[1]):
        if brute:
            check_brute(make_circuit(qcmap, qubits, gates, seed), g, opt,
                        f"{name} seed {seed}")
        entries.append({"seed": seed, "work": work})
    return {"graph": list(spec), "qubits": qubits, "gates": gates, "opt": opt,
            "evidence": "verify_plan+brute_force_g" if brute else "verify_plan",
            "entries": entries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(BENCH_DIR / "pool.json"))
    args = ap.parse_args(argv)
    qcmap = import_qcmap()
    pool = {name: build_stratum(qcmap, name) for name in STRATA}
    Path(args.out).write_text(json.dumps(pool, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
