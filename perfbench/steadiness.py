"""Run-to-run spread of the end-to-end metrics: two sets of runs, interleaved.

    python3 perfbench/steadiness.py

Each set has RUNS runs of every workload, each of run_seconds from
BENCHMARK.json.  Set A uses seeds 1..RUNS and set B seeds 101..100+RUNS.
Run i of both sets goes back to back, A first on even i and B first on odd
i, each workload in a fresh process, so a slow stretch of the host falls on
both sets alike.  For each workload and metric the report gives each set's
median and quartiles (``statistics.quantiles(n=4)``), the spread
(Q3 - Q1) / median, and B's median against A's.  The raw results go to
perfbench/out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, OUT_DIR
from run import WORKLOAD_NAMES

RUN = str(BENCH_DIR / "run.py")
RUNS = 10
SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} " + " ".join(
        f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    results: dict[str, dict[str, list]] = {w: {"A": [], "B": []} for w in WORKLOAD_NAMES}
    for i in range(RUNS):
        for label in ("AB" if i % 2 == 0 else "BA"):
            seed = i + 1 if label == "A" else i + 101
            for w in WORKLOAD_NAMES:
                results[w][label].append(one_run(w, seed))
    report, failed_share = {}, {}
    for w, sets in results.items():
        for metric in sets["A"][0]["metrics"]:
            a = summary([r["metrics"][metric]["value"] for r in sets["A"]])
            b = summary([r["metrics"][metric]["value"] for r in sets["B"]])
            report[f"{w}.{metric}"] = {"A": a, "B": b,
                                       "b_vs_a": b["median"] / a["median"] - 1}
        failed_share[w] = {label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                           for label, rs in sets.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steadiness.json").write_text(json.dumps(
        {"report": report, "failed_share": failed_share, "runs": results}, indent=1))
    print(f"{'metric':34} {'A median [Q1, Q3]':>32} {'spread':>7} "
          f"{'B median [Q1, Q3]':>32} {'spread':>7} {'B/A-1':>7}")
    for key, r in report.items():
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]" for s in (r["A"], r["B"])]
        print(f"{key:34} {cells[0]:>32} {r['A']['spread']:7.1%} "
              f"{cells[1]:>32} {r['B']['spread']:7.1%} {r['b_vs_a']:+7.1%}")
    for w, shares in failed_share.items():
        print(f"{w}: failed share A={shares['A']:.4g} B={shares['B']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
