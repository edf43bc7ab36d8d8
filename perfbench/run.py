"""Benchmark of the exact mapper: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload device_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # each workload in a fresh process

One client sends one op at a time.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, taken from spans around each call into qcmap, and
the spans are written to perfbench/out/.  Exit status: 0 when every
op returned and every check passed, 1 when an op raised or an output
failed a check, 2 when the checkout cannot be benchmarked.  See
perfbench/README.md.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys

from harness import (
    OUT_DIR, CheckFailure, HostSpeed, NullTracer, SetupError, Tracer, import_qcmap,
    median_of, reference_task, run_rounds,
)

WORKLOAD_NAMES = ("sweep_linear", "device_solve", "decide_mix")


def per_layer(workload, tracer: Tracer, res) -> dict:
    """The per-layer metrics of a traced run, with their units."""
    scale = res.speed.scale
    setups = tracer.by_phase("setup", res.setup_speed.scale)
    rounds = tracer.by_phase("round", scale)
    tracer.phase = ("pass", 0)
    res.speed.sample()
    counts = workload.instrument(res.inputs, tracer)
    res.speed.sample()
    passes = tracer.by_phase("pass", scale)
    threads = getattr(workload, "THREADS", 1)
    overhead = [r.get("bench.row", 0.0) - r.get("#bench.solve", 0.0) / threads for r in rounds]
    seconds = {
        "circuits.build_s": median_of(setups, "circuits.build"),
        "coupling.build_s": median_of(setups, "coupling.build"),
        "gadgets.reduce_s": median_of(setups, "gadgets.reduce"),
        "mapper.solve_s": median_of(rounds, "mapper.solve"),
        "mapper.decide_s": median_of(rounds, "mapper.decide"),
        "mapper.embed_s": median_of(rounds, "mapper.embed"),
        "oracle.verify_s": median_of(rounds, "oracle.verify"),
        "bench.row_s": median_of(rounds, "bench.row"),
        "bench.solve_s": median_of(rounds, "#bench.solve"),
        "bench.overhead_s": statistics.median(overhead),
        "cli.solve_s": median_of(passes, "cli.solve"),
    }
    out = {k: (v, "s") for k, v in seconds.items()}
    out.update({k: (v, "MB" if k.endswith("_mb") else "count") for k, v in counts.items()})
    return out


def self_time_table(tracer: Tracer) -> str:
    """Self time per span name, summed over the whole traced run."""
    totals: dict[str, float] = {}
    for rec, own in zip(tracer.spans, tracer.self_times()):
        totals[rec[0]] = totals.get(rec[0], 0.0) + own
    width = max(map(len, totals), default=0)
    return "\n".join(f"  {name:<{width}}  {secs:10.4f} s"
                     for name, secs in sorted(totals.items(), key=lambda kv: -kv[1]))


def run_one(args) -> int:
    try:
        qc = import_qcmap()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS[args.workload](qc)
    tracer = Tracer() if args.trace else NullTracer()
    kind, nominal = workload.REFERENCE
    with reference_task(kind) as task:
        res = run_rounds(workload, args.seed, args.seconds, tracer, HostSpeed(task, nominal))
        e2e = res.end_to_end()
        correct = res.failed == 0
        if not correct:
            print(f"check failed: {res.failed} of {res.attempted} ops raised", file=sys.stderr)
        try:
            workload.check(res, args.seed)
        except CheckFailure as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        print(f"{args.workload} seed={args.seed} rounds={res.rounds} "
              f"ops={res.attempted} trace={args.trace}: "
              + ", ".join(f"{k}={v:.4g} {u}" for k, (v, u) in e2e.items()) + "; " + res.raw())
        metrics = e2e
        if args.trace:
            metrics = per_layer(workload, tracer, res)
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(path)
            print(f"self time per span ({path.name}):\n{self_time_table(tracer)}")
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; a summary table at the end."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = max(status, 2)
    for name, r in results.items():
        print(f"{name:13} attempted={r['attempted']} failed={r['failed']} correct={r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:27} {m['value']:.6g} {m['unit']}")
    if len(results) != len(WORKLOAD_NAMES):
        return max(status, 2)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # A terminated run unwinds like an exception, so every process it
    # started is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
