"""The cob3 benchmark: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload evaluate|search|canon --seed N \
        --seconds S --trace 0|1 [--out results.jsonl]
    python3 perfbench/run.py compare A.jsonl B.jsonl

A run repeats whole rounds of the workload, each in a fresh single-threaded
process (worker.py): a first round that also runs the independent checks,
then rounds until --seconds have passed; an untraced run then adds
set-up-only rounds for a steadier setup_s. Every round runs the same
operations, generated from the seed, and must give the same output digest.
Each operation's time is its median over the rounds, scaled to the
reference speed (README.md, "Noise"). The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--out appends that object, with the workload, seed and kernel, to a file
that `compare` reads.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("evaluate", "search", "canon")
ROUND_TIMEOUT_S = 170
# Fewest timed rounds in a run, so that each operation's time is a median.
MIN_ROUNDS = 3
# Set-up-only rounds added to each run, so that setup_s is a median over
# several set-ups even when a run has few rounds.
SETUP_ROUNDS = 4
# The median time of worker.reference_loop at the reference speed: the
# speed at which the reference figures in README.md were measured.
REFERENCE_LOOP_S = 0.00042


def run_round(workload, seed, mode):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round of {workload} failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(rounds, trace_rounds):
    first = rounds[0]
    problems = list(first["problems"])
    for r in rounds[1:] + trace_rounds:
        problems += r["problems"]
        if r["digest"] != first["digest"]:
            problems.append("a round's outputs differ from the first round's")
    attempted = sum(len(r["latencies"]) for r in rounds)
    failed = sum(1 for r in rounds for f in r["faults"] if f)
    fault_names = sorted({f for r in rounds for f in r["faults"] if f})
    return problems, attempted, failed, fault_names


def speed_factor(rounds):
    """REFERENCE_LOOP_S over the run's median reference-loop time: how much
    faster than the reference speed the machine ran during this run."""
    return REFERENCE_LOOP_S / statistics.median(t for r in rounds for t in r["reference_s"])


def end_to_end(rounds, setups, factor):
    """Each operation's time is its median over the run's rounds, which are
    identical, so that a burst of interference from other processes slows
    one round of one operation, not the run's figures. Every time is then
    multiplied by `factor`, which takes out the machine's slower and faster
    phases (README.md, "Noise")."""
    def p90(xs):
        return statistics.quantiles(xs, n=10, method="inclusive")[8]

    per_op = [factor * statistics.median(ts) for ts in zip(*(r["latencies"] for r in rounds))]
    return {
        "setup_s": (factor * statistics.median([r["setup_s"] for r in rounds] + setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "op/s"),
        "latency_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "latency_p90_ms": (1000 * p90(per_op), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "max_call_s": "s",
               "distinct_ratio": "ratio", "fanout": "states/call", "explored": "count"}


def per_layer(untraced, traced):
    keys = traced[0]["layers"].keys()
    out = {}
    for k in keys:
        mean = statistics.fmean(r["layers"][k] for r in traced)
        out[k] = (mean, LAYER_UNITS[k.rsplit(".", 1)[1]])
    wall_traced = statistics.fmean(sum(r["latencies"]) for r in traced)
    wall_plain = statistics.fmean(sum(r["latencies"]) for r in untraced)
    out["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return out


def measure(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "cob3")):
        raise SystemExit(f"no cob3 sources under {os.path.join(ROOT, 'src')}")
    rounds = [run_round(args.workload, args.seed, "check")]
    traced = []
    start = time.perf_counter()  # after the checks, which can take seconds
    while True:
        if args.trace:
            traced.append(run_round(args.workload, args.seed, "trace"))
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
            break
        rounds.append(run_round(args.workload, args.seed, "plain"))
    problems, attempted, failed, faults = summary(rounds, traced)
    if args.trace:
        metrics = per_layer(rounds, traced)
    else:
        setups = [run_round(args.workload, args.seed, "setup")["setup_s"]
                  for _ in range(SETUP_ROUNDS)]
        factor = speed_factor(rounds)
        metrics = end_to_end(rounds, setups, factor)
        print(f"# speed factor {factor:.4f}; before it: latency_p50_ms "
              f"{metrics['latency_p50_ms'][0] / factor:.6g}, setup_s "
              f"{metrics['setup_s'][0] / factor:.6g}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"# workload={args.workload} seed={args.seed} kernel={rounds[0]['kernel']} "
          f"rounds={len(rounds)} ops/round={len(rounds[0]['latencies'])} "
          f"faults={','.join(faults) or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, kernel=rounds[0]["kernel"])
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))


def compare(path_a, path_b):
    """Medians and quartiles of two result files, per workload and metric,
    and whether B is within the bound BENCHMARK.json sets."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    def load(path):
        by = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if not rec.get("trace"):
                    by.setdefault(rec["workload"], []).append(rec)
        return by

    a, b = load(path_a), load(path_b)
    print(f"{'workload':<9} {'metric':<15} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    worse = 0
    for wl in sorted(set(a) & set(b)):
        for name, m in spec.items():
            va = [r["metrics"][name]["value"] for r in a[wl]]
            vb = [r["metrics"][name]["value"] for r in b[wl]]
            qa = statistics.quantiles(va, n=4) if len(va) > 1 else va * 3
            qb = statistics.quantiles(vb, n=4) if len(vb) > 1 else vb * 3
            change = (qb[1] - qa[1]) / qa[1]
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += bad
            print(f"{wl:<9} {name:<15} {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"{qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {change:>+8.1%}  "
                  f"{'WORSE than bound' if bad else 'within bound'} ({m['bound']:.0%})")
    return 1 if worse else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.jsonl B.jsonl")
        return compare(argv[1], argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result record to this JSON-lines file")
    measure(ap.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
