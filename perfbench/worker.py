"""One round of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `plain` (set up, then time every operation), `check` (plain, then
the workload's independent checks), `trace` (plain with spans, reporting
per-layer metrics) or `setup` (set up only). run.py starts this once per
round, so every round begins, like a cob3 command, with empty caches.

Between operations, at most every REFERENCE_EVERY_S, the worker also times
`reference_loop`, fixed work that touches none of cob3's data; run.py
scales the operation times by it (README.md, "Noise").
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


REFERENCE_EVERY_S = 0.02


def reference_loop():
    """About 0.4 ms of dict, tuple-hash and integer work, the kind of work
    cob3's operations are made of, on a table small enough to stay in the
    CPU's private cache."""
    d = {}
    x = 0
    for i in range(1000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        x ^= hash((k, i))
    return x


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    check, trace = mode == "check", mode == "trace"
    import cob3
    from workloads import WORKLOADS

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[name](seed)
    ops = wl.operations()
    setup_s = time.perf_counter() - _T0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    latencies, digests, faults, problems, kept = [], [], [], [], []
    clock = time.perf_counter
    reference_s, last_reference = [], clock()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        start = clock()
        result = op()
        latencies.append(clock() - start)
        digest, fault, problem = wl.outcome(i, result)
        digests.append(digest)
        faults.append(fault)
        if problem:
            problems.append(problem)
        kept.append(result if check and wl.retain(i) else None)
        del result
        if clock() - last_reference > REFERENCE_EVERY_S:
            # Only the second pass is timed: the first brings the loop's
            # table back into the cache, whatever the operation left there.
            reference_loop()
            start = clock()
            reference_loop()
            last_reference = clock()
            reference_s.append(last_reference - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "kernel": cob3.KERNEL,
        "setup_s": setup_s,
        "latencies": latencies,
        "reference_s": reference_s,
        "faults": faults,
        "digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }
    if tracer:
        tracer.active = False
        out["layers"] = tracer.layer_metrics()
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{name}-{seed}.jsonl"))
    if check:
        out["problems"] += wl.check(kept)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
