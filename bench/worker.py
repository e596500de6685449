"""One workload process: set up, warm up, then run ops in a closed loop.

Started by ``run.py`` with a fresh interpreter.  It prints ``READY`` once
dualcx is imported, the inputs are built and one warm-up op has run (the
parent times that as set-up), then one JSON line with the op results.

    python3 bench/worker.py --workload NAME --seed N --first I --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MAX_PROBLEMS = 5


def run_ops(workload, indices, deadline_s: float | None, tracer=None):
    """Run ops in order until ``indices`` run out or the deadline passes.

    With a deadline, stops only at the end of a pass (``workload.pass_length``
    ops), so every run covers the pool of a pooled workload evenly.
    Returns (latencies, failures, problems, wall seconds).
    """
    latencies: list[float] = []
    failures = 0
    problems: list[str] = []
    start = time.perf_counter()
    for n, index in enumerate(indices):
        if deadline_s is not None and n % workload.pass_length == 0 and time.perf_counter() - start >= deadline_s:
            break
        inp = workload.op_input(index)
        if tracer is not None:
            tracer.op_id = index
            span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            found = workload.run(inp)
        except Exception as exc:  # an escaping exception is a failed op, reported by name
            found = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span)
            tracer.op_id = None
        if found:
            failures += 1
            problems.extend(f"op {index}: {p}" for p in found[: MAX_PROBLEMS - len(problems)])
    return latencies, failures, problems, time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first", type=int, default=0, help="index of this worker's first op in the seed's stream")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    from spans import Tracer, assert_untouched, layer_metrics
    from workloads import STREAM, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.run(workload.warmup_input())
    if warm:
        print(json.dumps({"error": f"warm-up op failed: {warm}"}), flush=True)
        return 1
    print("READY", flush=True)

    stream = range(args.first, STREAM)
    out: dict = {}
    if args.trace == 0:
        assert_untouched()
        lat, failures, problems, wall = run_ops(workload, stream, args.seconds)
        assert_untouched()
    else:
        # the same ops twice in one warm process: untraced, then traced
        plain, f1, p1, _ = run_ops(workload, stream, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, f2, p2, _ = run_ops(workload, stream[: len(plain)], None, tracer)
        finally:
            out["aliases_restored"] = tracer.restore()
        lat, failures, problems, wall = plain + traced, f1 + f2, (p1 + p2)[:MAX_PROBLEMS], sum(traced)
        out["per_layer"] = layer_metrics(tracer, len(traced))
        out["per_layer"]["trace.overhead_ratio"] = sum(plain) / sum(traced)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    out.update(
        latencies=lat,
        failures=failures,
        problems=problems,
        wall_s=wall,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
