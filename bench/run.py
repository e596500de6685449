"""The dualcx benchmark: end-to-end metrics per workload, or a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload class_map --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table
    python3 bench/run.py --workload consistency --seed 1 --trace 1

``--trace 0`` starts ``CHILDREN`` fresh worker processes one after another
(one client, closed loop: each op starts when the previous one ends).  Each
one's set-up is timed from spawn to ``READY``; each then runs ops for its
share of ``--seconds``, continuing the op stream where the previous one
stopped.  ``--trace 1`` starts one worker that runs the
ops untraced for half the time, then the same ops again with the layer
wrappers of ``spans.py`` installed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 if any op's verdict was wrong, 2 on a usage or set-up
error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("class_map", "consistency", "combinatorics")
CHILDREN = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond).  With too few samples for
    that, the maximum, at percentile 100 with none beyond.
    """
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < 0:
        return xs[-1], 100.0, 0
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def spawn(workload: str, seed: int, first: int, seconds: float, trace: int, trace_out: str | None):
    """Run one worker from op ``first`` of the stream; returns (set-up seconds, its result dict)."""
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--first", str(first),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    where = f"{workload} worker at op {first}"
    if line.strip() != "READY":
        raise BenchError(f"{where} failed in set-up (exit {proc.returncode}): {line.strip()}")
    if proc.returncode != 0:
        raise BenchError(f"{where} exited {proc.returncode} (killed after {CHILD_TIMEOUT_S} s if -9)")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups, results, lat = [], [], []
    for _ in range(CHILDREN):
        # each worker continues the op stream where the previous one stopped
        s, r = spawn(workload, seed, len(lat), seconds / CHILDREN, 0, None)
        setups.append(s)
        results.append(r)
        lat += r["latencies"]
    value, pct, beyond = tail(lat)
    return {
        "attempted": len(lat),
        "failed": sum(r["failures"] for r in results),
        "problems": [p for r in results for p in r["problems"]],
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / sum(r["wall_s"] for r in results), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_tail_ms": (1e3 * value, "ms"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in results) / 1024.0, "MB"),
        },
        "notes": {"op_tail_ms": f"p{pct:.1f}, {beyond} of {len(lat)} samples beyond"},
    }


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
    _, r = spawn(workload, seed, 0, seconds, 1, path)
    return {
        "attempted": len(r["latencies"]),
        "failed": r["failures"],
        "problems": r["problems"],
        "metrics": {name: (v, unit_of(name)) for name, v in sorted(r["per_layer"].items())},
        "notes": {"spans": os.path.relpath(path, ROOT), "aliases_restored": r["aliases_restored"]},
    }


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return {"self_ms": "ms", "ms_per_call": "ms"}.get(stat, "ratio" if stat.endswith("ratio") else "count")


def machine() -> str:
    from importlib.metadata import version

    return f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {version('numpy')}"


def report(name: str, res: dict) -> None:
    failed_ratio = res["failed"] / res["attempted"]
    print(f"== {name}: {res['attempted']} ops, failed_ratio {failed_ratio:.4f} (-)")
    for metric, (value, unit) in res["metrics"].items():
        note = res["notes"].get(metric)
        print(f"  {metric:60s} {value:12.6g} {unit}" + (f"  ({note})" if note else ""))
    for key, note in res["notes"].items():
        if key not in res["metrics"]:
            print(f"  {key}: {note}")
    for p in res["problems"]:
        print(f"  FAILED {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dualcx", "__init__.py")):
        print(f"no dualcx sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"machine: {machine()}; seed {args.seed}; {args.seconds:g} s per workload; trace {args.trace}")
    results = {}
    try:
        for name in names:
            run = run_traced if args.trace else run_untraced
            results[name] = run(name, args.seed, args.seconds)
            report(name, results[name])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{m}" if prefix else m): {"value": v, "unit": u}
        for name, r in results.items()
        for m, (v, u) in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
