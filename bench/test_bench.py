"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

They run the real command in subprocesses (about a minute in all), and
check its contract: correct verdicts, the metric names declared in
BENCHMARK.json, and a trace whose spans add up.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402
from dualcx.errors import GuardError  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_untraced():
    names = {m["name"] for m in DECLARED["end_to_end"]}
    for name in workloads.WORKLOADS:
        code, out = bench("--workload", name, "--seed", "3", "--seconds", "1.5", "--trace", "0")
        res = last_json(out)
        assert code == 0, out
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, out
        assert set(res["metrics"]) == names
        for m in DECLARED["end_to_end"]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
            assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_traced(name):
    code, out = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
    res = last_json(out)
    assert code == 0, out
    assert res["correct"] and res["failed"] == 0, out
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

    with open(os.path.join(BENCH, "out", f"spans-{name}-3.jsonl")) as fh:
        recorded = [json.loads(line) for line in fh]
    rows = [[s["name"], s["start"], s["end"], s["parent"], s["op"], s["raised"]] for s in recorded]
    self_s = spans.self_times(rows)
    wall = {}
    traced_self = collections.defaultdict(float)
    for row, st in zip(rows, self_s):
        if row[spans.NAME] == "op":
            wall[row[spans.OP]] = row[spans.END] - row[spans.START]
        elif row[spans.OP] is not None:
            traced_self[row[spans.OP]] += st
    assert wall
    for op, total in traced_self.items():
        assert total <= wall[op] + 1e-9
    if name == "combinatorics":
        layers = {row[spans.NAME].split(".")[0] for row in rows if row[spans.OP] is not None}
        assert not layers & {"numerics", "cubics"}


def test_tracer_rebinds_every_alias_and_restores_it():
    import dualcx
    from dualcx import cubics, numerics, obstruction, serialize

    before = spans.traced_originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for alias in (cubics.aberth_roots, obstruction.aberth_roots, obstruction.affine_family,
                      serialize.make_construct, dualcx.affine_family, numerics.aberth_roots):
            assert hasattr(alias, "__wrapped__")
        numerics.poly_roots(numerics.Poly([-1.0, 0.0, 1.0]))
    finally:
        n = tracer.restore()
    assert n > len(before)
    assert all(spans.traced_originals()[k] is fn for k, fn in before.items())
    assert obstruction.aberth_roots is before["numerics.aberth_roots"]
    assert [s[spans.NAME] for s in tracer.spans] == ["numerics.poly_roots", "numerics.aberth_roots"]
    spans.assert_untouched()


def test_missing_program_exits_nonzero(tmp_path):
    os.makedirs(tmp_path / "bench")
    for f in ("run.py", "worker.py", "spans.py", "workloads.py"):
        with open(os.path.join(BENCH, f)) as src, open(tmp_path / "bench" / f, "w") as dst:
            dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "class_map", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# Defects found while choosing the workloads.  Each is pinned here rather
# than left in a timed workload, where it would fail runs at random seeds;
# when one is fixed its test passes, strict xfail turns that into a
# failure, and the workload can take the wider inputs back.


@pytest.mark.xfail(strict=True, raises=GuardError, reason="members moved by affine_family can fail the implicitization guard on reload")
def test_moved_member_reload():
    from dualcx import obstruction, serialize

    family = obstruction.seeded_family(1_000_001, workloads.FAMILY_SIZE)
    for member in family:
        serialize.construct_from_json(serialize.construct_to_json(member))


@pytest.mark.xfail(strict=True, reason="the two routes deviate by 9e-6 on this family, above criterion 08's 1e-6")
def test_route_deviation_on_random_family():
    from dualcx import obstruction

    family = obstruction.seeded_family(200_183, workloads.FAMILY_SIZE)
    assert obstruction.consistency_check(family).deviation <= workloads.DEVIATION_TOL


@pytest.mark.xfail(strict=True, reason="Newton stalls at residual 3e-7 on this construct, above the 1e-8 target tolerance")
def test_scan_reaches_near_target():
    from dualcx import cubics, obstruction

    seed = 23_200_001
    scan = obstruction.surjectivity_scan(
        seed, n_targets=1, tol=workloads.SCAN_TOL, max_log_offset=workloads.SCAN_MAX_LOG_OFFSET,
        construct=cubics.random_construct(seed),
    )
    assert scan.all_reached


@pytest.mark.xfail(strict=True, reason="seeded_family retries rejected moves without limit and never returns here")
def test_seeded_family_terminates():
    code = "from dualcx import obstruction; obstruction.seeded_family(200_146, 5)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        subprocess.run([sys.executable, "-c", code], env=env, timeout=20, check=True)
    except subprocess.TimeoutExpired:
        pytest.fail("seeded_family(200146, 5) still running after 20 s")
