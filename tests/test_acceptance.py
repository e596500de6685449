"""The acceptance battery: one test and one printed verdict per criterion.

Pinned tolerances live in dualcx.accept next to the checks; every test
here runs a criterion at full size and prints a single PASS/FAIL line
(visible with -s or in the captured output on failure).
"""

import time

from dualcx.numerics import DEFAULT_TOL
from dualcx import accept


def _report(check, budget_s=None, elapsed=None):
    status = "PASS" if check["passed"] else "FAIL"
    extra = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"CRITERION {status}: {check['name']}{extra}")
    if budget_s is not None and elapsed is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"
    assert check["passed"], check


def test_criterion_01_duncehat_suite():
    t0 = time.time()
    check = accept.check_duncehat_suite(DEFAULT_TOL)
    _report(check, budget_s=1.0, elapsed=time.time() - t0)


def test_criterion_02_wrong_case():
    t0 = time.time()
    check = accept.check_wrong_case(DEFAULT_TOL)
    _report(check, budget_s=1.0, elapsed=time.time() - t0)


def test_criterion_03_dual_complex_identifications():
    t0 = time.time()
    check = accept.check_dual_complex_identifications(DEFAULT_TOL)
    _report(check, budget_s=1.0, elapsed=time.time() - t0)


def test_criterion_04_kulikov_arithmetic():
    check = accept.check_kulikov(DEFAULT_TOL)
    _report(check)


def test_criterion_05_fiber_invariants():
    check = accept.check_fiber_invariants(DEFAULT_TOL)
    _report(check)


def test_criterion_05_derives_the_invariants_from_the_computed_euler(monkeypatch):
    monkeypatch.setattr(accept.nc, "generic_fiber_euler", lambda desc: 12)
    check = accept.check_fiber_invariants(DEFAULT_TOL)
    assert not check["passed"] and check["euler"] == 12
    assert check["invariants"] == {"h11": 10, "c1_sq": 0, "c2": 12}


def test_criterion_06_pic_torus():
    t0 = time.time()
    check = accept.check_pic_torus(DEFAULT_TOL, n_graphs=50)
    _report(check, budget_s=5.0, elapsed=time.time() - t0)


def test_criterion_07_lattice_move():
    check = accept.check_lattice_move(DEFAULT_TOL)
    _report(check)


def test_criteria_08_and_10_consistency_and_mark_invariance():
    t0 = time.time()
    c8, c10 = accept.check_consistency(DEFAULT_TOL, quick=False)
    elapsed = time.time() - t0
    _report(c8, budget_s=60.0, elapsed=elapsed)
    _report(c10)


def test_criterion_09_smoothness_and_surjectivity():
    t0 = time.time()
    check = accept.check_rank_and_scan(DEFAULT_TOL, quick=False)
    _report(check, budget_s=300.0, elapsed=time.time() - t0)


def test_criterion_11_cross_module_properties():
    check = accept.check_cross_module(DEFAULT_TOL, quick=False)
    _report(check)
