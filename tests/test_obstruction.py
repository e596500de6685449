"""The two evaluation routes, their consistency, rank, and the scan."""

import dataclasses
import time

import numpy as np
import pytest

from dualcx.errors import GuardError, RootFindingError, ValidationError
from dualcx.numerics import DEFAULT_TOL, Poly, chordal, finite_diff_jacobian
from dualcx.cubics import (
    AffineMapPlane,
    affine_direction,
    affine_family,
    random_construct,
)
from dualcx.ncgeom import PicClass, duncehat_curve_graph, pic0_structure, pic_equal, pic_normalize
from dualcx import obstruction
from dualcx.obstruction import (
    FamilyClassMap,
    GluingTriple,
    JPoint,
    closed_form_data,
    consistency_check,
    direct_pipeline_data,
    eval_main_rows,
    jacobian_rank,
    lambda_factors,
    scale_derivatives,
    sb_values,
    seeded_family,
    surjectivity_scan,
    vanishing_scale,
)


def lambda_factors_closed_form(n_p: complex, n_q: complex) -> tuple[complex, complex, complex]:
    """The three lambda factors in closed form in the marks; the oracle for ``lambda_factors``."""
    return (
        n_q * (n_p - 1.0) ** 2 / n_p,
        1.0 / (n_p * n_q),
        n_p * n_q / (n_q - 1.0) ** 2,
    )


def jpoint_as_pic_class(t: GluingTriple) -> PicClass:
    """The same class as an element of the gluing-data torus of the curve."""
    torus = pic0_structure(duncehat_curve_graph())
    return pic_normalize(torus, t.values)


def test_vanishing_scale_zeros_and_invariance():
    n = 0.4 - 0.7j
    assert abs(vanishing_scale(0.0, n)) < 1e-14
    assert abs(vanishing_scale(n, n)) < 1e-14
    # same formula in the mark-normalized coordinate, independently of n
    for tau_norm in (0.3, -1.2 + 0.4j, 2.7j):
        v1 = vanishing_scale(tau_norm * n, n)
        v2 = tau_norm * (tau_norm - 1.0) / (tau_norm - 2.0) ** 3
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v2))


def test_scale_derivatives_match_finite_differences():
    n = 0.8 - 0.55j
    d1, d2, d3 = scale_derivatives(n)
    h = 1e-6

    def vfield(tau):
        return (tau - 1.0) ** 2

    for mark, want in ((0.0, d1), (n, d3)):
        num = (vanishing_scale(mark + h, n) - vanishing_scale(mark - h, n)) / (2 * h)
        assert abs(num * vfield(mark) - want) < 1e-7 * max(1.0, abs(want))
    # infinite mark through the sigma chart: v = -(1 - sigma)^2 d/dsigma
    num = (vanishing_scale(1.0 / h, n) - vanishing_scale(-1.0 / h, n)) / (2 * h)
    assert abs(-num - d2) < 1e-5 * max(1.0, abs(d2))


def test_lambda_factors_closed_form():
    c = random_construct(11)
    lam = lambda_factors(c)
    ref = lambda_factors_closed_form(c.n_p, c.n_q)
    for a, b in zip(lam, ref):
        assert abs(a - b) <= 1e-9 * abs(b)


def test_rows_nonzero_and_transport_invariant(transport_construct):
    c = random_construct(11)
    rows = eval_main_rows(c)
    assert all(v != 0 for v in rows.values)
    a = AffineMapPlane(((0.9, 0.2 - 0.1j), (0.15j, 1.1)), (0.4, -0.2))
    moved = transport_construct(c, a)
    lam0 = lambda_factors(c)
    lam1 = lambda_factors(moved)
    for x, y in zip(lam0, lam1):
        assert abs(x - y) <= 1e-9 * abs(x)
    ds0 = scale_derivatives(c.n_p)
    ds1 = scale_derivatives(moved.n_p)
    for x, y in zip(ds0, ds1):
        assert abs(x - y) <= 1e-9 * abs(x)


def test_sb_values():
    c = random_construct(11)
    sb = sb_values(c.n_p, c.tau_b)
    assert abs(sb[0] - 1.0 / c.tau_b) < 1e-12
    assert sb[1] == 1.0
    assert abs(sb[2] - (c.n_p - 1) / (c.n_p - c.tau_b)) < 1e-12


def test_closed_form_scaling_idempotence():
    # scaling an implicit equation before the residue normalization cannot
    # change anything: the construct rebuild renormalizes
    c = random_construct(12)
    j1, sbg1, t1 = closed_form_data(c)
    j2, sbg2, t2 = closed_form_data(c)
    assert j1.g21 == j2.g21 and j1.g31 == j2.g31


def test_closed_form_family_structure():
    # under a volume-preserving move of Q fixing the intersection and the
    # other node: value_2 is constant, and value_1, value_3 vary exactly
    # through 1/f_P(q_N)
    c = random_construct(11)
    member = affine_family(c, affine_direction(c, "Q"), 0.04 - 0.02j)
    _, sbg0, t0 = closed_form_data(c)
    _, sbg1, t1 = closed_form_data(member)
    assert abs(t1.values[1] / t0.values[1] - 1.0) < 1e-8
    r1 = (t1.values[0] * sbg1.f_p_at_qn) / (t0.values[0] * sbg0.f_p_at_qn)
    r3 = (t1.values[2] * sbg1.f_p_at_qn) / (t0.values[2] * sbg0.f_p_at_qn)
    assert abs(r1 - 1.0) < 1e-8
    assert abs(r3 - 1.0) < 1e-8


def test_direct_pipeline_divisor_structure():
    c = random_construct(11)
    jd, rep, td = direct_pipeline_data(c)
    assert rep.mark_orders == (1, 1, 1)
    assert rep.local_orders == (1, 1, 1)
    # the off-mark part is the predicted triple: the flex point of P, the
    # pulled-back flex point of Q (doubly), and the auxiliary pole (threefold)
    inv_tau = c.p.tau.inverse()
    t_psi = inv_tau(1.0)
    t_pole = inv_tau(2 * c.n_p)
    s_psi_pulled = c.phi.inverse()(c.q.tau.inverse()(1.0))
    expected = {(1): t_psi}
    found = {}
    for z, m in rep.off_points:
        found[m] = z
    assert set(found) == {1, 2, -3}
    assert chordal(found[1], t_psi) < 1e-7
    assert chordal(found[2], s_psi_pulled) < 1e-7
    assert chordal(found[-3], t_pole) < 1e-7


def test_direct_pipeline_runs_once_per_construct_and_tolerances(monkeypatch):
    c = random_construct(3)
    calls = []
    section = obstruction._section_divisor
    monkeypatch.setattr(obstruction, "_section_divisor", lambda c, tol, *solved: calls.append(tol) or section(c, tol, *solved))
    first = direct_pipeline_data(c)
    again = direct_pipeline_data(c, DEFAULT_TOL)
    assert len(calls) == 1 and all(a is b for a, b in zip(first, again))
    tight = DEFAULT_TOL.with_overrides(root_residual=1e-10)
    fresh = direct_pipeline_data(c, tight)
    assert calls == [DEFAULT_TOL, tight] and fresh[0] is not first[0]
    # a copy of the construct shares none of its results
    assert fresh == direct_pipeline_data(dataclasses.replace(c), tight)
    assert first == direct_pipeline_data(dataclasses.replace(c))
    assert len(calls) == 4


def test_direct_pipeline_rejection_is_not_kept(monkeypatch):
    c = random_construct(3)
    calls = []

    def reject(c, tol, *solved):
        calls.append(tol)
        raise GuardError("divisor-imbalance", "rejected for the test")

    monkeypatch.setattr(obstruction, "_section_divisor", reject)
    for _ in range(2):
        with pytest.raises(GuardError, match="rejected for the test"):
            direct_pipeline_data(c)
    assert len(calls) == 2
    monkeypatch.undo()
    assert direct_pipeline_data(c) == direct_pipeline_data(dataclasses.replace(c))


def test_a_failing_member_raises_in_its_turn_and_leaves_the_others_alone(monkeypatch):
    # the members' root problems share their Aberth stacks; a non-finite
    # polynomial in member 3 fails only where member 3 takes its divisor, and
    # a vanishing y-partial in member 2 is still the first error raised
    fam = seeded_family(101, 5)
    section_polys = obstruction._section_polys
    breaks = {}

    def broken(c):
        polys = section_polys(c)
        for k, q in breaks.get(id(c), ()):
            polys[k] = q
        return polys

    monkeypatch.setattr(obstruction, "_section_polys", broken)
    nan_w = (0, Poly([float("nan"), 1.0, 1.0, 1.0]))
    zero_den = (5, Poly([0.0]))
    for plan, error, first in (({3: [nan_w]}, RootFindingError, 3), ({2: [zero_den], 3: [nan_w]}, GuardError, 2)):
        together, alone = ([dataclasses.replace(c) for c in fam] for _ in range(2))
        breaks.clear()
        for i, fix in plan.items():
            breaks[id(together[i])] = breaks[id(alone[i])] = fix
        with pytest.raises(error) as raised:
            consistency_check(together)
        with pytest.raises(error) as one_by_one:
            for c in alone:
                direct_pipeline_data(c)
        assert str(raised.value) == str(one_by_one.value)
        assert error is GuardError or "companion eigenvalues failed" in str(raised.value)
        assert getattr(raised.value, "reason", None) == getattr(one_by_one.value, "reason", None)
        for i, c in enumerate(together):
            assert (DEFAULT_TOL in c.direct_pipelines) == (i < first)
            if i < first:
                assert c.direct_pipelines[DEFAULT_TOL] == direct_pipeline_data(dataclasses.replace(fam[i]))


def test_direct_matches_rows_times_correction():
    c = random_construct(13)
    rows = eval_main_rows(c)
    _, _, td = direct_pipeline_data(c)
    # componentwise ratio direct/rows is the correction value at each mark;
    # all three must be finite nonzero
    for v, r in zip(td.values, rows.values):
        assert v != 0 and r != 0
        assert np.isfinite(abs(v / r))


def test_consistency_on_families():
    for seed in (7, 21):
        fam = seeded_family(seed, 4)
        rep = consistency_check(fam)
        assert rep.deviation <= 1e-6, rep.deviation


def test_consistency_when_a_root_copy_sits_next_to_a_mark():
    # member 4 of this family puts root-found copies of the node preimage
    # 3-4e-9 from marks p1 and p3; they are the mark itself, not a
    # singularity that should shrink the local ring radius
    rep = consistency_check(seeded_family(200_183, 5))
    assert rep.deviation <= 1e-6, rep.deviation


def test_consistency_single_member_and_drift_error():
    fam = seeded_family(7, 1)
    assert consistency_check(fam).deviation == 0.0
    c1 = random_construct(7)
    c2 = random_construct(8)
    with pytest.raises(GuardError):
        consistency_check([c1, c2])


def test_mutation_detected():
    # corrupting the second closed-form value (dropping its f_Q factor)
    # must blow the family consistency far past the tolerance
    fam = seeded_family(3, 4)
    base_ratio = None
    worst = 0.0
    for member in fam:
        jd, _, _ = direct_pipeline_data(member)
        jc, sbg, tc = closed_form_data(member)
        corrupted = GluingTriple(
            (tc.values[0], tc.values[1] * sbg.f_q_at_pn, tc.values[2]),
            "closed-form", member.n_p, member.n_q,
        )
        jcc = JPoint.from_triple(corrupted)
        ratio = (jd.g21 / jcc.g21, jd.g31 / jcc.g31)
        if base_ratio is None:
            base_ratio = ratio
        else:
            worst = max(worst, abs(ratio[0] / base_ratio[0] - 1), abs(ratio[1] / base_ratio[1] - 1))
    assert worst > 1e-3


def test_jpoint_agrees_with_pic_class():
    c = random_construct(11)
    _, _, tc = closed_form_data(c)
    _, _, td = direct_pipeline_data(c)
    torus = pic0_structure(duncehat_curve_graph())
    pc_c = jpoint_as_pic_class(tc)
    pc_d = jpoint_as_pic_class(td)
    # two triples define the same torus point exactly when the JPoints agree
    jc, jd = JPoint.from_triple(tc), JPoint.from_triple(td)
    same_j = abs(jc.g21 - jd.g21) < 1e-12 and abs(jc.g31 - jd.g31) < 1e-12
    assert pic_equal(pc_c, pc_d) == same_j
    scaled = GluingTriple(tuple(v * (2.0 - 1.0j) for v in tc.values), "closed-form", c.n_p, c.n_q)
    assert pic_equal(pc_c, jpoint_as_pic_class(scaled))


def test_gluing_triple_rejects_zero():
    with pytest.raises(ValidationError):
        GluingTriple((0.0, 1.0, 1.0), "rows", 0.5, 0.5)


def test_jacobian_rank_full_and_invariant(transport_construct):
    c = random_construct(11)
    jr = jacobian_rank(c)
    assert jr.rank == 4
    a = AffineMapPlane(((1.05, 0.1), (0.12j, 0.95)), (0.25, -0.15))
    moved = transport_construct(c, a)
    assert jacobian_rank(moved).rank == 4
    # duplicated directions cannot raise the rank
    s = jr.singular_values
    m = np.zeros((4, 8))
    # hand-build a duplicated-column matrix with the same column space
    m[:, :4] = np.diag(s)
    m[:, 4:] = np.diag(s)
    from dualcx.numerics import numerical_rank

    rank, _ = numerical_rank(m)
    assert rank == 4


def test_near_collinear_rank_degrades():
    # squeeze the node of Q toward the line through the intersection and
    # the node of P by repeated moderate shears fixing that line pointwise;
    # the transversality that feeds the rank dies with the off-line distance
    from dualcx.cubics import intersect, transport_cubic, make_construct

    c = random_construct(11)
    n_pt = c.n_point
    d = c.p.node_point - n_pt
    perp = np.array([-d[1], d[0]], dtype=complex)
    # complex-bilinear normalization: the transverse eigenvalue is 1 - kappa
    kappa = 0.9
    m2 = np.eye(2, dtype=complex) - kappa * np.outer(perp, perp) / (perp @ perp)
    shear = AffineMapPlane(
        ((m2[0, 0], m2[0, 1]), (m2[1, 0], m2[1, 1])),
        tuple(n_pt - m2 @ n_pt),
    )
    relaxed = DEFAULT_TOL.with_overrides(guard_margin=1e-14)
    q2 = c.q
    c2 = None
    for _ in range(4):
        try:
            q2 = transport_cubic(q2, shear)
            c2 = make_construct(c.p, q2, intersect(c.p, q2, relaxed), c.n_index, c.b_param, relaxed)
        except GuardError:
            break

    if c2 is None:
        pytest.skip("rig rejected before the rank test")
    margin = abs(d[0] * (c2.q.node_point - n_pt)[1] - d[1] * (c2.q.node_point - n_pt)[0])
    assert margin < 1e-2 * np.linalg.norm(d) * np.linalg.norm(c2.q.node_point - n_pt)
    try:
        jr = jacobian_rank(c2, tol=relaxed)
    except GuardError:
        return  # degeneration loud enough to trip the guards outright
    # the smallest singular value collapses against the unsheared construct
    base_min = jacobian_rank(c, tol=relaxed).singular_values[-1]
    degraded = jr.rank < 4 or jr.singular_values[-1] < 0.05 * base_min
    assert degraded, (jr.rank, jr.singular_values, base_min)


def test_off_divisor_stable_along_family():
    # the corrected section's off-mark divisor sits at mark-determined
    # points of the tau line, so the point set is shared across a family
    fam = seeded_family(7, 3)
    sets = []
    for member in fam:
        _, rep, _ = direct_pipeline_data(member)
        in_tau = sorted(
            ((m, complex(member.p.tau(z))) for z, m in rep.off_points),
            key=lambda pair: pair[0],
        )
        sets.append(in_tau)
    for other in sets[1:]:
        for (m0, z0), (m1, z1) in zip(sets[0], other):
            assert m0 == m1
            assert chordal(z0, z1) < 1e-7


def test_scan_reaches_targets():
    rep = surjectivity_scan(5, n_targets=4, tol=1e-8)
    assert all(t.reached for t in rep.targets)
    assert all(t.residual <= 1e-8 for t in rep.targets)


def test_scan_extreme_target_reported_not_asserted():
    # far targets may leave the guard basin; the report carries the failure
    rep = surjectivity_scan(5, n_targets=1, tol=1e-8, max_log_offset=10.0)
    t = rep.targets[0]
    assert isinstance(t.reached, bool)
    assert t.iterations >= 1 and t.residual >= 0.0


def test_scan_identity_target_is_instant():
    # the zero offset is met by the starting construct at the first probe
    from dualcx.obstruction import _continuation_solve

    calls = []

    def f(x):
        calls.append(1)
        return np.asarray(x, dtype=float)

    x, ok, iters, res = _continuation_solve(f, lambda x: np.eye(4), np.zeros(4), 1e-8)
    assert ok and res == 0.0 and np.allclose(x, 0.0)
    assert len(calls) == 1


def _rebuild_route(c):
    """The class offset through guarded rebuilds, as a map of x."""
    cmap = FamilyClassMap(c)
    base = closed_form_data(c)[0]
    return cmap, lambda x: obstruction._rebuilt_offset(c, cmap, base, x, DEFAULT_TOL)


def test_explicit_class_map_matches_rebuild_route():
    rng = np.random.default_rng(2020)
    for seed in range(10):
        cmap, rebuilt = _rebuild_route(random_construct(seed))
        for _ in range(2):
            eps = 0.05 * rng.uniform(0.0, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            x = np.array([eps[0].real, eps[0].imag, eps[1].real, eps[1].imag])
            assert np.max(np.abs(cmap(x) - rebuilt(x))) <= 1e-9, (seed, x)


def test_analytic_jacobian_matches_rebuild_finite_differences():
    for seed in range(5):
        cmap, rebuilt = _rebuild_route(random_construct(seed))
        analytic = cmap.jacobian(np.zeros(4))
        fd = finite_diff_jacobian(rebuilt, np.zeros(4)).matrix
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(analytic)), seed


def test_scan_certificate_gates_a_biased_map(monkeypatch):
    # Newton lands where the biased map meets the target; the guarded
    # rebuild sees the bias and refuses the landing
    explicit = FamilyClassMap.__call__
    monkeypatch.setattr(FamilyClassMap, "__call__", lambda self, x: explicit(self, x) + 1e-6)
    t = surjectivity_scan(5, n_targets=1, tol=1e-8, max_log_offset=0.01).targets[0]
    assert not t.reached
    assert 1e-6 < t.residual < 1e-5


def test_scan_refines_a_landing_the_certificate_misses(monkeypatch):
    # a landing Newton accepted but the rebuild puts above tol gets one
    # more step on the map, and is certified again
    solve = obstruction._continuation_solve

    def coarse(f, jac, target, tol):
        x, ok, iters, res = solve(f, jac, target, tol)
        return x + 1e-7, ok, iters, res

    monkeypatch.setattr(obstruction, "_continuation_solve", coarse)
    exact = surjectivity_scan(5, n_targets=1, tol=1e-8, max_log_offset=0.01).targets[0]
    monkeypatch.setattr(obstruction, "_continuation_solve", solve)
    plain = surjectivity_scan(5, n_targets=1, tol=1e-8, max_log_offset=0.01).targets[0]
    assert exact.reached and exact.residual <= 1e-8
    assert exact.iterations == plain.iterations + 1

def test_scan_reaches_near_target_where_finite_differences_stalled():
    seed = 23_200_001
    rep = surjectivity_scan(seed, n_targets=1, tol=1e-8, max_log_offset=0.002, construct=random_construct(seed))
    t = rep.targets[0]
    assert t.reached and t.residual <= 1e-8


def test_seeded_family_gives_up_on_rejected_moves():
    t0 = time.time()
    with pytest.raises(GuardError) as info:
        seeded_family(200_146, 5)
    assert info.value.reason == "sampling-exhausted"
    assert time.time() - t0 < 30.0
