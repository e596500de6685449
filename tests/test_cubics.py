"""Nodal cubics: implicitization, nodes, flexes, residues, constructs."""

import numpy as np
import pytest

from dualcx.errors import GuardError
from dualcx.numerics import DEFAULT_TOL, Poly, chordal, is_inf, poly_from_roots, poly_roots
from dualcx.cubics import (
    MONOMIALS,
    AffineMapPlane,
    CubicMap,
    _partial_composed,
    affine_direction,
    affine_family,
    choose_flex,
    find_node,
    flexes,
    implicit_residual,
    implicitize,
    intersect,
    make_construct,
    nodal_cubic,
    normalize_residue,
    random_construct,
    residue_at_node_preimage,
    transport_cubic,
)
from dualcx.obstruction import seeded_family
from dualcx.serialize import construct_from_json, construct_to_json

# the standard nodal cubic y^2 = x^2 (x + 1), parametrized by pencil slope
STD = CubicMap(Poly([-1, 0, 1]), Poly([0, -1, 0, 1]), Poly([1]))


def std_cubic():
    return nodal_cubic(STD)


def test_implicitize_standard_curve():
    f = implicitize(STD)
    # expected y^2 w - x^3 - x^2 w up to scale, in the fixed monomial order
    ref = np.zeros(10, dtype=complex)
    ref[0] = -1.0   # x^3
    ref[2] = -1.0   # x^2 w
    ref[7] = 1.0    # y^2 w
    ratio = f.coef[7] / ref[7]
    assert np.allclose(f.coef, ref * ratio, atol=1e-9)
    assert implicit_residual(STD, f) < 1e-12


def test_implicitize_rejects_degenerate():
    common = poly_from_roots([0.3, -1.2])
    degenerate = CubicMap(common * Poly([1.0, 0.5]), common * Poly([-0.7, 1.1]), common * Poly([2.0, -0.3]))
    with pytest.raises(GuardError) as err:
        implicitize(degenerate)
    assert err.value.reason == "degenerate-parametrization"


def test_implicitize_projective_invariance():
    f1 = implicitize(STD)
    scaled = CubicMap(STD.x * (2 - 1j), STD.y * (2 - 1j), STD.w * (2 - 1j))
    f2 = implicitize(scaled)
    ratio = f2.coef[7] / f1.coef[7]
    assert np.allclose(f2.coef, f1.coef * ratio, atol=1e-9)


def test_find_node_standard_curve():
    u, v = find_node(STD)
    assert sorted([round(u.real, 9), round(v.real, 9)]) == [-1.0, 1.0]
    assert abs(u.imag) < 1e-9 and abs(v.imag) < 1e-9


def test_find_node_rejects_cuspidal():
    # the cuspidal cubic y^2 = x^3 has a cusp, not a node
    cusp = CubicMap(Poly([0, 0, 1]), Poly([0, 0, 0, 1]), Poly([1]))
    with pytest.raises(GuardError) as err:
        find_node(cusp)
    assert err.value.reason == "not-one-node"


def _same_node(found, placed) -> float:
    """Chordal distance between two unordered pairs of node parameters."""
    (u, v), (u0, v0) = found, placed
    return min(max(chordal(u, u0), chordal(v, v0)), max(chordal(u, v0), chordal(v, u0)))


def test_find_node_recovers_the_constructed_node():
    # random cubics place their node by linear algebra; moved members keep it
    cubics = [cubic for c in map(random_construct, range(60)) for cubic in (c.p, c.q)]
    cubics += [cubic for member in seeded_family(1000001, 5)[1:] for cubic in (member.p, member.q)]
    for cubic in cubics:
        assert _same_node(find_node(cubic.gamma), cubic.node) <= 1e-12


def test_moved_members_reload_from_their_files():
    # moved members whose image of a fixed parameter circle is a short arc:
    # members 1-3 of the first family, 3 of the second and 1 and 4 of the third
    for seed in (1000001, 1000012, 1000013):
        for member in seeded_family(seed, 5):
            back = construct_from_json(construct_to_json(member))
            assert chordal(back.n_p, member.n_p) <= 1e-12 and chordal(back.n_q, member.n_q) <= 1e-12


@pytest.mark.parametrize("a", [
    AffineMapPlane(((1.1, 0.3 - 0.2j), (-0.4j, 0.9)), (0.2, -0.1 + 0.05j)),
    AffineMapPlane(((1.2, 0.1 - 0.3j), (0.2j, 0.8 + 0.1j)), (0.3, -0.7)),
])
def test_transported_equation_is_the_moved_form(a):
    # the re-derived, residue-normalized equation is det(A) f o A^-1
    c = random_construct(11)
    moved = transport_cubic(c.p, a)
    for x in (np.array([0.3 + 0.1j, -0.7]), np.array([1.4, 0.2 - 0.9j]), c.q.node_point):
        assert abs(moved.f_value(a(x)) - a.det() * c.p.f_value(x)) <= 1e-10 * abs(c.p.f_value(x))


def test_flexes_standard_curve():
    fl = flexes(STD, node=(1.0, -1.0))
    finite = sorted(z.imag for z in fl if not is_inf(z))
    assert len(fl) == 3
    assert any(is_inf(z) for z in fl)
    assert np.allclose(finite, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-9)
    # flex images satisfy f = 0 and the Hessian determinant vanishes
    f = implicitize(STD)
    for z in fl:
        if is_inf(z):
            continue
        x, y, w = STD.hom(z) / np.linalg.norm(STD.hom(z))
        assert abs(f(x, y, w)) < 1e-9
        assert abs(_hessian_det(f, x, y, w)) < 1e-8


def _hessian_det(f, x, y, w):
    eps = 1e-5
    vars0 = np.array([x, y, w], dtype=complex)

    def grad(v):
        return np.array(f.gradient(*v), dtype=complex)

    cols = []
    for k in range(3):
        e = np.zeros(3, dtype=complex)
        e[k] = eps
        cols.append((grad(vars0 + e) - grad(vars0 - e)) / (2 * eps))
    return np.linalg.det(np.stack(cols, axis=1))


def test_wronskian_degree_drop_is_flex_at_infinity():
    # degree three minus the number of finite flexes
    assert STD.wronskian().degree == 2


def test_flex_transport_under_affine_maps():
    a = AffineMapPlane(((1.1, 0.3 - 0.2j), (-0.4j, 0.9)), (0.2, -0.1 + 0.05j))
    moved = STD.transformed(a.homogeneous())
    fl1 = flexes(moved)
    for z0 in flexes(STD):
        assert min(chordal(z0, z1) for z1 in fl1) < 1e-8


def test_residue_normalization():
    nc = std_cubic()
    r1 = residue_at_node_preimage(STD, nc.f, nc.node[0])
    r2 = residue_at_node_preimage(STD, nc.f, nc.node[1])
    assert abs(r1 - 1) < 1e-10
    assert abs(r1 + r2) < 1e-9  # the two branch residues cancel
    again = normalize_residue(STD, nc.f.scaled(5.0), nc.node[0])
    assert np.allclose(again.coef, nc.f.coef)
    swapped = nodal_cubic(STD, node=(nc.node[1], nc.node[0]))
    ratio = swapped.f.coef[7] / nc.f.coef[7]
    assert abs(ratio + 1) < 1e-9  # swapping the ordering negates the scale


def test_tau_triple():
    nc = std_cubic()
    assert abs(nc.tau(nc.node[0])) < 1e-12
    assert is_inf(nc.tau(nc.node[1]))
    assert abs(nc.tau(nc.psi) - 1) < 1e-12


def test_choose_flex_deterministic_and_invariant():
    nc = std_cubic()
    psi1, rule = choose_flex(nc.flex_params, nc.node[0], nc.node[1])
    psi2, _ = choose_flex(tuple(reversed(nc.flex_params)), nc.node[0], nc.node[1])
    assert chordal(psi1, psi2) < 1e-12
    assert "lex-min" in rule


def test_intersections_bezout_and_two_sided_images():
    c = random_construct(11)
    assert len(c.intersections) == 9
    for t, s in c.intersections:
        xp = c.p.gamma.affine(t)
        xq = c.q.gamma.affine(s)
        assert np.linalg.norm(xp - xq) <= 1e-9 * max(1.0, np.linalg.norm(xp))


def test_tangent_pair_rejected():
    # build Q tangent to P at a chosen point by constrained sampling
    rng = np.random.default_rng(8)
    c = random_construct(11)
    p = c.p
    t0 = 0.37 + 0.21j
    x0 = p.gamma.hom(t0)
    tangent = np.array([p.gamma.nx(t0), p.gamma.ny(t0), 0.0], dtype=complex)
    # directions in the plane: point and tangent at the contact
    for attempt in range(30):
        u1, u2 = 0.9 * np.exp(2j * np.pi * rng.random()), 1.2 * np.exp(2j * np.pi * rng.random())
        if chordal(u1, u2) < 0.3:
            continue
        lam = complex(np.exp(0.8 * (rng.standard_normal() + 1j * rng.standard_normal())))
        if abs(lam - 1) < 0.3:
            continue
        from dualcx.cubics import _node_poly_basis

        basis = _node_poly_basis(complex(u1), complex(u2), lam)
        # coefficients: 9 free, impose gamma_Q(s0) = x0 and tangency there
        s0 = -0.41 + 0.77j
        bb = np.array([[b(s0) for b in basis]], dtype=complex)
        rows = []
        rhs = []
        for coord in range(3):
            row = np.zeros(9, dtype=complex)
            row[3 * coord : 3 * coord + 3] = bb
            rows.append(row)
            rhs.append(x0[coord])
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        null = _nullspace(np.array(rows))
        # the minimum-norm solution is degenerate (proportional coordinates);
        # move to a generic point of the affine solution space first
        sol = sol + null @ (rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1]))
        coefs = sol
        # impose tangency: derivative parallel to the tangent plane span(x0, tangent)
        dbb = np.array([b.derivative()(s0) for b in basis], dtype=complex)

        def gamma_of(vec):
            comps = []
            for coord in range(3):
                acc = Poly([0.0])
                for cc, b in zip(vec[3 * coord : 3 * coord + 3], basis):
                    acc = acc + cc * b
                comps.append(acc)
            return CubicMap(*comps)

        # one complex linear condition: det(gamma'(s0), x0, tangent) = 0
        def tang_value(vec):
            g = gamma_of(vec)
            d = np.array([g.x.derivative()(s0), g.y.derivative()(s0), g.w.derivative()(s0)])
            return np.linalg.det(np.stack([d, x0, tangent]))

        base_val = tang_value(coefs)
        coeffs_of_null = [tang_value(coefs + n) - base_val for n in null.T]
        k = int(np.argmax(np.abs(coeffs_of_null)))
        if abs(coeffs_of_null[k]) < 1e-9:
            continue
        vec = coefs - (base_val / coeffs_of_null[k]) * null[:, k]
        g = gamma_of(vec)
        try:
            q = nodal_cubic(g, node=(complex(u1), complex(u2)))
        except GuardError:
            continue
        with pytest.raises(GuardError) as err:
            intersect(p, q)
        assert err.value.reason in ("tangency", "intersection-match")
        return
    pytest.skip("no tangent sample produced")


def _nullspace(m):
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vh[rank:].conj().T


def test_construct_guards():
    c = random_construct(11)
    with pytest.raises(GuardError) as err:
        make_construct(c.p, c.q, c.intersections, c.n_index, c.p.node[0])
    assert err.value.reason == "b-collision"
    # collinearity guard: raise the margin until the best configuration trips
    with pytest.raises(GuardError) as err2:
        make_construct(c.p, c.q, c.intersections, c.n_index, c.b_param, DEFAULT_TOL.with_overrides(guard_margin=10.0))
    assert err2.value.reason in ("collinear-markers", "node-on-curve")


def test_random_construct_deterministic():
    a = random_construct(11)
    b = random_construct(11)
    assert a.n_p == b.n_p and a.b_param == b.b_param
    assert a.seed == 11


def test_affine_family_preserves_marks():
    c = random_construct(11)
    for side in ("P", "Q"):
        direction = affine_direction(c, side)
        # the generator fixes its two prescribed points exactly
        a = direction.map_at(0.07 - 0.03j)
        assert np.allclose(a(np.asarray(direction.base)), np.asarray(direction.base))
        assert np.allclose(a(np.asarray(direction.through)), np.asarray(direction.through))
        assert abs(a.det() - 1) < 1e-12
        member = affine_family(c, direction, 0.05 + 0.02j)
        assert chordal(member.n_p, c.n_p) < 1e-8
        assert chordal(member.n_q, c.n_q) < 1e-8
    # at eps = 0 the construct is unchanged up to recomputation noise
    zero = affine_family(c, affine_direction(c, "Q"), 0.0)
    assert chordal(zero.n_p, c.n_p) < 1e-12
    assert chordal(zero.n_q, c.n_q) < 1e-12
    assert zero.b_param == c.b_param
    assert np.allclose(zero.q.f.coef, c.q.f.coef)


def test_affine_family_moves_the_right_value():
    c = random_construct(11)
    member = affine_family(c, affine_direction(c, "Q"), 0.05)
    fq_pn_before = c.q.f_value(c.p.node_point)
    fq_pn_after = member.q.f_value(member.p.node_point)
    assert abs(fq_pn_after - fq_pn_before) <= 1e-9 * abs(fq_pn_before)
    fp_qn_before = c.p.f_value(c.q.node_point)
    fp_qn_after = member.p.f_value(member.q.node_point)
    assert abs(fp_qn_after - fp_qn_before) > 1e-4 * abs(fp_qn_before)


def test_affine_family_runs_under_the_given_tolerances():
    # a guard margin no construct can meet must reach the rebuild's guards
    c = random_construct(11)
    strict = DEFAULT_TOL.with_overrides(guard_margin=1.0)
    with pytest.raises(GuardError) as err:
        affine_family(c, affine_direction(c, "Q"), 0.01, tol=strict)
    assert err.value.reason == "node-on-curve"


def test_marks_stable_across_family_range():
    c = random_construct(3)
    direction = affine_direction(c, "P")
    for eps in (-0.1, -0.05, 0.05, 0.1):
        member = affine_family(c, direction, eps)
        assert chordal(member.n_p, c.n_p) < 1e-8
        assert chordal(member.n_q, c.n_q) < 1e-8


def test_whole_plane_transport_invariance(transport_construct):
    c = random_construct(11)
    a = AffineMapPlane(((1.2, 0.1 - 0.3j), (0.2j, 0.8 + 0.1j)), (0.3, -0.7))
    moved = transport_construct(c, a)
    assert chordal(moved.n_p, c.n_p) < 1e-9
    assert chordal(moved.n_q, c.n_q) < 1e-9
    assert chordal(moved.tau_b, c.tau_b) < 1e-9


def test_implicit_residual_invariant_on_samples():
    for seed in (11, 12):
        c = random_construct(seed)
        for cubic in (c.p, c.q):
            assert implicit_residual(cubic.gamma, cubic.f) < 1e-10


def test_array_evaluators_match_the_scalar_ones():
    # the direct pipeline evaluates its mark rings through the array forms;
    # the scalar forms are the reference (same formulas, equal to rounding)
    c = random_construct(11)
    ts = 0.4 - 0.2j + 0.3 * np.exp(2j * np.pi * np.arange(8) / 8)
    xs, ys = c.p.gamma.affine_many(ts)
    assert np.allclose(np.stack([xs, ys], axis=1), [c.p.gamma.affine(t) for t in ts], rtol=1e-13, atol=0)
    scale = c.q.f.norm() * max(1.0, float(np.max(np.abs([xs, ys])))) ** 3
    fq = [c.q.f.affine(complex(x), complex(y)) for x, y in zip(xs, ys)]
    assert np.allclose(c.q.f.eval_many(xs, ys, 1.0), fq, rtol=0, atol=1e-14 * scale)
    assert np.allclose(c.phi.eval_many(ts), [c.phi(t) for t in ts], rtol=1e-13, atol=0)


def test_node_swap_changes_tau_consistently():
    nc = std_cubic()
    swapped = nodal_cubic(STD, node=(nc.node[1], nc.node[0]))
    # the new coordinate is c / tau for the constant c = tau(new flex);
    # verify through three sample parameters
    cval = nc.tau(swapped.psi)
    for t in (0.3 + 0.1j, -0.8, 2.2 - 1.1j):
        assert abs(swapped.tau(t) - cval / nc.tau(t)) < 1e-9


# ---------------------------------------------------------------------------
# the array kernels against the per-term and per-point references they replace
# ---------------------------------------------------------------------------


def _compose_reference(terms, gamma):
    """sum c X^a Y^b W^g by Poly products, rebuilt for every composition."""
    powers = [[Poly([1.0]), g, g * g, g * g * g] for g in (gamma.x, gamma.y, gamma.w)]
    out = Poly([0.0])
    for (a, b, g), c in terms:
        out = out + c * (powers[0][a] * powers[1][b] * powers[2][g])
    return out


def test_monomial_table_compositions_equal_the_poly_product_reference():
    # same products and accumulation order, so the coefficients are equal, not close
    for seed in range(20):
        c = random_construct(seed)
        for cubic, other in ((c.p, c.q), (c.q, c.p)):
            ref = _compose_reference(zip(MONOMIALS, other.f.coef), cubic.gamma)
            assert np.array_equal(other.f.compose_map(cubic.gamma).coef, ref.coef)
            for var in (0, 1):
                ref = _compose_reference(cubic.f.partial(var).items(), cubic.gamma)
                assert np.array_equal(_partial_composed(cubic.gamma, cubic.f, var).coef, ref.coef)


def _implicit_fit_reference(gamma):
    """The nullspace fit one sample point at a time: (unit form, singular values)."""
    rows = []
    for t in 1.07 * np.exp(2j * np.pi * (np.arange(20) + 0.13) / 20) + (0.31 - 0.17j):
        x, y, w = gamma.hom(complex(t)) / np.linalg.norm(gamma.hom(complex(t)))
        rows.append([x**a * y**b * w**g for a, b, g in MONOMIALS])
    _, s, vh = np.linalg.svd(np.asarray(rows))
    return np.conj(vh[9]), s


def _residual_reference(gamma, f):
    worst = 0.0
    for t in 0.93 * np.exp(2j * np.pi * (np.arange(50) + 0.41) / 50) - (0.11 + 0.23j):
        v = gamma.hom(complex(t))
        worst = max(worst, abs(f(*(v / np.linalg.norm(v)))) / f.norm())
    return worst


def test_batched_implicitize_matches_the_scalar_reference():
    # the moving-line resultant against the sampled nullspace fit: equal to 1e-12
    for seed in range(10):
        c = random_construct(seed)
        for cubic, other in ((c.p, c.q), (c.q, c.p)):
            ref, _ = _implicit_fit_reference(cubic.gamma)
            got = implicitize(cubic.gamma).coef
            phase = np.vdot(ref, got) / abs(np.vdot(ref, got))
            assert np.linalg.norm(got - phase * ref) <= 1e-12
            # a form that does not vanish on the curve: an O(1) residual to compare
            want = _residual_reference(cubic.gamma, other.f)
            assert abs(implicit_residual(cubic.gamma, other.f) - want) <= 1e-12 * want


def _match_reference(p, q, tol=DEFAULT_TOL):
    """The intersection pairs by a sorted scan of scalar image distances."""
    ts = poly_roots(q.f.compose_map(p.gamma).trim(rel=1e-12), tol=tol.root_residual)
    ss = poly_roots(p.f.compose_map(q.gamma).trim(rel=1e-12), tol=tol.root_residual)
    pairs = []
    for t, _ in ts:
        dists = sorted((float(np.linalg.norm(p.gamma.affine(t) - q.gamma.affine(s))), j) for j, (s, _) in enumerate(ss))
        assert dists[1][0] >= 10 * dists[0][0]
        pairs.append((t, ss[dists[0][1]][0]))
    return tuple(sorted(pairs, key=lambda pair: (pair[0].real, pair[0].imag)))


def test_array_matching_pairs_the_same_intersections():
    for seed in range(20):
        c = random_construct(seed)
        assert intersect(c.p, c.q) == _match_reference(c.p, c.q)
        # the rebuild re-identifies the chosen intersection as the scalar scan would
        member = affine_family(c, affine_direction(c, "Q"), 0.03)
        images = [member.p.gamma.affine(t) for t, _ in member.intersections]
        dists = [float(np.linalg.norm(x - c.n_point)) for x in images]
        assert member.n_index == dists.index(min(dists))
        assert member.intersections == _match_reference(member.p, member.q)
