"""Kernels: root finding, Moebius maps, divisors, finite differences."""

import numpy as np
import pytest

from dualcx.cubics import random_construct
from dualcx.errors import RootFindingError, ValidationError
from dualcx.numerics import (
    DEFAULT_TOL,
    INF,
    Divisor,
    Mobius,
    Poly,
    _aberth_many,
    _disk_gaps,
    _multiset,
    _peel_zeros,
    _solves,
    aberth_roots,
    chordal,
    finite_diff_jacobian,
    is_inf,
    mobius_from_triple,
    numerical_rank,
    poly_from_roots,
    poly_roots,
)


def sorted_roots(pairs):
    return sorted(((round(z.real, 6), round(z.imag, 6)), m) for z, m in pairs)


def test_one_point_evaluation_is_polyval_bitwise():
    # Horner on Python scalars in polyval's order: signed zeros, real and
    # integer points and numpy scalars give polyval's very bits
    rng = np.random.default_rng(17)
    for k in range(3000):
        n = int(rng.integers(0, 10))
        coef = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-3, 4, n + 1) + 1j * rng.standard_normal(n + 1)
        if k % 3 == 0:
            coef = coef.real + 0j
        if k % 5 == 0:
            coef[rng.random(n + 1) < 0.4] = complex(-0.0, -0.0)
        p = Poly(coef)
        x = complex(*rng.standard_normal(2))
        for t in (x, x.real, -x.real, int(rng.integers(-4, 5)), np.complex128(x), np.float64(x.imag), 0j, -0j):
            want = complex(np.polynomial.polynomial.polyval(t, p.coef))
            assert np.array(p(t)).tobytes() == np.array(want).tobytes(), (coef, t)


def test_arithmetic_results_need_no_revalidation():
    # results skip Poly's coefficient validation: each is already the 1-d
    # complex array that validation would return unchanged, so no bit moves;
    # the degree bound still holds
    p, q = Poly([1, 2, 3]), Poly([0.5j, -0.0, 2.0, 1e-20])
    results = [p * q, p * 2.5j, 3 * q, q * np.float64(0.5), p + q, p + 1, -q, p - 1, q.derivative(),
               Poly([4]).derivative(), q.trim(), (p * 0).trim(), p ** 3]
    for got in results:
        assert got.coef.dtype == complex and got.coef.ndim == 1 and got.coef.size
        assert np.atleast_1d(np.asarray(got.coef, dtype=complex)) is got.coef
    big = Poly(np.ones(40))
    with pytest.raises(ValidationError, match="exceeds supported maximum 64"):
        big * big


def test_cube_roots_of_unity():
    roots = poly_roots(Poly([-1, 0, 0, 1]))
    assert sorted_roots(roots) == [((-0.5, -0.866025), 1), ((-0.5, 0.866025), 1), ((1.0, -0.0), 1)]


def test_double_root_multiplicity():
    roots = poly_roots(poly_from_roots([2, 2, -1]))
    assert sorted(m for _, m in roots) == [1, 2]
    double = next(z for z, m in roots if m == 2)
    assert abs(double - 2) < 1e-6


def test_random_degree_nine_against_factors():
    rng = np.random.default_rng(11)
    for _ in range(4):
        want = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        p = poly_from_roots(want, leading=complex(rng.standard_normal(), rng.standard_normal()))
        got = sorted(aberth_roots(p), key=lambda z: (z.real, z.imag))
        ref = sorted(map(complex, want), key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-10


def test_roots_against_companion_matrix():
    # independent oracle: eigenvalues of the companion matrix
    rng = np.random.default_rng(5)
    coef = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    p = Poly(coef)
    mine = sorted(aberth_roots(p), key=lambda z: (z.real, z.imag))
    numpy_roots = sorted(np.roots(coef[::-1]).tolist(), key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(mine, numpy_roots)) < 1e-9


def test_product_roots_are_union():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ra = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        roots = poly_roots(poly_from_roots(ra) * poly_from_roots(rb))
        assert sum(m for _, m in roots) == 5
        for want in list(ra) + list(rb):
            assert min(abs(z - want) for z, _ in roots) < 1e-8


def test_intersection_roots_certify_within_six_sweeps():
    # the degree-9 intersection polynomials of random constructs: isolated
    # simple roots, certified by disjoint inclusion disks on the first sweep
    for seed in range(20):
        c = random_construct(seed)
        f = c.q.f.compose_map(c.p.gamma).trim(rel=1e-12)
        roots = aberth_roots(f, max_iter=6)
        assert len(roots) == f.degree == 9


def test_triple_roots_stay_clustered():
    a = -0.4701391310754686 + 0.3251221598508431j
    b = -0.1854718634057621 + 1.8367223723697645j
    c = 1.4169676901697452 + 1.0564520479465793j
    roots = poly_roots(poly_from_roots([a] * 3 + [b] * 2 + [c] * 3))
    assert sorted(m for _, m in roots) == [2, 3, 3]
    for want, mult in ((a, 3), (b, 2), (c, 3)):
        assert min((abs(z - want), m) for z, m in roots)[1] == mult


MULTIPLICITY_SAMPLES = [(2024, 1.5), (2, 1.0), (3, 1.0), (9, 1.0)]


def _multiplicity_samples(seed, scale):
    """(polynomial, distinct roots, multiplicities): distinct roots at least
    0.5 apart, multiplicities 1-3, total degree <= 9."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        mults = []
        while True:
            m = int(rng.integers(1, 4))
            if sum(mults) + m > 9:
                break
            mults.append(m)
            if rng.random() < 0.25:
                break
        while True:
            want = scale * (rng.standard_normal(len(mults)) + 1j * rng.standard_normal(len(mults)))
            if all(abs(x - y) >= 0.5 for i, x in enumerate(want) for y in want[i + 1:]):
                break
        lead = complex(rng.standard_normal(), rng.standard_normal())
        yield poly_from_roots([r for r, m in zip(want, mults) for _ in range(m)], leading=lead), want, mults


@pytest.mark.parametrize("seed, scale", MULTIPLICITY_SAMPLES)
def test_seeded_multiplicities_come_back_exactly(seed, scale):
    # at scale 1.0 seeds 2, 3 and 9 hold ill-conditioned double roots near triple ones
    for p, want, mults in _multiplicity_samples(seed, scale):
        got = _matches_reference(p)
        assert len(got) == len(mults)
        for r, m in zip(want, mults):
            dist, mult = min((abs(z - r), k) for z, k in got)
            assert dist < 1e-3 and mult == m


def _reference_aberth_roots(p, how=None):
    """The Aberth loop with three polyval calls per sweep: the kernel's oracle.

    ``how``, a dict, receives the sweep and the rule the loop returned by
    ("simple", "polish" or "step")."""
    how = {} if how is None else how
    tol = DEFAULT_TOL.root_residual
    zero_mult, q = _peel_zeros(p)
    roots = [0j] * zero_mult
    n = q.degree
    if n == 0:
        return roots
    coef = q.coef
    an = coef[-1]
    companion = np.diag(np.ones(n - 1, dtype=complex), -1)
    companion[0] = -coef[-2::-1] / an
    z = np.linalg.eigvals(companion)
    radius = 1.0 + float(np.max(np.abs(coef[:-1] / an)))
    ks = np.arange(n)
    dq = q.derivative()
    coef_abs = np.abs(coef)
    scale_floor = np.max(coef_abs) * 1e-30
    polish = 0
    for sweep in range(400):
        pz = q.eval_many(z)
        scale = np.maximum(np.polynomial.polynomial.polyval(np.abs(z), coef_abs), scale_floor)
        converged = np.max(np.abs(pz) / scale) <= tol
        if converged:
            if sweep and np.all(_disk_gaps(abs(q.coef[-1]), z, pz, scale) > 0):
                how.update(exit=("simple", sweep))
                return roots + [complex(v) for v in z]
            polish += 1
            if polish > 48:
                how.update(exit=("polish", sweep))
                return roots + [complex(v) for v in z]
        dpz = dq.eval_many(z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dpz != 0, pz / np.where(dpz == 0, 1, dpz), 0.1 + 0.1j)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            s = inv.sum(axis=1)
            denom = 1.0 - newton * s
            step = np.where(np.abs(denom) > 1e-300, newton / np.where(denom == 0, 1, denom), newton)
        bad = ~np.isfinite(step)
        if np.any(bad):
            step = np.where(bad, 0.1 * radius * np.exp(1j * ks), step)
        nz = z - step
        if converged and np.max(np.abs(step) / (1.0 + np.abs(z))) <= 1e-15:
            how.update(exit=("step", sweep))
            return roots + [complex(v) for v in nz]
        z = nz
    raise RootFindingError("reference did not converge")


def _reference_poly_roots(p, roots):
    """Multiplicities from the closure of touching disks around the
    reference's ``roots`` of ``p``, whichever way the sweeps ended."""
    zero_mult, q = _peel_zeros(p)
    out = [(0j, zero_mult)] if zero_mult else []
    z = np.asarray(roots[zero_mult:])
    if not z.size:
        return out
    scale = np.polynomial.polynomial.polyval(np.abs(z), np.abs(q.coef))
    reach = ~(_disk_gaps(abs(q.coef[-1]), z, q.eval_many(z), scale) > 0)
    np.fill_diagonal(reach, True)
    for _ in range(len(z).bit_length()):
        reach = reach @ reach
    for i in np.flatnonzero(reach.argmax(axis=1) == np.arange(len(z))):
        out.append((complex(z[reach[i]].mean()), int(reach[i].sum())))
    return out


def _matches_reference(p, how=None):
    """``poly_roots(p)``, after asserting it and ``aberth_roots(p)`` bitwise
    equal to the references (``how`` as for the root reference, and it also
    receives them as "want" and "ref")."""
    how = {} if how is None else how
    want = _reference_aberth_roots(p, how)
    assert np.array(aberth_roots(p)).tobytes() == np.array(want).tobytes()
    got, ref = poly_roots(p), _reference_poly_roots(p, want)
    how.update(want=want, ref=ref)
    assert [m for _, m in got] == [m for _, m in ref]
    assert np.array([z for z, _ in got]).tobytes() == np.array([z for z, _ in ref]).tobytes()
    return got


def test_root_finders_match_the_three_polyval_reference_bitwise():
    # complex and real coefficients (real roots carry signed zeros), exact
    # zero roots, multiple roots, and the degree-9 intersection polynomials
    rng = np.random.default_rng(41)
    multiple = 0
    by_degree = {}
    for k in range(3000):
        n = int(rng.integers(1, 13))
        if k % 30 == 0:
            roots = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            roots[: n // 2] = roots[0]
            roots[n - n // 3:] = 0
            p = poly_from_roots(roots, leading=complex(*rng.standard_normal(2)))
        else:
            coef = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-2, 3, n + 1)
            if k % 3:
                coef = coef + 1j * rng.standard_normal(n + 1)
            if k % 7 == 0:
                coef[: int(rng.integers(1, n + 1))] = 0
            p = Poly(coef)
        how = {}
        multiple += any(m > 1 for _, m in _matches_reference(p, how))
        zero_mult, q = _peel_zeros(p)
        if q.degree:
            by_degree.setdefault(q.degree, []).append((zero_mult, q, how))
    assert multiple >= 100
    # the same rests in stacks of up to 16 rows of one degree: each row is
    # its reference, whichever sweep and rule it left the stack by (the
    # references computed above)
    mixed = set()
    for rows in by_degree.values():
        for i in range(0, len(rows), 16):
            stack = rows[i:i + 16]
            results = _aberth_many([q for _, q, _ in stack], DEFAULT_TOL.root_residual, 400)
            for (zero_mult, q, how), (roots, simple) in zip(stack, results):
                want = how["want"]
                assert np.array([0j] * zero_mult + roots).tobytes() == np.array(want).tobytes()
                assert simple == (how["exit"][0] == "simple")
                got, ref = _multiset(zero_mult, q, roots, simple), how["ref"]
                assert [m for _, m in got] == [m for _, m in ref]
                assert np.array([z for z, _ in got]).tobytes() == np.array([z for z, _ in ref]).tobytes()
            exits = {how["exit"] for _, _, how in stack}
            if len({sweep for _, sweep in exits}) > 1:
                mixed |= {rule for rule, _ in exits}
    assert mixed == {"simple", "polish", "step"}
    for seed in range(60):
        c = random_construct(seed)
        assert len(_matches_reference(c.q.f.compose_map(c.p.gamma).trim(rel=1e-12))) == 9
        assert len(_matches_reference(c.p.f.compose_map(c.q.gamma).trim(rel=1e-12))) == 9


def test_exact_zero_roots_come_back_as_one_root():
    assert sorted_roots(poly_roots(poly_from_roots([0, 0, 1]))) == [((0.0, 0.0), 2), ((1.0, 0.0), 1)]
    assert sorted_roots(poly_roots(Poly([0, 0, 1, 1]))) == [((-1.0, 0.0), 1), ((0.0, 0.0), 2)]


def test_failed_eigensolve_is_loud():
    with pytest.raises(RootFindingError):
        aberth_roots(Poly([float("nan"), 1.0]))


def test_a_failed_row_leaves_the_rest_of_its_stack_alone(monkeypatch):
    # a non-finite companion and a triple root still polishing after six
    # sweeps fail in their own rows; the others are their solo solves
    rng = np.random.default_rng(8)
    good = [Poly(rng.standard_normal(4) + 1j * rng.standard_normal(4)) for _ in range(3)]
    stack = [good[0], Poly([float("nan"), 1.0, 1.0, 1.0]), good[1], poly_from_roots([0.5 + 1j] * 3), good[2]]
    tol = DEFAULT_TOL.root_residual
    alone = [_aberth_many([q], tol, 6)[0] for q in stack]
    together = _aberth_many(stack, tol, 6)
    # LAPACK failing on the stacked call: every row is then solved alone
    eigvals = np.linalg.eigvals

    def stack_refused(a):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("stack refused for the test")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", stack_refused)
    refused = _aberth_many(stack, tol, 6)
    monkeypatch.undo()
    for results in (together, refused):
        nan_row, slow_row = results[1], results[3]
        assert isinstance(nan_row, RootFindingError) and "companion eigenvalues failed (degree 3)" in str(nan_row)
        assert isinstance(slow_row, RootFindingError) and "within 6 iterations (degree 3)" in str(slow_row)
        for i in (0, 2, 4):
            roots, simple = results[i]
            assert (roots, simple) == alone[i]
            assert np.array(roots).tobytes() == np.array(_reference_aberth_roots(stack[i])).tobytes()
    with pytest.raises(RootFindingError, match="within 6 iterations"):
        aberth_roots(stack[3], max_iter=6)


def test_one_batch_solves_each_polynomial_as_alone():
    # shuffled degrees 1 to 9 with exact zero roots, monomials whose rest is
    # a constant, and the two rows that fail: a non-finite companion, which
    # makes LAPACK refuse its whole stack, and a triple root still polishing
    # after six sweeps
    rng = np.random.default_rng(23)
    ps = []
    for n in range(1, 10):
        for zeros in range(3):
            coef = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            coef[: min(zeros, n - 1)] = 0
            ps.append(Poly(coef))
    nan_row, slow_row = Poly([float("nan"), 1.0, 1.0, 1.0]), poly_from_roots([0.5 + 1j] * 3)
    ps += [Poly([0, 0, 0, 2]), Poly([0, 5j]), nan_row, slow_row]
    ps = [ps[i] for i in rng.permutation(len(ps))]
    results = _solves(ps, None, 6)
    assert len(results) == len(ps)
    assert {_peel_zeros(p)[1].degree for p in ps} == set(range(10))
    for p, result in zip(ps, results):
        if p is nan_row or p is slow_row:
            with pytest.raises(RootFindingError) as alone:
                aberth_roots(p, max_iter=6)
            assert isinstance(result, RootFindingError) and str(result) == str(alone.value)
            continue
        zero_mult, q, roots, _ = result
        want_mult, want_q = _peel_zeros(p)
        assert zero_mult == want_mult and q.coef.tobytes() == want_q.coef.tobytes()
        solo = aberth_roots(p, max_iter=6)
        assert len(solo) == p.trim().degree
        assert np.array([0j] * zero_mult + roots).tobytes() == np.array(solo).tobytes()
        got, want = _multiset(*result), poly_roots(p)
        assert [m for _, m in got] == [m for _, m in want]
        assert np.array([z for z, _ in got]).tobytes() == np.array([z for z, _ in want]).tobytes()
    assert "companion eigenvalues failed (degree 3)" in str(results[ps.index(nan_row)])
    assert "within 6 iterations (degree 3)" in str(results[ps.index(slow_row)])


def test_nonconvergence_is_loud():
    with pytest.raises(ValidationError):
        aberth_roots(Poly([1.0]))
    with pytest.raises(RootFindingError):
        aberth_roots(Poly([1, 1]), max_iter=0)


def test_mobius_triple_and_inverse():
    m = mobius_from_triple(1, 2, 3)
    assert abs(m(1)) < 1e-12 and is_inf(m(2)) and abs(m(3) - 1) < 1e-12
    ident = mobius_from_triple(0, INF, 1)
    assert abs(ident(0.5) - 0.5) < 1e-12 and is_inf(ident(INF))
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(m.inverse()(m(z)) - z) <= 1e-12 * max(1.0, abs(z))


def test_mobius_group_laws():
    rng = np.random.default_rng(9)
    a = Mobius(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = Mobius(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for _ in range(20):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(a.compose(b)(z) - a(b(z))) < 1e-12 * max(1.0, abs(a(b(z))))


def test_mobius_rejects_coincident_points():
    with pytest.raises(ValidationError):
        mobius_from_triple(1.0, 1.0 + 1e-15, 2.0)


def rational_divisor(num, den):
    """Divisor of the rational function num/den, infinity by degree deficit.

    Zeros of numerator and denominator are found separately and cancelled
    cluster-wise, so common factors (up to the root-finder accuracy) drop
    out.
    """
    num, den = num.trim(), den.trim()
    pts = poly_roots(num) if num.degree >= 1 else []
    if den.degree >= 1:
        pts += [(z, -m) for z, m in poly_roots(den)]
    pts.append((INF, den.degree - num.degree))
    return Divisor(pts).merged()


def test_divisor_of_scale_function():
    # n^2 (t - n) / (t - 2n)^3 at n = 2: zeros {2, inf x2}, poles {4 x3}
    n = 2.0
    num = (n**2) * Poly([-n, 1])
    den = Poly([-2 * n, 1]) ** 3
    div = rational_divisor(num, den)
    # a triple root is only locatable to about eps**(1/3)
    entries = {("inf" if is_inf(z) else round(z.real, 4)): m for z, m in div.points}
    assert entries == {2.0: 1, 4.0: -3, "inf": 2}
    assert div.degree() == 0


def test_divisor_of_auxiliary_function():
    # (t - n)/(t - 1)^2 at n = 2: [inf] + [2] - 2[1]
    div = rational_divisor(Poly([-2, 1]), Poly([-1, 1]) ** 2)
    entries = {("inf" if is_inf(z) else round(z.real, 6)): m for z, m in div.points}
    assert entries == {2.0: 1, 1.0: -2, "inf": 1}


def test_divisor_constant_is_empty():
    assert rational_divisor(Poly([3.0]), Poly([1.5])).points == []


def test_divisor_degree_zero_randomized():
    rng = np.random.default_rng(21)
    for _ in range(10):
        num = poly_from_roots(rng.standard_normal(int(rng.integers(1, 6))))
        den = poly_from_roots(rng.standard_normal(int(rng.integers(1, 6))) + 0.5)
        assert rational_divisor(num, den).degree() == 0


def test_divisor_split_and_merge():
    d = Divisor([(1.0, 2), (1.0 + 1e-12, -1), (3.0, 1), (INF, 1)])
    merged = d.merged()
    assert merged.degree() == 3
    mults, off = merged.split_at([1.0, 3.0])
    assert mults == [1, 1]
    assert len(off.points) == 1 and is_inf(off.points[0][0])


def _merged_by_scalar_chordal(d, radius):
    clusters = []
    for z, m in d.points:
        for members in clusters:
            if chordal(z, members[0][0]) <= radius:
                members.append((z, m))
                break
        else:
            clusters.append([(z, m)])
    out = []
    for members in clusters:
        total = sum(m for _, m in members)
        if total:
            pts = [z for z, _ in members]
            out.append((INF if any(map(is_inf, pts)) else complex(np.mean(pts)), total))
    return out


def test_divisor_merge_matches_scalar_chordal_reference():
    rng = np.random.default_rng(13)
    radius = 1e-7
    for _ in range(50):
        base = list(rng.standard_normal(6) * 10.0 ** rng.integers(-2, 4, 6) + 1j * rng.standard_normal(6))
        base.append(INF)
        pts = []
        for _ in range(int(rng.integers(1, 25))):
            z = base[int(rng.integers(len(base)))]
            if not is_inf(z):
                z = z + complex(*rng.standard_normal(2)) * radius * rng.choice([0.1, 0.4, 3.0]) * (1 + abs(z) ** 2)
            elif rng.random() < 0.5:
                z = 1e9 * complex(*rng.standard_normal(2))
            pts.append((z, int(rng.integers(-3, 4))))
        d = Divisor(pts)
        assert d.merged(radius).points == _merged_by_scalar_chordal(d, radius)
    assert Divisor([]).merged().points == []


def test_chordal_metric():
    assert chordal(INF, INF) == 0.0
    assert abs(chordal(0, INF) - 1.0) < 1e-12
    assert chordal(1e9, INF) < 1e-8


def test_jacobian_identity_map():
    fd = finite_diff_jacobian(lambda x: x.copy(), np.array([0.3, -0.2]))
    assert fd.rank == 2
    assert np.allclose(fd.singular_values, [1.0, 1.0], atol=1e-9)


def test_jacobian_analytic_oracle():
    fd = finite_diff_jacobian(lambda x: np.array([x[0] ** 2, x[0] * x[1]]), np.array([1.0, 1.0]))
    assert np.allclose(fd.matrix, [[2.0, 0.0], [1.0, 1.0]], atol=1e-9)
    assert fd.rank == 2
    assert fd.richardson_disagreement < 1e-8


def test_jacobian_rank_deficiency_and_invariance():
    fd = finite_diff_jacobian(lambda x: np.array([x[0], x[0]]), np.array([0.5, 0.5]))
    assert fd.rank == 1
    # rank is invariant under orthogonal recombination of the outputs
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    fd2 = finite_diff_jacobian(lambda x: rot @ np.array([x[0], x[0]]), np.array([0.5, 0.5]))
    assert fd2.rank == 1
    rank, _ = numerical_rank(rot @ fd.matrix)
    assert rank == 1
