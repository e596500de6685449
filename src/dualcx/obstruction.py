"""Gluing data of the first tangent cohomology of a construct, two ways.

What is computed
----------------
The singular locus of the glued surface is a rational curve through one
triple point three times; degree-zero line bundles on it are classified by
three fiber values at the marks (p1, p2, p3) up to a common scale, a
two-dimensional torus.  A construct's first tangent cohomology is such a
bundle, and every claim here is about its class *up to per-coordinate
factors that depend only on the pair of cross-ratio marks (n_p, n_q)*:
that relative normalization is exactly what stays well defined once the
auxiliary trivializations are chosen, and all downstream statements
(consistency across a family with fixed marks, Jacobian ranks, Newton
targets expressed as multiplicative offsets) live at that level.

Route one (closed form) assembles the endpoint formulas: with
s_b(tau) = (tau - 1)/(tau - tau_b),

    value_1 ~ s_b(p1) * Om(vP(p1), vP(p2)) * Om(vQ(q2), vQ(q1)) / (fQ(pN) fP(qN))
    value_2 ~ s_b(p2) * Om(vP(p2), vP(p1)) / fQ(pN)
    value_3 ~ s_b(p3) * Om(vQ(q1), vQ(q2)) / fP(qN)

where Om is the fixed area form on pushed-forward reference tangent
vectors and the f values sit at the opposite nodes (both nonzero by the
construct guards; the pairing that would put each f at its own vanishing
point is the singular variant and is deliberately not used).

Route two (direct pipeline) builds a meromorphic section scale
R = s * s_b * g * h / (fQ|_P * phi^* fP|_Q) against the conormal tensor
frame, with

    s(tau) = n_p * tau (tau - n_p) / (tau - 2 n_p)^3,
    g(tau) = (tau - n_p) / (tau - 1)^2,

computes the full divisor of the section numerically (root finding piece
by piece, plus the exact node / infinity / blowup frame corrections),
cancels everything off the marks with a Moebius-product h (unique up to
one global constant, which the quotient kills), asserts the residual
divisor is exactly [p1] + [p2] + [p3], and reads the three derivative
values at the marks.  The scale s vanishes simply at all three marks and
keeps the same formula in the mark-normalized coordinate for every n_p.

The two routes share the curve data but not the derivation: route one is
endpoint algebra, route two is divisor bookkeeping plus local derivative
extraction.  Their componentwise ratio must be constant along any family
with fixed (n_p, n_q); `consistency_check` measures exactly that, and a
corrupted endpoint formula shows up immediately because the endpoint
values vary along the family while the ratio no longer cancels them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError
from .numerics import (
    INF,
    DEFAULT_TOL,
    Divisor,
    Mobius,
    Poly,
    Tolerances,
    _chordal_matrix,
    _solves,
    _used,
    aberth_roots,  # not called here; bench/test_bench.py checks that the tracer rebinds this alias
    chordal,
    is_inf,
    numerical_rank,
)
from .cubics import (
    MARKS_DRIFT_TOL,
    Construct,
    NodalCubic,
    _affine_moves,
    _partial_composed,
    affine_direction,
    affine_family,  # not called here; bench/test_bench.py checks that the tracer rebinds this alias
    omega,
    random_construct,
)

# ---------------------------------------------------------------------------
# the tau-line helper functions
# ---------------------------------------------------------------------------


def vanishing_scale(tau: complex, n: complex) -> complex:
    """s(tau) = n tau (tau - n) / (tau - 2n)^3: simple zeros at 0, n, infinity.

    In the coordinate tau' = tau / n the formula reads
    tau' (tau' - 1) / (tau' - 2)^3 for every n, which is what makes its
    mark derivatives functions of n alone.  The factor tau matters: the
    variant n^2 (tau - n)/(tau - 2n)^3 takes the value 1/8 at tau = 0
    independently of n and has a double zero at infinity, so it cannot
    serve as a section scale that vanishes simply at all three marks.
    """
    return n * tau * (tau - n) / (tau - 2 * n) ** 3


def scale_derivatives(n: complex) -> tuple[complex, complex, complex]:
    """d(vanishing_scale)/dv at the marks (0, infinity, n).

    Against the reference field v = (tau-1)^2 d/dtau; at infinity the
    chart sigma = 1/tau with v = -(1-sigma)^2 d/dsigma is used.  All three
    depend on n alone and none of them vanishes for admissible n.
    """
    return (1.0 / (8.0 * n), -n, -((n - 1.0) ** 2) / n)


def sb_values(n_p: complex, tau_b: complex) -> tuple[complex, complex, complex]:
    """The extra-point weight (tau - 1)/(tau - tau_b) at the marks 0, inf, n_p."""
    return (1.0 / tau_b, 1.0 + 0.0j, (n_p - 1.0) / (n_p - tau_b))


def lambda_factors(c: Construct) -> tuple[complex, complex, complex]:
    """Tangent-scale ratios across the identification at the three marks.

    lambda_1 compares the reference fields at p3 against q1, lambda_2 at
    p1 against q2, lambda_3 at p2 against q3, all through the derivative
    of the identification map.  Each is a function of (n_p, n_q) alone:
    in mark coordinates the identification is tau_Q = n_q (tau_P - n_p) /
    tau_P, with closed forms

        lambda_1 = n_q (n_p - 1)^2 / n_p,
        lambda_2 = 1 / (n_p n_q),
        lambda_3 = n_p n_q / (n_q - 1)^2,

    which the tests check against this numeric route.
    """
    vp = c.p.v_scale
    vq = c.q.v_scale
    out = []
    for t, s in ((c.t_p3, c.s_q1), (c.t_p1, c.s_q2), (c.t_p2, c.s_q3)):
        num = vp(t) * c.phi.derivative(t)
        den = vq(s)
        if abs(den) < 1e-12 or abs(num) < 1e-14:
            raise GuardError("reference-field-zero", "degenerate tangent comparison across the identification")
        out.append(num / den)
    return tuple(out)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GluingTriple:
    """Three fiber values at the marks, with provenance."""

    values: tuple[complex, complex, complex]
    kind: str                  # 'rows' | 'closed-form' | 'direct-pipeline'
    n_p: complex
    n_q: complex

    def __post_init__(self):
        for v in self.values:
            if v == 0 or not (cmath.isfinite(v.real) and cmath.isfinite(v.imag)):
                raise ValidationError(f"gluing values must be nonzero and finite, got {self.values}")


@dataclass(frozen=True)
class JPoint:
    """Class of a gluing triple in the two-torus: (G2/G1, G3/G1)."""

    g21: complex
    g31: complex

    @staticmethod
    def from_triple(t: GluingTriple) -> "JPoint":
        return JPoint(t.values[1] / t.values[0], t.values[2] / t.values[0])

    def log(self) -> np.ndarray:
        return np.array(
            [cmath.log(self.g21).real, cmath.log(self.g21).imag, cmath.log(self.g31).real, cmath.log(self.g31).imag]
        )

    def ratio(self, other: "JPoint") -> tuple[complex, complex]:
        return (self.g21 / other.g21, self.g31 / other.g31)


@dataclass(frozen=True)
class SBGValues:
    """All endpoint ingredients of the closed form, for inspection and tests."""

    sb: tuple[complex, complex, complex]
    g_p1: complex
    f_q_at_pn: complex
    f_p_at_qn: complex
    om_p12: complex
    om_q21: complex
    om_q3_p3: complex


# ---------------------------------------------------------------------------
# the shared geometric evaluations
# ---------------------------------------------------------------------------


def _pairings(c: Construct) -> dict[str, complex]:
    vp1 = c.p.vpush(c.t_p1)
    vp2 = c.p.vpush(c.t_p2)
    vp3 = c.p.vpush(c.t_p3)
    vq1 = c.q.vpush(c.s_q1)
    vq2 = c.q.vpush(c.s_q2)
    vq3 = c.q.vpush(c.s_q3)
    out = {
        "om_p12": omega(vp1, vp2),
        "om_q21": omega(vq2, vq1),
        "om_q3_p3": omega(vq3, vp3),
    }
    for key, val in out.items():
        if abs(val) < 1e-12:
            raise GuardError("degenerate-pairing", f"vanishing area pairing {key}")
    return out


def eval_main_rows(c: Construct) -> GluingTriple:
    """Raw derivative rows of the uncorrected section at the three marks.

    row_1 = lambda_1 ds/dv(p1) Om(vP(p1), vP(p2)) Om(vQ(q2), vQ(q1))
    row_2 =          ds/dv(p2) Om(vP(p2), vP(p1)) Om(vQ(q3), vP(p3))
    row_3 = lambda_2 lambda_3 ds/dv(p3) Om(vP(p3), vQ(q3)) Om(vQ(q1), vQ(q2))

    in the fixed mark charts; the lambda factors convert the Q-side
    reference vectors into the P-side ones along the identification.
    """
    l1, l2, l3 = lambda_factors(c)
    d1, d2, d3 = scale_derivatives(c.n_p)
    pr = _pairings(c)
    row1 = l1 * d1 * pr["om_p12"] * pr["om_q21"]
    row2 = d2 * (-pr["om_p12"]) * pr["om_q3_p3"]
    row3 = l2 * l3 * d3 * (-pr["om_q3_p3"]) * (-pr["om_q21"])
    return GluingTriple((row1, row2, row3), "rows", c.n_p, c.n_q)


def closed_form_data(c: Construct) -> tuple[JPoint, SBGValues, GluingTriple]:
    """Closed-form gluing data, up to (n_p, n_q)-only per-coordinate factors."""
    pr = _pairings(c)
    f_q_pn = c.q.f_value(c.p.node_point)
    f_p_qn = c.p.f_value(c.q.node_point)
    sb = sb_values(c.n_p, c.tau_b)
    a1 = pr["om_p12"] * pr["om_q21"] / (f_q_pn * f_p_qn)
    a2 = -pr["om_p12"] / f_q_pn
    a3 = -pr["om_q21"] / f_p_qn
    triple = GluingTriple((sb[0] * a1, sb[1] * a2, sb[2] * a3), "closed-form", c.n_p, c.n_q)
    sbg = SBGValues(
        sb=sb,
        g_p1=-c.n_p,
        f_q_at_pn=f_q_pn,
        f_p_at_qn=f_p_qn,
        om_p12=pr["om_p12"],
        om_q21=pr["om_q21"],
        om_q3_p3=pr["om_q3_p3"],
    )
    return JPoint.from_triple(triple), sbg, triple


# ---------------------------------------------------------------------------
# the direct pipeline
# ---------------------------------------------------------------------------


def _poly_div(q: Poly, solved) -> Divisor:
    """Divisor of the trimmed polynomial ``q`` as a rational function
    (infinity by degree), from its result of :func:`_solves`."""
    zero_mult, _, roots, _ = _used(solved)
    return Divisor([(0j, 1)] * zero_mult + [(z, 1) for z in roots] + [(INF, -q.degree)])


def _v_scale_divisor(cubic: NodalCubic) -> Divisor:
    """Divisor of V(t) = L(t)^2 / det: double zero, double pole at infinity."""
    lin = cubic.v_factor.trim()
    if lin.degree == 0:
        return Divisor([])  # flex at the infinite parameter: zeros and poles cancel there
    root = -lin.coef[0] / lin.coef[1]
    return Divisor([(complex(root), 2), (INF, -2)])


def _u_ratio_divisor(cubic: NodalCubic, num: tuple, den: tuple) -> Divisor:
    """Divisor of the conormal scalar u = alpha(v): the reference conormal
    section beta = i_v Omega measured against the d f frame.

    u = V(t) (X'W - XW') / F_Y(gamma): numerically root-found numerator and
    denominator, each a (polynomial, solve) pair; the vertical-tangent zeros
    shared by both cancel in the merge, leaving the double flex zero and the
    two node-preimage poles.
    """
    if den[0].is_zero():
        raise GuardError("chart-degenerate", "the y-partial vanishes along the curve")
    return _v_scale_divisor(cubic) + _poly_div(*num) - _poly_div(*den)


def _infinity_points(wdiv: Divisor) -> Divisor:
    """Infinity points of a cubic from the divisor of its w coordinate:
    the zeros of w, plus the infinite parameter when the degree drops."""
    pts = [(z, m) for z, m in wdiv.points if m > 0]
    deficit = 3 - sum(m for _, m in pts)
    if deficit:
        pts.append((INF, deficit))
    return Divisor(pts)


def _phi_pullback(div: Divisor, phi: Mobius) -> Divisor:
    inv = phi.inverse()
    return Divisor([(inv(z), m) for z, m in div.points])


@dataclass(frozen=True)
class DirectReport:
    """Pipeline internals: the merged divisor, the h correction, the checks."""

    mark_orders: tuple[int, int, int]
    off_points: tuple[tuple[complex, int], ...]
    local_orders: tuple[int, int, int]
    values: tuple[complex, complex, complex]


def _section_polys(c: Construct) -> list[Poly]:
    """The eight polynomials whose divisors :func:`_section_divisor` takes,
    trimmed, in the order it takes them: w of P and of Q, f_Q on P and f_P
    on Q, then the numerator X'W - XW' and the y-partial of u on P and on Q.
    Their degrees after the exact zero roots are 3, 3, 9, 9, 4, 6, 4, 6."""
    polys = [c.p.gamma.w, c.q.gamma.w, c.q.f.compose_map(c.p.gamma), c.p.f.compose_map(c.q.gamma)]
    for cubic in (c.p, c.q):
        polys += [cubic.gamma.nx, _partial_composed(cubic.gamma, cubic.f, 1)]
    return [p.trim() for p in polys]


def _section_divisor(c: Construct, tol: Tolerances, polys: list[Poly], solved: list) -> tuple[Divisor, dict]:
    """Full divisor of the uncorrected section scale times the conormal frame,
    from the construct's :func:`_section_polys` and their :func:`_solves`.

    Pieces, all on the P parameter line (Q-side pieces pulled back through
    the identification):

    * the vanishing scale, the extra-point weight s_b, the auxiliary g;
    * minus the divisors of the two restricted cubic equations;
    * the conormal scalars of both sides against their d f frames;
    * the frame corrections: node zeros, triple poles along the infinity
      points, and one zero per blown-up point (the eight non-chosen
      intersections and b on the P side, the eight on the Q side).
    """
    w_p, w_q, fq_on_p, fp_on_q, num_p, den_p, num_q, den_q = zip(polys, solved)
    tau_p = c.p.tau
    inv_tau = tau_p.inverse()
    t_psi = inv_tau(1.0)
    t_pole = inv_tau(2 * c.n_p)

    pieces: dict[str, Divisor] = {}
    pieces["scale"] = Divisor([(c.t_p1, 1), (c.t_p2, 1), (c.t_p3, 1), (t_pole, -3)])
    pieces["sb"] = Divisor([(t_psi, 1), (c.b_param, -1)])
    pieces["g"] = Divisor([(c.t_p3, 1), (c.t_p2, 1), (t_psi, -2)])

    wdiv_p = _poly_div(*w_p)
    wdiv_q = _poly_div(*w_q)
    pieces["inv_fq_on_p"] = -(_poly_div(*fq_on_p) - wdiv_p.scaled(3))
    pieces["inv_fp_on_q_pulled"] = -_phi_pullback(_poly_div(*fp_on_q) - wdiv_q.scaled(3), c.phi)

    pieces["conormal_p"] = _u_ratio_divisor(c.p, num_p, den_p)
    pieces["conormal_q_pulled"] = _phi_pullback(_u_ratio_divisor(c.q, num_q, den_q), c.phi)

    frame_p = Divisor([(c.t_p1, 1), (c.t_p2, 1), (c.b_param, 1)])
    frame_p = frame_p + Divisor([(t, 1) for k, (t, _) in enumerate(c.intersections) if k != c.n_index])
    frame_p = frame_p + _infinity_points(wdiv_p).scaled(-3)
    pieces["frame_p"] = frame_p

    frame_q = Divisor([(c.s_q1, 1), (c.s_q2, 1)])
    frame_q = frame_q + Divisor([(s, 1) for k, (_, s) in enumerate(c.intersections) if k != c.n_index])
    frame_q = frame_q + _infinity_points(wdiv_q).scaled(-3)
    pieces["frame_q_pulled"] = _phi_pullback(frame_q, c.phi)

    total = Divisor([])
    for d in pieces.values():
        total = total + d
    return total.merged(tol.cluster_radius), pieces


def _build_h(off: Divisor) -> tuple[list[tuple[complex, int]], int]:
    """Moebius-product exponents cancelling the off-mark part.

    Returns finite (point, exponent) factors for h = prod (t - z)^e and the
    implied order at infinity (from the degree imbalance), which must match
    minus the off-part's infinity multiplicity.
    """
    if off.degree() != 0:
        raise GuardError("divisor-imbalance", f"off-mark divisor has degree {off.degree()}, expected 0")
    factors = []
    inf_off = 0
    for z, m in off.points:
        if is_inf(z):
            inf_off = m
        else:
            factors.append((z, -m))
    imbalance = sum(e for _, e in factors)
    if imbalance != inf_off:
        raise GuardError("divisor-imbalance", "h cannot balance the infinity order of the off-mark part")
    return factors, -inf_off


# The three 8-point rings around each mark, in one array: half offsets at
# radius r and r/2 (the local order), integer offsets at r (the value).
_RING_RADII = np.repeat([1.0, 0.5, 1.0], 8)
_RING_OFFSETS = np.concatenate([np.arange(8) + 0.5, np.arange(8) + 0.5, np.arange(8)])


def _ratio_on_ring(c: Construct, h_factors, center: complex, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R on the half-offset rings at radius and radius/2, R/s(tau) on the integer-offset ring.

    R = s s_b g h / (fQ|_P  phi^* fP|_Q) is the section scale itself; the
    correction factor R/s is regular at the marks.  All 24 ring points
    go through in one array pass.
    """
    t = center + radius * _RING_RADII * np.exp(2j * np.pi * _RING_OFFSETS / 8.0)
    tau = c.p.tau.eval_many(t)
    h = np.ones_like(t)
    for z, e in h_factors:
        h = h * (t - z) ** e
    fq = c.q.f.eval_many(*c.p.gamma.affine_many(t), 1.0)
    fp = c.p.f.eval_many(*c.q.gamma.affine_many(c.phi.eval_many(t)), 1.0)
    sb = (tau - 1.0) / (tau - c.tau_b)
    g = (tau - c.n_p) / (tau - 1.0) ** 2
    ratio = sb * g * h / (fq * fp)
    scale = vanishing_scale(tau, c.n_p) * ratio
    return scale[:8], scale[8:16], ratio[16:]


def direct_pipeline_data(c: Construct, tol: Tolerances = DEFAULT_TOL) -> tuple[JPoint, DirectReport, GluingTriple]:
    """Gluing data through the full divisor pipeline.

    Hard assertions, each a failure and never a warning: the off-mark part
    of the section divisor must cancel exactly into the h factors, the
    residual divisor must be exactly one at each mark (checked twice: on
    the clustered divisor and again by local scaling of the evaluated
    scale function), and the final derivative values must be finite and
    nonzero.  A construct runs the pipeline once per ``tol``; a rejection
    is not kept, so a repeated call raises again.  One call is a family of
    one in :func:`_direct_pipelines`: its eight root problems go through
    four Aberth stacks of one or two rows, one per degree.
    """
    return next(_direct_pipelines([c], tol))


def _direct_pipelines(constructs: list[Construct], tol: Tolerances):
    """:func:`direct_pipeline_data` of each construct in turn.

    The pipeline runs in three steps: gather each construct's
    :func:`_section_polys`, solve all of degree >= 1 in one :func:`_solves`
    batch (a constant has no roots), then assemble each construct's divisors
    and values in order.  Constructs that already hold a result for ``tol``
    are skipped.  The first construct whose pipeline fails raises when its
    turn comes, so earlier ones are memoized as their own calls would be,
    and a failed solve raises in its own construct only.
    """
    polys = [None if tol in c.direct_pipelines else _section_polys(c) for c in constructs]
    found = iter(_solves([q for qs in polys if qs for q in qs if q.degree], tol.root_residual, 400))
    for c, qs in zip(constructs, polys):
        solved = [next(found) if q.degree else (0, q, [], True) for q in qs or ()]
        memo = c.direct_pipelines
        if tol not in memo:
            memo[tol] = _direct_pipeline(c, tol, qs, solved)
        yield memo[tol]


def _direct_pipeline(c: Construct, tol: Tolerances, polys: list[Poly], solved: list) -> tuple[JPoint, DirectReport, GluingTriple]:
    total, pieces = _section_divisor(c, tol, polys, solved)
    if total.degree() != 3:
        raise GuardError("divisor-imbalance", f"section divisor has degree {total.degree()}, expected 3")
    marks = list(c.marks_p())
    mark_mults, off = total.split_at(marks, tol.cluster_radius)
    if tuple(mark_mults) != (1, 1, 1):
        raise GuardError(
            "residual-divisor",
            f"section does not vanish simply at the marks: multiplicities {tuple(mark_mults)}, "
            f"off-part {off.points}",
        )
    h_factors, _h_inf = _build_h(off)

    # radius for local work: stay clear of every singularity of every factor
    # (the merged divisor is no guide here: cancelled pairs such as the
    # intersection parameters drop out of it but remain poles of the scalar;
    # points within the cluster radius, chordally as in the divisor merge,
    # are root-found copies of the mark).
    # The order is the growth of mean log|R| from the half-offset ring at
    # r/2 to the one at r, the value the trapezoidal mean of R/s on the
    # integer-offset ring at r.
    all_pts = [c.b_param]
    for piece in pieces.values():
        all_pts += [z for z, _ in piece.points if not is_inf(z)]
    far = _chordal_matrix(marks + all_pts)[: len(marks), len(marks) :] > tol.cluster_radius
    orders = []
    values = []
    rows = eval_main_rows(c)
    for i, mk in enumerate(marks):
        dist = np.abs(mk - np.asarray(all_pts))[far[i]]
        dmin = float(dist.min()) if dist.size else 1.0
        radius = max(1e-8, min(0.05, dmin / 30.0))
        outer, inner, ratio = _ratio_on_ring(c, h_factors, mk, radius)
        orders.append(int(round((np.mean(np.log(np.abs(outer))) - np.mean(np.log(np.abs(inner)))) / np.log(2.0))))
        values.append(rows.values[i] * complex(np.mean(ratio)))
    if tuple(orders) != (1, 1, 1):
        raise GuardError("residual-divisor", f"local vanishing orders {tuple(orders)} differ from (1, 1, 1)")
    triple = GluingTriple(tuple(values), "direct-pipeline", c.n_p, c.n_q)
    report = DirectReport(
        mark_orders=(1, 1, 1),
        off_points=tuple(off.points),
        local_orders=tuple(orders),
        values=tuple(values),
    )
    return JPoint.from_triple(triple), report, triple


# ---------------------------------------------------------------------------
# consistency across a fixed-mark family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    deviation: float
    ratios: tuple[tuple[complex, complex], ...]
    n_p: complex
    n_q: complex


def consistency_check(constructs: list[Construct], tol: Tolerances = DEFAULT_TOL) -> ConsistencyReport:
    """Componentwise ratio of the two routes must be constant on the family.

    All members must share (n_p, n_q) to within MARKS_DRIFT_TOL; the
    report carries the maximal relative deviation of the ratio pair
    against the first member.  The members' direct pipelines solve their
    root problems together, one Aberth stack per degree (four stacks of
    ten rows for a family of five); a member that fails raises in its turn,
    after the members before it are memoized.
    """
    if not constructs:
        raise ValidationError("empty family")
    base = constructs[0]
    for member in constructs[1:]:
        if chordal(member.n_p, base.n_p) > MARKS_DRIFT_TOL or chordal(member.n_q, base.n_q) > MARKS_DRIFT_TOL:
            raise GuardError("marks-drift", "family members have drifting (n_p, n_q)")
    ratios = []
    for member, (jd, _, _) in zip(constructs, _direct_pipelines(constructs, tol)):
        jc = closed_form_data(member)[0]
        ratios.append(jd.ratio(jc))
    base_ratio = ratios[0]
    deviation = 0.0
    for r in ratios[1:]:
        deviation = max(deviation, abs(r[0] / base_ratio[0] - 1.0), abs(r[1] / base_ratio[1] - 1.0))
    return ConsistencyReport(deviation, tuple(ratios), base.n_p, base.n_q)


# Rejected moves one seeded family may draw before it gives up.  Families
# of five on seeds 0-79 and 100-109 reject at most two; a base construct
# whose moves are all rejected would otherwise be retried forever.
MAX_REJECTED_MOVES = 40


def seeded_family(seed: int, size: int, tol: Tolerances = DEFAULT_TOL) -> list[Construct]:
    """A fixed-(n_p, n_q) family: random small moves on both sides.

    A member is ``affine_family(affine_family(base, dir_p, ep), dir_q, eq)``.
    Each round draws the missing moves (ep, eq) as a one-by-one loop would,
    builds them as one batch of ``cubics._affine_moves`` and accepts them in
    order.  Raises GuardError("sampling-exhausted") once MAX_REJECTED_MOVES
    moves have been rejected by the rebuild guards.
    """
    base = random_construct(seed, tol)
    rng = np.random.default_rng(seed + 777)
    dir_p = affine_direction(base, "P")
    dir_q = affine_direction(base, "Q")
    out = [base]
    rejected = 0
    while len(out) < size:
        moves = []
        for _ in range(size - len(out)):
            ep = 0.05 * complex(rng.standard_normal() + 1j * rng.standard_normal())
            eq = 0.05 * complex(rng.standard_normal() + 1j * rng.standard_normal())
            moves.append(((dir_p, ep), (dir_q, eq)))
        for member in _affine_moves(base, moves, tol):
            if not isinstance(member, GuardError):
                out.append(_used(member))
                continue
            rejected += 1
            if rejected >= MAX_REJECTED_MOVES:
                message = f"{rejected} family moves rejected (seed {seed}, last: {member.reason})"
                raise GuardError("sampling-exhausted", message) from member
    return out


# ---------------------------------------------------------------------------
# the class map along the affine families; Jacobian rank and the scan
# ---------------------------------------------------------------------------


class FamilyClassMap:
    """The closed-form class along the two affine families, explicitly.

    x = (Re eps_p, Im eps_p, Re eps_q, Im eps_q) moves P by A_p and Q by
    A_q, the maps of ``affine_direction(c, side).map_at``.  Both are
    volume preserving and fix the chosen intersection, so the pairings,
    n_p, n_q and tau_b do not change; the moved equations are f o A^-1
    and the moved nodes A pN, A qN.  The class offset is therefore the
    log of

        g21 ratio = f_P(A_p^-1 A_q qN) / f_P(qN),
        g31 ratio = f_Q(A_q^-1 A_p pN) / f_Q(pN),

    which is what re-deriving both constructs with ``affine_family`` and
    ``closed_form_data`` gives, without any root solve.  The map is
    holomorphic in (eps_p, eps_q); ``jacobian`` is exact.
    """

    def __init__(self, c: Construct):
        self.dir_p = affine_direction(c, "P")
        self.dir_q = affine_direction(c, "Q")
        self.f_p = c.p.f
        self.f_q = c.q.f
        self.p_node = c.p.node_point
        self.q_node = c.q.node_point
        self.base_values = (c.p.f_value(self.q_node), c.q.f_value(self.p_node))

    def _evaluate(self, x: np.ndarray):
        """Both moves at x, the two read-off points and f_P, f_Q there."""
        a_p = self.dir_p.map_at(complex(x[0], x[1]))
        a_q = self.dir_q.map_at(complex(x[2], x[3]))
        inv_p, inv_q = a_p.inverse(), a_q.inverse()
        y21 = inv_p(a_q(self.q_node))
        y31 = inv_q(a_p(self.p_node))
        values = (self.f_p.affine(y21[0], y21[1]), self.f_q.affine(y31[0], y31[1]))
        for v in values:
            if v == 0 or not cmath.isfinite(v):
                raise GuardError("node-on-curve", "a moved node reached the other cubic")
        return inv_p, inv_q, y21, y31, values

    def __call__(self, x: np.ndarray) -> np.ndarray:
        *_, (v21, v31) = self._evaluate(x)
        return JPoint(v21 / self.base_values[0], v31 / self.base_values[1]).log()

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Real 4x4 Jacobian of the offset, from the complex 2x2 one.

        Entry (row, eps) is grad f(y) . dy/deps / f(y).  Along its own
        family the generator is constant, so d(A_p^-1 z)/d eps_p =
        -generator_p(y); the other family enters through the linear part
        of the outer inverse: d(A_p^-1 A_q qN)/d eps_q = A_p^-1 generator_q(qN).
        """
        inv_p, inv_q, y21, y31, values = self._evaluate(x)
        rows = (
            (self.f_p, y21, -self.dir_p.generator_at(y21), inv_p.matrix() @ self.dir_q.generator_at(self.q_node)),
            (self.f_q, y31, inv_q.matrix() @ self.dir_p.generator_at(self.p_node), -self.dir_q.generator_at(y31)),
        )
        jac = np.zeros((4, 4))
        for i, ((f, y, dy_p, dy_q), value) in enumerate(zip(rows, values)):
            grad = np.asarray(f.gradient(y[0], y[1], 1.0)[:2])
            for j, dy in enumerate((dy_p, dy_q)):
                d = complex(grad @ dy) / value
                jac[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = [[d.real, -d.imag], [d.imag, d.real]]
        return jac


def _rebuilt_offset(c: Construct, cmap: FamilyClassMap, base: JPoint, x: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The class offset at x re-derived from scratch: two guarded rebuilds.

    The slow route that certifies the explicit map: the ``affine_family``
    moves of P, then Q (a side at eps = 0 stays), as one move of
    ``cubics._affine_moves``, re-solve the intersections and run every
    construct guard under ``tol``; ``closed_form_data`` reads the class off
    the result.
    """
    steps = ((cmap.dir_p, complex(x[0], x[1])), (cmap.dir_q, complex(x[2], x[3])))
    member = _used(_affine_moves(c, [[(d, eps) for d, eps in steps if eps != 0]], tol)[0])
    return JPoint(*closed_form_data(member)[0].ratio(base)).log()


def _certified_residual(c: Construct, cmap: FamilyClassMap, base: JPoint, x: np.ndarray, target: np.ndarray, tol: Tolerances) -> float:
    """Distance to target on the rebuild route; inf if a guard rejects x."""
    try:
        return float(np.linalg.norm(_rebuilt_offset(c, cmap, base, x, tol) - target))
    except GuardError:
        return float("inf")


@dataclass(frozen=True)
class JacobianReport:
    rank: int
    singular_values: tuple[float, ...]


def jacobian_rank(c: Construct, tol: Tolerances = DEFAULT_TOL) -> JacobianReport:
    """Rank of the derivative of the closed-form class along the family.

    Four real directions (complex moves of each side, the maps fixing the
    identification point and the opposite node); the rank comes from the
    singular values of the exact real 4x4 Jacobian of the log class at the
    construct.  Full rank four is the numeric form of smooth fibers of
    complex rank two.
    """
    rank, s = numerical_rank(FamilyClassMap(c).jacobian(np.zeros(4)), tol.rank_tol)
    return JacobianReport(rank, tuple(float(v) for v in s))


@dataclass(frozen=True)
class ScanTarget:
    target: tuple[complex, complex]
    reached: bool
    iterations: int
    residual: float


@dataclass(frozen=True)
class ScanReport:
    targets: tuple[ScanTarget, ...]

    @property
    def all_reached(self) -> bool:
        return all(t.reached for t in self.targets)


def surjectivity_scan(
    seed: int,
    n_targets: int = 20,
    tol: float = 1e-8,
    max_log_offset: float = 1.0,
    construct: Construct | None = None,
    tolerances: Tolerances = DEFAULT_TOL,
) -> ScanReport:
    """Newton continuation onto multiplicative targets in the class torus.

    Targets are offsets exp(zeta) relative to the starting class (the
    class itself is only defined up to (n_p, n_q) factors, so offsets are
    the well-posed notion).  Newton runs on the four family parameters of
    the explicit class map with its exact Jacobian, damped by halving.
    Each landing is then certified: both constructs are rebuilt with the
    guarded ``affine_family`` route under ``tolerances``, and ``reached``
    and ``residual`` come from that rebuild alone (a guard rejection there
    is an unreached target with infinite residual).  Failures are reported
    as data, not hidden.
    """
    c = construct if construct is not None else random_construct(seed, tolerances)
    rng = np.random.default_rng(seed + 313)
    cmap = FamilyClassMap(c)
    base = closed_form_data(c)[0]
    results = []
    for _ in range(n_targets):
        z1 = max_log_offset * rng.uniform(0.2, 1.0) * cmath.exp(2j * cmath.pi * rng.uniform())
        z2 = max_log_offset * rng.uniform(0.2, 1.0) * cmath.exp(2j * cmath.pi * rng.uniform())
        target = np.array([z1.real, z1.imag, z2.real, z2.imag])
        x, ok, iters, _ = _continuation_solve(cmap, cmap.jacobian, target, tol)
        res = _certified_residual(c, cmap, base, x, target, tolerances)
        if ok and not res <= tol:
            # the map and the rebuild differ by ~1e-11, so a landing just
            # under tol on the map can miss it on the rebuild: one more step
            try:
                x = x + np.linalg.solve(cmap.jacobian(x), target - cmap(x))
            except (GuardError, np.linalg.LinAlgError):
                pass
            else:
                iters += 1
                res = _certified_residual(c, cmap, base, x, target, tolerances)
        results.append(ScanTarget((complex(z1), complex(z2)), res <= tol, iters, res))
    return ScanReport(tuple(results))



def _newton_to(f, jac, x0: np.ndarray, target: np.ndarray, tol: float) -> tuple[np.ndarray, bool, int, float]:
    x = x0.copy()
    used = 0
    res = float("inf")
    for _ in range(20):
        used += 1
        try:
            val = f(x)
        except GuardError:
            return x, False, used, res
        res = float(np.linalg.norm(val - target))
        if res <= tol:
            return x, True, used, res
        try:
            step = np.linalg.solve(jac(x), target - val)
        except (GuardError, np.linalg.LinAlgError):
            return x, False, used, res
        lam = 1.0
        improved = False
        for _ in range(8):
            try:
                trial = f(x + lam * step)
            except GuardError:
                lam *= 0.5
                continue
            if np.linalg.norm(trial - target) < res:
                x = x + lam * step
                improved = True
                break
            lam *= 0.5
        if not improved:
            return x, False, used, res
    return x, False, used, res


def _continuation_solve(f, jac, target: np.ndarray, tol: float) -> tuple[np.ndarray, bool, int, float]:
    """Walk the target in from zero, Newton-solving each stage.

    The map is locally invertible but a full-size step can leave the guard
    region; staging keeps every Newton start inside the basin.  The stage
    size adapts: it halves on failure and grows back on success.  Total
    work is capped at 400 Newton steps so unreachable targets fail in
    bounded time.
    """
    x = np.zeros(4)
    achieved = 0.0
    stage = 1.0
    total_iters = 0
    res = float("inf")
    while achieved < 1.0:
        frac = min(1.0, achieved + stage)
        x_new, ok, used, res = _newton_to(f, jac, x, frac * target, tol)
        total_iters += used
        if total_iters > 400:
            return x, False, total_iters, res
        if ok:
            x = x_new
            achieved = frac
            stage = min(1.0, stage * 1.6)
        else:
            stage *= 0.5
            if stage < 1.0 / 64.0:
                return x, False, total_iters, res
    return x, True, total_iters, res
