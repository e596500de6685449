"""Parametrized nodal plane cubics and two-cubic constructs.

Conventions
-----------
Cubics are parametrization-first: a curve is a degree-3 map from the
projective line, stored as three binary cubics (X, Y, W).  The implicit
equation and the node come from the map's moving-line basis (mu-basis),
read off the coefficients of (X, Y, W) with no sampling; every other
derived quantity (flexes, intersections) reduces to one-variable root
finding.
Each map keeps one table of its monomials X^a Y^b W^g per degree (two
and three), built on first use; every composition of a ternary form with
the map reads from it.

The affine chart is fixed once and for all: coordinates (x, y) = (X/W,
Y/W), the line at infinity is W = 0, and the area form is dx ^ dy.
Genericity with respect to this chart is enforced by guards, never by
re-choosing the chart.

The residue convention: along a curve f = 0 the 2-form (dx ^ dy)/f has
residue 1-form alpha with alpha = dx / (df/dy) on the curve, i.e.
alpha(v) = (dx ^ dy)(v, w) / df(w) for any transverse w.  Pulled back
through the parametrization, alpha(d/dt) = (X'W - XW') / F_Y(X, Y, W):
the W-powers cancel, so both numerator and denominator are honest
polynomials in t.  The implicit equation is scaled so alpha has residue
exactly +1 at the first node preimage of the chosen ordering; the residue
at the other preimage is then -1.

Flex choice: a nodal cubic has three smooth flexes.  The selection rule
is fixed and recorded: for each flex phi compute w = (phi - u1)/(phi - u2)
(u1, u2 the node preimages) and the scale-free ratio r = w^2 / (product
of the other two w's); pick the flex whose r is lexicographically least
by (real part, imaginary part).  The rule is invariant under plane affine
maps and under reparametrization; it is a declared convention, nothing
forces it.

Tangent scales: tau is the coordinate with tau(p1) = 0, tau(p2) =
infinity, tau(flex) = 1, and the reference vector field is
v = (tau - 1)^2 d/dtau.  In the parameter chart v = V(t) d/dt with
V(t) = ((a - c) t + (b - d))^2 / det for tau = (a t + b)/(c t + d), a
polynomial, so v is evaluable everywhere including the preimage of
tau = infinity (where the chart swap sigma = 1/tau gives
v = -(1 - sigma)^2 d/dsigma, finite and nonzero).

Degenerate configurations are rejected with named guards, never
perturbed: the moduli space being sampled is open, so rejection sampling
is cheap and silent perturbation would corrupt derivative tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DualcxError, GuardError, ValidationError
from .numerics import (
    INF,
    DEFAULT_TOL,
    Mobius,
    Poly,
    Tolerances,
    _caught,
    _multiset,
    _solves,
    _used,
    aberth_roots,  # not called here; bench/test_bench.py checks that the tracer rebinds this alias
    chordal,
    is_inf,
    mobius_from_triple,
    poly_from_roots,
)

# ---------------------------------------------------------------------------
# ternary cubic forms
# ---------------------------------------------------------------------------

MONOMIALS: tuple[tuple[int, int, int], ...] = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)


def _compose_terms(table, terms) -> Poly:
    """``sum c X^a Y^b W^g`` over the ``((a, b, g), c)`` in ``terms``, in their order, read from ``table``."""
    out = 0.0
    for mon, c in terms:
        out = out + table[mon] * c  # array * scalar as in Poly's scalar product; c * array rounds differently
    return Poly(out)


class TernaryCubic:
    """Homogeneous cubic form in (x, y, w), ten coefficients."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        arr = np.asarray(coef, dtype=complex)
        if arr.shape != (10,):
            raise ValidationError("a ternary cubic has ten coefficients")
        self.coef = arr

    def __call__(self, x: complex, y: complex, w: complex) -> complex:
        out = 0.0 + 0.0j
        for c, (a, b, g) in zip(self.coef, MONOMIALS):
            out += c * x**a * y**b * w**g
        return complex(out)

    def affine(self, x: complex, y: complex) -> complex:
        return self(x, y, 1.0)

    def eval_many(self, x, y, w) -> np.ndarray:
        """Values at arrays of points, term by term as ``__call__``."""
        x, y, w = (np.asarray(v, dtype=complex) for v in (x, y, w))
        return sum(c * x**a * y**b * w**g for c, (a, b, g) in zip(self.coef, MONOMIALS))

    def scaled(self, c: complex) -> "TernaryCubic":
        return TernaryCubic(self.coef * c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coef))

    def partial(self, var: int) -> dict:
        """Partial derivative as a ternary dict (degree two)."""
        out: dict[tuple[int, int, int], complex] = {}
        for c, mon in zip(self.coef, MONOMIALS):
            if mon[var] == 0:
                continue
            key = list(mon)
            key[var] -= 1
            out[tuple(key)] = out.get(tuple(key), 0.0) + c * mon[var]
        return out

    def gradient(self, x: complex, y: complex, w: complex) -> tuple[complex, complex, complex]:
        vals = []
        for var in range(3):
            acc = 0.0 + 0.0j
            for (a, b, g), c in self.partial(var).items():
                acc += c * x**a * y**b * w**g
            vals.append(complex(acc))
        return tuple(vals)

    def compose_map(self, gamma: "CubicMap") -> Poly:
        """The univariate polynomial F(X(t), Y(t), W(t)) along ``gamma``."""
        return _compose_terms(gamma.monomials(3), zip(MONOMIALS, self.coef))


# ---------------------------------------------------------------------------
# the parametrization
# ---------------------------------------------------------------------------


class CubicMap:
    """Degree-3 map to the plane: three binary cubics (X, Y, W)."""

    __slots__ = ("x", "y", "w", "nx", "ny", "_tables")

    def __init__(self, x: Poly, y: Poly, w: Poly):
        for p in (x, y, w):
            if p.degree > 3:
                raise ValidationError("parametrization coordinates have degree at most three")
        self.x, self.y, self.w = x, y, w
        # numerators of the affine derivative: d(X/W)/dt = (X'W - XW')/W^2
        self.nx = x.derivative() * w - x * w.derivative()
        self.ny = y.derivative() * w - y * w.derivative()
        self._tables: dict[int, dict] = {}

    def monomials(self, degree: int) -> dict[tuple[int, int, int], np.ndarray]:
        """Coefficients of ``(X^a Y^b) W^g`` for every exponent triple of ``degree``
        (two or three), zero-padded to the longest; built on first use."""
        if degree not in self._tables:
            powers = [[np.ones(1, dtype=complex), c, np.convolve(c, c), np.convolve(np.convolve(c, c), c)]
                      for c in (self.x.coef, self.y.coef, self.w.coef)]
            mons = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
            prods = [np.convolve(np.convolve(powers[0][a], powers[1][b]), powers[2][g]) for a, b, g in mons]
            rows = np.zeros((len(mons), max(map(len, prods))), dtype=complex)
            for row, v in zip(rows, prods):
                row[: len(v)] = v
            self._tables[degree] = dict(zip(mons, rows))
        return self._tables[degree]

    def hom(self, t: complex) -> np.ndarray:
        return np.array([self.x(t), self.y(t), self.w(t)], dtype=complex)

    def hom_many(self, ts) -> np.ndarray:
        """The homogeneous coordinates at an array of parameters, one row per coordinate."""
        return np.stack([self.x.eval_many(ts), self.y.eval_many(ts), self.w.eval_many(ts)])

    def affine(self, t: complex) -> np.ndarray:
        w = self.w(t)
        if abs(w) == 0.0:
            raise GuardError("point-at-infinity", "parameter maps to the line at infinity")
        return np.array([self.x(t) / w, self.y(t) / w], dtype=complex)

    def affine_many(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """The affine coordinates (x, y) at an array of parameters."""
        w = self.w.eval_many(ts)
        if np.any(w == 0.0):
            raise GuardError("point-at-infinity", "parameter maps to the line at infinity")
        return self.x.eval_many(ts) / w, self.y.eval_many(ts) / w

    def affine_derivative(self, t: complex) -> np.ndarray:
        w = self.w(t)
        if abs(w) == 0.0:
            raise GuardError("point-at-infinity", "derivative requested on the line at infinity")
        return np.array([self.nx(t), self.ny(t)], dtype=complex) / w**2

    def wronskian(self) -> Poly:
        """det(gamma, gamma', gamma''): the inflection form.

        For honest cubics the coefficients above degree three cancel
        identically (multilinearity in the coefficient vectors), so three
        roots remain, some possibly at infinity when the degree drops.
        """
        g = (self.x, self.y, self.w)
        d1 = tuple(p.derivative() for p in g)
        d2 = tuple(p.derivative() for p in d1)
        det = Poly([0.0])
        for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                                ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
            det = det + sign * (g[i] * d1[j] * d2[k])
        return det.trim(rel=1e-10)

    def transformed(self, hom_matrix) -> "CubicMap":
        """Compose with a linear map of the plane (exact on coefficients)."""
        L = np.asarray(hom_matrix, dtype=complex).reshape(3, 3)
        comps = []
        for r in range(3):
            comps.append(L[r][0] * self.x + L[r][1] * self.y + L[r][2] * self.w)
        return CubicMap(*comps)


# ---------------------------------------------------------------------------
# the moving-line basis: implicit equation and node
# ---------------------------------------------------------------------------

# row m, column 9i + 3j + k: one when X_i X_j X_k is the monomial MONOMIALS[m]
_CUBE_TO_MONOMIAL = np.array(
    [[(ijk.count(0), ijk.count(1), ijk.count(2)) == mon for ijk in itertools.product(range(3), repeat=3)] for mon in MONOMIALS],
    dtype=float,
)


def _moving_lines(gammas: list[CubicMap]) -> list:
    """The mu-basis of each map: rows (a, b) and (q0, q1, q2), or the map's
    ``GuardError`` in its place.

    The moving lines p(t) = a + t b and q(t) = q0 + t q1 + t^2 q2 satisfy
    p(t) . gamma(t) = q(t) . gamma(t) = 0 identically.  p spans the
    nullspace of the 5 x 6 coefficient system; q spans the nullspace of
    the 6 x 9 one after two rows make it orthogonal to p and t p.  A
    degree-1 nullspace of dimension above one means the coordinates share
    a factor (the image is a conic, a line or a point).  Each SVD runs once
    over the stack of maps; a stacked ``np.linalg.svd`` is the one-matrix
    call, bit for bit.
    """
    c = np.zeros((len(gammas), 4, 3), dtype=complex)  # row k: the t^k coefficients of (X, Y, W)
    for table, gamma in zip(c, gammas):
        for col, coord in enumerate((gamma.x, gamma.y, gamma.w)):
            table[: len(coord.coef), col] = coord.coef

    def system(degree: int) -> np.ndarray:
        # row j: the t^j coefficient of sum_i line_i . c[j - i]
        m = np.zeros((len(gammas), 4 + degree, 3 * degree + 3), dtype=complex)
        for i in range(degree + 1):
            m[:, i : i + 4, 3 * i : 3 * i + 3] = c
        return m

    _, s, vh = np.linalg.svd(system(1))
    span_p = np.zeros((len(gammas), 2, 9), dtype=complex)
    span_p[:, 0, :6] = span_p[:, 1, 3:] = vh[:, 5]  # conjugate rows: orthogonal to (p, 0) and (0, p)
    q = np.conj(np.linalg.svd(np.concatenate([system(2), span_p], axis=1))[2][:, 8])
    p = np.conj(vh[:, 5])
    return [
        GuardError("degenerate-parametrization", "implicit nullspace has dimension above one")
        if s[k, 4] <= 1e-6 * s[k, 0] else (p[k].reshape(2, 3), q[k].reshape(3, 3))
        for k in range(len(gammas))
    ]


def implicitize(gamma: CubicMap) -> TernaryCubic:
    """Unit cubic form vanishing on the image: the resultant of the mu-basis.

    Res_t(p, q) = (b.X)^2 (q0.X) - (a.X)(b.X)(q1.X) + (a.X)^2 (q2.X),
    a sum of products of linear forms, collected into ``MONOMIALS`` order.
    The held-out ``implicit_residual`` check tests the result independently.
    """
    return _implicit_form(gamma, _moving_lines([gamma])[0])


def _implicit_form(gamma: CubicMap, lines) -> TernaryCubic:
    """:func:`implicitize` from the map's :func:`_moving_lines` row."""
    (a, b), q = _used(lines)
    coef = _CUBE_TO_MONOMIAL @ np.einsum("ni,nj,nk->ijk", np.array([b, a, a]), np.array([b, -b, a]), q).ravel()
    f = TernaryCubic(coef / np.linalg.norm(coef))
    check = implicit_residual(gamma, f)
    if check > 1e-8:
        raise GuardError("implicitization-residual", f"fit residual {check:.2e} above 1.00e-08")
    return f


def implicit_residual(gamma: CubicMap, f: TernaryCubic) -> float:
    """Largest normalized |f(gamma(t))| over 50 held-out sample parameters."""
    ts = 0.93 * np.exp(2j * np.pi * (np.arange(50) + 0.41) / 50) - (0.11 + 0.23j)
    v = gamma.hom_many(ts)
    return float(np.max(np.abs(f.eval_many(*(v / np.linalg.norm(v, axis=0)))))) / f.norm()


def find_node(gamma: CubicMap) -> tuple[complex, complex]:
    """The double point parameters (u, v), u != v, of a 1-nodal cubic.

    Every line p(t) of the mu-basis passes through the singular point
    N = a x b, and q(u) . N = 0 exactly where gamma(u) = N, so the node
    parameters are the roots of the quadratic q(t) . N.  A double root (a
    cusp) or a root at the infinite parameter is rejected.
    """
    (a, b), q = _used(_moving_lines([gamma])[0])
    roots = np.roots((q @ np.cross(a, b))[::-1])
    if len(roots) != 2:
        raise GuardError("not-one-node", "a node preimage sits at the infinite parameter")
    if chordal(roots[0], roots[1]) <= 1e-6:
        raise GuardError("not-one-node", "the node quadratic has a double root (cuspidal cubic)")
    return complex(roots[0]), complex(roots[1])


# ---------------------------------------------------------------------------
# flexes
# ---------------------------------------------------------------------------


# the flex solves' own backward-error target; ``Tolerances`` does not reach it
FLEX_ROOT_TOL = 1e-9


def flexes(gamma: CubicMap, node: tuple[complex, complex] | None = None) -> tuple[complex, complex, complex]:
    """The three smooth flex parameters (possibly including INF).

    Roots of the inflection form; when its degree drops below three the
    missing flexes sit at the infinite parameter.  Flexes colliding with
    each other or with the node preimages reject the input as non-generic.
    """
    w3 = _inflection_form(gamma)
    return _flex_params(w3, _solves([w3], FLEX_ROOT_TOL, 400)[0], node)


def _inflection_form(gamma: CubicMap) -> Poly:
    """The map's Wronskian, guarded before its roots are solved for."""
    w3 = gamma.wronskian()
    if w3.is_zero():
        raise GuardError("degenerate-parametrization", "inflection form vanishes identically")
    if w3.degree > 3:
        raise GuardError("degenerate-parametrization", "inflection form of degree above three")
    if w3.degree == 0:  # all three flexes at the infinite parameter
        raise GuardError("flex-collision", "coincident flexes (non-generic cubic)")
    return w3


def _flex_params(w3: Poly, solved, node) -> tuple[complex, complex, complex]:
    """The guarded flexes of :func:`flexes` from the inflection form and its solve."""
    zero_mult, _, rest, _ = _used(solved)
    roots = [0j] * zero_mult + rest + [INF] * (3 - w3.degree)
    if len(roots) != 3:
        raise GuardError("flex-count", f"found {len(roots)} flex parameters")
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal(roots[i], roots[j]) <= 1e-6:
                raise GuardError("flex-collision", "coincident flexes (non-generic cubic)")
    if node is not None:
        for r in roots:
            for u in node:
                if chordal(r, u) <= 1e-6:
                    raise GuardError("flex-collision", "flex collides with a node preimage")
    return tuple(roots)


def choose_flex(flex_params, u1: complex, u2: complex) -> tuple[complex, str]:
    """Deterministic flex selection (see the module docstring for the rule)."""

    def w_of(phi):
        if is_inf(phi):
            return 1.0 + 0.0j
        return (phi - u1) / (phi - u2)

    ws = [w_of(phi) for phi in flex_params]
    rs = []
    for i in range(3):
        others = [ws[j] for j in range(3) if j != i]
        rs.append(ws[i] ** 2 / (others[0] * others[1]))

    def key(i):
        # primary: the scale-free invariant; ties (curves with a symmetry
        # permuting the flexes) break on w itself, which is injective in
        # the flex and still invariant under plane affine maps
        r, w = rs[i], ws[i]
        return (round(r.real, 9), round(r.imag, 9), w.real, w.imag)

    order = sorted(range(3), key=key)
    if abs(ws[order[0]] - ws[order[1]]) <= 1e-9:
        raise GuardError("flex-choice-ambiguous", "tie in the flex selection invariant")
    return (
        flex_params[order[0]],
        "lex-min (Re, Im) of w_i^2/(w_j w_k), ties by (Re, Im) of w_i, w = (flex - u1)/(flex - u2)",
    )


# ---------------------------------------------------------------------------
# residue normalization
# ---------------------------------------------------------------------------


def residue_at_node_preimage(gamma: CubicMap, f: TernaryCubic, u: complex) -> complex:
    """Residue at t = u of the pulled-back residue form of (dx^dy)/f.

    alpha(d/dt) = (X'W - XW') / F_Y(gamma)  with the chart-swapped formula
    -(Y'W - YW') / F_X(gamma) used when better conditioned; the pole is
    simple so the residue is a ratio of a value and a derivative.
    """
    den_y = _partial_composed(gamma, f, var=1)
    den_x = _partial_composed(gamma, f, var=0)
    dy, dx = den_y.derivative()(u), den_x.derivative()(u)
    scale_y, scale_x = abs(dy), abs(dx)
    if max(scale_y, scale_x) == 0.0:
        raise GuardError("residue-degenerate", "residue form denominator is stationary at the node preimage")
    if scale_y >= scale_x:
        if abs(den_y(u)) > 1e-6 * scale_y * max(1.0, abs(u)):
            raise GuardError("residue-degenerate", "denominator does not vanish at the node preimage")
        return gamma.nx(u) / dy
    if abs(den_x(u)) > 1e-6 * scale_x * max(1.0, abs(u)):
        raise GuardError("residue-degenerate", "denominator does not vanish at the node preimage")
    return -gamma.ny(u) / dx


def _partial_composed(gamma: CubicMap, f: TernaryCubic, var: int) -> Poly:
    return _compose_terms(gamma.monomials(2), f.partial(var).items())


def normalize_residue(gamma: CubicMap, f: TernaryCubic, u_first: complex) -> TernaryCubic:
    """Scale f so the residue at the designated node preimage is exactly one.

    Idempotent: normalizing an already normalized form reproduces it, and
    any prior rescaling of f is absorbed.
    """
    rho = residue_at_node_preimage(gamma, f, u_first)
    if abs(rho) < 1e-14:
        raise GuardError("residue-degenerate", "vanishing residue at the node preimage")
    return f.scaled(rho)


# ---------------------------------------------------------------------------
# the nodal cubic bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodalCubic:
    """A parametrized nodal cubic with all derived choices attached.

    node is the ordered pair of node preimages (the residue normalization
    points at the first); flex_params are all three flexes; psi the chosen
    one; tau the coordinate with (node_1, node_2, psi) at (0, INF, 1).
    """

    gamma: CubicMap
    node: tuple[complex, complex]
    f: TernaryCubic
    flex_params: tuple[complex, complex, complex]
    psi: complex
    flex_rule: str
    tau: Mobius

    @cached_property
    def node_point(self) -> np.ndarray:
        return self.gamma.affine(self.node[0])

    @cached_property
    def v_factor(self) -> Poly:
        """L(t) = (a - c) t + (b - d) for tau = [[a, b], [c, d]], so V = L^2 / det(tau)."""
        (a, b), (c, d) = self.tau.m
        return Poly([b - d, a - c])

    @cached_property
    def v_scale(self) -> Poly:
        """V(t) with v = V(t) d/dt for the reference field (tau-1)^2 d/dtau."""
        (a, b), (c, d) = self.tau.m
        return self.v_factor ** 2 * (1.0 / (a * d - b * c))

    def vpush(self, t: complex) -> np.ndarray:
        """Pushforward of the reference field to the plane at parameter t."""
        return self.v_scale(t) * self.gamma.affine_derivative(t)

    def f_value(self, point: np.ndarray) -> complex:
        return self.f.affine(complex(point[0]), complex(point[1]))


def nodal_cubic(
    gamma: CubicMap,
    node: tuple[complex, complex] | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> NodalCubic:
    """Assemble the full cubic bundle from a parametrization.

    When ``node`` is supplied it is verified rather than searched for.
    All genericity guards live here: exactly one node with transverse
    branches, an immersed parametrization, three distinct flexes, a clean
    residue.
    """
    u1, u2 = node if node is not None else find_node(gamma)
    gu, gv = gamma.hom(u1), gamma.hom(u2)
    cross = np.linalg.norm(np.cross(gu, gv)) / (np.linalg.norm(gu) * np.linalg.norm(gv))
    if cross > 1e-7:
        raise GuardError("node-mismatch", "claimed node parameters have different images")
    if chordal(u1, u2) <= 1e-7:
        raise GuardError("node-mismatch", "node preimages coincide")
    for u in (u1, u2):
        if abs(gamma.w(u)) <= 1e-9 * np.linalg.norm(gamma.hom(u)):
            raise GuardError("point-at-infinity", "node sits on the line at infinity")
    d1, d2 = gamma.affine_derivative(u1), gamma.affine_derivative(u2)
    denom = np.linalg.norm(d1) * np.linalg.norm(d2)
    if denom == 0.0 or abs(d1[0] * d2[1] - d1[1] * d2[0]) <= tol.guard_margin * denom:
        raise GuardError("node-tangential", "node branches are not transverse")

    f_raw = implicitize(gamma)
    # the gradient must vanish at the node image (it is the singular point)
    gx, gy, gw = f_raw.gradient(*(gamma.hom(u1) / np.linalg.norm(gamma.hom(u1))))
    grad_scale = f_raw.norm()
    if max(abs(gx), abs(gy), abs(gw)) > 1e-5 * grad_scale:
        raise GuardError("node-mismatch", "implicit gradient does not vanish at the node")

    f = normalize_residue(gamma, f_raw, u1)
    flex = flexes(gamma, node=(u1, u2))
    psi, rule = choose_flex(flex, u1, u2)
    tau = mobius_from_triple(u1, u2, psi)
    return NodalCubic(gamma=gamma, node=(u1, u2), f=f, flex_params=flex, psi=psi, flex_rule=rule, tau=tau)


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------


def intersect(p: NodalCubic, q: NodalCubic, tol: Tolerances = DEFAULT_TOL) -> tuple[tuple[complex, complex], ...]:
    """The nine intersection parameter pairs (t on P, s on Q).

    Roots of f_Q(gamma_P(t)) matched against roots of f_P(gamma_Q(s)) by
    nearest image point.  Bezout gives nine with multiplicity; clustered
    roots (tangencies) and ambiguous matchings are rejections, not
    warnings.  A batch of one in :func:`_intersections`.
    """
    return _used(_intersections([(p, q)], tol)[0])


def _intersections(pairs: list[tuple[NodalCubic, NodalCubic]], tol: Tolerances) -> list:
    """:func:`intersect` of every pair, each row's result or its error in its
    place: gather both degree-9 compositions per pair, solve all of them in
    one :func:`_solves` call, then match each pair's roots."""
    polys = [_caught(_intersection_polys, p, q) for p, q in pairs]  # either cubic may be a row's error
    solved = iter(_solves([f for fs in polys if not isinstance(fs, DualcxError) for f in fs], tol.root_residual, 400))
    return [
        fs if isinstance(fs, DualcxError) else _caught(_matched, p, q, next(solved), next(solved))
        for (p, q), fs in zip(pairs, polys)
    ]


def _intersection_polys(p: NodalCubic, q: NodalCubic) -> tuple[Poly, Poly]:
    """f_Q along gamma_P and f_P along gamma_Q, each of degree nine."""
    p, q = _used(p), _used(q)
    fq_on_p = q.f.compose_map(p.gamma).trim(rel=1e-12)
    fp_on_q = p.f.compose_map(q.gamma).trim(rel=1e-12)
    if fq_on_p.degree != 9 or fp_on_q.degree != 9:
        raise GuardError("infinity-intersection", "an intersection point sits at the infinite parameter")
    return fq_on_p, fp_on_q


def _matched(p: NodalCubic, q: NodalCubic, solved_t, solved_s) -> tuple[tuple[complex, complex], ...]:
    """The guarded pairs of :func:`intersect` from the solves of its two compositions."""
    ts, ss = _multiset(*_used(solved_t)), _multiset(*_used(solved_s))
    if any(m > 1 for _, m in ts) or any(m > 1 for _, m in ss) or len(ts) != 9 or len(ss) != 9:
        raise GuardError("tangency", "clustered intersection parameters (tangential pair)")
    pts_p = _images(p.gamma, [t for t, _ in ts])
    dist = np.linalg.norm(pts_p[:, None] - _images(q.gamma, [s for s, _ in ss])[None], axis=2)
    pairs = []
    used = set()
    for i, (jbest, jsecond) in enumerate(np.argsort(dist, axis=1, kind="stable")[:, :2]):
        best, second = dist[i, jbest], dist[i, jsecond]
        scale = max(1.0, float(np.linalg.norm(pts_p[i])))
        if best > 1e-7 * scale:
            raise GuardError("intersection-match", "intersection images do not match across the two sides")
        if second < 10 * best + 1e-12 * scale:
            raise GuardError("intersection-match", "ambiguous intersection matching")
        if jbest in used:
            raise GuardError("intersection-match", "two parameters matched the same image")
        used.add(jbest)
        pairs.append((ts[i][0], ss[jbest][0]))
    pairs.sort(key=lambda ts_pair: (ts_pair[0].real, ts_pair[0].imag))
    return tuple(pairs)


def _images(gamma: CubicMap, params) -> np.ndarray:
    """The affine image points of ``params``, one row (x, y) each."""
    return np.stack(gamma.affine_many(params), axis=1)


# ---------------------------------------------------------------------------
# constructs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Construct:
    """Two nodal cubics plus all discrete choices, fully validated.

    Marks on the P parameter line: node preimages (p1, p2) and the chosen
    intersection preimage p3.  phi is the identification of the two
    parameter lines with phi(p1) = q2, phi(p2) = q3, phi(p3) = q1; n_p and
    n_q are tau_P(p3) and tau_Q(q3).  b is an extra marked parameter on P.
    """

    p: NodalCubic
    q: NodalCubic
    intersections: tuple[tuple[complex, complex], ...]
    n_index: int
    b_param: complex
    phi: Mobius
    n_p: complex
    n_q: complex
    tau_b: complex
    seed: int | None = None

    @property
    def t_p1(self) -> complex:
        return self.p.node[0]

    @property
    def t_p2(self) -> complex:
        return self.p.node[1]

    @property
    def t_p3(self) -> complex:
        return self.intersections[self.n_index][0]

    @property
    def s_q1(self) -> complex:
        return self.q.node[0]

    @property
    def s_q2(self) -> complex:
        return self.q.node[1]

    @property
    def s_q3(self) -> complex:
        return self.intersections[self.n_index][1]

    @cached_property
    def n_point(self) -> np.ndarray:
        return self.p.gamma.affine(self.t_p3)

    @cached_property
    def direct_pipelines(self) -> dict:
        """This construct's direct-pipeline results by ``Tolerances``
        (filled by ``obstruction.direct_pipeline_data``)."""
        return {}

    def marks_p(self) -> tuple[complex, complex, complex]:
        return (self.t_p1, self.t_p2, self.t_p3)


def omega(v: np.ndarray, w: np.ndarray) -> complex:
    """The fixed area form dx ^ dy on pushed-forward tangent vectors."""
    return complex(v[0] * w[1] - v[1] * w[0])


def make_construct(
    p: NodalCubic,
    q: NodalCubic,
    intersections: tuple[tuple[complex, complex], ...],
    n_index: int,
    b_param: complex,
    tol: Tolerances = DEFAULT_TOL,
    seed: int | None = None,
) -> Construct:
    """Assemble and guard a construct from a pair and ``intersect(p, q, tol)``.

    Guards (each one a named rejection): neither cubic through the other's
    node; the two nodes and the chosen intersection not collinear; b off
    the special points; the tau-line marks well separated so the reference
    fields stay nonzero where they are evaluated.  The nine transverse
    intersections are guarded by ``intersect`` itself.
    """
    if not (0 <= n_index < 9):
        raise ValidationError("intersection index out of range")
    t3, s3 = intersections[n_index]

    p_n = p.node_point
    q_n = q.node_point
    fq_pn = q.f_value(p_n)
    fp_qn = p.f_value(q_n)
    scale_q = q.f.norm() * max(1.0, float(np.linalg.norm(p_n))) ** 3
    scale_p = p.f.norm() * max(1.0, float(np.linalg.norm(q_n))) ** 3
    if abs(fq_pn) <= tol.guard_margin * scale_q:
        raise GuardError("node-on-curve", "the second cubic passes through the node of the first")
    if abs(fp_qn) <= tol.guard_margin * scale_p:
        raise GuardError("node-on-curve", "the first cubic passes through the node of the second")

    n_pt = p.gamma.affine(t3)
    d1 = q_n - p_n
    d2 = n_pt - p_n
    denom = float(np.linalg.norm(d1) * np.linalg.norm(d2))
    if denom == 0.0 or abs(d1[0] * d2[1] - d1[1] * d2[0]) <= tol.guard_margin * denom:
        raise GuardError("collinear-markers", "the two nodes and the chosen intersection lie on a line (outside the open locus)")

    for special, name in ((p.node[0], "p1"), (p.node[1], "p2"), (t3, "p3")):
        if chordal(b_param, special) <= 1e-5:
            raise GuardError("b-collision", f"extra point b collides with {name}")

    phi = _identification(p, q, t3, s3)
    n_p = p.tau(t3)
    n_q = q.tau(s3)
    tau_b = p.tau(b_param)
    for val, name in ((n_p, "n_p"), (n_q, "n_q")):
        for bad in (0.0, 1.0, INF):
            if chordal(val, bad) <= 1e-3:
                raise GuardError("marks-degenerate", f"{name} too close to {bad}")
    if chordal(2 * n_p, 0.0) <= 1e-3 or chordal(2 * n_p, 1.0) <= 1e-3:
        raise GuardError("marks-degenerate", "auxiliary pole of the vanishing scale collides with a mark")
    for bad in (0.0, 1.0, INF, n_p):
        if chordal(tau_b, bad) <= 1e-3:
            raise GuardError("b-collision", "tau(b) too close to a mark")

    # reference fields must be nonzero at every evaluation point
    for cubic, params in ((p, [p.node[0], p.node[1], t3]), (q, [q.node[0], q.node[1], s3])):
        for t in params:
            if float(np.linalg.norm(cubic.vpush(t))) <= 1e-9:
                raise GuardError("reference-field-zero", "vanishing reference field at a marked point")
        for t in params:
            if abs(cubic.gamma.w(t)) <= 1e-6 * float(np.linalg.norm(cubic.gamma.hom(t))):
                raise GuardError("point-at-infinity", "a marked point sits near the line at infinity")

    return Construct(
        p=p, q=q, intersections=intersections, n_index=n_index, b_param=b_param,
        phi=phi, n_p=n_p, n_q=n_q, tau_b=tau_b, seed=seed,
    )


def _identification(p: NodalCubic, q: NodalCubic, t3: complex, s3: complex) -> Mobius:
    """phi with phi(p1) = q2, phi(p2) = q3, phi(p3) = q1, on parameter lines."""
    mp = mobius_from_triple(p.node[0], p.node[1], t3)
    mq = mobius_from_triple(q.node[1], s3, q.node[0])
    return mq.inverse().compose(mp)


# ---------------------------------------------------------------------------
# random constructs
# ---------------------------------------------------------------------------


def _node_poly_basis(u1: complex, u2: complex, lam: complex) -> tuple[Poly, Poly, Poly]:
    """Basis of the cubics p with p(u1) = lam * p(u2).

    q1 and t*q1 vanish at both parameters; the linear member takes values
    (lam, 1).  The scale lam is an honest modulus: on the lam = 1 slice
    the inflection form provably drops degree (a flex parks at the
    infinite parameter), so generic sampling must draw it too.
    """
    q1 = poly_from_roots([u1, u2])
    beta = (lam - 1.0) / (u1 - u2)
    alpha = lam - beta * u1
    return Poly([alpha, beta]), q1, q1 * Poly([0.0, 1.0])


def _random_nodal_cubic(rng: np.random.Generator, tol: Tolerances) -> NodalCubic:
    """Sample a nodal cubic with its node placed by construction.

    Coordinates are drawn from the three-dimensional space of cubics whose
    values at the two chosen node parameters differ by a fixed random
    projective scale, so gamma(u1) is parallel to gamma(u2) by linear
    algebra and no root search is needed.
    """
    for _ in range(40):
        angle = rng.uniform(0, 2 * np.pi, size=2)
        rad = rng.uniform(0.6, 1.4, size=2)
        u1 = rad[0] * np.exp(1j * angle[0])
        u2 = rad[1] * np.exp(1j * angle[1])
        if chordal(u1, u2) < 0.2:
            continue
        lam = np.exp(0.7 * (rng.standard_normal() + 1j * rng.standard_normal()))
        if abs(lam - 1.0) < 0.2:
            continue
        basis = _node_poly_basis(complex(u1), complex(u2), complex(lam))
        coefs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        comps = []
        for r in range(3):
            acc = Poly([0.0])
            for c, b in zip(coefs[r], basis):
                acc = acc + c * b
            comps.append(acc)
        gamma = CubicMap(*comps)
        try:
            cubic = nodal_cubic(gamma, node=(complex(u1), complex(u2)), tol=tol)
        except GuardError:
            continue
        if any(is_inf(f) or abs(f) > 1e3 for f in cubic.flex_params):
            continue
        return cubic
    raise GuardError("sampling-exhausted", "could not sample a generic nodal cubic")


def random_construct(seed: int, tol: Tolerances = DEFAULT_TOL) -> Construct:
    """Rejection-sample a valid construct from a seeded generator."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        try:
            p = _random_nodal_cubic(rng, tol)
            q = _random_nodal_cubic(rng, tol)
            inters = intersect(p, q, tol)
        except GuardError:
            continue
        # prefer the intersection with the healthiest collinearity margin
        p_n, q_n = p.node_point, q.node_point
        d1 = q_n - p_n

        def margin(k: int) -> float:
            n_pt = p.gamma.affine(inters[k][0])
            d2 = n_pt - p_n
            dd = float(np.linalg.norm(d1) * np.linalg.norm(d2))
            return abs(d1[0] * d2[1] - d1[1] * d2[0]) / dd if dd else 0.0

        order = sorted(range(9), key=margin, reverse=True)
        for n_index in order[:3]:
            for _ in range(6):
                b = complex(rng.standard_normal() + 1j * rng.standard_normal()) * 1.1
                try:
                    return make_construct(p, q, inters, n_index, b, tol, seed=seed)
                except GuardError:
                    continue
    raise GuardError("sampling-exhausted", f"no valid construct after 60 attempts (seed {seed})")


# ---------------------------------------------------------------------------
# affine families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMapPlane:
    """Affine map of the plane, linear part plus shift."""

    linear: tuple[tuple[complex, complex], tuple[complex, complex]]
    shift: tuple[complex, complex]

    def matrix(self) -> np.ndarray:
        return np.asarray(self.linear, dtype=complex)

    def __call__(self, pt: np.ndarray) -> np.ndarray:
        return self.matrix() @ np.asarray(pt, dtype=complex) + np.asarray(self.shift, dtype=complex)

    def homogeneous(self) -> np.ndarray:
        m = self.matrix()
        s = np.asarray(self.shift, dtype=complex)
        return np.array([[m[0, 0], m[0, 1], s[0]], [m[1, 0], m[1, 1], s[1]], [0, 0, 1]], dtype=complex)

    def inverse(self) -> "AffineMapPlane":
        m = np.linalg.inv(self.matrix())
        s = -m @ np.asarray(self.shift, dtype=complex)
        return AffineMapPlane(((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])), (s[0], s[1]))

    def det(self) -> complex:
        m = self.matrix()
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


@dataclass(frozen=True)
class AffineFamilyDirection:
    """One-parameter family of affine maps fixing two prescribed points.

    The generator is the rank-one nilpotent x -> d <d_perp, x - base>,
    with d the vector from the base point to the second fixed point; the
    exponential is then exactly I + eps * generator, volume preserving,
    and both fixed points are fixed by construction (linear algebra, not
    optimization).  side names the cubic the family moves.
    """

    side: str                      # 'P' or 'Q'
    base: tuple[complex, complex]  # the intersection point n
    through: tuple[complex, complex]  # the other fixed point

    def map_at(self, eps: complex) -> AffineMapPlane:
        n = np.asarray(self.base, dtype=complex)
        d = np.asarray(self.through, dtype=complex) - n
        perp = np.array([-d[1], d[0]], dtype=complex)
        m = np.eye(2, dtype=complex) + eps * np.outer(d, perp)
        shift = -eps * np.outer(d, perp) @ n
        return AffineMapPlane(((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])), (shift[0], shift[1]))

    def generator_at(self, pt: np.ndarray) -> np.ndarray:
        n = np.asarray(self.base, dtype=complex)
        d = np.asarray(self.through, dtype=complex) - n
        perp = np.array([-d[1], d[0]], dtype=complex)
        return d * complex(perp @ (np.asarray(pt, dtype=complex) - n))


def affine_direction(c: Construct, side: str) -> AffineFamilyDirection:
    """The family direction used by the rank and surjectivity tests.

    Moving Q fixes the intersection n and the node of P; moving P fixes n
    and the node of Q.  With these choices the moved node crosses the
    level sets of the other cubic transversely exactly when the three
    markers are not collinear, which the construct guards guarantee.
    """
    if side not in ("P", "Q"):
        raise ValidationError("side must be 'P' or 'Q'")
    n_pt = c.n_point
    fixed = c.p.node_point if side == "Q" else c.q.node_point
    return AffineFamilyDirection(side=side, base=(complex(n_pt[0]), complex(n_pt[1])), through=(complex(fixed[0]), complex(fixed[1])))


def transport_cubic(cubic: NodalCubic, a: AffineMapPlane) -> NodalCubic:
    """Move a nodal cubic by a plane affine map.

    The parametrization composes with the map, exactly on coefficients;
    the implicit form is re-derived from the moved map by ``implicitize``
    and residue-normalized at the first node preimage, so the rebuild
    checks the moved equation independently of the original one.  Node
    parameters and flex parameters are untouched by construction; flexes
    are re-derived and matched as an assertion.  A batch of one in
    :func:`_transports`.
    """
    return _used(_transports([(cubic, a)])[0])


def _transports(moves: list[tuple[NodalCubic, AffineMapPlane]]) -> list:
    """:func:`transport_cubic` of every (cubic, map), each row's moved cubic
    or its error in its place: the moved maps' mu-bases in one stack, their
    flexes in one :func:`_solves` call, then each row's guards in order."""
    maps = [cubic.gamma.transformed(a.homogeneous()) for cubic, a in moves]
    forms = [
        _caught(_moved_forms, g2, lines, cubic.node[0])
        for (cubic, _), g2, lines in zip(moves, maps, _moving_lines(maps))
    ]
    solved = iter(_solves([row[1] for row in forms if not isinstance(row, DualcxError)], FLEX_ROOT_TOL, 400))
    return [
        row if isinstance(row, DualcxError) else _caught(_transported, cubic, g2, *row, next(solved))
        for (cubic, _), g2, row in zip(moves, maps, forms)
    ]


def _moved_forms(g2: CubicMap, lines, u: complex) -> tuple[TernaryCubic, Poly]:
    """A moved map's implicit form, residue-normalized at ``u``, and its inflection form."""
    return normalize_residue(g2, _implicit_form(g2, lines), u), _inflection_form(g2)


def _transported(cubic: NodalCubic, g2: CubicMap, f2: TernaryCubic, w3: Poly, solved) -> NodalCubic:
    """The moved cubic, its flexes guarded and its chosen flex tracked."""
    flex2 = _flex_params(w3, solved, cubic.node)
    psi2 = next((phi for phi in flex2 if chordal(phi, cubic.psi) <= 1e-6), None)
    if psi2 is None:
        raise GuardError("flex-tracking", "flex parameters moved under an affine transport")
    tau2 = mobius_from_triple(cubic.node[0], cubic.node[1], psi2)
    return NodalCubic(
        gamma=g2, node=cubic.node, f=f2, flex_params=flex2, psi=psi2,
        flex_rule=cubic.flex_rule, tau=tau2,
    )


# n_p and n_q are transported exactly; a rebuild that moves them more
# than this (chordally) has re-identified the wrong intersection
MARKS_DRIFT_TOL = 1e-8


def _rebuild_after_move(
    c: Construct, p2: NodalCubic, q2: NodalCubic, inters, n_expected: np.ndarray, tol: Tolerances
) -> Construct:
    """Re-identify the chosen intersection among ``inters``, the moved pair's
    ``intersect(p2, q2, tol)`` or its error (which raises here), and rebuild
    the construct.

    ``n_expected`` is where the chosen intersection point must now lie.
    The nearest image must be unambiguous and the marks must not drift.
    """
    inters = _used(inters)
    dist = np.linalg.norm(_images(p2.gamma, [t for t, _ in inters]) - n_expected, axis=1)
    kbest, ksecond = np.argsort(dist, kind="stable")[:2]
    best = dist[kbest]
    if best > 1e-6 * max(1.0, float(np.linalg.norm(n_expected))) or dist[ksecond] < 10 * best:
        raise GuardError("intersection-match", "could not re-identify the chosen intersection after the move")
    out = make_construct(p2, q2, inters, int(kbest), c.b_param, tol, seed=c.seed)
    if chordal(out.n_p, c.n_p) > MARKS_DRIFT_TOL or chordal(out.n_q, c.n_q) > MARKS_DRIFT_TOL:
        raise GuardError("marks-drift", "n_p or n_q drifted under the move")
    return out


def affine_family(
    c: Construct, direction: AffineFamilyDirection, eps: complex, tol: Tolerances = DEFAULT_TOL
) -> Construct:
    """Member of the affine family at parameter eps.

    Moves one cubic (and b with it when P moves), re-derives intersections
    and re-matches the chosen one by nearest image; n_p and n_q are
    asserted unchanged up to MARKS_DRIFT_TOL, since the identification
    point is fixed and all special parameters transport with the curve.
    Every root solve and guard of the rebuild runs under ``tol``.  A batch
    of one in :func:`_affine_moves`.
    """
    return _used(_affine_moves(c, [((direction, eps),)], tol)[0])


def _affine_moves(c: Construct, moves, tol: Tolerances) -> list:
    """``affine_family`` chained along each move, all moves built as one batch.

    A move is a sequence of (direction, eps) steps on distinct sides: step
    k moves its side of step k-1's member (``c`` for the first), as nested
    ``affine_family`` calls do.  A step moves ``c``'s own cubic, so no step
    waits for the one before it: every step's transport goes into one flex
    stack and every step's moved pair into one degree-9 intersection stack.
    Each move then re-identifies its steps in order against the previous
    member; its result is its last member or its first error, in its place.
    """
    moved = iter(_transports([(c.q if d.side == "Q" else c.p, d.map_at(eps)) for move in moves for d, eps in move]))
    pairs = []
    for move in moves:
        p2, q2 = c.p, c.q
        for d, _ in move:
            p2, q2 = (p2, next(moved)) if d.side == "Q" else (next(moved), q2)
            pairs.append((p2, q2))
    found = iter(zip(pairs, _intersections(pairs, tol)))
    out = []
    for move in moves:
        member = c
        for (p2, q2), inters in itertools.islice(found, len(move)):
            if not isinstance(member, DualcxError):
                member = _caught(_rebuild_after_move, member, p2, q2, inters, member.n_point, tol)
        out.append(member)
    return out
