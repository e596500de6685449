"""Complex-arithmetic kernels: polynomials, Moebius maps, divisors, Jacobians.

Conventions fixed here and relied on everywhere else:

* Points of the projective line are ordinary complex numbers together with
  the sentinel ``INF`` for the point at infinity.  Infinity is always
  handled through an explicit second chart (coefficient reversal for
  polynomials, matrix entries for Moebius maps), never through a large
  finite proxy.
* ``Poly`` stores coefficients in ascending order, ``p(t) = sum c_k t^k``.
* Root finding is simultaneous Aberth-Ehrlich iteration started from the
  companion-matrix eigenvalues; one Horner pass per sweep evaluates p, p'
  and the scale of the backward errors.  A root set is accepted only when
  every backward error ``|p(z)| <= tol * sum |c_k| |z|^k`` is met; after
  one Aberth step it is returned at once when disjoint Weierstrass
  inclusion disks prove every root simple (``poly_roots`` reuses that
  certificate), and polished further otherwise.  Multiplicities are
  connected disk unions: k touching disks are one k-fold root.
  Non-convergence raises, it is never silent.
* Every root solve goes through one batch entry, :func:`_solves`: it
  peels off each polynomial's exact zero roots and hands the rests to one
  kernel, :func:`_aberth_many`, in one stack per degree, never padded.
  The kernel runs the sweeps with one stacked eigensolve and one Horner
  pass per sweep over the whole stack.  Each row leaves the stack at the
  sweep where it would have returned alone, so every row has the bits of
  a stack of one, and a single solve is exactly that.  A solve that fails
  is returned in its place and raises where it is used.
* All default tolerances live in :class:`Tolerances` and may be overridden
  per call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DualcxError, GuardError, RootFindingError, ValidationError

INF = complex(float("inf"), 0.0)

MAX_POLY_DEGREE = 64


def is_inf(z: complex) -> bool:
    return cmath.isinf(z)


def chordal(z: complex, w: complex) -> float:
    """Chordal metric on the Riemann sphere, with ``INF`` supported."""
    if is_inf(z) and is_inf(w):
        return 0.0
    if is_inf(z):
        return 1.0 / abs(cmath.sqrt(1.0 + abs(w) ** 2))
    if is_inf(w):
        return 1.0 / abs(cmath.sqrt(1.0 + abs(z) ** 2))
    return abs(z - w) / (abs(cmath.sqrt(1.0 + abs(z) ** 2)) * abs(cmath.sqrt(1.0 + abs(w) ** 2)))


def _chordal_matrix(points) -> np.ndarray:
    """``|a_i b_j - b_i a_j|`` over unit homogeneous ``[a : b]``: ``[z : 1]``, or ``[1 : 0]`` for ``INF``."""
    z = np.asarray(points, dtype=complex).reshape(-1)
    a, b = np.where(np.isinf(z), 1.0, z), np.where(np.isinf(z), 0.0, 1.0)
    norm = np.hypot(np.abs(a), b)
    a, b = a / norm, b / norm
    return np.abs(np.outer(a, b) - np.outer(b, a))


@dataclass(frozen=True)
class Tolerances:
    """Default numeric policy.

    root_residual : relative backward error accepted by the root finder.
    cluster_radius : radius (chordal) used to merge and to match divisor
        points.
    rank_tol : singular values below ``rank_tol * sigma_max`` count as zero.
    guard_margin : relative margin for genericity guards on constructs.
    """

    root_residual: float = 1e-11
    cluster_radius: float = 1e-7
    rank_tol: float = 1e-6
    guard_margin: float = 1e-6

    def with_overrides(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT_TOL = Tolerances()


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over the complex numbers.

    Coefficients ascend: ``Poly([a0, a1, a2])`` is ``a0 + a1 t + a2 t^2``.
    Trailing coefficients that are negligible relative to the largest one
    can be dropped with :meth:`trim`; arithmetic never trims silently.
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        arr = np.atleast_1d(np.asarray(coef, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("polynomial needs a 1-d nonempty coefficient list")
        if arr.size - 1 > MAX_POLY_DEGREE:
            raise ValidationError(f"degree {arr.size - 1} exceeds supported maximum {MAX_POLY_DEGREE}")
        self.coef = arr

    @classmethod
    def _of(cls, arr: np.ndarray) -> "Poly":
        """An arithmetic result: ``arr`` is a 1-d nonempty complex array
        already, so only the degree bound is checked."""
        if arr.size - 1 > MAX_POLY_DEGREE:
            return cls(arr)  # raises the bound's error
        p = cls.__new__(cls)
        p.coef = arr
        return p

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the stored coefficient vector (no trimming applied)."""
        return len(self.coef) - 1

    def trim(self, rel: float = 1e-13) -> "Poly":
        scale = float(np.max(np.abs(self.coef)))
        if scale == 0.0:
            return Poly([0.0])
        c = self.coef.copy()
        k = len(c)
        while k > 1 and abs(c[k - 1]) <= rel * scale:
            k -= 1
        return Poly._of(c[:k])

    def is_zero(self, rel: float = 1e-13) -> bool:
        return bool(np.all(np.abs(self.coef) <= rel * max(1.0, float(np.max(np.abs(self.coef)))))) or float(
            np.max(np.abs(self.coef))
        ) == 0.0

    def __call__(self, t: complex):
        if is_inf(t):
            raise ValidationError("evaluate the reversed polynomial for the infinite chart")
        # Horner in polyval's own expression order, on Python scalars
        c = self.coef.tolist()
        acc = c[-1] + t * 0
        for ck in reversed(c[:-1]):
            acc = ck + acc * t
        return complex(acc)

    def eval_many(self, ts) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(ts, dtype=complex), self.coef)

    def derivative(self) -> "Poly":
        if len(self.coef) == 1:
            return Poly([0.0])
        k = np.arange(1, len(self.coef))
        return Poly._of(self.coef[1:] * k)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = other if isinstance(other, Poly) else Poly([other])
        n = max(len(self.coef), len(other.coef))
        a = np.zeros(n, dtype=complex)
        a[: len(self.coef)] += self.coef
        a[: len(other.coef)] += other.coef
        return Poly._of(a)

    def __neg__(self) -> "Poly":
        return Poly._of(-self.coef)

    def __sub__(self, other) -> "Poly":
        return self + (-(other if isinstance(other, Poly) else Poly([other])))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return Poly._of(np.convolve(self.coef, other.coef))
        return Poly._of(self.coef * other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValidationError("negative polynomial power")
        out = Poly([1.0])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"Poly({np.array2string(self.coef, precision=6)})"


def poly_from_roots(roots, leading: complex = 1.0) -> Poly:
    out = Poly([leading])
    for r in roots:
        out = out * Poly([-r, 1.0])
    return out


def _peel_zeros(p: Poly) -> tuple[int, Poly]:
    """(count of exact zero roots, the rest) of ``p`` trimmed, of degree >= 1."""
    q = p.trim()
    if q.degree < 1:
        raise ValidationError("root finding needs degree >= 1")
    k = 0
    while k < q.degree and q.coef[k] == 0:
        k += 1
    return k, Poly._of(q.coef[k:])


def _disk_gaps(lead, z: np.ndarray, qz: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Gaps ``|z_i - z_j| - r_i - r_j`` between the Weierstrass disks ``|z - z_i| <= r_i``.

    ``r_i = n |q(z_i) / (a_n prod_{j != i} (z_i - z_j))|``, with ``lead`` the
    modulus ``|a_n|``.  A connected union of k such disks holds exactly k
    roots (Bini & Fiorentino, Numer. Algorithms 2000).  ``qz`` holds the
    values ``q(z_i)``; their moduli are enlarged by the rounding bound of
    Horner's rule, ``4 n eps scale`` with ``scale = sum |c_k| |z_i|^k``, so a
    residual that rounds to zero proves nothing.  Only a positive gap proves
    two disks disjoint; an overflow gives NaN, which does not.  The diagonal
    is 1.  Leading axes of ``z``, ``qz`` and ``scale`` (and of ``lead``)
    stack polynomials of one degree.
    """
    n = z.shape[-1]
    diag = np.arange(n)
    dist = np.abs(z[..., :, None] - z[..., None, :])
    dist[..., diag, diag] = 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        radius = n * (np.abs(qz) + 4 * n * np.finfo(float).eps * scale) / (np.asarray(lead)[..., None] * np.prod(dist, axis=-1))
        gap = dist - radius[..., :, None] - radius[..., None, :]
    gap[..., diag, diag] = 1.0
    return gap


def aberth_roots(p: Poly, tol: float | None = None, max_iter: int = 400) -> list[complex]:
    """All complex roots of ``p`` by Aberth-Ehrlich simultaneous iteration.

    Returns a plain list of ``degree`` roots (a multiple root appears as a
    cluster of approximants; :func:`poly_roots` merges each connected disk
    union into one root).  The sweeps start from the companion-matrix
    eigenvalues (Edelman & Murakami, Math. Comp. 1995).  Once every backward
    error is at most ``tol``, after at least one Aberth step, disjoint
    Weierstrass disks (:func:`_disk_gaps`) return the roots at once, each
    proven simple; otherwise clusters keep tightening until a step falls
    below ``1e-15`` relative or 48 polishing sweeps have run.  Without a
    certificate in ``max_iter`` sweeps :class:`RootFindingError` is raised.
    One call is a batch of one in :func:`_solves`.
    """
    zero_mult, _, roots, _ = _used(_solves([p], tol, max_iter)[0])
    return [0j] * zero_mult + roots


def _used(result):
    """A batch row's result where it is used: an error returned in its place
    (a failed solve, a rejected construct) raises here."""
    if isinstance(result, DualcxError):
        raise result
    return result


def _caught(fn, *args):
    """``fn(*args)``, or the library error it raised, as a batch row's result."""
    try:
        return fn(*args)
    except DualcxError as exc:
        return exc


def _solves(ps: list[Poly], tol: float | None, max_iter: int) -> list:
    """The one entry to the root finder: every ``p`` (of degree >= 1) solved
    at once.  Exact zero roots peel off first (:func:`_peel_zeros`), which
    improves the conditioning of the rest; the rests go through one
    :func:`_aberth_many` stack per degree, and a rest of degree 0 needs no
    sweeps.  Per ``p``, in order, the result is (zero count, rest,
    approximants, proven simple), or that solve's :class:`RootFindingError`,
    unraised, while the others are untouched."""
    tol = DEFAULT_TOL.root_residual if tol is None else tol
    out: list = [(*_peel_zeros(p), [], True) for p in ps]
    rows: dict[int, list[int]] = {}
    for i, (_, q, _, _) in enumerate(out):
        if q.degree:
            rows.setdefault(q.degree, []).append(i)
    for idx in rows.values():
        for i, result in zip(idx, _aberth_many([out[i][1] for i in idx], tol, max_iter)):
            out[i] = result if isinstance(result, RootFindingError) else out[i][:2] + result
    return out


def _aberth_many(qs: list[Poly], tol: float, max_iter: int) -> list:
    """The sweeps of :func:`aberth_roots` on a stack of rests ``qs`` of
    :func:`_peel_zeros`, all of one degree n >= 1.

    One stacked eigensolve starts every row, and each sweep is one Horner
    pass over an ``(n + 1, m, 3)`` table: the coefficients of q, q' and |q|
    of all m rows.  A row leaves the stack at the sweep where it would
    return alone, by the same rule, so each row's bits are those of a stack
    of one; the stack is compacted only when rows leave.  Per row the result
    is (approximants, proven simple), simple only when disjoint disks
    returned them, or that row's :class:`RootFindingError`, returned in its
    place: a non-finite companion or a row that runs out of ``max_iter``
    sweeps leaves the others as they are.  Mixed degrees are never padded:
    padding reorders the repulsion sums.
    """
    n = qs[0].degree
    coef = np.array([q.coef for q in qs])
    an = coef[:, -1:]
    diag = np.arange(n)
    companion = np.zeros((len(qs), n, n), dtype=complex)
    companion[:, diag[1:], diag[:-1]] = 1.0
    companion[:, 0] = -coef[:, -2::-1] / an
    out: list = [None] * len(qs)
    try:
        z = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        # LAPACK refuses the whole stack for one row (a non-finite one, say):
        # every row is then solved alone, and a row it refuses never starts
        z = np.zeros((len(qs), n), dtype=complex)
        for i in range(len(qs)):
            try:
                z[i] = np.linalg.eigvals(companion[i])
            except np.linalg.LinAlgError as exc:
                out[i] = RootFindingError(f"companion eigenvalues failed (degree {n}): {exc}")
    # |a_n| by the scalar abs(), as the disk test has always taken it:
    # np.abs on a complex array can differ from it in the last bit
    lead = np.array([abs(a) for a in coef[:, -1]])

    # rows q, q' (its top coefficient 0) and |q|: one Horner pass over
    # (z, z, |z|) gives q(z), q'(z) and the backward-error scale
    # sum |c_k| |z|^k, term by term as polyval computes each of them
    coef_abs = np.abs(coef)
    table = np.zeros((n + 1, len(qs), 3, 1), dtype=complex)
    table[:, :, 0, 0] = coef.T
    table[:-1, :, 1, 0] = (coef[:, 1:] * np.arange(1, n + 1)).T
    table[:, :, 2, 0] = coef_abs.T
    scale_floor = coef_abs.max(axis=1, keepdims=True) * 1e-30
    polish = np.zeros(len(qs), dtype=int)
    live = np.arange(len(qs))
    # rows whose result is in: they leave the stack at the next sweep
    gone = np.array([result is not None for result in out])
    for sweep in range(max_iter):
        if gone.any():
            if gone.all():
                return out
            keep = ~gone
            table = table[:, keep]
            z, live, lead, coef, scale_floor, polish, gone = (
                a[keep] for a in (z, live, lead, coef, scale_floor, polish, gone)
            )
        x = np.stack([z, z, np.abs(z)], axis=1)
        acc = table[n] + x * 0
        for k in range(n - 1, -1, -1):
            acc = table[k] + acc * x
        pz, dpz = acc[:, 0], acc[:, 1]
        scale = np.maximum(acc[:, 2].real, scale_floor)
        converged = (np.abs(pz) / scale).max(axis=1) <= tol
        # keep iterating a while: clusters around multiple roots tighten
        # linearly after the backward-error target is already met
        polish += converged
        # eigenvalues carry the eigensolver's rounding (ulps off even for
        # t^2 - 1): they are returned only after one Aberth step
        if sweep and converged.any():
            simple = converged & (_disk_gaps(lead, z, pz, scale) > 0).all(axis=(1, 2))
            gone = simple | (polish > 48)
            for i in np.flatnonzero(gone).tolist():
                out[live[i]] = (z[i].tolist(), bool(simple[i]))
            if gone.all():
                return out
        diff = z[:, :, None] - z[:, None, :]
        diff[:, diag, diag] = 1.0
        # Newton correction with Aberth repulsion
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dpz != 0, pz / np.where(dpz == 0, 1, dpz), 0.1 + 0.1j)
            inv = 1.0 / diff
            inv[:, diag, diag] = 0.0
            s = inv.sum(axis=2)
            denom = 1.0 - newton * s
            step = np.where(np.abs(denom) > 1e-300, newton / np.where(denom == 0, 1, denom), newton)
        bad = ~np.isfinite(step)
        if bad.any():
            # Cauchy bound: the size of the kick that replaces a non-finite step
            radius = 1.0 + np.abs(coef[:, :-1] / coef[:, -1:]).max(axis=1, keepdims=True)
            step = np.where(bad, 0.1 * radius * np.exp(1j * diag), step)
        nz = z - step
        if converged.any():
            tiny = converged & ~gone & ((np.abs(step) / (1.0 + np.abs(z))).max(axis=1) <= 1e-15)
            for i in np.flatnonzero(tiny).tolist():
                out[live[i]] = (nz[i].tolist(), False)
            gone |= tiny
        z = nz
    for i in live[~gone]:
        out[i] = RootFindingError(f"Aberth iteration did not converge within {max_iter} iterations (degree {n})")
    return out


def poly_roots(p: Poly, tol: float | None = None) -> list[tuple[complex, int]]:
    """Root multiset of ``p``: list of (root, multiplicity).

    Exact zero roots come back as one root of their count.  The rest come
    from the sweeps of :func:`aberth_roots`, one per connected disk union:
    k Weierstrass disks that touch, directly or through others, are one
    k-fold root at the mean of their centres, and a disk that touches no
    other is a simple root at its approximant.  Roots the sweeps already
    proved simple by disjoint disks skip the second disk test: its scale
    has no floor, so its gaps are no smaller.  One call is a batch of one
    in :func:`_solves`.
    """
    return _multiset(*_used(_solves([p], tol, 400)[0]))


def _multiset(zero_mult: int, q: Poly, roots: list[complex], simple: bool) -> list[tuple[complex, int]]:
    """The root multiset of :func:`poly_roots` from the sweeps' result on the rest ``q``."""
    out = [(0j, zero_mult)] if zero_mult else []
    if simple:
        # + 0j is what a one-root group's mean does: -0.0 parts become 0.0
        return out + [(z + 0j, 1) for z in roots]
    z = np.asarray(roots)
    scale = np.polynomial.polynomial.polyval(np.abs(z), np.abs(q.coef))
    reach = ~(_disk_gaps(abs(q.coef[-1]), z, q.eval_many(z), scale) > 0)
    np.fill_diagonal(reach, True)
    # transitive closure of "touches" by repeated squaring: rows become groups
    for _ in range(len(z).bit_length()):
        reach = reach @ reach
    # one group per first member, in the order of the approximants
    for i in np.flatnonzero(reach.argmax(axis=1) == np.arange(len(z))):
        out.append((complex(z[reach[i]].mean()), int(reach[i].sum())))
    return out


# ---------------------------------------------------------------------------
# Moebius transforms
# ---------------------------------------------------------------------------


MOBIUS_DET_FLOOR = 1e-12  # minimal determinant modulus after unit normalization


class Mobius:
    """Invertible fractional-linear map of the projective line.

    Stored as a 2x2 complex matrix up to scale, normalized so the largest
    entry has modulus one.  Determinant modulus below ``MOBIUS_DET_FLOOR``
    is rejected.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        mat = np.asarray(m, dtype=complex).reshape(2, 2)
        scale = float(np.max(np.abs(mat)))
        if scale == 0.0:
            raise ValidationError("zero Moebius matrix")
        mat = mat / scale
        if abs(np.linalg.det(mat)) < MOBIUS_DET_FLOOR:
            raise ValidationError("Moebius matrix is numerically singular")
        self.m = mat

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.m))

    def __call__(self, z: complex) -> complex:
        (a, b), (c, d) = self.m
        if is_inf(z):
            return INF if c == 0 else a / c
        den = c * z + d
        if den == 0:
            return INF
        return (a * z + b) / den

    def eval_many(self, zs) -> np.ndarray:
        """Values at an array of finite points off the pole."""
        (a, b), (c, d) = self.m
        zs = np.asarray(zs, dtype=complex)
        return (a * zs + b) / (c * zs + d)

    def inverse(self) -> "Mobius":
        (a, b), (c, d) = self.m
        return Mobius([[d, -b], [-c, a]])

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        return Mobius(self.m @ other.m)

    def derivative(self, z: complex) -> complex:
        """d(M)/dz at a finite point not at the pole."""
        (a, b), (c, d) = self.m
        if is_inf(z):
            raise ValidationError("use the reversed chart for the derivative at infinity")
        den = c * z + d
        if den == 0:
            raise ValidationError("derivative requested at the Moebius pole")
        return (a * d - b * c) / den**2

    def __repr__(self) -> str:
        return f"Mobius({np.array2string(self.m, precision=6)})"


def mobius_from_triple(a: complex, b: complex, c: complex) -> Mobius:
    """The Moebius map sending (a, b, c) to (0, INF, 1).

    Any one of the three points may be ``INF``.  Coincident inputs (in the
    chordal metric) are rejected.
    """
    pts = [a, b, c]
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal(pts[i], pts[j]) <= 1e-12:
                raise ValidationError("mobius_from_triple needs pairwise distinct points")
    if is_inf(a):
        return Mobius([[0.0, c - b], [1.0, -b]])
    if is_inf(b):
        return Mobius([[1.0, -a], [0.0, c - a]])
    if is_inf(c):
        return Mobius([[1.0, -a], [1.0, -b]])
    return Mobius([[c - b, -a * (c - b)], [c - a, -b * (c - a)]])


# ---------------------------------------------------------------------------
# divisors on the projective line
# ---------------------------------------------------------------------------


@dataclass
class Divisor:
    """Formal integer combination of points of the projective line.

    Points must be pairwise distinct at the clustering tolerance; use
    :meth:`merged` to enforce that after concatenations.
    """

    points: list[tuple[complex, int]] = field(default_factory=list)

    def degree(self) -> int:
        return sum(m for _, m in self.points)

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.points + other.points)

    def __neg__(self) -> "Divisor":
        return Divisor([(z, -m) for z, m in self.points])

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def scaled(self, k: int) -> "Divisor":
        return Divisor([(z, k * m) for z, m in self.points])

    def merged(self, radius: float = DEFAULT_TOL.cluster_radius) -> "Divisor":
        """Merge nearby points, summing multiplicities; drop zeros.

        A point joins the first cluster whose first point is within ``radius``.
        """
        close = (_chordal_matrix([z for z, _ in self.points]) <= radius).tolist()
        clusters: list[list[int]] = []
        for i, row in enumerate(close):
            for members in clusters:
                if row[members[0]]:
                    members.append(i)
                    break
            else:
                clusters.append([i])
        merged = []
        for members in clusters:
            total = sum(self.points[k][1] for k in members)
            if total == 0:
                continue
            pts = [self.points[k][0] for k in members]
            rep = INF if any(is_inf(z) for z in pts) else complex(np.mean(np.asarray(pts)))
            merged.append((rep, total))
        return Divisor(merged)

    def split_at(self, marks: list[complex], radius: float = DEFAULT_TOL.cluster_radius) -> tuple[list[int], "Divisor"]:
        """(multiplicities at the marks, remainder divisor off the marks)."""
        mults = [0] * len(marks)
        off: list[tuple[complex, int]] = []
        for z, m in self.merged(radius).points:
            for i, mk in enumerate(marks):
                if chordal(z, mk) <= radius:
                    mults[i] += m
                    break
            else:
                off.append((z, m))
        return mults, Divisor(off)


# ---------------------------------------------------------------------------
# finite-difference Jacobians
# ---------------------------------------------------------------------------


@dataclass
class FDJacobian:
    matrix: np.ndarray          # Richardson-extrapolated Jacobian
    coarse: np.ndarray          # step h
    fine: np.ndarray            # step h/2
    richardson_disagreement: float
    singular_values: np.ndarray
    rank: int


def _central_jacobian(f, x: np.ndarray, h: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        fp = np.asarray(f(x + e), dtype=float)
        fm = np.asarray(f(x - e), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise GuardError("jacobian-nan", "non-finite value during finite differencing")
        cols.append((fp - fm) / (2.0 * h))
    return np.stack(cols, axis=1)


def numerical_rank(matrix: np.ndarray, rank_tol: float = DEFAULT_TOL.rank_tol) -> tuple[int, np.ndarray]:
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, s
    return int(np.sum(s > rank_tol * s[0])), s


def finite_diff_jacobian(f, x, h: float = 1e-5, rank_tol: float | None = None) -> FDJacobian:
    """Central-difference Jacobian of a black-box map R^k -> R^m.

    Computes at steps h and h/2, Richardson-extrapolates, and reports the
    relative disagreement of the two estimates so callers can flag
    step-size instability.  The program's own Jacobians are exact; this is
    the independent check the tests hold them against.
    """
    rank_tol = DEFAULT_TOL.rank_tol if rank_tol is None else rank_tol
    coarse = _central_jacobian(f, x, h)
    fine = _central_jacobian(f, x, h / 2.0)
    extrap = (4.0 * fine - coarse) / 3.0
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    disagreement = float(np.max(np.abs(fine - coarse))) / scale
    rank, s = numerical_rank(extrap, rank_tol)
    return FDJacobian(extrap, coarse, fine, disagreement, s, rank)
