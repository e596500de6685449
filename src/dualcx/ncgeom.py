"""Normal-crossing surface combinatorics and nodal-curve line bundles.

A surface with normal crossings is described here purely combinatorially:
strata in three codimensions (components, double curves, triple points),
branch sets, continuation maps between them, and numeric decorations
(normal-bundle degrees, triple-point counts, Euler data of
normalizations).  The dual complex is then a triangulated set whose
reduced k-facets are the codimension-k strata and whose slots are the
branches; building it is a direct translation of the continuation maps.

The branch local systems are not computed from geometry; descriptions
carry a per-stratum triviality flag instead, and the dual complex refuses
to build when a flag is down.  (The canonical failure is a surface glued
along an elliptic curve by a free involution, where the two branches swap
on a loop.)

Line bundles of degree zero on a curve with rational components carry a
torus of gluing data: one copy of (C*)^m per m-fold special point, modulo
the diagonal at each point and modulo one rescaling per component.  The
torus is encoded by its integer relation lattice and classes are compared
through a basis of invariant characters, so equality tests are exact for
exact input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import SCHEMA_VERSION, GuardError, ValidationError, decode_field, int_tuple, int_value, load_json
from .simplicial import TriangulatedSet, _dec_attachment
from .topology import edge_path_presentation, smith_normal_form, tietze_trivialize


# ---------------------------------------------------------------------------
# surface descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """One stratum of the singular stratification, codimension = dimension
    of the corresponding dual-complex facet.

    branches lists the local analytic sheets along the stratum (k+1 of them
    in codimension k).  attach[b] = (target stratum index one codimension
    down, injection tuple) describes how the remaining branches continue
    when sheet b is left out; the tuple has one ``None`` entry at b.
    """

    branches: int
    branch_trivial: bool = True
    attach: tuple = ()
    chi_normalization: int | None = None
    normal_degrees: tuple[int, int] | None = None  # double curves only
    triple_count: int | None = None                # double curves only


@dataclass(frozen=True)
class NCSurfaceDescription:
    """Strata of a normal-crossing surface plus numeric decorations.

    strata[0] are components, strata[1] double curves, strata[2] triple
    points.  Validation checks the branch counts, validates the dual
    complex (``triangulated``, built once per object), and checks the
    declared triple-point counts against the continuation incidences.
    """

    strata: tuple[tuple[Stratum, ...], tuple[Stratum, ...], tuple[Stratum, ...]]
    name: str = ""

    def components(self) -> tuple[Stratum, ...]:
        return self.strata[0]

    def double_curves(self) -> tuple[Stratum, ...]:
        return self.strata[1]

    def triple_points(self) -> tuple[Stratum, ...]:
        return self.strata[2]

    def validate(self) -> None:
        """Branch counts, the dual complex's coherence, and the declared triple counts; checked once per object."""
        self._validated  # the first access runs the check

    @cached_property
    def _validated(self) -> bool:
        for k, level in enumerate(self.strata):
            for i, st in enumerate(level):
                if st.branches != k + 1:
                    raise ValidationError(f"stratum ({k},{i}) has {st.branches} branches, wants {k + 1}")
                if k == 0 and st.attach:
                    raise ValidationError("components have no continuation maps")
        # targets, injections and coherence are the triangulated-set checks
        self.triangulated
        # declared triple counts must match continuation incidences
        incidences = [0] * len(self.strata[1])
        for tp in self.strata[2]:
            for tgt, _ in tp.attach:
                incidences[tgt] += 1
        for i, dc in enumerate(self.strata[1]):
            if dc.triple_count is not None and dc.triple_count != incidences[i]:
                raise ValidationError(
                    f"double curve {i} declares {dc.triple_count} triple points, continuations give {incidences[i]}"
                )
        return True

    @cached_property
    def triangulated(self) -> TriangulatedSet:
        """The dual complex: strata as reduced facets, branches as slots; built and validated once per object."""
        levels = (tuple(tuple((g, tuple(inj)) for g, inj in st.attach) for st in level) for level in self.strata[1:])
        t = TriangulatedSet(num_vertices=len(self.strata[0]), attach=tuple(levels))
        t.validate()
        return t

    def to_json_dict(self) -> dict:
        def stratum_dict(st: Stratum) -> dict:
            d = {"branches": st.branches, "branch_trivial": st.branch_trivial}
            if st.attach:
                d["attach"] = [[tgt, [(-1 if v is None else v) for v in inj]] for tgt, inj in st.attach]
            if st.chi_normalization is not None:
                d["chi_normalization"] = st.chi_normalization
            if st.normal_degrees is not None:
                d["normal_degrees"] = list(st.normal_degrees)
            if st.triple_count is not None:
                d["triple_count"] = st.triple_count
            return d

        return {
            "kind": "ncsurf",
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "strata": [[stratum_dict(st) for st in level] for level in self.strata],
        }


def _dec_pair(v) -> tuple[int, int]:
    pair = int_tuple(v)
    if len(pair) != 2:
        raise ValueError(f"wants two entries, got {len(pair)}")
    return pair


def _dec_bool(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError(f"wants true or false, got {v!r}")
    return v


def _dec_count(v) -> int:
    n = int_value(v)
    if n < 0:
        raise ValueError(f"wants a count of at least 0, got {n}")
    return n


def _dec_even(v) -> int:
    n = int_value(v)
    if n % 2:
        raise ValueError(f"wants an even number (each curve component gives 2 - 2g), got {n}")
    return n


def _dec_stratum(d: dict, codim: int) -> Stratum:
    """A stratum of the given codimension; a double curve's chi must be even."""
    def optional(key, decode):
        return decode_field(d, key, decode) if key in d else None

    return Stratum(
        branches=decode_field(d, "branches", int_value),
        branch_trivial=decode_field(d, "branch_trivial", _dec_bool) if "branch_trivial" in d else True,
        attach=tuple(map(_dec_attachment, d.get("attach", []))),
        chi_normalization=optional("chi_normalization", _dec_even if codim == 1 else int_value),
        normal_degrees=optional("normal_degrees", _dec_pair),
        triple_count=optional("triple_count", _dec_count),
    )


def _dec_strata(v) -> tuple:
    if len(v) > 3:
        raise ValueError(f"wants at most three codimensions, got {len(v)}")
    levels = tuple(tuple(_dec_stratum(st, k) for st in level) for k, level in enumerate(v))
    return levels + ((),) * (3 - len(levels))


def _dec_str(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"wants a string, got {v!r}")
    return v


def ncsurf_from_json(text: str) -> NCSurfaceDescription:
    data = load_json(text, ("ncsurf",), "surface description")
    out = NCSurfaceDescription(
        strata=decode_field(data, "strata", _dec_strata),
        name=decode_field(data, "name", _dec_str) if "name" in data else "",
    )
    out.validate()
    return out


def dual_complex(desc: NCSurfaceDescription) -> TriangulatedSet:
    """Dual complex of the description: strata become reduced facets.

    Requires every branch local system to be declared trivial; with a
    branch-switching stratum the facet/slot encoding does not exist and
    the call refuses with a diagnostic.  (The flags are inputs: triviality
    holds automatically when every stratum is simply connected, which
    covers all rational-stratum geometries built here.)
    """
    desc.validate()
    for k, level in enumerate(desc.strata):
        for i, st in enumerate(level):
            if not st.branch_trivial:
                raise GuardError(
                    "branch-switching",
                    f"stratum ({k},{i}) has a nontrivial branch system; the dual complex is undefined "
                    "(a surface glued along an elliptic curve by a free involution is the standard example)",
                )
    return desc.triangulated


# ---------------------------------------------------------------------------
# the builtin descriptions
# ---------------------------------------------------------------------------


def duncehat_surface_description() -> NCSurfaceDescription:
    """One component self-crossing along one curve with one triple point.

    The normalization carries two rational curves P (one node, self
    intersection -2 after the blowups) and Q (one node, self intersection
    -1), glued so the three crossings of P and Q merge into a single
    triple point.  Branch bookkeeping at the triple point: the three
    sheets are the neighborhoods of the node of P, of the node of Q, and
    of the remaining crossing n; leaving out one sheet continues the other
    two along the curve branch they share, and the injections record which
    side is the P side.  The resulting dual complex is the dunce hat.

    Decorations: component normalization is a plane blown up nine times
    (chi 12), the double curve normalization is rational (chi 2), the
    normal-bundle degrees are (-2, -1), and the curve meets the triple
    point three times.
    """
    comp = Stratum(branches=1, chi_normalization=12)
    curve = Stratum(
        branches=2,
        attach=((0, (None, 0)), (0, (0, None))),
        chi_normalization=2,
        normal_degrees=(-2, -1),
        triple_count=3,
    )
    # slots: 0 = sheet at the node of P, 1 = sheet at the node of Q,
    # 2 = sheet at the crossing n; edge slots: 0 = P side, 1 = Q side
    triple = Stratum(
        branches=3,
        attach=(
            (0, (None, 1, 0)),  # drop the P-node sheet: continue along p3
            (0, (0, None, 1)),  # drop the Q-node sheet: continue along p2
            (0, (0, 1, None)),  # drop the crossing sheet: continue along p1
        ),
    )
    desc = NCSurfaceDescription(strata=((comp,), (curve,), (triple,)), name="duncehat-surface")
    desc.validate()
    return desc


def wrong_case_surface_description() -> NCSurfaceDescription:
    """Two smooth rational curves crossing three times, glued cyclically.

    The alternative way to merge three crossings into one triple point:
    both gluing-locus curves are smooth and the identification rotates the
    three crossings.  The dual complex is the cyclic triangle, whose
    fundamental group has order three, so this case admits no simply
    connected smoothing and is kept as the contrast example.  The Kulikov
    decorations are deliberately left unset.
    """
    comp = Stratum(branches=1, chi_normalization=None)
    curve = Stratum(
        branches=2,
        attach=((0, (None, 0)), (0, (0, None))),
        chi_normalization=2,
        triple_count=3,
    )
    triple = Stratum(
        branches=3,
        attach=(
            (0, (None, 0, 1)),
            (0, (1, None, 0)),
            (0, (0, 1, None)),
        ),
    )
    desc = NCSurfaceDescription(strata=((comp,), (curve,), (triple,)), name="wrong-case")
    desc.validate()
    return desc


def three_planes_description() -> NCSurfaceDescription:
    """Three planes in general position: the strictly SNC toy.

    Three components, three double lines, one triple point; the dual
    complex is a single 2-simplex with three distinct vertices.
    """
    comps = tuple(Stratum(branches=1, chi_normalization=3) for _ in range(3))
    # line L_ij has branches (sheet in plane i, sheet in plane j), i < j
    lines = []
    line_pairs = [(0, 1), (0, 2), (1, 2)]
    for i, j in line_pairs:
        lines.append(
            Stratum(
                branches=2,
                attach=((j, (None, 0)), (i, (0, None))),
                chi_normalization=2,
                normal_degrees=(1, 1),
                triple_count=1,
            )
        )
    # triple point sheets = planes 0,1,2; dropping plane k continues along
    # the line spanned by the other two
    line_id = {pair: k for k, pair in enumerate(line_pairs)}

    def inj_for(drop: int) -> tuple:
        rest = [p for p in range(3) if p != drop]
        i, j = rest
        # line (i, j) branch order: sheet in plane i first
        inj = [None, None, None]
        inj[i] = 0
        inj[j] = 1
        return tuple(inj)

    triple = Stratum(
        branches=3,
        attach=tuple((line_id[tuple(p for p in range(3) if p != drop)], inj_for(drop)) for drop in range(3)),
    )
    desc = NCSurfaceDescription(strata=(comps, tuple(lines), (triple,)), name="three-planes")
    desc.validate()
    return desc


def two_planes_description() -> NCSurfaceDescription:
    """Two planes glued along a line, no triple points."""
    comps = tuple(Stratum(branches=1, chi_normalization=3) for _ in range(2))
    line = Stratum(
        branches=2,
        attach=((1, (None, 0)), (0, (0, None))),
        chi_normalization=2,
        normal_degrees=(1, 1),
        triple_count=0,
    )
    desc = NCSurfaceDescription(strata=(comps, (line,), tuple()), name="two-planes")
    desc.validate()
    return desc


BUILTIN_SURFACES = {
    "duncehat-surface": duncehat_surface_description,
    "wrong-case": wrong_case_surface_description,
    "three-planes": three_planes_description,
    "two-planes": two_planes_description,
}


def builtin_surface(name: str) -> NCSurfaceDescription:
    try:
        return BUILTIN_SURFACES[name]()
    except KeyError:
        raise ValidationError(f"unknown builtin surface {name!r}; have {sorted(BUILTIN_SURFACES)}")


# ---------------------------------------------------------------------------
# numeric checks
# ---------------------------------------------------------------------------


def kulikov_degree(degree_1: int, degree_2: int, triple_count: int) -> int:
    """Degree of the pulled-back first tangent cohomology on a double curve.

    The triple point formula: the degree is the sum of the two
    normal-bundle degrees of the branches plus the number of triple points
    on the curve.  Vanishing on every double curve is the topological
    smoothability requirement.
    """
    return int(degree_1) + int(degree_2) + int(triple_count)


def kulikov_report(desc: NCSurfaceDescription) -> list[dict]:
    """Kulikov degree per double curve, with a vanishing verdict."""
    desc.validate()
    out = []
    for i, dc in enumerate(desc.double_curves()):
        if dc.normal_degrees is None or dc.triple_count is None:
            raise GuardError("missing-decoration", f"double curve {i} lacks normal degrees or triple count")
        deg = kulikov_degree(dc.normal_degrees[0], dc.normal_degrees[1], dc.triple_count)
        out.append({"curve": i, "degree": deg, "vanishes": deg == 0})
    return out


def generic_fiber_euler(desc: NCSurfaceDescription) -> int:
    """Euler characteristic of the nearby fiber of a smoothing.

    Equals the compactly supported Euler characteristic of the complement
    of the singular locus, because the nearby fiber fibers over the
    stratification with torus fibers off the open part.  In the stratum
    bookkeeping: sum of component-normalization chi, minus chi of each
    double-curve branch normalization (two per curve), plus one per
    triple-point incidence (each triple point contributes three crossing
    points spread over the sheets).
    """
    desc.validate()
    total = 0
    for i, comp in enumerate(desc.components()):
        if comp.chi_normalization is None:
            raise GuardError("missing-decoration", f"component {i} lacks chi of its normalization")
        total += comp.chi_normalization
    for i, dc in enumerate(desc.double_curves()):
        if dc.chi_normalization is None:
            raise GuardError("missing-decoration", f"double curve {i} lacks chi of its normalization")
        total -= 2 * dc.chi_normalization
    total += 3 * len(desc.triple_points())
    return total


def numerical_invariants(chi: int, h10: int, h20: int) -> dict[str, int]:
    """Chern and Hodge numbers of a surface with chi(topological) = chi.

    Supported profile: h10 = h20 = 0 (then chi of the structure sheaf is
    one and Noether's formula gives c1^2 + c2 = 12).  Other Hodge profiles
    are refused rather than guessed.
    """
    if chi < 0 or h10 < 0 or h20 < 0:
        raise ValidationError("negative Hodge input")
    if h10 != 0 or h20 != 0:
        raise GuardError("unsupported-hodge-profile", "only the h10 = h20 = 0 profile is implemented")
    c2 = chi
    c1_sq = 12 - c2
    h11 = chi - 2
    return {"h11": h11, "c1_sq": c1_sq, "c2": c2}


# ---------------------------------------------------------------------------
# line bundles on nodal rational curves: the gluing-data torus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveIncidenceGraph:
    """Bipartite incidence of rational components and special points.

    ``point_multiplicities[j]`` is the number of local branches through
    point j (at least two); ``edges`` lists (component, point) pairs, one
    per local branch, so a component passing twice contributes two edges.
    """

    num_components: int
    point_multiplicities: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def validate(self) -> None:
        for j, m in enumerate(self.point_multiplicities):
            if m < 2:
                raise ValidationError(f"point {j} has multiplicity {m} < 2")
            deg = sum(1 for _, p in self.edges if p == j)
            if deg != m:
                raise ValidationError(f"point {j} has {deg} incident branches, declares {m}")
        for c, p in self.edges:
            if not (0 <= c < self.num_components and 0 <= p < len(self.point_multiplicities)):
                raise ValidationError("edge references a missing component or point")

    def betti_1(self) -> int:
        """First Betti number of the bipartite graph (multi-edges count)."""
        n_vert = self.num_components + len(self.point_multiplicities)
        parent = list(range(n_vert))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for c, p in self.edges:
            ra, rb = find(c), find(self.num_components + p)
            if ra != rb:
                parent[ra] = rb
        comps = len({find(v) for v in range(n_vert)})
        return len(self.edges) - n_vert + comps


def curve_graph(desc: NCSurfaceDescription) -> CurveIncidenceGraph:
    """Incidence graph of the singular curve: double curves against triple
    points, one edge per continuation of a triple point onto a double curve."""
    points = desc.triple_points()
    return CurveIncidenceGraph(
        num_components=len(desc.double_curves()),
        point_multiplicities=tuple(tp.branches for tp in points),
        edges=tuple((tgt, j) for j, tp in enumerate(points) for tgt, _ in tp.attach),
    )


def duncehat_curve_graph() -> CurveIncidenceGraph:
    """The dunce-hat surface's singular curve: one component through one triple point three times."""
    return curve_graph(duncehat_surface_description())


@dataclass(frozen=True)
class PicTorus:
    """Degree-zero line bundles on the curve, as a quotient torus.

    The ambient torus has one coordinate per edge (local branch at a
    special point).  The relation lattice is generated by the per-point
    diagonals and the per-component rescalings; invariant characters are
    an integer basis of its kernel, computed by Smith normal form.  Two
    gluing-data vectors define the same bundle exactly when all invariant
    characters agree.
    """

    graph: CurveIncidenceGraph
    relation_generators: tuple[tuple[int, ...], ...]
    characters: tuple[tuple[int, ...], ...]

    @property
    def ambient_rank(self) -> int:
        return len(self.graph.edges)

    @property
    def dimension(self) -> int:
        return len(self.characters)


def pic0_structure(graph: CurveIncidenceGraph) -> PicTorus:
    """Build the gluing-data torus of the curve.

    The torus dimension is ``sum (m_j - 1) - #components + #connected
    components``, which is the first Betti number of the incidence graph.
    """
    graph.validate()
    e = len(graph.edges)
    gens: list[list[int]] = []
    for j in range(len(graph.point_multiplicities)):
        gens.append([1 if p == j else 0 for _, p in graph.edges])
    for c in range(graph.num_components):
        gens.append([1 if cc == c else 0 for cc, _ in graph.edges])
    # integer kernel of the generator matrix: columns of V past the rank
    D, U, V = smith_normal_form(gens)
    rank = sum(1 for i in range(min(len(gens), e)) if D[i][i] != 0)
    chars = []
    for col in range(rank, e):
        chars.append(tuple(V[row][col] for row in range(e)))
    torus = PicTorus(graph, tuple(tuple(g) for g in gens), tuple(chars))
    # validate() makes sum m_j = #edges, so the docstring's formula is betti_1
    if torus.dimension != graph.betti_1():
        raise ValidationError("character count disagrees with the lattice dimension formula")
    return torus


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction))


@dataclass(frozen=True)
class PicClass:
    """A gluing-data class: edge values modulo the relation torus.

    ``values`` holds the raw edge values as given, not a gauge-fixed
    representative.  Classes are compared through ``char_values``, the
    invariant characters, which are the complete coset data: exact values
    (int or Fraction) exactly, complex ones to within ``tol`` (1e-9 by
    default) of one.
    """

    torus: PicTorus
    values: tuple
    char_values: tuple

    def is_trivial(self, tol: float = 1e-9) -> bool:
        if all(_is_exact(v) for v in self.char_values):
            return all(v == 1 for v in self.char_values)
        return all(abs(complex(v) - 1.0) <= tol for v in self.char_values)


def _char_value(values, char):
    out = None
    for v, e in zip(values, char):
        if e == 0:
            continue
        if _is_exact(v):
            term = Fraction(v) ** e
        else:
            term = complex(v) ** e
        out = term if out is None else out * term
    if out is None:
        return 1
    return out


def pic_normalize(torus: PicTorus, raw_values) -> PicClass:
    """Canonical class of a raw gluing vector.

    Entries must be nonzero; exact inputs stay exact.  The invariant
    characters are the complete coset data; the representative is only a
    display convenience.
    """
    values = tuple(raw_values)
    if len(values) != torus.ambient_rank:
        raise ValidationError(f"expected {torus.ambient_rank} edge values")
    for v in values:
        if (_is_exact(v) and v == 0) or (not _is_exact(v) and complex(v) == 0):
            raise ValidationError("gluing values must be nonzero")
    chars = tuple(_char_value(values, ch) for ch in torus.characters)
    return PicClass(torus, values, chars)


def pic_mul(a: PicClass, b: PicClass) -> PicClass:
    if a.torus is not b.torus and a.torus != b.torus:
        raise ValidationError("classes live on different curves")
    vals = []
    for x, y in zip(a.values, b.values):
        if _is_exact(x) and _is_exact(y):
            vals.append(Fraction(x) * Fraction(y))
        else:
            vals.append(complex(x) * complex(y))
    return pic_normalize(a.torus, tuple(vals))


def pic_inverse(a: PicClass) -> PicClass:
    vals = tuple(1 / Fraction(v) if _is_exact(v) else 1.0 / complex(v) for v in a.values)
    return pic_normalize(a.torus, vals)


def pic_is_trivial(a: PicClass, tol: float = 1e-9) -> bool:
    return a.is_trivial(tol)


def pic_equal(a: PicClass, b: PicClass, tol: float = 1e-9) -> bool:
    return pic_is_trivial(pic_mul(a, pic_inverse(b)), tol)


# ---------------------------------------------------------------------------
# the fundamental-group verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pi1Verdict:
    status: str            # 'vanishes' | 'unknown'
    reasons: tuple[str, ...]


def pi1_vanishing_verdict(desc: NCSurfaceDescription, component_pi1_trivial: list[bool], budget: int = 200_000) -> Pi1Verdict:
    """Decide whether the nearby fiber is certified simply connected.

    Two hypotheses go in: the dual complex must have certified trivial
    fundamental group (edge-path presentation plus Tietze search), and
    every component of the open part must be declared simply connected by
    the caller (that input encodes a theorem about complements of nodal
    curves, it is consumed and not re-proven).  Anything short of both
    returns 'unknown' with the failed hypothesis named.
    """
    reasons = []
    delta = dual_complex(desc)
    pres = edge_path_presentation(delta)
    tz = tietze_trivialize(pres, budget=budget)
    if tz.status != "trivial":
        reasons.append(f"fundamental group of the dual complex not certified trivial: {tz.reason}")
    if len(component_pi1_trivial) != len(desc.components()):
        raise ValidationError("one simply-connectedness flag per component, please")
    for i, flag in enumerate(component_pi1_trivial):
        if not flag:
            reasons.append(f"component {i} open part not declared simply connected")
    if reasons:
        return Pi1Verdict("unknown", tuple(reasons))
    return Pi1Verdict("vanishes", ())
