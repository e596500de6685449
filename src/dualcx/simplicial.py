"""Semi-simplicial and triangulated sets, stored by facets and attachments.

Encoding
--------
A *semi-simplicial set* keeps, per dimension ``n``, a dense list of simplex
ids and, for ``n >= 1``, a face tuple ``faces[n][i] = (f_0, ..., f_n)``
where ``f_k`` is the id of the ``k``-th face one dimension down.

A *triangulated set* drops the chosen vertex orderings and keeps one
*reduced facet* per symmetry orbit.  An ``n``-facet has ``n + 1`` *slots*
(vertex positions).  For every slot ``k`` the attachment
``attach[n][i][k] = (g, inj)`` names the reduced ``(n-1)``-facet ``g``
obtained by deleting that slot, together with the injection ``inj`` of the
remaining slots into the slots of ``g`` (``inj`` is a tuple of length
``n + 1`` whose ``k``-th entry is ``None``).  Validation checks that
deleting two slots in either order reaches the same facet with the same
composite injection; that coherence is exactly what makes iterated faces
well defined.

In this orbit encoding the symmetric-group action on decorated facets
(facet, ordering of its slots) is free by construction, so the free-action
requirement of the functor definition needs no further data.  Note that
cyclically symmetric attachment patterns are legitimate: the triangle whose
three sides are glued to one edge in a rotating pattern is a valid
triangulated set even though a slot 3-cycle preserves its attachments.

Ids are dense integers per dimension and serialization sorts everything,
so equal files mean equal complexes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product
from math import factorial

from .errors import ValidationError, decode_field, int_tuple

SCHEMA_VERSION = 1

# complex files may declare at most this many cells in total; the
# tetrahedron's third subdivision has 2594
MAX_FILE_CELLS = 10**5


# ---------------------------------------------------------------------------
# semi-simplicial sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemiSimplicialSet:
    """Finite semi-simplicial set.

    ``num_vertices`` counts the 0-simplices; ``faces[d]`` (d starting at 1)
    lists, for each d-simplex, the tuple of its d+1 face ids.
    """

    num_vertices: int
    faces: tuple[tuple[tuple[int, ...], ...], ...]

    # -- structure ----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.faces)

    def count(self, dim: int) -> int:
        if dim == 0:
            return self.num_vertices
        if 1 <= dim <= self.dimension:
            return len(self.faces[dim - 1])
        return 0

    def counts(self) -> tuple[int, ...]:
        return tuple(self.count(d) for d in range(self.dimension + 1))

    def face(self, dim: int, idx: int, k: int) -> int:
        return self.faces[dim - 1][idx][k]

    def validate(self) -> None:
        """Check id ranges and the identities d_i d_j = d_{j-1} d_i (i < j).

        The check runs once per object; later calls return at once.
        """
        self._validated  # the first access runs the check

    @cached_property
    def _validated(self) -> bool:
        if self.num_vertices < 0:
            raise ValidationError("negative vertex count")
        for d in range(1, self.dimension + 1):
            below = self.count(d - 1)
            for i, fs in enumerate(self.faces[d - 1]):
                if len(fs) != d + 1:
                    raise ValidationError(f"simplex ({d},{i}) has {len(fs)} faces, wants {d + 1}")
                for f in fs:
                    if not (0 <= f < below):
                        raise ValidationError(f"simplex ({d},{i}) references missing face {f}")
        for d in range(2, self.dimension + 1):
            for i in range(self.count(d)):
                for j in range(d + 1):
                    for k in range(j):
                        # d_k d_j = d_{j-1} d_k for k < j
                        a = self.face(d - 1, self.face(d, i, j), k)
                        b = self.face(d - 1, self.face(d, i, k), j - 1)
                        if a != b:
                            raise ValidationError(f"semi-simplicial identity fails at ({d},{i}), k={k}, j={j}")
        return True

    @cached_property
    def triangulated(self) -> TriangulatedSet:
        """This set through :func:`functor_p`, converted and validated once per object."""
        return functor_p(self)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.count(d) for d in range(self.dimension + 1))

    def to_json_dict(self) -> dict:
        return {
            "kind": "ssset",
            "schema": SCHEMA_VERSION,
            "dims": list(self.counts()),
            "faces": [[list(f) for f in level] for level in self.faces],
        }


# ---------------------------------------------------------------------------
# triangulated sets
# ---------------------------------------------------------------------------


Attachment = tuple[int, tuple]  # (target id, injection tuple with None at the deleted slot)


@dataclass(frozen=True)
class TriangulatedSet:
    """Finite triangulated set in the reduced-facet encoding.

    ``num_vertices`` counts reduced 0-facets; ``attach[d]`` (d from 1)
    lists, per reduced d-facet, one attachment per slot.
    """

    num_vertices: int
    attach: tuple[tuple[tuple[Attachment, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.attach)

    def count(self, dim: int) -> int:
        if dim == 0:
            return self.num_vertices
        if 1 <= dim <= self.dimension:
            return len(self.attach[dim - 1])
        return 0

    def counts(self) -> tuple[int, ...]:
        return tuple(self.count(d) for d in range(self.dimension + 1))

    def attachment(self, dim: int, idx: int, slot: int) -> Attachment:
        return self.attach[dim - 1][idx][slot]

    # -- iterated faces -------------------------------------------------------

    def delete_slots(self, dim: int, idx: int, slots: frozenset[int]) -> tuple[int, int, dict[int, int]]:
        """Delete a set of slots; returns (target dim, target id, slot map).

        The slot map sends each surviving slot of the source facet to the
        corresponding slot of the target facet.  Well defined by coherence,
        whichever order the slots are removed in.
        """
        if not slots:
            return dim, idx, {s: s for s in range(dim + 1)}
        s = max(slots)
        g, inj = self.attachment(dim, idx, s)
        mapped = frozenset(inj[t] for t in slots if t != s)
        tdim, tidx, tmap = self.delete_slots(dim - 1, g, mapped)
        out = {k: tmap[inj[k]] for k in range(dim + 1) if k not in slots}
        return tdim, tidx, out

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Referential integrity, injectivity, and two-step coherence.

        The check runs once per object; later calls return at once.
        """
        self._validated  # the first access runs the check

    @cached_property
    def _validated(self) -> bool:
        if self.num_vertices < 0:
            raise ValidationError("negative vertex count")
        for d in range(1, self.dimension + 1):
            below = self.count(d - 1)
            for i, atts in enumerate(self.attach[d - 1]):
                if len(atts) != d + 1:
                    raise ValidationError(f"facet ({d},{i}) has {len(atts)} slots, wants {d + 1}")
                for k, (g, inj) in enumerate(atts):
                    if not (0 <= g < below):
                        raise ValidationError(f"facet ({d},{i}) slot {k} references missing target {g}")
                    if len(inj) != d + 1 or inj[k] is not None:
                        raise ValidationError(f"facet ({d},{i}) slot {k} has malformed injection")
                    values = [inj[j] for j in range(d + 1) if j != k]
                    if sorted(values) != list(range(d)):
                        raise ValidationError(f"facet ({d},{i}) slot {k} injection is not bijective onto target slots")
        for d in range(2, self.dimension + 1):
            for i in range(self.count(d)):
                for j in range(d + 1):
                    for k in range(d + 1):
                        if j == k:
                            continue
                        g1, inj1 = self.attachment(d, i, j)
                        h1, kap1 = self.attachment(d - 1, g1, inj1[k])
                        g2, inj2 = self.attachment(d, i, k)
                        h2, kap2 = self.attachment(d - 1, g2, inj2[j])
                        if h1 != h2:
                            raise ValidationError(f"coherence: facet ({d},{i}) slots {j},{k} reach different facets")
                        for l in range(d + 1):
                            if l in (j, k):
                                continue
                            if kap1[inj1[l]] != kap2[inj2[l]]:
                                raise ValidationError(
                                    f"coherence: facet ({d},{i}) slots {j},{k} disagree on slot {l}"
                                )
        return True

    @cached_property
    def incidence(self) -> _Incidence:
        """The one face relation of a validated set: faces, cofaces and their
        multiplicities, built once per object."""
        return _Incidence.of(self)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.count(d) for d in range(self.dimension + 1))

    def to_json_dict(self) -> dict:
        return {
            "kind": "tset",
            "schema": SCHEMA_VERSION,
            "dims": list(self.counts()),
            "attach": [
                [[[g, [(-1 if v is None else v) for v in inj]] for g, inj in atts] for atts in level]
                for level in self.attach
            ],
        }


# ---------------------------------------------------------------------------
# incidence tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Incidence:
    """The face incidence table of a triangulated set.

    ``cells`` lists the cells in (dim, id) order, so index order is the
    lexicographic order; a set of alive cells is the bitmask of their
    indices, and ``index`` maps a cell back to its index.  ``faces[h]``
    holds the ``(g, multiplicity)`` pairs for every proper face g of cell
    h, the multiplicity being the number of slot subsets of h whose
    deletion gives g; ``cofaces[g]`` holds the same pairs seen from g, in
    index order.
    """

    cells: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    faces: tuple[tuple[tuple[int, int], ...], ...]
    cofaces: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def of(cls, t: TriangulatedSet) -> _Incidence:
        """Built from the one-slot attachments alone.

        ``paths[h][g]`` counts the orders of deleting slots one at a time
        that lead from h to g, itself included.  By coherence every order of
        one slot subset of size k leads to the same face, so the multiplicity
        is ``paths[h][g] / k!``.
        """
        cells = tuple((d, i) for d in range(t.dimension + 1) for i in range(t.count(d)))
        index = {c: k for k, c in enumerate(cells)}
        paths: list[dict[int, int]] = []
        faces, cofaces = [], [[] for _ in cells]
        for h, (d, i) in enumerate(cells):
            here = {h: 1}
            for g, _ in t.attach[d - 1][i] if d else ():
                for f, n in paths[index[(d - 1, g)]].items():
                    here[f] = here.get(f, 0) + n
            paths.append(here)
            faces.append(tuple((f, n // factorial(d - cells[f][0])) for f, n in here.items() if f != h))
            for f, m in faces[h]:
                cofaces[f].append((h, m))
        return cls(cells, index, tuple(faces), tuple(map(tuple, cofaces)))

    def counts(self) -> list[int]:
        """The total incidence of every cell from the other cells, all alive."""
        return [sum(m for _, m in row) for row in self.cofaces]

    def free_pairs(self, alive: int, count: list[int], among) -> list[tuple[int, int]]:
        """(face, unique coface) index pairs among ``alive``, for the faces in ``among``.

        ``count[g]`` must be g's total incidence from the other alive cells;
        g is free when that is one, through a cell one dimension up.
        """
        cells, out = self.cells, []
        for g in among:
            if count[g] == 1 and alive >> g & 1:
                f = next(h for h, _ in self.cofaces[g] if alive >> h & 1)
                if cells[f][0] == cells[g][0] + 1:
                    out.append((g, f))
        return out

    def is_vertex(self, alive: int) -> bool:
        """Whether ``alive`` is a single vertex."""
        return alive != 0 and alive & (alive - 1) == 0 and self.cells[alive.bit_length() - 1][0] == 0

    def add(self, count: list[int], pair: tuple[int, int], sign: int) -> None:
        """Add ``sign`` times the incidences of the pair's two cells on their faces to ``count``."""
        for cell in pair:
            for g, m in self.faces[cell]:
                count[g] += sign * m


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def make_duncehat() -> SemiSimplicialSet:
    """One vertex, one edge, one triangle; every triangle face is the edge.

    The realization identifies the boundary of the triangle with the single
    edge three times, one of the passes reversed: the classical dunce hat,
    contractible but with no free face.
    """
    return SemiSimplicialSet(num_vertices=1, faces=(((0, 0),), ((0, 0, 0),)))


def make_single_2_simplex() -> SemiSimplicialSet:
    """A triangle with three distinct vertices and three distinct edges."""
    # edges: 0 = [12], 1 = [02], 2 = [01]; triangle faces (d0, d1, d2)
    return SemiSimplicialSet(
        num_vertices=3,
        faces=(((2, 1), (2, 0), (1, 0)), ((0, 1, 2),)),
    )


def make_tetrahedron_boundary() -> SemiSimplicialSet:
    """Boundary of the 3-simplex: the triangulated 2-sphere."""
    verts = list(range(4))
    edges = list(combinations(verts, 2))
    edge_id = {e: i for i, e in enumerate(edges)}
    tris = list(combinations(verts, 3))
    edge_faces = []
    for a, b in edges:
        edge_faces.append((b, a))  # d0 deletes the first vertex
    tri_faces = []
    for tri in tris:
        fs = []
        for k in range(3):
            rest = tuple(v for i, v in enumerate(tri) if i != k)
            fs.append(edge_id[rest])
        tri_faces.append(tuple(fs))
    return SemiSimplicialSet(num_vertices=4, faces=(tuple(edge_faces), tuple(tri_faces)))


def make_cycle_graph(n: int = 3) -> SemiSimplicialSet:
    """Cycle with n vertices and n edges (a circle)."""
    if n < 1:
        raise ValidationError("cycle needs at least one vertex")
    edges = tuple(((i + 1) % n, i) for i in range(n))  # edge i runs i -> i+1
    return SemiSimplicialSet(num_vertices=n, faces=(edges,))


def make_cyclic_triangle() -> TriangulatedSet:
    """One triangle whose three sides are glued to one edge cyclically.

    The side pattern is [01], [12], [20]: each side maps onto the edge with
    the rotation carrying slot i+1 to slot i.  This space has fundamental
    group of order three, and it is the standard example of a triangulated
    set that lifts to no semi-simplicial set.
    """
    edge_attach = (((0, (None, 0)), (0, (0, None))),)
    tri_attach = (
        (
            (0, (None, 0, 1)),  # delete slot 0: side [12] -> edge as (1,2) -> (0,1)
            (0, (1, None, 0)),  # delete slot 1: side [20] -> edge as (2,0) -> (0,1)
            (0, (0, 1, None)),  # delete slot 2: side [01] -> edge as (0,1) -> (0,1)
        ),
    )
    return TriangulatedSet(num_vertices=1, attach=(edge_attach, tri_attach))


# ---------------------------------------------------------------------------
# the functors between the two categories
# ---------------------------------------------------------------------------


def functor_p(s: SemiSimplicialSet) -> TriangulatedSet:
    """Forget the chosen orderings: simplices become reduced facets.

    Decorated facets of the result are pairs (simplex, ordering), on which
    the symmetric groups act freely; in the reduced encoding the slots are
    the vertex positions and each attachment is the order-collapsing
    injection induced by the face map.
    """
    s.validate()
    levels = []
    for d in range(1, s.dimension + 1):
        facets = []
        for fs in s.faces[d - 1]:
            atts = []
            for k in range(d + 1):
                inj = tuple(None if j == k else (j if j < k else j - 1) for j in range(d + 1))
                atts.append((fs[k], inj))
            facets.append(tuple(atts))
        levels.append(tuple(facets))
    t = TriangulatedSet(num_vertices=s.num_vertices, attach=tuple(levels))
    t.validate()
    return t


def functor_q(t: TriangulatedSet) -> SemiSimplicialSet:
    """Flag complex: simplices are chains of reduced facets under the face order.

    The face order puts a < b when a is an iterated face of b.  Chains are
    sets of reduced facets (no incidence multiplicity), so the result is
    only homotopy-faithful for simple inputs; homology of non-simple
    complexes is computed directly on the facets, never through this
    functor.
    """
    t.validate()
    table = t.incidence
    chains_by_len: list[list[tuple[int, ...]]] = [[(h,) for h in range(len(table.cells))]]
    id_by_chain: list[dict[tuple[int, ...], int]] = [{c: k for k, c in enumerate(chains_by_len[0])}]
    while True:
        nxt = sorted(chain + (h,) for chain in chains_by_len[-1] for h, _ in table.cofaces[chain[-1]])
        if not nxt:
            break
        chains_by_len.append(nxt)
        id_by_chain.append({c: k for k, c in enumerate(nxt)})

    levels = []
    for ln in range(1, len(chains_by_len)):
        face_tuples = []
        for chain in chains_by_len[ln]:
            fs = []
            for k in range(ln + 1):
                sub = chain[:k] + chain[k + 1 :]
                fs.append(id_by_chain[ln - 1][sub])
            face_tuples.append(tuple(fs))
        levels.append(tuple(face_tuples))
    out = SemiSimplicialSet(num_vertices=len(chains_by_len[0]), faces=tuple(levels))
    out.validate()
    return out


def has_semisimplicial_lift(t: TriangulatedSet) -> bool:
    """Whether the triangulated set is isomorphic to p(S) for some S.

    Equivalent to choosing one ordering of the slots of every reduced facet
    so that every attachment is order preserving.  Searched exhaustively,
    lowest dimension first; intended for desk-scale complexes.
    """
    t.validate()
    facets = [(d, i) for d in range(t.dimension + 1) for i in range(t.count(d))]
    orders: dict = {}
    # depth first over ``facets``: one iterator over the slot orderings per
    # level; ``orders`` holds the accepted ones in facet order
    levels: list = []
    while len(orders) < len(facets):
        d, i = facets[len(orders)]
        if len(levels) == len(orders):
            levels.append(permutations(range(d + 1)))
        for perm in levels[-1]:
            orders[(d, i)] = perm
            if _order_preserving(t, orders, d, i):
                break
        else:  # a resumed level may have no ordering left to try
            orders.pop((d, i), None)
            levels.pop()
            if not orders:
                return False
            orders.popitem()
    return True


def _order_preserving(t: TriangulatedSet, orders: dict, d: int, i: int) -> bool:
    """Whether facet (d, i)'s ordering induces its ordered faces' orderings."""
    order = orders[(d, i)]
    for k in range(d + 1 if d else 0):
        g, inj = t.attachment(d, i, k)
        if (d - 1, g) in orders and tuple(inj[j] for j in order if j != k) != orders[(d - 1, g)]:
            return False
    return True


# ---------------------------------------------------------------------------
# simplicity predicates
# ---------------------------------------------------------------------------


def _as_tset(x) -> TriangulatedSet:
    """The complex as a validated triangulated set, converted and validated once per object."""
    if isinstance(x, SemiSimplicialSet):
        return x.triangulated
    if not isinstance(x, TriangulatedSet):
        raise ValidationError(f"expected a complex, got {type(x).__name__}")
    x.validate()
    return x


def is_simple(x) -> bool:
    """No facet has coinciding faces of any codimension: every incidence multiplicity is one."""
    return all(m == 1 for row in _as_tset(x).incidence.faces for _, m in row)


def is_strictly_simple(x) -> bool:
    """Any two facets meet in nothing or share a unique maximal common face."""
    t = _as_tset(x)
    if not is_simple(t):
        return False
    closures = [{h} | {g for g, _ in row} for h, row in enumerate(t.incidence.faces)]
    for a, b in combinations(closures, 2):
        common = a & b
        if common and not any(common <= closures[m] for m in common):
            return False
    return True


# ---------------------------------------------------------------------------
# isomorphism testing (top-down backtracking)
# ---------------------------------------------------------------------------


def isomorphic(t1: TriangulatedSet, t2: TriangulatedSet) -> bool:
    """Exact isomorphism of triangulated sets, by backtracking search.

    An isomorphism is a dimension-preserving bijection of reduced facets
    plus a slot bijection per facet commuting with all attachments.  Only
    the maximal facets (faces of no other facet) are chosen, top dimension
    first: an image and slot bijection for a facet fixes those of all its
    faces through the attachments, and a clash means backtracking.  Each
    next facet shares a face with those already mapped, so its candidates
    are the unused maximal facets over that face's image (McKay and
    Piperno, *Practical graph isomorphism, II*, 2014, without refinement).
    """
    t1.validate()
    t2.validate()
    if t1.counts() != t2.counts():
        return False
    order = _anchored_order(t1.incidence)
    table2 = t2.incidence
    cells2 = table2.cells
    facet_map: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    used: set[tuple[int, int]] = set()
    # depth first over ``order``: one candidate iterator per level, and per
    # accepted candidate the facets it mapped, undone on backtracking
    levels: list = []
    trails: list[list[tuple[int, int]]] = []
    while len(trails) < len(order):
        facet, anchor = order[len(trails)]
        d, i = facet
        if len(levels) == len(trails):
            if anchor is None:
                pool = range(len(cells2))
            else:
                pool = [h for h, _ in table2.cofaces[table2.index[(anchor[0], facet_map[anchor][0])]]]
            images = [
                cells2[h][1] for h in pool if cells2[h][0] == d and not table2.cofaces[h] and cells2[h] not in used
            ]
            # the facet's one-slot faces mapped so far, the same whenever this level is resumed
            mapped = [(k, inj, facet_map[(d - 1, g)]) for k, (g, inj) in enumerate(t1.attach[d - 1][i] if d else ())
                      if (d - 1, g) in facet_map]
            levels.append((product(images, permutations(range(d + 1))), mapped))
        candidates, mapped = levels[-1]
        for img, perm in candidates:
            if mapped and _clashes(t2, d, img, perm, mapped):
                continue
            trail = _map_closure(t1, t2, facet_map, used, facet, img, perm)
            if trail is not None:
                trails.append(trail)
                break
        else:
            levels.pop()
            if not trails:
                return False
            _unmap(facet_map, used, trails.pop())
    return True


def _anchored_order(table: _Incidence) -> list:
    """The maximal facets in search order, each with an anchor.

    The anchor is the highest-dimensional face the facet shares with the
    facets before it, or None when it shares none.  Facets with the
    highest-dimensional anchor go first, then higher dimensions, then ids.
    """
    cells = table.cells
    closures = {
        cells[h]: {cells[h]} | {cells[g] for g, _ in table.faces[h]}
        for h in sorted(range(len(cells)), key=lambda h: (-cells[h][0], h))
        if not table.cofaces[h]
    }
    covered: set[tuple[int, int]] = set()
    order = []
    while closures:
        anchor, facet = max(
            ((max(faces & covered, default=None), f) for f, faces in closures.items()),
            key=lambda af: -1 if af[0] is None else af[0][0],
        )
        covered |= closures.pop(facet)
        order.append((facet, anchor))
    return order


def _map_closure(t1, t2, facet_map: dict, used: set, facet, img: int, perm: tuple):
    """Map ``facet`` to (img, perm) and every face to what the attachments force.

    Returns the facets newly mapped, or None, with nothing left mapped, when
    a forced image clashes with an earlier one or is used twice.
    """
    trail: list[tuple[int, int]] = []
    todo = [(facet, img, perm)]
    while todo:
        (d, i), img, perm = todo.pop()
        if (d, i) in facet_map or (d, img) in used:
            if facet_map.get((d, i)) == (img, perm):
                continue
            _unmap(facet_map, used, trail)
            return None
        facet_map[(d, i)] = (img, perm)
        used.add((d, img))
        trail.append((d, i))
        for k in range(d + 1 if d else 0):
            g, inj = t1.attachment(d, i, k)
            g2, inj2 = t2.attachment(d, img, perm[k])
            g_perm = [0] * d
            for j in range(d + 1):
                if j != k:
                    g_perm[inj[j]] = inj2[perm[j]]
            todo.append(((d - 1, g), g2, tuple(g_perm)))
    return trail


def _clashes(t2, d: int, img: int, perm: tuple, mapped: list) -> bool:
    """Whether mapping a d-facet to (img, perm) forces another image or slot bijection on one of
    its ``mapped`` (slot, injection, image) one-slot faces, so that :func:`_map_closure` would fail."""
    atts = t2.attach[d - 1][img]
    for k, inj, (g, g_perm) in mapped:
        g2, inj2 = atts[perm[k]]
        if g2 != g or any(g_perm[inj[j]] != inj2[perm[j]] for j in range(d + 1) if j != k):
            return True
    return False


def _unmap(facet_map: dict, used: set, trail) -> None:
    for d, i in trail:
        used.discard((d, facet_map.pop((d, i))[0]))


# ---------------------------------------------------------------------------
# serialization and builtins
# ---------------------------------------------------------------------------


def complex_to_json(x) -> str:
    return json.dumps(x.to_json_dict(), sort_keys=True, indent=1)


def _dec_attachment(pair) -> Attachment:
    g, inj = pair
    return int_tuple([g])[0], tuple(None if v == -1 else v for v in int_tuple(inj))


def complex_from_json_dict(data: dict):
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise ValidationError("unsupported complex schema")
    kind = data.get("kind")
    if kind not in ("ssset", "tset"):
        raise ValidationError("unknown complex kind")
    dims = decode_field(data, "dims", int_tuple)
    if kind == "ssset":
        cls = SemiSimplicialSet
        levels = decode_field(data, "faces", lambda v: tuple(tuple(int_tuple(f) for f in level) for level in v))
    else:
        cls = TriangulatedSet
        levels = decode_field(
            data, "attach", lambda v: tuple(tuple(tuple(map(_dec_attachment, atts)) for atts in level) for level in v)
        )
    if list(dims[1:]) != [len(level) for level in levels] or sum(dims) > MAX_FILE_CELLS:
        raise ValidationError(
            f"malformed field 'dims': {list(dims[:8])} must list the level sizes and total at most {MAX_FILE_CELLS} cells"
        )
    out = cls(dims[0] if dims else 0, levels)
    out.validate()
    return out


def complex_from_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    return complex_from_json_dict(data)


BUILTIN_COMPLEXES = {
    "duncehat": make_duncehat,
    "cyclic-triangle": make_cyclic_triangle,
    "tetrahedron-boundary": make_tetrahedron_boundary,
    "single-2-simplex": make_single_2_simplex,
    "circle": make_cycle_graph,
}


def builtin_complex(name: str):
    try:
        return BUILTIN_COMPLEXES[name]()
    except KeyError:
        raise ValidationError(f"unknown builtin complex {name!r}; have {sorted(BUILTIN_COMPLEXES)}")
