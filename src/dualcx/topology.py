"""Integer homology, collapsibility, and fundamental-group machinery.

Everything here works on the facet encodings of :mod:`dualcx.simplicial`.
Semi-simplicial input is converted through ``functor_p`` first, once per
object (``SemiSimplicialSet.triangulated``); that keeps the facet lists,
attachments, chain complexes and incidence counts literally identical, so
no result depends on which encoding the caller holds.  Each set validates
once, and every face, coface and multiplicity comes from the one incidence
table it holds.

Boundary maps of triangulated sets are computed directly on reduced facets
with permutation-parity signs against the stored slot order.  This is the
correctness-critical path: the flag functor is only homotopy-faithful for
simple complexes, so homology never goes through it.

All integer linear algebra is exact (Python integers).  Boundary maps are
stored as sparse columns; their unit pivots are eliminated first, and only
the leftover block goes to the Smith normal form.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from math import prod

from .errors import BudgetError, ValidationError
from .simplicial import SemiSimplicialSet, _as_tset, _Incidence

MAX_HOMOLOGY_DIM = 4


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b), g > 0 for (a, b) != (0, 0)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


_SWAP = ((0, 1), (1, 0))


def _row_op(mats, t: int, i: int, block) -> None:
    """Replace rows (t, i) of every matrix in ``mats`` by the 2x2 ``block`` times them.

    A block row equal to a row of the identity takes that row over as it is,
    so a swap moves no entries, ``((1, 0), (c, d))`` rewrites row i only,
    and with ``t == i`` the second block row alone acts: ``((1, 0), (0, -1))``
    negates the row.
    """
    for M in mats:
        x, y = M[t], M[i]
        M[t], M[i] = _mix(block[0], x, y), _mix(block[1], x, y)


def _mix(coeffs, x, y):
    """The row ``a x + b y`` for ``coeffs == (a, b)``; x or y itself for (1, 0) or (0, 1)."""
    a, b = coeffs
    if b == 0 and a == 1:
        return x
    if a == 0 and b == 1:
        return y
    return [a * p + b * q for p, q in zip(x, y)]


def _clear_column(mats, t: int) -> bool:
    """Zero column t of ``mats[0]`` below the pivot by row operations on all of ``mats``.

    Exact multiples eliminate plainly (the pivot row is untouched);
    otherwise a 2x2 Bezout block runs, which strictly shrinks the pivot to
    the gcd.  Euclid's coefficients are not used in the exact case on
    purpose: for divisible pairs they can return a mixing block (s = 0)
    that would undo previous clearing forever.  Returns whether row t is
    then zero beyond the pivot.
    """
    A = mats[0]
    for i in range(t + 1, len(A)):
        a, b = A[t][t], A[i][t]
        if b == 0:
            continue
        if a == 0:
            block = _SWAP
        elif b % a == 0:
            block = ((1, 0), (-(b // a), 1))
        else:
            g, s, tt = _extended_gcd(a, b)
            block = ((s, tt), (-(b // g), a // g))
        _row_op(mats, t, i, block)
    return not any(A[t][t + 1 :])


def _transpose(M) -> list[list[int]]:
    return list(map(list, zip(*M)))


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over the integers: returns (D, U, V), U M V = D.

    D is diagonal with d_i | d_{i+1} and d_i >= 0; U and V are unimodular.
    Every step is one unimodular two-row operation (:func:`_row_op`): row
    steps act on (A, U), column steps on the transposes (A^T, V^T); a
    column swap exchanges the two entries of each row of A in place.
    Elimination uses 2x2 Bezout blocks (one shot per entry, determinant
    one), which terminates with moderate coefficient growth; arithmetic is
    exact arbitrary-precision throughout.
    """
    A = [[int(x) for x in row] for row in matrix]
    _check_rows(A, "smith_normal_form")
    m = len(A)
    n = len(A[0]) if m else 0
    U, Vt = ([[1 if i == j else 0 for j in range(k)] for i in range(k)] for k in (m, n))
    t = 0
    while t < min(m, n):
        # move the first nonzero entry of the trailing block to the pivot seat
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if A[i][j]), None)
        if pivot is None:
            break
        if pivot[0] != t:
            _row_op((A, U), t, pivot[0], _SWAP)
        if pivot[1] != t:
            j = pivot[1]
            for row in A:
                row[t], row[j] = row[j], row[t]
            _row_op((Vt,), t, j, _SWAP)
        # alternate row and column clearing; the pivot gcd-decreases, and
        # once it stabilizes one exact pass leaves both clear
        while not _clear_column((A, U), t):
            At = _transpose(A)
            cleared = _clear_column((At, Vt), t)
            A = _transpose(At)
            if cleared:
                break
        # divisibility: fold a row with a non-multiple entry into the pivot row, redo
        p = A[t][t]
        fold = next((i for i in range(t + 1, m) if any(x % p for x in A[i][t + 1 :])), None)
        if fold is None:
            t += 1
        else:
            _row_op((A, U), t, fold, ((1, 1), (0, 1)))

    for i in range(min(m, n)):
        if A[i][i] < 0:
            _row_op((A, U), i, i, ((1, 0), (0, -1)))
    return A, U, _transpose(Vt)


def _check_rows(rows, what: str) -> None:
    """Raise unless every row has the length of the first, naming the rows that differ."""
    if ragged := [i for i, row in enumerate(rows) if len(row) != len(rows[0])]:
        raise ValidationError(f"{what} got ragged rows: rows {ragged} differ in length from row 0")


def lattice_span_index(vectors) -> int:
    """Index of the sublattice spanned by integer vectors; 0 if rank-deficient.

    The index is the product of the invariant factors of the stacked
    matrix, i.e. the absolute determinant when the matrix is square of full
    rank.  The vectors go to :func:`_rank_and_torsion` as sparse columns:
    the transpose has the same invariant factors.
    """
    rows = [list(map(int, v)) for v in vectors]
    if not rows:
        raise ValidationError("lattice_span_index needs at least one vector")
    _check_rows(rows, "lattice_span_index")
    rank, torsion = _rank_and_torsion([_column(enumerate(row)) for row in rows])
    return prod(torsion) if rank == len(rows[0]) else 0


# ---------------------------------------------------------------------------
# chain complexes and homology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerChainComplex:
    """Ranks and sparse integer boundary maps; boundaries[n] maps degree n to n-1.

    ``boundaries[n][i]`` is column i of d_n as ``{row: coeff}`` with no zero
    coefficients; boundaries[0] is the empty map out of degree 0.  The
    shapes and the square-zero identity are checked at construction time,
    column by column.
    """

    ranks: tuple[int, ...]
    boundaries: tuple[tuple[dict[int, int], ...], ...]

    def __post_init__(self):
        for n in range(1, len(self.ranks)):
            cols = self.boundaries[n]
            if len(cols) != self.ranks[n] or any(not 0 <= r < self.ranks[n - 1] for col in cols for r in col):
                raise ValidationError(f"boundary {n} has wrong shape")
        for n in range(2, len(self.ranks)):
            below = self.boundaries[n - 1]
            for col in self.boundaries[n]:
                image: dict[int, int] = {}
                for r, a in col.items():
                    for s, b in below[r].items():
                        image[s] = image.get(s, 0) + a * b
                if any(image.values()):
                    raise ValidationError(f"boundary squared is nonzero in degree {n}")


@cache
def _injection_parity(inj: tuple, deleted: int, dim: int) -> int:
    """Sign of the injection as a permutation of the target slot order, computed once per distinct argument."""
    images = [inj[j] for j in range(dim + 1) if j != deleted]
    return -1 if sum(a > b for a, b in combinations(images, 2)) % 2 else 1


def _column(terms) -> dict[int, int]:
    """The sparse column summing ``(row, coeff)`` terms, zeros dropped."""
    col: dict[int, int] = {}
    for r, a in terms:
        col[r] = col.get(r, 0) + a
    return {r: a for r, a in col.items() if a}


def chain_complex(x) -> IntegerChainComplex:
    """Cellular chain complex on reduced facets.

    For a facet f with slots 0..n, the boundary is
    ``sum_k (-1)^k sign(inj_k) [target_k]`` where ``sign`` compares the
    attachment injection against the target's stored slot order.  For
    complexes coming from semi-simplicial sets every injection is order
    preserving and this reduces to the alternating face sum.
    """
    t = _as_tset(x)
    if t.dimension > MAX_HOMOLOGY_DIM:
        raise ValidationError(f"homology supported up to dimension {MAX_HOMOLOGY_DIM}")
    boundaries: list[tuple[dict[int, int], ...]] = [()]
    for n in range(1, t.dimension + 1):
        boundaries.append(tuple(
            _column((g, (-1) ** k * _injection_parity(inj, k, n)) for k, (g, inj) in enumerate(atts))
            for atts in t.attach[n - 1]
        ))
    return IntegerChainComplex(ranks=t.counts(), boundaries=tuple(boundaries))


@dataclass(frozen=True)
class HomologyGroup:
    betti: int
    torsion: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def __str__(self) -> str:
        parts = ["Z"] * self.betti + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def _rank_and_torsion(columns) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors above one of the matrix with these sparse columns.

    Unit pivots are eliminated first, as in Kaczynski, Mrozek and Slusarek,
    *Homology computation by reduction of chain complexes* (1998): a +-1
    entry splits off a factor of one by unimodular column and row
    operations, after which its row and column are dropped.  Rows are
    taken shortest first, so a face left with one coface goes without
    fill-in, as in a coreduction.  Only the leftover block, with no unit
    entry, goes to :func:`smith_normal_form`.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(j)
    heap = [(len(js), r) for r, js in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        n, r = heapq.heappop(heap)
        if r not in rows or len(rows[r]) != n:
            continue  # stale: the row was dropped or has changed length
        j = min((j for j in rows[r] if cols[j][r] in (1, -1)), key=lambda j: (len(cols[j]), j), default=None)
        if j is None:
            continue  # no unit here; pushed again if its entries change
        pivot = cols.pop(j)
        unit = pivot.pop(r)
        for s in pivot:
            rows[s].discard(j)
        for k in rows.pop(r) - {j}:
            col = cols[k]
            f = col.pop(r) * unit
            for s, a in pivot.items():
                v = col.get(s, 0) - f * a
                if v:
                    col[s] = v
                    rows[s].add(k)
                else:
                    del col[s]
                    rows[s].discard(k)
        for s in pivot:
            heapq.heappush(heap, (len(rows[s]), s))
        rank += 1
    left = sorted(j for j, col in cols.items() if col)
    if not left:
        return rank, ()
    index = {r: i for i, r in enumerate(sorted(r for r, js in rows.items() if js))}
    block = [[0] * len(left) for _ in index]
    for c, j in enumerate(left):
        for r, a in cols[j].items():
            block[index[r]][c] = a
    D, _, _ = smith_normal_form(block)
    factors = [D[i][i] for i in range(min(len(index), len(left))) if D[i][i]]
    return rank + len(factors), tuple(d for d in factors if d > 1)


def homology(x, reduced: bool = False) -> list[HomologyGroup]:
    """Integer homology in all degrees, from the invariant factors of each boundary map."""
    cc = chain_complex(x)
    top = len(cc.ranks)
    # (rank, torsion) of d_n, with d_0 and d_top zero
    factors = [(0, ())] + [_rank_and_torsion(cc.boundaries[n]) for n in range(1, top)] + [(0, ())]
    out = []
    for n in range(top):
        betti = cc.ranks[n] - factors[n][0] - factors[n + 1][0]
        out.append(HomologyGroup(betti, factors[n + 1][1]))
    if reduced and out:
        out[0] = HomologyGroup(out[0].betti - 1, out[0].torsion)
    return out


def euler_characteristic(x) -> int:
    return _as_tset(x).euler_characteristic()


# ---------------------------------------------------------------------------
# free faces and collapsibility
# ---------------------------------------------------------------------------


def free_faces(x) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All (face, unique coface) pairs, incidence counted with multiplicity.

    A facet g is free when the total number of ways any other facet runs
    over g is exactly one; the unique incidence is then through a facet one
    dimension up.  The dunce hat edge sits three times inside its one
    triangle, so it is not free.
    """
    table = _as_tset(x).incidence
    cells = table.cells
    return [(cells[g], cells[f]) for g, f in table.free_pairs((1 << len(cells)) - 1, table.counts(), range(len(cells)))]


@dataclass(frozen=True)
class CollapseResult:
    """Outcome of a collapsibility decision.

    status is 'collapsible', 'non_collapsible', or 'inconclusive';
    ``certificate`` is the ordered list of removed (free face, coface)
    pairs when status is 'collapsible'.  'non_collapsible' is reported
    with ``exhausted`` set: in dimension at most 2 when the search's first
    descent got stuck, above that only when the whole search space was
    enumerated within budget.  ``core_counts`` holds the cell counts per
    dimension of the stuck complex (the 2-core) in dimension at most 2,
    else None.
    """

    status: str
    certificate: tuple | None
    states_explored: int
    exhausted: bool
    core_counts: tuple[int, ...] | None = None


def is_collapsible(x, budget: int = 100_000) -> CollapseResult:
    """Decide whether the complex collapses to a vertex.

    One depth-first search removes free pairs in lexicographic order over
    the cells sorted by (dim, id), so a certificate is the lexicographically
    least collapse sequence.  Each cell's incidence from the other alive
    cells is kept in a count list, updated for the two cells of every
    removed pair; only the faces of the removed coface can become free.

    In dimension at most 2 the search stops at its first dead end, which
    decides at any budget: removals only lower counts, so a free pair stays
    free until its coface goes and the stuck complex (the 2-core) does not
    depend on the order, and a graph collapses to a vertex exactly when it
    is a tree.  It explores one state per removed pair, plus the stuck one.
    In dimension 3 and up, where deciding is NP-complete, it backtracks
    with memoization over the bitmasks of alive cells, 'inconclusive' past
    ``budget`` states.
    """
    if budget <= 0:
        raise BudgetError("collapse search needs a positive budget")
    t = _as_tset(x)
    table = t.incidence
    backtrack = t.dimension > 2
    cert, explored, left = _collapse_search(table, budget, backtrack)
    cells = table.cells
    if cert is not None:
        return CollapseResult("collapsible", tuple((cells[g], cells[f]) for g, f in cert), explored, exhausted=False)
    if not backtrack:
        core = Counter(cells[h][0] for h in range(len(cells)) if left >> h & 1)
        return CollapseResult("non_collapsible", None, explored, exhausted=True,
                              core_counts=tuple(core[d] for d in range(t.dimension + 1)))
    if explored > budget:
        return CollapseResult("inconclusive", None, explored, exhausted=False)
    return CollapseResult("non_collapsible", None, explored, exhausted=True)


def _collapse_search(table: _Incidence, budget: int, backtrack: bool) -> tuple[list | None, int, int]:
    """The least collapse sequence of index pairs to a vertex, the states explored, and the cells left.

    Depth first over an explicit stack of frames (alive cells, their free
    pairs sorted by face, an iterator over the pairs not yet tried), with
    the removed pairs as the path.  Each child's free pairs are derived
    from its parent's by re-examining only the faces of the removed coface.
    Every state entered is counted.  At a dead end the search stops there
    unless ``backtrack``, and without it the child replaces its parent's
    frame and nothing is remembered: a strictly shrinking descent cannot
    revisit a state.  With it, ``seen`` holds every non-vertex state
    entered (so its size is the count), a child already in it is skipped,
    and a dead end restores the last pair's counts and tries the next pair;
    the search gives up past ``budget`` states.  The sequence is None when
    no vertex was reached.
    """
    alive, count = (1 << len(table.cells)) - 1, table.counts()
    free = table.free_pairs(alive, count, range(len(count)))
    seen: set[int] = set()
    explored = 0
    path, stack = [], []
    while not table.is_vertex(alive):
        explored += 1
        if backtrack:
            seen.add(alive)
            if explored > budget:
                return None, explored, alive
            stack.append((alive, free, iter(free)))
        else:
            stack[-1:] = [(alive, free, iter(free))]
        while True:
            alive, free, untried = stack[-1]
            pair = next((p for p in untried if alive & ~(1 << p[0] | 1 << p[1]) not in seen), None)
            if pair is not None:
                break
            if not backtrack or len(stack) == 1:
                return None, explored, alive
            stack.pop()
            table.add(count, path.pop(), 1)
        g, f = pair
        alive &= ~(1 << g | 1 << f)
        table.add(count, pair, -1)
        # a pair touching g or f has coface f (g's only coface, and maximal),
        # and only the faces of f changed count
        free = sorted([p for p in free if p[1] != f] + table.free_pairs(alive, count, [h for h, _ in table.faces[f]]))
        path.append(pair)
    return path, explored, alive


def replay_collapse(x, certificate) -> bool:
    """Re-run a collapse certificate, checking every step is legal."""
    table = _as_tset(x).incidence
    alive = (1 << len(table.cells)) - 1
    count = table.counts()
    for g, f in certificate:
        g = table.index.get(tuple(g))
        f = table.index.get(tuple(f))
        if g is None or f is None or table.free_pairs(alive, count, [g]) != [(g, f)]:
            return False
        table.add(count, (g, f), -1)
        alive &= ~(1 << g | 1 << f)
    return table.is_vertex(alive)


# ---------------------------------------------------------------------------
# barycentric subdivision (true geometric one)
# ---------------------------------------------------------------------------


def barycentric_subdivision(x) -> SemiSimplicialSet:
    """Geometric barycentric subdivision of the realization.

    Every n-cell splits into (n+1)! simplices indexed by flags of slot
    subsets; pieces whose top subset is proper are identified into the
    corresponding face cell, with incidence multiplicity preserved.  The
    result is naturally semi-simplicial (vertices ordered by subset size).
    Unlike the flag functor, this is a genuine subdivision for non-simple
    complexes as well.
    """
    out = _subdivided(_as_tset(x))
    out.validate()
    return out


@cache
def _flag_template(d: int) -> tuple[list, dict, list]:
    """The flags of a d-cell, strict chains of slot subsets (bitmasks) ending at the full set.

    ``flags[ln]`` lists those of length ln by their subsets' sorted slot tuples, ``place`` maps a
    flag to its position, and ``inner[ln][p]`` holds the positions of flag p without its k-th
    subset, for every k but the top one.
    """
    full = (1 << d + 1) - 1
    flags = [[], [(full,)]]
    for ln in range(2, d + 2):
        # prepend each nonempty proper submask of the flag's least subset
        flags.append([(s,) + c for c in flags[-1] for s in range(1, c[0]) if s & c[0] == s])
    slots = {m: tuple(b for b in range(d + 1) if m >> b & 1) for m in range(full + 1)}
    for level in flags:
        level.sort(key=lambda c: tuple(slots[m] for m in c))
    place = {c: p for level in flags for p, c in enumerate(level)}
    inner = [[tuple(place[c[:k] + c[k + 1 :]] for k in range(ln - 1)) for c in level] for ln, level in enumerate(flags)]
    return flags, place, inner


def _subdivided(t) -> SemiSimplicialSet:
    """The faces of :func:`barycentric_subdivision` of ``t``, unvalidated.

    The cells of each length are the flags of the d-cells in (d, id, template) order, so an id is
    an offset plus a template position.  A face drops one subset of the flag: an inner one is a
    template lookup, and the top one leaves a flag of the face across the new top subset T, read
    through one ``delete_slots`` per (cell, T).
    """
    dim = t.dimension
    templates = [_flag_template(d) for d in range(dim + 1)]
    # start[ln][d]: the first id of the length-ln cells over the d-cells
    start = [list(accumulate((t.count(d) * len(fl[ln]) if ln < len(fl) else 0 for d, (fl, _, _) in enumerate(templates)),
                             initial=0)) for ln in range(dim + 2)]
    levels = [[] for _ in range(dim + 2)]
    for d in range(1, dim + 1):
        flags, _, inner = templates[d]
        for i in range(t.count(d)):
            across = {}
            for top in range(1, (1 << d + 1) - 1):
                e, j, smap = t.delete_slots(d, i, frozenset(s for s in range(d + 1) if not top >> s & 1))
                image = {0: 0}  # every subset of ``top`` on the slots of (e, j)
                for s, to in smap.items():
                    image.update({m | 1 << s: v | 1 << to for m, v in image.items()})
                across[top] = e, j, image
            for ln in range(2, d + 2):
                base = start[ln - 1][d] + i * len(flags[ln - 1])
                for flag, places in zip(flags[ln], inner[ln]):
                    e, j, image = across[flag[-2]]
                    e_flags, e_place, _ = templates[e]
                    last = start[ln - 1][e] + j * len(e_flags[ln - 1]) + e_place[tuple(image[m] for m in flag[:-1])]
                    levels[ln].append(tuple(base + p for p in places) + (last,))
    return SemiSimplicialSet(num_vertices=start[1][dim + 1], faces=tuple(map(tuple, levels[2:])))


# ---------------------------------------------------------------------------
# group presentations
# ---------------------------------------------------------------------------


def free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation; relators are words of nonzero generator indices.

    Generator k is the letter k+1; its inverse is -(k+1).  Relators are
    stored freely reduced.
    """

    num_generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for rel in self.relators:
            for x in rel:
                if x == 0 or abs(x) > self.num_generators:
                    raise ValidationError("relator references a missing generator")
            if free_reduce(rel) != rel:
                raise ValidationError("relators must be freely reduced")

    def abelianization(self) -> HomologyGroup:
        exponents = [_column((abs(x) - 1, 1 if x > 0 else -1) for x in rel) for rel in self.relators]
        rank, torsion = _rank_and_torsion(exponents)
        return HomologyGroup(self.num_generators - rank, torsion)


def presentation(num_generators: int, relators) -> GroupPresentation:
    return GroupPresentation(num_generators, tuple(free_reduce(tuple(r)) for r in relators))


def edge_path_presentation(x) -> GroupPresentation:
    """Edge-path presentation of the fundamental group of a 2-complex.

    Generators: edges off a breadth-first spanning tree from vertex 0,
    numbered by id.  The tree walks the incidence table: vertex u is cell
    u, and its edges lead its cofaces in id order.  Relators: boundary
    words of the 2-cells, read off the slot attachments; a side whose
    injection reverses the edge contributes the inverse letter.  Requires
    a connected complex.
    """
    t = _as_tset(x)
    if t.dimension > 2:
        raise ValidationError("edge-path presentations are for complexes of dimension <= 2")
    nv, ne = t.count(0), t.count(1)
    if nv == 0:
        raise ValidationError("empty complex")

    table = t.incidence
    reached, tree = {0}, set()
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for h, _ in table.cofaces[u]:
            if h >= nv + ne:
                break  # the triangles follow the edges
            for v, _ in table.faces[h]:
                if v not in reached:
                    reached.add(v)
                    tree.add(h - nv)
                    queue.append(v)
    if len(reached) < nv:
        raise ValidationError("edge-path presentation needs a connected complex")

    gen = {e: k for k, e in enumerate((e for e in range(ne) if e not in tree), 1)}
    relators = []
    for f in range(t.count(2)):
        word = []
        # boundary path corner 0 -> 1 -> 2 -> 0; side (a,b) is the face
        # deleting the third slot, traversed from slot a to slot b
        for a, b, deleted in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            edge, inj = t.attachment(2, f, deleted)
            if edge in gen:
                word.append(gen[edge] if (inj[a], inj[b]) == (0, 1) else -gen[edge])
        relators.append(free_reduce(tuple(word)))
    return GroupPresentation(len(gen), tuple(relators))


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TietzeResult:
    status: str                     # 'trivial' | 'inconclusive'
    moves: tuple | None             # replayable move log when trivial
    reason: str
    states_explored: int = 0


def _substitute(rel: tuple[int, ...], gen: int, value: tuple[int, ...]) -> tuple[int, ...]:
    inv = _inverse(value)
    out: list[int] = []
    for x in rel:
        if x == gen:
            out.extend(value)
        elif x == -gen:
            out.extend(inv)
        else:
            out.append(x)
    return free_reduce(tuple(out))


def _drop_generator(p: GroupPresentation, gen: int, value: tuple[int, ...]) -> GroupPresentation:
    """Substitute gen := value everywhere, then renumber generators densely."""
    rels = (cyclic_reduce(_substitute(rel, gen, value)) for rel in p.relators)
    return GroupPresentation(p.num_generators - 1, tuple(_renumbered(w, [gen]) for w in rels if w))


def _renumbered(word: tuple[int, ...], gone: list[int]) -> tuple[int, ...]:
    """The word with each letter's id lowered by the eliminated ids below it; ``gone`` is sorted."""
    return tuple(x - bisect_left(gone, x) if x > 0 else x + bisect_left(gone, -x) for x in word)


def _canonical(p: GroupPresentation):
    return (p.num_generators, tuple(sorted(min(_rotations(r)) for r in p.relators if r)))


def _rotations(word: tuple[int, ...]):
    outs = []
    for w in (word, _inverse(word)):
        for k in range(max(1, len(w))):
            outs.append(w[k:] + w[:k])
    return outs


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def _eliminations(p: GroupPresentation):
    """(gen, value) for each generator occurring exactly once in a relator,
    with the value the relator forces; relators by length, then generators
    in order."""
    for rel in sorted(p.relators, key=len):
        for g in _once(rel):
            yield g, _solve_for(rel, g)


def _solve_for(word: tuple[int, ...], gen: int) -> tuple[int, ...]:
    """The value ``word = 1`` forces for a generator occurring in it once."""
    k = next(k for k, x in enumerate(word) if abs(x) == gen)
    rest = word[k + 1 :] + word[:k]
    return _inverse(rest) if word[k] > 0 else rest


def _greedy_pass(p: GroupPresentation) -> tuple[GroupPresentation, list]:
    """Eliminate, while it can, a generator occurring once in a shortest relator.

    The one taken has the least length growth before free reduction (each
    other occurrence grows by ``len(rel) - 2``), the first on ties.
    Relators of ``p`` (cyclically reduced, none empty) keep its ids, and
    only those containing the eliminated generator are rewritten; each
    move is logged in its step's numbering.
    """
    rels = [(w, _once(w)) for w in p.relators]
    occ = Counter(abs(x) for w in p.relators for x in w)
    gone: list[int] = []
    moves = []
    while True:
        best = None
        for w, once in rels:
            for g in once:
                key = (len(w), (occ[g] - 1) * (len(w) - 2))
                if best is None or key < best[0]:
                    best = key, w, g
        if best is None:
            break
        _, w, g = best
        value = _solve_for(w, g)
        moves.append(("eliminate", *_renumbered((g,), gone), _renumbered(value, gone)))
        insort(gone, g)
        kept = []
        for w, once in rels:
            if g in map(abs, w):
                occ.subtract(map(abs, w))
                w = cyclic_reduce(_substitute(w, g, value))
                if not w:
                    continue  # dropped, the order of the others kept
                occ.update(map(abs, w))
                once = _once(w)
            kept.append((w, once))
        rels = kept
    return GroupPresentation(p.num_generators - len(gone), tuple(_renumbered(w, gone) for w, _ in rels)), moves


def _once(word: tuple[int, ...]) -> list[int]:
    """The generators occurring exactly once in the word, in order."""
    return sorted(g for g, n in Counter(map(abs, word)).items() if n == 1)


def tietze_trivialize(p: GroupPresentation, budget: int = 1_000_000) -> TietzeResult:
    """Bounded search for a Tietze trivialization certificate.

    Nontrivial abelianization short-circuits to 'inconclusive' (the group
    is then provably nontrivial, which the reason records).  Otherwise a
    greedy pass in the style of Havas, Kenne, Richardson and Robertson
    (*A Tietze transformation program*, 1984) eliminates, while it can, a
    generator occurring exactly once in a shortest relator.  A
    shortest-first search over generator eliminations and relator products
    then runs from where the greedy pass stopped, with its moves as the
    log prefix, until the empty presentation is reached or the budget is
    exhausted.  Each greedy move counts as one explored state, as does each
    presentation the search expands, the final empty one included.  The
    move log replays through :func:`replay_tietze`.
    """
    if budget <= 0:
        raise BudgetError("tietze search needs a positive budget")
    ab = p.abelianization()
    if not ab.is_trivial():
        return TietzeResult("inconclusive", None, f"abelianization is {ab}, group is nontrivial")

    start, greedy = _greedy_pass(_start_presentation(p))
    seen = set()
    explored = len(greedy)
    # priority queue on (total length, generators)
    heap = [(sum(map(len, start.relators)) + start.num_generators, 0, start, greedy)]
    counter = 1
    while heap:
        _, _, cur, moves = heapq.heappop(heap)
        key = _canonical(cur)
        if key in seen:
            continue
        seen.add(key)
        explored += 1
        if explored > budget:
            return TietzeResult("inconclusive", None, "budget exhausted", explored)
        if cur.num_generators == 0:
            return TietzeResult("trivial", tuple(moves), "reached the empty presentation", explored)

        candidates = [(_drop_generator(cur, g, v), ("eliminate", g, v)) for g, v in _eliminations(cur)]
        # shorten a relator against another
        for i, j, e, nxt in _relator_products(cur):
            candidates.append((nxt, ("multiply", i, j, e)))
        for nxt, mv in candidates:
            k2 = _canonical(nxt)
            if k2 not in seen:
                heapq.heappush(
                    heap,
                    (sum(map(len, nxt.relators)) + nxt.num_generators, counter, nxt, moves + [mv]),
                )
                counter += 1
    return TietzeResult("inconclusive", None, "search space exhausted without certificate", explored)


def _start_presentation(p: GroupPresentation) -> GroupPresentation:
    """The presentation with its relators cyclically reduced and empty ones dropped."""
    return GroupPresentation(p.num_generators, tuple(w for w in map(cyclic_reduce, p.relators) if w))


def _relator_products(p: GroupPresentation):
    """(i, j, e, result) for every product rel_i rel_j^e (e = +-1) that is
    shorter than rel_i once cyclically reduced; an empty product deletes rel_i."""
    rels = p.relators
    for i in range(len(rels)):
        for j in range(len(rels)):
            if i == j:
                continue
            for e, w in ((1, rels[j]), (-1, _inverse(rels[j]))):
                cand = cyclic_reduce(rels[i] + w)
                if len(cand) < len(rels[i]):
                    new_rels = rels[:i] + ((cand,) if cand else ()) + rels[i + 1 :]
                    yield i, j, e, GroupPresentation(p.num_generators, new_rels)


def replay_tietze(p: GroupPresentation, moves) -> bool:
    """Re-run a Tietze move log, checking that every move is legal.

    An ``("eliminate", gen, value)`` move is legal when ``value`` does not
    contain ``gen`` and ``gen value^-1`` is a relator of the current
    presentation up to rotation and inversion; the generator is then
    substituted away.  A ``("multiply", i, j, e)`` move replaces relator
    ``i`` by ``rel_i rel_j^e`` and is legal when that shortens it.  The log
    certifies triviality when it ends at zero generators.
    """
    cur = _start_presentation(p)
    for move in moves:
        if move[0] == "eliminate":
            _, gen, value = move
            value = tuple(value)
            if not 1 <= gen <= cur.num_generators or gen in map(abs, value):
                return False
            if not any(cyclic_reduce((gen,) + _inverse(value)) in _rotations(rel) for rel in cur.relators):
                return False
            cur = _drop_generator(cur, gen, value)
        elif move[0] == "multiply":
            step = next((nxt for i, j, e, nxt in _relator_products(cur) if (i, j, e) == tuple(move[1:])), None)
            if step is None:
                return False
            cur = step
        else:
            return False
    return cur.num_generators == 0
