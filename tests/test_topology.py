"""Homology, Smith form, collapsibility, presentations, subdivision."""

import gc
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, groupby, islice, permutations, product

import numpy as np
import pytest

from dualcx import accept, simplicial
from dualcx.errors import BudgetError, ValidationError
from dualcx.ncgeom import BUILTIN_SURFACES, dual_complex, pic0_structure
from dualcx.simplicial import (
    BUILTIN_COMPLEXES,
    SemiSimplicialSet,
    TriangulatedSet,
    _as_tset,
    functor_p,
    functor_q,
    is_simple,
    is_strictly_simple,
    isomorphic,
    make_cycle_graph,
    make_cyclic_triangle,
    make_duncehat,
    make_single_2_simplex,
    make_tetrahedron_boundary,
)
from dualcx.topology import (
    CollapseResult,
    GroupPresentation,
    IntegerChainComplex,
    _drop_generator,
    _extended_gcd,
    _eliminations,
    _greedy_pass,
    _start_presentation,
    _substitute,
    barycentric_subdivision,
    chain_complex,
    cyclic_reduce,
    edge_path_presentation,
    euler_characteristic,
    free_faces,
    free_reduce,
    homology,
    is_collapsible,
    lattice_span_index,
    presentation,
    replay_collapse,
    replay_tietze,
    smith_normal_form,
    tietze_trivialize,
)

BUILTINS = {
    "duncehat": make_duncehat(),
    "cyclic": make_cyclic_triangle(),
    "sphere": make_tetrahedron_boundary(),
    "simplex": make_single_2_simplex(),
}


def groups(x):
    return [(h.betti, h.torsion) for h in homology(x)]


def boundary_matrix(cc: IntegerChainComplex, n: int) -> list[list[int]]:
    """d_n of ``cc`` as dense rows; empty outside degrees 1 .. top."""
    if not 0 < n < len(cc.ranks):
        return []
    rows = [[0] * cc.ranks[n] for _ in range(cc.ranks[n - 1])]
    for i, col in enumerate(cc.boundaries[n]):
        for r, a in col.items():
            rows[r][i] = a
    return rows


def test_chain_complexes_of_the_key_examples():
    cc = chain_complex(make_duncehat())
    assert boundary_matrix(cc, 2) == [[1]]
    assert boundary_matrix(cc, 1) == [[0]]
    cyc = chain_complex(make_cyclic_triangle())
    assert abs(boundary_matrix(cyc, 2)[0][0]) == 3


def test_cyclic_boundary_sign_oracle():
    # re-derive the three as the slot attachments demand: side [01] is
    # straight (+), side [12] straight (+), side [20] reversed against the
    # stored edge order, another +1 after the (-1)^k twist
    t = make_cyclic_triangle()
    total = 0
    for k in range(3):
        _, inj = t.attachment(2, 0, k)
        images = [inj[j] for j in range(3) if j != k]
        parity = 1 if images == sorted(images) else -1
        total += (-1) ** k * parity
    assert abs(total) == 3
    assert boundary_matrix(chain_complex(t), 2)[0][0] == total


def test_homology_of_builtins():
    assert groups(make_duncehat()) == [(1, ()), (0, ()), (0, ())]
    assert groups(make_cyclic_triangle()) == [(1, ()), (0, (3,)), (0, ())]
    assert groups(make_tetrahedron_boundary()) == [(1, ()), (0, ()), (1, ())]


def test_smith_normal_form_examples():
    D, U, V = smith_normal_form([[1, 0], [0, 1], [-1, -1]])
    assert [D[0][0], D[1][1]] == [1, 1]
    D, _, _ = smith_normal_form([[3]])
    assert D[0][0] == 3


def integer_det(matrix) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [[Fraction(int(x)) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / inv
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return int(det)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _reference_smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form by entry-wise row and column updates, kept as the
    oracle :func:`smith_normal_form` must match bit for bit: (D, U, V), U M V = D.

    D is diagonal with d_i | d_{i+1} and d_i >= 0; U and V are unimodular.
    Elimination uses 2x2 Bezout blocks (one shot per entry, determinant
    one), which terminates with moderate coefficient growth; arithmetic is
    exact arbitrary-precision throughout.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def clear_row_entry(t: int, i: int):
        """Zero A[i][t] against the pivot by a unimodular row operation.

        Exact multiples eliminate plainly (the pivot row is untouched);
        otherwise a 2x2 Bezout block runs, which strictly shrinks the
        pivot to the gcd.  Euclid's coefficients are not used in the exact
        case on purpose: for divisible pairs they can return a mixing
        block (s = 0) that would undo previous clearing forever.
        """
        a, b = A[t][t], A[i][t]
        if b == 0:
            return
        if a == 0:
            A[t], A[i] = A[i], A[t]
            U[t], U[i] = U[i], U[t]
            return
        if b % a == 0:
            q = b // a
            A[i] = [y - q * x for x, y in zip(A[t], A[i])]
            U[i] = [y - q * x for x, y in zip(U[t], U[i])]
            return
        g, s, tt = _extended_gcd(a, b)
        af, bf = a // g, b // g
        row_t = [s * x + tt * y for x, y in zip(A[t], A[i])]
        row_i = [-bf * x + af * y for x, y in zip(A[t], A[i])]
        A[t], A[i] = row_t, row_i
        u_t = [s * x + tt * y for x, y in zip(U[t], U[i])]
        u_i = [-bf * x + af * y for x, y in zip(U[t], U[i])]
        U[t], U[i] = u_t, u_i

    def clear_col_entry(t: int, j: int):
        a, b = A[t][t], A[t][j]
        if b == 0:
            return
        if a == 0:
            for r in range(m):
                A[r][t], A[r][j] = A[r][j], A[r][t]
            for r in range(n):
                V[r][t], V[r][j] = V[r][j], V[r][t]
            return
        if b % a == 0:
            q = b // a
            for r in range(m):
                A[r][j] -= q * A[r][t]
            for r in range(n):
                V[r][j] -= q * V[r][t]
            return
        g, s, tt = _extended_gcd(a, b)
        af, bf = a // g, b // g
        for r in range(m):
            x, y = A[r][t], A[r][j]
            A[r][t], A[r][j] = s * x + tt * y, -bf * x + af * y
        for r in range(n):
            x, y = V[r][t], V[r][j]
            V[r][t], V[r][j] = s * x + tt * y, -bf * x + af * y

    t = 0
    while t < min(m, n):
        # move some nonzero entry of the trailing block to the pivot seat
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            A[t], A[pivot[0]] = A[pivot[0]], A[t]
            U[t], U[pivot[0]] = U[pivot[0]], U[t]
        if pivot[1] != t:
            for r in range(m):
                A[r][t], A[r][pivot[1]] = A[r][pivot[1]], A[r][t]
            for r in range(n):
                V[r][t], V[r][pivot[1]] = V[r][pivot[1]], V[r][t]
        # alternate row and column clearing; the pivot gcd-decreases, and
        # once it stabilizes one exact pass leaves both clear
        while True:
            for i in range(t + 1, m):
                clear_row_entry(t, i)
            if all(A[t][j] == 0 for j in range(t + 1, n)):
                break
            for j in range(t + 1, n):
                clear_col_entry(t, j)
            if all(A[i][t] == 0 for i in range(t + 1, m)):
                break
        # divisibility: fold a non-multiple entry into the pivot row, redo
        retry = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    A[t] = [x + y for x, y in zip(A[t], A[i])]
                    U[t] = [x + y for x, y in zip(U[t], U[i])]
                    retry = True
                    break
            if retry:
                break
        if not retry:
            t += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return A, U, V


def _smith_oracle_cases():
    rng = np.random.default_rng(16)
    cases = [[], [[]], [[0]], [[0, 0, 0]], [[0], [0]], [[0] * 5 for _ in range(4)]]
    for _ in range(1500):
        m, n = int(rng.integers(0, 9)), int(rng.integers(1, 10))
        entries = rng.integers(-40, 41, size=(m, n)) * (rng.random((m, n)) >= 0.4)
        cases.append(entries.tolist())
    graph_rng = np.random.default_rng(2024)
    for _ in range(200):
        torus = pic0_structure(accept._random_incidence_graph(graph_rng))
        cases.append([list(row) for row in torus.relation_generators])
    return cases


def test_smith_normal_form_matches_the_reference_bitwise():
    for matrix in _smith_oracle_cases():
        assert smith_normal_form(matrix) == _reference_smith_normal_form(matrix), matrix


def test_smith_normal_form_randomized_self_check():
    rng = np.random.default_rng(13)
    for _ in range(8):
        m = rng.integers(-9, 10, size=(6, 7)).tolist()
        D, U, V = smith_normal_form(m)
        prod = [[sum(U[i][k] * m[k][j] for k in range(6)) for j in range(7)] for i in range(6)]
        prod = [[sum(prod[i][k] * V[k][j] for k in range(7)) for j in range(7)] for i in range(6)]
        assert prod == [list(r) for r in D]
        assert abs(integer_det(U)) == 1
        assert abs(integer_det(V)) == 1
        diag = [D[i][i] for i in range(6)]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0


def test_lattice_span_index():
    assert lattice_span_index([(1, 0), (0, 1), (-1, -1)]) == 1
    assert lattice_span_index([(2, 0), (0, 2)]) == 4
    assert lattice_span_index([(1, 1)]) == 0


def _reference_lattice_span_index(vectors) -> int:
    """The product of the dense Smith diagonal of the stacked rows; 0 if rank-deficient."""
    rows = [list(map(int, v)) for v in vectors]
    if not rows:
        raise ValidationError("lattice_span_index needs at least one vector")
    n = len(rows[0])
    D, _, _ = smith_normal_form(rows)
    divisors = [D[i][i] for i in range(min(len(rows), n))]
    if len([d for d in divisors if d != 0]) < n:
        return 0
    idx = 1
    for d in divisors[:n]:
        idx *= d
    return idx


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the message of the ValidationError it raises."""
    try:
        return f(*args)
    except ValidationError as err:
        return f"ValidationError: {err}"


def test_lattice_span_index_matches_the_dense_smith_product():
    cases = _smith_oracle_cases()
    full = 0
    for matrix in cases:
        got = _outcome(lattice_span_index, matrix)
        assert got == _outcome(_reference_lattice_span_index, matrix), matrix
        full += isinstance(got, int) and got > 1
    assert full > 300  # many cases have a full-rank lattice of index above one


def test_free_faces():
    assert free_faces(make_duncehat()) == []
    assert free_faces(make_cyclic_triangle()) == []
    edges = free_faces(make_single_2_simplex())
    assert len(edges) == 3 and all(g[0] == 1 and f[0] == 2 for g, f in edges)


def test_collapsibility_verdicts():
    dunce = is_collapsible(make_duncehat(), budget=10_000)
    assert dunce.status == "non_collapsible" and dunce.exhausted
    assert dunce.core_counts == (1, 1, 1)  # no free face: all of it is critical
    simp = is_collapsible(make_single_2_simplex(), budget=10_000)
    assert simp.status == "collapsible" and len(simp.certificate) == 3 and simp.core_counts is None
    assert replay_collapse(make_single_2_simplex(), simp.certificate)
    sphere = is_collapsible(make_tetrahedron_boundary(), budget=50_000)
    assert sphere.status == "non_collapsible" and sphere.core_counts == (4, 6, 4)
    with pytest.raises(BudgetError):
        is_collapsible(make_duncehat(), budget=0)
    # the empty complex has no vertex to collapse to; a lone vertex is one already
    assert is_collapsible(SemiSimplicialSet(0, ())) == CollapseResult("non_collapsible", None, 1, exhausted=True,
                                                                      core_counts=(0,))
    assert is_collapsible(SemiSimplicialSet(1, ())) == CollapseResult("collapsible", (), 0, exhausted=False)
    assert free_faces(SemiSimplicialSet(0, ())) == []


def _subcomplex(t, alive):
    """Restrict a triangulated set to a downward-closed alive set."""
    from dualcx.simplicial import TriangulatedSet

    ids = {}
    counts = []
    for d in range(t.dimension + 1):
        keep = [i for i in range(t.count(d)) if (d, i) in alive]
        for new, old in enumerate(keep):
            ids[(d, old)] = new
        counts.append(keep)
    levels = []
    for d in range(1, t.dimension + 1):
        level = []
        for old in counts[d]:
            atts = []
            for k in range(d + 1):
                g, inj = t.attachment(d, old, k)
                atts.append((ids[(d - 1, g)], inj))
            level.append(tuple(atts))
        levels.append(tuple(level))
    while levels and not levels[-1]:
        levels.pop()
    out = TriangulatedSet(num_vertices=len(counts[0]), attach=tuple(levels))
    out.validate()
    return out


def test_collapse_preserves_homology_along_certificate():
    from dualcx.simplicial import functor_p

    x = functor_p(make_single_2_simplex())
    cert = is_collapsible(x, budget=10_000).certificate
    assert replay_collapse(x, cert)
    alive = set((d, i) for d in range(x.dimension + 1) for i in range(x.count(d)))
    reference = groups(x)
    for g, f in cert:
        alive -= {tuple(g), tuple(f)}
        sub = _subcomplex(x, alive)
        got = groups(sub)
        padded = got + [(0, ())] * (len(reference) - len(got))
        assert padded == reference


def test_collapse_deterministic_certificate():
    a = is_collapsible(make_single_2_simplex(), budget=10_000).certificate
    b = is_collapsible(make_single_2_simplex(), budget=10_000).certificate
    assert a == b


def test_barycentric_subdivision_of_duncehat():
    b = barycentric_subdivision(make_duncehat())
    assert b.counts() == (3, 8, 6)
    assert euler_characteristic(b) == 1
    assert groups(b) == [(1, ()), (0, ()), (0, ())]
    res = is_collapsible(b, budget=100_000)
    assert res.status in ("non_collapsible", "inconclusive")
    assert res.status == "non_collapsible"  # no free face exists at all


def test_subdivision_preserves_euler_and_homology():
    for name, x in BUILTINS.items():
        b = barycentric_subdivision(x)
        assert euler_characteristic(b) == euler_characteristic(x), name
        assert groups(b) == groups(x), name


def test_euler_poincare():
    for name, x in BUILTINS.items():
        chi = euler_characteristic(x)
        assert chi == sum((-1) ** n * h.betti for n, h in enumerate(homology(x))), name


def test_flag_functor_homology_caveat():
    # the flag functor is homotopy-faithful for the dunce hat but not for
    # the cyclic triangle, whose torsion it forgets (chains carry no
    # incidence multiplicity); homology is therefore never computed
    # through it
    assert groups(functor_q(functor_p(make_duncehat()))) == groups(make_duncehat())
    assert groups(functor_q(make_cyclic_triangle())) != groups(make_cyclic_triangle())


def test_edge_path_presentations():
    p = edge_path_presentation(make_duncehat())
    assert p.num_generators == 1 and p.relators == ((1,),)
    c = edge_path_presentation(make_cyclic_triangle())
    assert c.num_generators == 1 and c.relators == ((1, 1, 1),)
    circle = edge_path_presentation(make_cycle_graph(3))
    assert circle.num_generators == 1 and circle.relators == ((),) * 0
    ab = c.abelianization()
    assert (ab.betti, ab.torsion) == (0, (3,))


def test_abelianization_matches_h1_on_builtins():
    for name, x in BUILTINS.items():
        ab = edge_path_presentation(x).abelianization()
        h1 = homology(x)[1]
        assert (ab.betti, ab.torsion) == (h1.betti, h1.torsion), name


def test_tietze_trivialization():
    assert tietze_trivialize(edge_path_presentation(make_duncehat())).status == "trivial"
    g3 = tietze_trivialize(presentation(1, [(1, 1, 1)]))
    assert g3.status == "inconclusive" and "Z/3" in g3.reason
    assert tietze_trivialize(presentation(2, [(1, 2), (1,)])).status == "trivial"
    assert tietze_trivialize(presentation(2, [(1, 2, -1, -2), (1,), (2,)])).status == "trivial"
    with pytest.raises(BudgetError):
        tietze_trivialize(presentation(1, [(1,)]), budget=0)


def test_presentation_validation():
    with pytest.raises(ValidationError):
        edge_path_presentation(make_cycle_graph(3).__class__(num_vertices=2, faces=()))  # disconnected


def test_tietze_greedy_stop_keeps_the_search_verdict():
    # no generator occurs once in any relator, so the search runs unaided
    res = tietze_trivialize(presentation(2, [(1, 2, -1, -2, 1), (1, 2, 2, 1, -2)]))
    assert res.status == "inconclusive" and res.reason == "search space exhausted without certificate"


def _subdivided(x, level):
    for _ in range(level):
        x = barycentric_subdivision(x)
    return x


def test_tietze_certificates_replay():
    want = {"duncehat": "trivial", "cyclic-triangle": "inconclusive", "tetrahedron-boundary": "trivial",
            "single-2-simplex": "trivial", "circle": "inconclusive"}
    for name, build in BUILTIN_COMPLEXES.items():
        for level in (0, 1, 2):
            p = edge_path_presentation(_subdivided(build(), level))
            res = tietze_trivialize(p)
            assert res.status == want[name], (name, level)
            if res.status == "trivial":
                assert replay_tietze(p, res.moves), (name, level)
    p = edge_path_presentation(_subdivided(make_duncehat(), 1))
    moves = tietze_trivialize(p).moves
    _, gen, value = moves[0]
    assert not replay_tietze(p, moves[:-1])  # generators left over
    assert not replay_tietze(p, (("eliminate", gen, value + (gen,)),) + moves[1:])
    assert not replay_tietze(p, (("eliminate", gen, value + (-value[0] if value else 1,)),) + moves[1:])
    # greedy stops at once here; the search's certificate starts with a product
    p = presentation(2, [(2, -1, -2, 1, 1), (-2, 1, 2, 1, -2)])
    res = tietze_trivialize(p)
    assert res.moves[0] == ("multiply", 0, 1, 1) and replay_tietze(p, res.moves)
    assert not replay_tietze(p, (("multiply", 0, 1, -1),) + res.moves[1:])


def _wedge(a, b, b_vertex=0):
    """Glue vertex ``b_vertex`` of ``b`` to vertex 0 of ``a`` (semi-simplicial sets)."""
    others = [v for v in range(b.num_vertices) if v != b_vertex]
    vmap = {b_vertex: 0, **{v: a.num_vertices + k for k, v in enumerate(others)}}
    levels = []
    for d in range(1, max(a.dimension, b.dimension) + 1):
        la = list(a.faces[d - 1]) if d <= a.dimension else []
        lb = list(b.faces[d - 1]) if d <= b.dimension else []
        shift = (lambda f: vmap[f]) if d == 1 else (lambda f: f + a.count(d - 1))
        levels.append(tuple(la + [tuple(map(shift, fs)) for fs in lb]))
    out = SemiSimplicialSet(a.num_vertices + len(others), tuple(levels))
    out.validate()
    return out


def _relabel(t, rng):
    """The same triangulated set with its facet ids permuted in every dimension."""
    perms = [rng.permutation(t.count(d)).tolist() for d in range(t.dimension + 1)]
    levels = []
    for d in range(1, t.dimension + 1):
        level = [None] * t.count(d)
        for i, atts in enumerate(t.attach[d - 1]):
            level[perms[d][i]] = tuple((perms[d - 1][g], inj) for g, inj in atts)
        levels.append(tuple(level))
    out = TriangulatedSet(t.num_vertices, tuple(levels))
    out.validate()
    return out


def _tetrahedron_with_doubled_face():
    """The tetrahedron's edges with three of its triangles, one of them twice."""
    t = make_tetrahedron_boundary()
    return SemiSimplicialSet(4, (t.faces[0], t.faces[1][:3] + (t.faces[1][0],)))


def test_isomorphic_to_relabeled_second_subdivisions():
    rng = np.random.default_rng(8)
    for x in (make_duncehat(), make_single_2_simplex(), make_tetrahedron_boundary()):
        t = functor_p(_subdivided(x, 2))
        assert isomorphic(t, _relabel(t, rng))


def test_isomorphism_rejects_equal_count_twins():
    sd_simplex = barycentric_subdivision(make_single_2_simplex())
    corner = functor_p(_wedge(make_duncehat(), sd_simplex))
    center = functor_p(_wedge(make_duncehat(), sd_simplex, b_vertex=6))  # the barycentre
    assert corner.counts() == center.counts() and not isomorphic(corner, center)
    for level in (0, 1):
        sphere = functor_p(_subdivided(make_tetrahedron_boundary(), level))
        twin = functor_p(_subdivided(_tetrahedron_with_doubled_face(), level))
        assert sphere.counts() == twin.counts() and not isomorphic(sphere, twin)


def test_collapse_search_leaves_no_cyclic_garbage():
    # the explored-state memo must go with the call, not wait for the cycle
    # collector; the search backtracks from dimension 3 up (385 states here)
    x = _wedge(_wedge(make_duncehat(), make_single_2_simplex()), _solid_tetrahedron())
    gc.collect()
    gc.disable()
    try:
        assert is_collapsible(x, budget=5_000).status == "non_collapsible"
        assert gc.collect() < 100
    finally:
        gc.enable()


def _iterated_faces(t, d, i):
    """The face of facet (d, i) for every proper subset of its slots deleted, by ``delete_slots`` alone."""
    subsets = (frozenset(s) for k in range(d + 1) for s in combinations(range(d + 1), k))
    return {s: t.delete_slots(d, i, s)[:2] for s in subsets}


def _coface_paths(t):
    """paths[h][g] = number of nonempty slot subsets of facet h whose face is g."""
    return {
        (d, i): Counter(face for slots, face in _iterated_faces(t, d, i).items() if slots)
        for d in range(1, t.dimension + 1)
        for i in range(t.count(d))
    }


def _reference_free_pairs(paths, alive):
    """(face, unique coface) pairs among ``alive``, sorted by face, by rescanning every pair."""
    out = []
    for g in sorted(alive):
        total = 0
        witness = None
        for h in alive:
            if h == g:
                continue
            c = paths.get(h, {}).get(g, 0)
            total += c
            if c:
                witness = h
            if total > 1:
                break
        if total == 1 and witness is not None and witness[0] == g[0] + 1:
            out.append((g, witness))
    return out


def _reference_search(paths, alive, seen, budget):
    """The collapse search over frozenset states, with a full rescan per state.

    ``seen`` is a dict used as an ordered set: its keys are the states in
    the order they were entered.
    """
    if len(alive) == 1 and next(iter(alive))[0] == 0:
        return []
    if alive in seen:
        return None
    seen[alive] = None
    if len(seen) > budget:
        return None
    for g, f in _reference_free_pairs(paths, alive):
        sub = _reference_search(paths, alive - {g, f}, seen, budget)
        if sub is not None:
            return [(g, f)] + sub
        if len(seen) > budget:
            return None
    return None


def _reference_collapse(x, budget):
    """The search's result, and the states of its first descent.

    Without backtracking each state entered is a child of the one before;
    the first state that is not a subset of its predecessor follows a
    backtrack.
    """
    t = _as_tset(x)
    paths = _coface_paths(t)
    cells = frozenset((d, i) for d in range(t.dimension + 1) for i in range(t.count(d)))
    seen = {}
    cert = _reference_search(paths, cells, seen, budget)
    states = list(seen)
    descent = states[: next((k for k in range(1, len(states)) if not states[k] < states[k - 1]), len(states))]
    if cert is not None:
        return CollapseResult("collapsible", tuple(cert), len(seen), exhausted=False), descent
    if len(seen) > budget:
        return CollapseResult("inconclusive", None, len(seen), exhausted=False), descent
    return CollapseResult("non_collapsible", None, len(seen), exhausted=True), descent


def _random_2_complexes(seed, count):
    """Seeded random semi-simplicial sets of dimension at most 2, every other one without triangles.

    Triangles and loose edges are spanned by sorted vertex labels, their
    top vertex often new, which grows trees and disks; an edge with
    matching endpoints is reused half the time, which gives shared,
    parallel and repeated faces and loops.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        nv = int(rng.integers(1, 3))
        edges = []

        def edge_for(a, b):
            if rng.random() < 0.5 and (b, a) in edges:
                return edges.index((b, a))
            edges.append((b, a))  # faces of [a b]: d0 = b, d1 = a
            return len(edges) - 1

        def labels(n, fresh):
            nonlocal nv
            vs = [int(v) for v in rng.integers(0, nv, n)]
            if rng.random() < fresh:
                vs[-1], nv = nv, nv + 1
            return sorted(vs)

        tris = []
        for _ in range(int(rng.integers(1, 5)) if k % 2 else 0):
            a, b, c = labels(3, 0.8)
            tris.append((edge_for(b, c), edge_for(a, c), edge_for(a, b)))
        for _ in range(int(rng.integers(0, 4))):
            edge_for(*labels(2, 0.5))
        levels = (tuple(edges),) + ((tuple(tris),) if tris else ())
        out.append(SemiSimplicialSet(nv, levels if edges else ()))
    return out


def _solid_tetrahedron():
    """The 3-simplex: the tetrahedron boundary and the one solid filling it."""
    t = make_tetrahedron_boundary()
    return SemiSimplicialSet(4, t.faces + (((3, 2, 1, 0),),))


def test_collapse_search_matches_the_rescan_reference():
    # in dimension <= 2 the search stops at its first dead end, which decides
    # at any budget; where the backtracking reference is conclusive it gives
    # the same verdict and certificate, and the same state count where the
    # reference did not back out of a state; the stuck state is the 2-core
    sd_simplex = barycentric_subdivision(make_single_2_simplex())
    complexes = [_subdivided(build(), level) for build in BUILTIN_COMPLEXES.values() for level in (0, 1, 2)]
    complexes += [_wedge(make_duncehat(), make_single_2_simplex()), _wedge(make_duncehat(), sd_simplex),
                  _subdivided(_wedge(make_duncehat(), make_single_2_simplex()), 1),
                  _wedge(make_duncehat(), sd_simplex, b_vertex=6), _tetrahedron_with_doubled_face(),
                  _pinched_triangle(), _subdivided(_pinched_triangle(), 1), _digon_and_loop()]
    randoms = _random_2_complexes(17, 600)
    assert sum(x.dimension == 2 for x in randoms) > 250
    certified = backtracked = 0
    for k, x in enumerate(complexes + randoms):
        t = _as_tset(x)
        cells = frozenset((d, i) for d in range(t.dimension + 1) for i in range(t.count(d)))
        paths, table = _coface_paths(t), t.incidence
        faces = {table.cells[h]: Counter({table.cells[g]: m for g, m in row}) for h, row in enumerate(table.faces)}
        assert {h: row for h, row in faces.items() if h[0]} == paths
        assert free_faces(x) == _reference_free_pairs(paths, cells)
        res = is_collapsible(x, budget=5_000)
        assert res.exhausted == (res.status == "non_collapsible")
        ref, descent = _reference_collapse(x, 5_000)
        assert ref.status != "inconclusive", x.counts()
        assert (res.status, res.certificate) == (ref.status, ref.certificate), x.counts()
        if ref.states_explored == len(descent):
            assert res == replace(ref, core_counts=res.core_counts), x.counts()
        else:
            assert res.states_explored == len(descent) < ref.states_explored, x.counts()
            backtracked += 1
        if res.status == "non_collapsible":
            core = Counter(d for d, _ in descent[-1])
            assert res.core_counts == tuple(core[d] for d in range(t.dimension + 1)), x.counts()
        for budget in (1, 10, 100):
            assert is_collapsible(x, budget=budget) == res
            small, _ = _reference_collapse(x, budget)
            assert small.status in (res.status, "inconclusive")
            if small.status != "inconclusive":
                assert (small.certificate, small.states_explored) == (ref.certificate, ref.states_explored)
        if not res.certificate:
            continue  # a lone vertex has the empty certificate
        cert = res.certificate
        assert replay_collapse(x, cert)
        assert not replay_collapse(x, cert[1:]) and not replay_collapse(x, cert[:-1])
        if k < len(complexes):  # on a random path graph the ends may swap legally
            assert not replay_collapse(x, (cert[-1],) + cert[1:-1] + (cert[0],))
        certified += 1
    assert certified >= 90 and backtracked >= 100


def test_second_subdivisions_of_the_wedges_are_decided():
    # past 200,000 states a backtracking search gave up on these; the first
    # descent strips the simplex's part and is left with the dunce hat's,
    # which has no free face
    core = _subdivided(make_duncehat(), 2).counts()
    for b in (make_single_2_simplex(), barycentric_subdivision(make_single_2_simplex())):
        x = _subdivided(_wedge(make_duncehat(), b), 2)
        pairs = (sum(x.counts()) - sum(core)) // 2
        want = CollapseResult("non_collapsible", None, pairs + 1, exhausted=True, core_counts=core)
        assert is_collapsible(x, budget=1) == want


def test_the_descent_without_backtracking_keeps_one_frame():
    # below dimension 3 no frame is resumed: each child replaces its
    # parent's frame and no state is remembered (keeping every ancestor
    # frame and every state takes about 2.1 MB here)
    x = _subdivided(make_single_2_simplex(), 4)
    assert is_collapsible(x).states_explored == 1968  # warm-up
    tracemalloc.start()
    try:
        result = is_collapsible(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "collapsible" and result.states_explored == 1968
    assert peak < 0.5 * 2**20


def test_three_complexes_keep_the_budgeted_search():
    solid = _solid_tetrahedron()
    for x in (solid, _subdivided(solid, 1), _wedge(make_duncehat(), solid), _wedge(solid, make_duncehat())):
        for budget in (1, 10, 100, 5_000):
            ref, _ = _reference_collapse(x, budget)
            assert is_collapsible(x, budget=budget) == ref, (x.counts(), budget)
    assert is_collapsible(solid, budget=1).status == "inconclusive"


def _dense_rank_and_torsion(matrix):
    """Rank and invariant factors above one, from the full Smith normal form."""
    if not matrix or not matrix[0]:
        return 0, ()
    D, _, _ = smith_normal_form(matrix)
    diag = [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i]]
    return len(diag), tuple(d for d in diag if d > 1)


def _dense_groups(x):
    """Homology from the Smith normal forms of the dense boundary matrices."""
    cc = chain_complex(x)
    top = len(cc.ranks)
    factors = [(0, ())] + [_dense_rank_and_torsion(boundary_matrix(cc, n)) for n in range(1, top)] + [(0, ())]
    return [(cc.ranks[n] - factors[n][0] - factors[n + 1][0], factors[n + 1][1]) for n in range(top)]


def _dense_abelianization(p):
    rows = [[0] * p.num_generators for _ in p.relators]
    for row, rel in zip(rows, p.relators):
        for x in rel:
            row[abs(x) - 1] += 1 if x > 0 else -1
    rank, torsion = _dense_rank_and_torsion(rows)
    return p.num_generators - rank, torsion


def test_unit_pivot_reduction_matches_the_dense_smith_oracle():
    sd_simplex = barycentric_subdivision(make_single_2_simplex())
    bases = [build() for build in BUILTIN_COMPLEXES.values()]
    bases += [_wedge(make_duncehat(), make_single_2_simplex()), _wedge(make_duncehat(), sd_simplex)]
    for base in bases:
        for level in (0, 1, 2):
            x = _subdivided(base, level)
            assert groups(x) == _dense_groups(x), (base.counts(), level)
            p = edge_path_presentation(x)
            ab = p.abelianization()
            assert (ab.betti, ab.torsion) == _dense_abelianization(p), (base.counts(), level)
    # torsion that only the leftover block sees: no unit entries at all
    p = presentation(2, [(1, 1, 2, 2, 2, 2), (2,) * 6, (1,) * 4])
    ab = p.abelianization()
    assert (ab.betti, ab.torsion) == _dense_abelianization(p) == (0, (2, 2))


def test_third_subdivisions_keep_the_homology():
    for name, build in BUILTIN_COMPLEXES.items():
        x = build()
        assert groups(_subdivided(x, 3)) == groups(x), name
    sphere = _subdivided(make_tetrahedron_boundary(), 3)
    assert sphere.counts() == (434, 1296, 864)
    assert [str(h) for h in homology(sphere)] == ["Z", "0", "Z"]


def test_chain_complex_checks_shapes_and_square_zero():
    IntegerChainComplex(ranks=(1, 1, 1), boundaries=((), ({},), ({0: 2},)))
    with pytest.raises(ValidationError, match="squared"):
        IntegerChainComplex(ranks=(1, 1, 1), boundaries=((), ({0: 1},), ({0: 1},)))
    with pytest.raises(ValidationError, match="shape"):
        IntegerChainComplex(ranks=(1, 1), boundaries=((), ({1: 1},)))
    cc = chain_complex(make_tetrahedron_boundary())
    assert boundary_matrix(cc, 0) == [] and boundary_matrix(cc, 3) == []
    assert [len(boundary_matrix(cc, n)) for n in (1, 2)] == [4, 6]


def test_one_conversion_per_complex(monkeypatch):
    # at most one conversion per object: the subdivision converts its input,
    # and its result while validating it; later calls convert nothing, and a
    # fresh copy converts once
    calls = []
    real = simplicial.functor_p

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(simplicial, "functor_p", counting)

    def results(x):
        col = is_collapsible(x, budget=1_000)
        return (groups(x), euler_characteristic(x), free_faces(x), col, replay_collapse(x, ()),
                edge_path_presentation(x))

    base = make_duncehat()
    x = barycentric_subdivision(base)
    assert [id(s) for s in calls] == [id(base), id(x)]
    first = results(x)
    assert results(x) == first and len(calls) == 2
    y = SemiSimplicialSet(x.num_vertices, x.faces)
    assert results(y) == first and len(calls) == 3 and calls[-1] is y


def test_one_incidence_table_per_complex(monkeypatch):
    x = barycentric_subdivision(make_duncehat())
    y = SemiSimplicialSet(x.num_vertices, x.faces)
    built = []
    real = simplicial._Incidence.of.__func__

    def counting(cls, t):
        built.append(t)
        return real(cls, t)

    monkeypatch.setattr(simplicial._Incidence, "of", classmethod(counting))
    for _ in range(2):
        # the face relation of the isomorphism search, the simplicity predicates and the flag functor
        assert isomorphic(x.triangulated, y.triangulated)
        assert (is_simple(x), is_strictly_simple(x)) == (is_simple(y), is_strictly_simple(y))
        assert functor_q(x.triangulated).counts() == functor_q(y.triangulated).counts()
        assert len(built) == 2
        # is the one the collapse layer reads
        cert = is_collapsible(y, budget=1_000).certificate or ()
        assert free_faces(x) == free_faces(y) and replay_collapse(x, cert) == replay_collapse(y, cert)
    assert len(built) == 2 and {id(t) for t in built} == {id(x.triangulated), id(y.triangulated)}


@pytest.mark.parametrize(
    "entry",
    [homology, euler_characteristic, free_faces, is_collapsible, lambda t: replay_collapse(t, ()),
     edge_path_presentation, barycentric_subdivision, lambda t: isomorphic(t, functor_p(make_cycle_graph(1))),
     lambda t: isomorphic(functor_p(make_cycle_graph(1)), t), is_simple, is_strictly_simple, functor_q],
    ids=["homology", "euler", "free-faces", "collapse", "replay-collapse", "edge-path", "subdivision",
         "isomorphic-left", "isomorphic-right", "simple", "strictly-simple", "functor-q"],
)
def test_malformed_complex_is_refused_at_every_entry_point(entry):
    # the edge's first slot attaches to a vertex that does not exist
    bad = TriangulatedSet(1, ((((5, (None, 0)), (0, (0, None))),),))
    with pytest.raises(ValidationError, match="missing target"):
        entry(bad)


def _reference_eliminations(p: GroupPresentation):
    """(relator, gen, value) for each generator occurring exactly once in a
    relator, with the value the relator forces; relators by length, then
    generators in order."""
    for rel in sorted(p.relators, key=len):
        once = {g for g, n in Counter(map(abs, rel)).items() if n == 1}
        for k in sorted(range(len(rel)), key=lambda k: abs(rel[k])):
            if abs(rel[k]) in once:
                rest = rel[k + 1 :] + rel[:k]
                yield rel, abs(rel[k]), tuple(-x for x in reversed(rest)) if rel[k] > 0 else rest


def _reference_greedy_elimination(p: GroupPresentation):
    """The elimination from a shortest relator with the least length growth,
    or None.  The growth is estimated before free reduction: each other
    occurrence of the generator grows by ``len(rel) - 2``.  Only the first
    relator length that has an elimination is enumerated; ties keep the
    first elimination."""
    first = next(groupby(_reference_eliminations(p), key=lambda e: len(e[0])), None)
    if first is None:
        return None
    length, group = first
    counts = Counter(abs(x) for rel in p.relators for x in rel)
    return min(group, key=lambda e: (counts[e[1]] - 1) * (length - 2))


def _reference_greedy_pass(p: GroupPresentation):
    """The greedy pass that rewrites, renumbers and re-validates the whole presentation per move."""
    moves = []
    while (best := _reference_greedy_elimination(p)) is not None:
        _, gen, value = best
        p = _reference_drop_generator(p, gen, value)
        moves.append(("eliminate", gen, value))
    return p, moves


def _reference_drop_generator(p: GroupPresentation, gen: int, value: tuple[int, ...]) -> GroupPresentation:
    """Substitute gen := value everywhere, then renumber generators densely through a remap dict."""
    rels = []
    for rel in p.relators:
        w = cyclic_reduce(_substitute(rel, gen, value))
        if w:
            rels.append(w)
    remap = {}
    k = 0
    for old in range(1, p.num_generators + 1):
        if old == gen:
            continue
        k += 1
        remap[old] = k
    rels2 = tuple(tuple((remap[x] if x > 0 else -remap[-x]) for x in rel) for rel in rels)
    return GroupPresentation(p.num_generators - 1, rels2)


def _random_presentation(rng):
    n = int(rng.integers(1, 7))
    relators = []
    for _ in range(int(rng.integers(1, 7))):
        size = int(rng.integers(0, 11))
        relators.append(tuple(map(int, rng.integers(1, n + 1, size=size) * rng.choice((-1, 1), size=size))))
    return presentation(n, relators)


def test_greedy_pass_matches_the_rewriting_reference():
    sd_simplex = barycentric_subdivision(make_single_2_simplex())
    bases = [build() for build in BUILTIN_COMPLEXES.values()]
    bases += [_wedge(make_duncehat(), make_single_2_simplex()), _wedge(make_duncehat(), sd_simplex)]
    cases = [edge_path_presentation(_subdivided(x, level)) for x in bases for level in (0, 1, 2)]
    rng = np.random.default_rng(14)
    cases += [_random_presentation(rng) for _ in range(3000)]
    moved = 0
    for p in cases:
        start = _start_presentation(p)
        assert list(_eliminations(start)) == [(g, v) for _, g, v in _reference_eliminations(start)], p
        got = _greedy_pass(start)
        assert got == _reference_greedy_pass(start), p
        moved += bool(got[1])
        for g, v in islice(_eliminations(start), 2):
            assert _drop_generator(start, g, v) == _reference_drop_generator(start, g, v), (p, g)
    assert moved > 2000  # most random presentations let the pass eliminate something


def _reference_edge_path_presentation(x) -> GroupPresentation:
    """Edge-path presentation whose breadth-first tree scans every edge for each vertex it dequeues."""
    t = _as_tset(x)
    if t.dimension > 2:
        raise ValidationError("edge-path presentations are for complexes of dimension <= 2")
    nv = t.count(0)
    ne = t.count(1)
    if nv == 0:
        raise ValidationError("empty complex")

    # edge endpoints: tail = target of deleting slot 1, head = of slot 0
    tails = [t.attachment(1, e, 1)[0] for e in range(ne)]
    heads = [t.attachment(1, e, 0)[0] for e in range(ne)]

    # BFS spanning tree from vertex 0, scanning edges by id
    in_tree = [False] * ne
    visited = [False] * nv
    visited[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for e in range(ne):
            if in_tree[e]:
                continue
            a, b = tails[e], heads[e]
            v = b if a == u else (a if b == u else None)
            if v is not None and not visited[v]:
                in_tree[e] = True
                visited[v] = True
                queue.append(v)
    if not all(visited):
        raise ValidationError("edge-path presentation needs a connected complex")

    gen_of_edge: dict[int, int] = {}
    g = 0
    for e in range(ne):
        if not in_tree[e]:
            g += 1
            gen_of_edge[e] = g

    def letter(edge: int, forward: bool) -> tuple[int, ...]:
        if edge not in gen_of_edge:
            return ()
        k = gen_of_edge[edge]
        return (k if forward else -k,)

    relators = []
    for f in range(t.count(2)):
        word: tuple[int, ...] = ()
        # boundary path corner 0 -> 1 -> 2 -> 0; side (a,b) is the face
        # deleting the third slot, traversed from slot a to slot b
        for a, b, deleted in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            edge, inj = t.attachment(2, f, deleted)
            word = word + letter(edge, forward=(inj[a], inj[b]) == (0, 1))
        relators.append(free_reduce(word))
    return GroupPresentation(g, tuple(relators))


def test_edge_path_presentation_matches_the_edge_scan_reference():
    # the same tree, generator numbers and relators; disconnected and
    # three-dimensional complexes are refused with the same message
    sd_simplex = barycentric_subdivision(make_single_2_simplex())
    bases = [build() for build in BUILTIN_COMPLEXES.values()]
    bases += [dual_complex(build()) for build in BUILTIN_SURFACES.values()]
    bases += [_wedge(make_duncehat(), make_single_2_simplex()), _wedge(make_duncehat(), sd_simplex),
              _wedge(make_duncehat(), sd_simplex, b_vertex=6), _tetrahedron_with_doubled_face(),
              _pinched_triangle(), _digon_and_loop()]
    cases = [_subdivided(x, level) for x in bases for level in (0, 1, 2)]
    cases += [_solid_tetrahedron()] + _random_2_complexes(17, 600)
    connected = 0
    for x in cases:
        got = _outcome(edge_path_presentation, x)
        assert got == _outcome(_reference_edge_path_presentation, x), x.counts()
        connected += isinstance(got, GroupPresentation)
    assert connected > 300
    assert _outcome(edge_path_presentation, _pinched_triangle()).endswith("needs a connected complex")


def _pinched_triangle():
    """A triangle with two vertices identified, plus an isolated vertex."""
    return SemiSimplicialSet(3, (((1, 1), (1, 0), (1, 0)), ((0, 1, 2),)))


def _digon_and_loop():
    return SemiSimplicialSet(3, (((1, 0), (1, 0), (2, 2)),))


def test_isomorphism_verdicts_on_the_pool_and_its_partners():
    sd_simplex = barycentric_subdivision(make_single_2_simplex())
    bases = [build() for build in BUILTIN_COMPLEXES.values()]
    bases += [_tetrahedron_with_doubled_face(), _pinched_triangle(), _digon_and_loop(),
              _wedge(make_duncehat(), make_single_2_simplex()), _wedge(make_duncehat(), sd_simplex),
              _wedge(make_duncehat(), sd_simplex, b_vertex=6)]
    items = [_as_tset(_subdivided(x, level)) for x in bases for level in (0, 1)]
    rng = np.random.default_rng(5)
    copies = [[t] + [_relabel(t, rng) for _ in range(5)] for t in items]
    verdicts = [[isomorphic(a, b) for b in copies[j]] for a in items for j in range(len(items))]
    # every item is isomorphic to its own relabelings and to no other item
    assert verdicts == [[a is b] * 6 for a in items for b in items]


def _relabel_slots(t, rng):
    """The same triangulated set with the slots of every facet permuted."""
    rho = [[tuple(rng.permutation(d + 1).tolist()) for _ in range(t.count(d))] for d in range(t.dimension + 1)]
    levels = []
    for d in range(1, t.dimension + 1):
        level = []
        for i, atts in enumerate(t.attach[d - 1]):
            new = [None] * (d + 1)
            for k, (g, inj) in enumerate(atts):
                moved = [None] * (d + 1)
                for j in range(d + 1):
                    if j != k:
                        moved[rho[d][i][j]] = rho[d - 1][g][inj[j]]
                new[rho[d][i][k]] = (g, tuple(moved))
            level.append(tuple(new))
        levels.append(tuple(level))
    return TriangulatedSet(t.num_vertices, tuple(levels))


def _brute_isomorphic(t1, t2) -> bool:
    """Whether some bijection of the cells of each dimension, with a bijection
    of the slots of each cell, commutes with every attachment."""
    if t1.counts() != t2.counts():
        return False
    cells = [(d, i) for d in range(t1.dimension + 1) for i in range(t1.count(d))]

    def commutes(sigma, pi, d, i, k):
        g, inj = t1.attachment(d, i, k)
        g2, inj2 = t2.attachment(d, sigma[d][i], pi[(d, i)][k])
        return g2 == sigma[d - 1][g] and all(
            pi[(d - 1, g)][inj[j]] == inj2[pi[(d, i)][j]] for j in range(d + 1) if j != k)

    for sigma in product(*(permutations(range(t1.count(d))) for d in range(t1.dimension + 1))):
        for slots in product(*(permutations(range(d + 1)) for d, _ in cells)):
            pi = dict(zip(cells, slots))
            if all(commutes(sigma, pi, d, i, k) for d, i in cells for k in range(d + 1 if d else 0)):
                return True
    return False


def _triangles_on_one_edge(*kinds):
    """One vertex, one edge, and one triangle per kind with every side on the
    edge: the middle side of a "dunce" triangle keeps the slot order, that of
    a "cyclic" one reverses it."""
    middle = {"dunce": (0, None, 1), "cyclic": (1, None, 0)}
    tris = tuple(((0, (None, 0, 1)), (0, middle[k]), (0, (0, 1, None))) for k in kinds)
    return TriangulatedSet(1, ((((0, (None, 0)), (0, (0, None))),), tris))


def test_isomorphism_agrees_with_the_brute_force_oracle():
    # complexes of at most 3 cells per dimension, each with copies whose
    # cell ids and slots are relabelled; in the last four a mapped edge fixes
    # where a triangle's slots go, and in the last one only through the
    # edge's own slot bijection
    rng = np.random.default_rng(24)
    bases = [make_duncehat(), make_cyclic_triangle(), make_cycle_graph(3), make_single_2_simplex(),
             _pinched_triangle(), _digon_and_loop(), _triangles_on_one_edge("dunce", "dunce"),
             _triangles_on_one_edge("dunce", "cyclic"), _triangles_on_one_edge("cyclic", "cyclic"),
             SemiSimplicialSet(1, (((0, 0), (0, 0)), ((1, 0, 0), (1, 1, 0))))]
    items = []
    for x in bases:
        t = _as_tset(x)
        items += [t] + [_relabel_slots(_relabel(t, rng), rng) for _ in range(2)]
    verdicts = Counter()
    for a, b in product(items, repeat=2):
        if a.counts() == b.counts():
            want = _brute_isomorphic(a, b)
            assert isomorphic(a, b) == want, (a, b)
            verdicts[want] += 1
    # bases of equal counts are never isomorphic: 3 pairs and a triple
    assert verdicts == Counter({True: 10 * 9, False: (3 * 2 + 3 * 2) * 9})


def test_isomorphism_precheck_skips_clashing_candidates(monkeypatch):
    cyclic, dunce = (_as_tset(barycentric_subdivision(x)) for x in (make_cyclic_triangle(), make_duncehat()))
    walks = []
    real = simplicial._map_closure

    def counting(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(simplicial, "_map_closure", counting)
    assert not isomorphic(cyclic, dunce)
    assert len(walks) <= 150  # 684 walks when every slot bijection of an image is a candidate
