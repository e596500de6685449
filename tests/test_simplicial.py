"""Facet encodings, the two functors, simplicity, isomorphism."""

from itertools import combinations

import numpy as np
import pytest

from dualcx.errors import ValidationError
from dualcx.simplicial import (
    SemiSimplicialSet,
    TriangulatedSet,
    builtin_complex,
    complex_from_json,
    complex_to_json,
    functor_p,
    functor_q,
    has_semisimplicial_lift,
    is_simple,
    is_strictly_simple,
    isomorphic,
    make_cycle_graph,
    make_cyclic_triangle,
    make_duncehat,
    make_single_2_simplex,
    make_tetrahedron_boundary,
)
from dualcx.topology import barycentric_subdivision


def test_duncehat_counts_and_euler():
    d = make_duncehat()
    d.validate()
    assert d.counts() == (1, 1, 1)
    assert d.euler_characteristic() == 1


def test_cyclic_triangle_counts_euler_and_no_lift():
    c = make_cyclic_triangle()
    c.validate()
    assert c.counts() == (1, 1, 1)
    assert c.euler_characteristic() == 1
    assert not has_semisimplicial_lift(c)
    assert has_semisimplicial_lift(functor_p(make_duncehat()))
    # 3937 facets, more than a recursive search has stack frames for
    x = make_single_2_simplex()
    for _ in range(4):
        x = barycentric_subdivision(x)
    assert has_semisimplicial_lift(functor_p(x))


def test_functor_p_counts():
    assert functor_p(make_duncehat()).counts() == (1, 1, 1)
    assert functor_p(make_single_2_simplex()).counts() == (3, 3, 1)


def random_sssets(seed, count):
    """Small random semi-simplicial sets, valid by construction.

    Triangles are built over explicit vertex labels; edges with matching
    endpoints are reused with probability one half, which produces both
    shared and parallel faces.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nv = int(rng.integers(1, 5))
        edges = []

        def edge_for(a, b):
            if rng.random() < 0.5:
                for k, e in enumerate(edges):
                    if e == (b, a):
                        return k
            edges.append((b, a))  # faces of [a b]: d0 = b, d1 = a
            return len(edges) - 1

        tris = []
        for _ in range(int(rng.integers(0, 4))):
            a, b, c = (int(rng.integers(0, nv)) for _ in range(3))
            tris.append((edge_for(b, c), edge_for(a, c), edge_for(a, b)))
        for _ in range(int(rng.integers(0, 3))):
            a, b = (int(rng.integers(0, nv)) for _ in range(2))
            edge_for(a, b)
        faces = [tuple(edges)] + ([tuple(tris)] if tris else [])
        out.append(SemiSimplicialSet(num_vertices=nv, faces=tuple(faces)))
    return out


def test_functor_p_property_on_random_inputs():
    for s in random_sssets(42, 20):
        s.validate()
        t = functor_p(s)
        t.validate()
        assert t.counts() == s.counts()


def test_functor_q_flag_counts():
    t = functor_p(make_duncehat())
    q = functor_q(t)
    assert q.counts() == (3, 3, 1)
    assert q.euler_characteristic() == t.euler_characteristic() == 1
    qc = functor_q(make_cyclic_triangle())
    assert qc.euler_characteristic() == 1


def test_functor_q_barycentric_on_simple_input():
    q = functor_q(functor_p(make_single_2_simplex()))
    assert q.counts() == (7, 12, 6)
    q.validate()


def _face_closure(t, d, i):
    """Facet (d, i) and all its iterated faces, by ``delete_slots`` alone."""
    return {t.delete_slots(d, i, frozenset(s))[:2] for k in range(d + 1) for s in combinations(range(d + 1), k)}


def test_flag_counts_against_brute_force():
    # oracle: enumerate chains in the face poset by brute force over subsets
    for t in (functor_p(make_duncehat()), make_cyclic_triangle(), functor_p(make_tetrahedron_boundary())):
        nodes = [(d, i) for d in range(t.dimension + 1) for i in range(t.count(d))]
        below = {nd: _face_closure(t, *nd) - {nd} for nd in nodes}
        q = functor_q(t)
        for ln in range(1, t.dimension + 2):
            count = 0
            for chain in combinations(nodes, ln):
                if all(chain[i] in below[chain[i + 1]] for i in range(ln - 1)):
                    count += 1
            assert q.count(ln - 1) == count


def test_simplicity_predicates():
    assert not is_simple(make_duncehat())
    assert not is_simple(make_cyclic_triangle())
    tetra = make_tetrahedron_boundary()
    assert is_simple(tetra) and is_strictly_simple(tetra)
    # two triangles sharing two edges: simple but not strictly simple
    two = SemiSimplicialSet(
        num_vertices=3,
        faces=(
            ((2, 1), (2, 0), (1, 0), (2, 1), (2, 0)),  # edges: e12, e02, e01, e12', e02'
            ((0, 1, 2), (3, 4, 2)),
        ),
    )
    two.validate()
    assert is_simple(two)
    assert not is_strictly_simple(two)


def test_validation_rejects_broken_identities():
    bad = SemiSimplicialSet(num_vertices=2, faces=(((0, 1), (0, 0)), ((0, 1, 1),)))
    with pytest.raises(ValidationError):
        bad.validate()


def test_validation_rejects_incoherent_attachments():
    # triangle over two distinct edges whose vertex identifications clash
    edge_attach = (
        ((0, (None, 0)), (0, (0, None))),
        ((1, (None, 0)), (1, (0, None))),
    )
    tri_attach = ((
        (0, (None, 0, 1)),
        (1, (1, None, 0)),
        (0, (0, 1, None)),
    ),)
    t = TriangulatedSet(num_vertices=2, attach=(edge_attach, tri_attach))
    with pytest.raises(ValidationError):
        t.validate()


def test_validate_is_pure_and_idempotent():
    d = make_duncehat()
    before = complex_to_json(d)
    d.validate()
    d.validate()
    assert complex_to_json(d) == before


def test_isomorphism_detects_relabeling_and_distinguishes():
    t = functor_p(make_duncehat())
    c = make_cyclic_triangle()
    assert isomorphic(t, functor_p(make_duncehat()))
    assert not isomorphic(t, c)
    assert isomorphic(c, make_cyclic_triangle())
    # a relabeled copy of the cyclic triangle: rotate which slot is which
    rotated = TriangulatedSet(
        num_vertices=1,
        attach=(
            (((0, (None, 0)), (0, (0, None))),),
            ((
                (0, (None, 1, 0)),
                (0, (0, None, 1)),
                (0, (1, 0, None)),
            ),),
        ),
    )
    rotated.validate()
    assert isomorphic(c, rotated)
    assert not isomorphic(functor_p(make_single_2_simplex()), t)


def test_json_round_trip():
    for name in ("duncehat", "cyclic-triangle", "tetrahedron-boundary", "single-2-simplex"):
        x = builtin_complex(name)
        back = complex_from_json(complex_to_json(x))
        assert back == x
    assert make_cycle_graph(3).counts() == (3, 3)
    with pytest.raises(ValidationError):
        complex_from_json("{not json")
    with pytest.raises(ValidationError):
        builtin_complex("no-such-thing")
