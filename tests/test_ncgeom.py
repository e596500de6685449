"""Surface descriptions, dual complexes, degrees, and the gluing torus."""

import json
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from dualcx.cli import main
from dualcx.errors import GuardError, ValidationError
from dualcx.ncgeom import (
    CurveIncidenceGraph,
    Stratum,
    NCSurfaceDescription,
    builtin_surface,
    curve_graph,
    dual_complex,
    duncehat_curve_graph,
    duncehat_surface_description,
    generic_fiber_euler,
    kulikov_degree,
    kulikov_report,
    ncsurf_from_json,
    numerical_invariants,
    pi1_vanishing_verdict,
    pic0_structure,
    pic_equal,
    pic_inverse,
    pic_is_trivial,
    pic_mul,
    pic_normalize,
    three_planes_description,
    two_planes_description,
    wrong_case_surface_description,
)
from dualcx.simplicial import (
    TriangulatedSet,
    functor_p,
    isomorphic,
    make_cyclic_triangle,
    make_duncehat,
    make_single_2_simplex,
)


def cycle_curve_graph(n: int = 3) -> CurveIncidenceGraph:
    """A cycle of n rational curves glued at n nodes."""
    edges = []
    for k in range(n):
        edges.append((k, k))
        edges.append(((k + 1) % n, k))
    return CurveIncidenceGraph(n, tuple([2] * n), tuple(edges))


def test_right_case_description_shape():
    d = duncehat_surface_description()
    assert tuple(len(level) for level in d.strata) == (1, 1, 1)
    curve = d.double_curves()[0]
    assert curve.normal_degrees == (-2, -1)
    assert curve.triple_count == 3


def test_wrong_case_description_shape():
    w = wrong_case_surface_description()
    assert tuple(len(level) for level in w.strata) == (1, 1, 1)
    assert w.double_curves()[0].triple_count == 3
    assert w.double_curves()[0].normal_degrees is None


def test_dual_complex_identifications():
    right = dual_complex(duncehat_surface_description())
    assert right.counts() == (1, 1, 1)
    assert isomorphic(right, functor_p(make_duncehat()))
    wrong = dual_complex(wrong_case_surface_description())
    assert isomorphic(wrong, make_cyclic_triangle())
    assert not isomorphic(right, wrong)
    planes = dual_complex(three_planes_description())
    assert isomorphic(planes, functor_p(make_single_2_simplex()))


def test_branch_switching_refusal():
    d = duncehat_surface_description()
    flipped = NCSurfaceDescription(
        strata=(
            d.strata[0],
            (Stratum(
                branches=2,
                branch_trivial=False,
                attach=d.strata[1][0].attach,
                chi_normalization=2,
                normal_degrees=(-2, -1),
                triple_count=3,
            ),),
            d.strata[2],
        ),
        name="flipped",
    )
    with pytest.raises(GuardError) as err:
        dual_complex(flipped)
    assert err.value.reason == "branch-switching"
    assert "involution" in str(err.value)


def test_kulikov_degrees():
    assert kulikov_degree(-2, -1, 3) == 0
    assert kulikov_degree(7, 7, 3) == 17
    assert kulikov_degree(0, 0, 0) == 0
    # additivity in the decorations
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.integers(-5, 6, size=3)
        b = rng.integers(-5, 6, size=3)
        assert kulikov_degree(*(a + b)) == kulikov_degree(*a) + kulikov_degree(*b)
    rep = kulikov_report(duncehat_surface_description())
    assert rep == [{"curve": 0, "degree": 0, "vanishes": True}]
    with pytest.raises(GuardError):
        kulikov_report(wrong_case_surface_description())


def test_generic_fiber_euler():
    assert generic_fiber_euler(duncehat_surface_description()) == 11
    assert generic_fiber_euler(two_planes_description()) == 2
    smooth = NCSurfaceDescription(strata=((Stratum(branches=1, chi_normalization=7),), (), ()), name="smooth")
    assert generic_fiber_euler(smooth) == 7


def test_generic_fiber_euler_relabel_invariance():
    # relabeling the triple-point slots must not change the arithmetic
    d = duncehat_surface_description()
    tp = d.strata[2][0]
    perm = (2, 0, 1)
    atts = []
    for new_slot in range(3):
        tgt, inj = tp.attach[perm[new_slot]]
        new_inj = [None, None, None]
        for old in range(3):
            if inj[old] is not None:
                new_inj[perm.index(old)] = inj[old]
        atts.append((tgt, tuple(new_inj)))
    relabeled = NCSurfaceDescription(
        strata=(d.strata[0], d.strata[1], (Stratum(branches=3, attach=tuple(atts)),)),
        name="relabeled",
    )
    relabeled.validate()
    assert generic_fiber_euler(relabeled) == 11


def test_numerical_invariants():
    assert numerical_invariants(11, 0, 0) == {"h11": 9, "c1_sq": 1, "c2": 11}
    assert numerical_invariants(3, 0, 0) == {"h11": 1, "c1_sq": 9, "c2": 3}
    with pytest.raises(GuardError):
        numerical_invariants(4, 0, 1)
    with pytest.raises(ValidationError):
        numerical_invariants(-1, 0, 0)


def test_curve_graph_is_derived_from_the_surface():
    # the dunce-hat surface's one double curve runs through its triple point three times
    assert duncehat_curve_graph() == CurveIncidenceGraph(1, (3,), ((0, 0), (0, 0), (0, 0)))
    three = curve_graph(builtin_surface("three-planes"))
    assert (three.num_components, three.point_multiplicities) == (3, (3,))
    assert sorted(three.edges) == [(0, 0), (1, 0), (2, 0)]
    assert curve_graph(builtin_surface("two-planes")) == CurveIncidenceGraph(1, (), ())


def test_pic_torus_dimensions():
    assert pic0_structure(duncehat_curve_graph()).dimension == 2
    assert pic0_structure(cycle_curve_graph(3)).dimension == 1
    # trees have no cycles
    tree = CurveIncidenceGraph(3, (2, 2), ((0, 0), (1, 0), (1, 1), (2, 1)))
    assert pic0_structure(tree).dimension == 0


def test_pic_torus_randomized_b1():
    rng = np.random.default_rng(99)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 5))
        mults = [int(rng.integers(2, 5)) for _ in range(s)]
        edges = []
        for j, mm in enumerate(mults):
            for _ in range(mm):
                edges.append((int(rng.integers(0, k)), j))
        g = CurveIncidenceGraph(k, tuple(mults), tuple(edges))
        assert pic0_structure(g).dimension == g.betti_1()


def test_pic_class_group_laws():
    torus = pic0_structure(duncehat_curve_graph())
    diag = pic_normalize(torus, (2 + 1j, 2 + 1j, 2 + 1j))
    assert pic_is_trivial(diag)
    a = pic_normalize(torus, (1.0, 0.5 + 0.1j, 3.0 - 2.0j))
    assert pic_is_trivial(pic_mul(a, pic_inverse(a)))
    b = pic_normalize(torus, (2.0, 1.0, 1.0 + 1.0j))
    ab = pic_mul(a, b)
    ba = pic_mul(b, a)
    assert pic_equal(ab, ba)
    ident = pic_normalize(torus, (1, 1, 1))
    assert pic_equal(pic_mul(a, ident), a)
    c = pic_normalize(torus, (0.3, 1.0 - 0.4j, 2.0))
    assert pic_equal(pic_mul(pic_mul(a, b), c), pic_mul(a, pic_mul(b, c)))
    with pytest.raises(ValidationError):
        pic_normalize(torus, (0.0, 1.0, 1.0))


def test_pic_exact_cycle_example():
    torus = pic0_structure(cycle_curve_graph(3))
    cls = pic_normalize(torus, (2, 1, 1, 1, 1, 1))
    assert not pic_is_trivial(cls)
    assert cls.char_values in ((Fraction(2),), (Fraction(1, 2),))
    # a gauge change by component rescalings is invisible
    gauged = pic_normalize(torus, (Fraction(2) * 3, 1 * 5, 3, 5, 1, 1))
    # component 0 scaled on its two edges, etc; classes need not be equal,
    # but the diagonal action at each point must be
    point_scaled = pic_normalize(torus, (2 * 7, 1 * 7, 1, 1, 1, 1))
    assert pic_equal(cls, point_scaled)


def test_pi1_verdicts():
    d = duncehat_surface_description()
    assert pi1_vanishing_verdict(d, [True]).status == "vanishes"
    v = pi1_vanishing_verdict(d, [False])
    assert v.status == "unknown" and any("component 0" in r for r in v.reasons)
    w = pi1_vanishing_verdict(wrong_case_surface_description(), [True])
    assert w.status == "unknown"
    assert any("Z/3" in r for r in w.reasons)


def test_surface_json_round_trip():
    for name in ("duncehat-surface", "wrong-case", "three-planes", "two-planes"):
        d = builtin_surface(name)
        back = ncsurf_from_json(json.dumps(d.to_json_dict()))
        assert back == d
    with pytest.raises(ValidationError):
        builtin_surface("nope")


def test_triple_count_consistency_enforced():
    d = duncehat_surface_description()
    bad = NCSurfaceDescription(
        strata=(
            d.strata[0],
            (Stratum(branches=2, attach=d.strata[1][0].attach, chi_normalization=2,
                     normal_degrees=(-2, -1), triple_count=2),),
            d.strata[2],
        ),
        name="bad",
    )
    with pytest.raises(ValidationError):
        bad.validate()


@pytest.mark.parametrize(
    "level, key, value, message",
    [(1, "triple_count", -2, "count of at least 0"), (1, "chi_normalization", 3, "even number"),
     (1, "chi_normalization", -1, "even number")],
)
def test_decoration_ranges_refused_at_decode(capsys, tmp_path, level, key, value, message):
    data = duncehat_surface_description().to_json_dict()
    data["strata"][level][0][key] = value
    with pytest.raises(ValidationError, match=f"field '{key}'.*{message}"):
        ncsurf_from_json(json.dumps(data))
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data))
    assert main(["nc", "kulikov", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: missing or malformed field '{key}'")
    # a component's chi may be odd: a plane blown up in n points has 3 + n
    data = duncehat_surface_description().to_json_dict()
    data["strata"][0][0]["chi_normalization"] = 9
    assert ncsurf_from_json(json.dumps(data)).components()[0].chi_normalization == 9


def test_one_triangulated_validation_per_surface(monkeypatch):
    text = json.dumps(duncehat_surface_description().to_json_dict())
    validated = []
    real = TriangulatedSet.__dict__["_validated"].func

    def counting(t):
        validated.append(t)
        return real(t)

    prop = cached_property(counting)
    prop.__set_name__(TriangulatedSet, "_validated")
    monkeypatch.setattr(TriangulatedSet, "_validated", prop)
    desc = ncsurf_from_json(text)
    for _ in range(2):
        t = dual_complex(desc)
        assert [r["vanishes"] for r in kulikov_report(desc)] == [True]
        assert generic_fiber_euler(desc) == 11
        assert pi1_vanishing_verdict(desc, [True]).status == "vanishes"
    assert validated == [t] and t is desc.triangulated
