"""The dunce hat versus the cyclic triangle, certificate by certificate.

Both spaces are built from one vertex, one edge, and one triangle; the only
difference is how the three sides of the triangle run over the edge.  One
gluing pattern produces a contractible space that no sequence of collapses
can reduce to a point; the other produces a space with fundamental group of
order three.  Everything below is an exact computation.
"""

from dualcx.simplicial import (
    functor_p,
    functor_q,
    has_semisimplicial_lift,
    is_simple,
    make_cyclic_triangle,
    make_duncehat,
)
from dualcx.topology import (
    barycentric_subdivision,
    edge_path_presentation,
    euler_characteristic,
    free_faces,
    homology,
    is_collapsible,
    tietze_trivialize,
)


def show(name, x):
    print(f"--- {name} ---")
    print("cell counts:        ", x.counts() if hasattr(x, "counts") else "?")
    print("euler characteristic:", euler_characteristic(x))
    print("homology:           ", ", ".join(str(h) for h in homology(x)))
    print("simple:             ", is_simple(x))
    print("free faces:         ", free_faces(x))
    collapse = is_collapsible(x, budget=100_000)
    print("collapsibility:     ", collapse.status, f"(stuck 2-core, cells per dimension: {collapse.core_counts})")
    pres = edge_path_presentation(x)
    print("pi1 presentation:    generators", pres.num_generators, "relators", pres.relators)
    tz = tietze_trivialize(pres)
    print("tietze search:      ", tz.status, "-", tz.reason)
    print()


dunce = make_duncehat()
show("dunce hat", dunce)

cyclic = make_cyclic_triangle()
show("cyclic triangle", cyclic)

print("does the cyclic triangle lift to a semi-simplicial set?",
      has_semisimplicial_lift(cyclic))
print("flag complex of the dunce hat has counts",
      functor_q(functor_p(dunce)).counts(),
      "(one ordinary triangle: the flag functor is only a homotopy model)")

bary = barycentric_subdivision(dunce)
print("barycentric subdivision:", bary.counts(),
      "euler", euler_characteristic(bary),
      "collapsibility", is_collapsible(bary, budget=100_000).status)
