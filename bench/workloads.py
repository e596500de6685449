"""The benchmark's workloads: seeded op inputs, the op, and its verdict checks.

Every op returns a list of problems; an empty list is a correct verdict.
Inputs depend only on (seed, op index), and are made by ``op_input``
outside the timed op.  Library calls go through module attributes
(``cubics.random_construct``, never a bare imported name), so the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import numpy as np

from dualcx import accept, cubics, ncgeom, obstruction, serialize, simplicial, topology

# the op index space of one seed
STREAM = 1_000_000


def stream_seed(seed: int, index: int) -> int:
    return seed * STREAM + index


def visit(seed: int, index: int, pool: tuple):
    """Item of op ``index``: each pass over ``pool`` visits every item once, in seeded order."""
    rng = np.random.default_rng(stream_seed(seed, index // len(pool)))
    return pool[rng.permutation(len(pool))[index % len(pool)]]


# ---------------------------------------------------------------------------
# class_map: criterion 09, `obs jacobian` and `obs scan`
# ---------------------------------------------------------------------------

# The first quarter of criterion 09's constructs, about one pass per run.
# At random construct seeds about 1 op in 100 misses its scan target (see
# the xfail tests in test_bench.py).
CONSTRUCT_SEEDS = tuple(range(25))
RANK_RETRY_STEPS = (1e-6, 1e-7)
SCAN_TOL = 1e-8
# Criterion 09 draws targets up to log-offset 1.0, where one target takes
# 4 to 12 continuation Newton steps (2 to 8 s) depending on the seed.  Here
# one stage of 3 or 4 steps reaches it, so an op's cost follows the cost of
# class-map evaluations, not a seed-dependent step count.
SCAN_MAX_LOG_OFFSET = 0.002


class ClassMap:
    name = "class_map"
    pass_length = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op_input(self, index: int) -> int:
        return visit(self.seed, index, CONSTRUCT_SEEDS)

    def warmup_input(self) -> int:
        return CONSTRUCT_SEEDS[0]

    def run(self, construct_seed: int) -> list[str]:
        problems = []
        c = cubics.random_construct(construct_seed)
        rank = obstruction.jacobian_rank(c).rank
        for h in RANK_RETRY_STEPS:
            if rank == 4:
                break
            rank = obstruction.jacobian_rank(c, step=h).rank
        if rank != 4:
            problems.append(f"jacobian rank {rank} after retries, want 4")
        scan = obstruction.surjectivity_scan(
            construct_seed, n_targets=1, tol=SCAN_TOL, max_log_offset=SCAN_MAX_LOG_OFFSET, construct=c
        )
        target = scan.targets[0]
        if not (target.reached and target.residual <= SCAN_TOL):
            problems.append(f"scan target not reached: residual {target.residual:.3e}")
        return problems


# ---------------------------------------------------------------------------
# consistency: criteria 08/10, `obs consistency` and `obs data FILE`
# ---------------------------------------------------------------------------

FAMILY_SIZE = 5
# Criterion 08's families.  Random family seeds hit two defects at about
# 1 in 200 families each (see the xfail tests in test_bench.py): a
# seeded_family that never returns, and a route deviation above 1e-6.
FAMILY_SEEDS = tuple(range(100, 110))
DEVIATION_TOL = 1e-6
MARK_SPREAD_TOL = 1e-8


def _relative_spread(values, base) -> float:
    return max(abs(a - b) / abs(b) for a, b in zip(values, base))


class Consistency:
    name = "consistency"
    pass_length = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op_input(self, index: int) -> int:
        return visit(self.seed, index, FAMILY_SEEDS)

    def warmup_input(self) -> int:
        return FAMILY_SEEDS[0]

    def run(self, family_seed: int) -> list[str]:
        problems = []
        family = obstruction.seeded_family(family_seed, FAMILY_SIZE)
        # Only the base member makes the file round trip: members moved by
        # affine_family can fail the implicitization guard on reload (see
        # test_moved_member_reload in test_bench.py), so writing them would
        # turn this workload into a failing one rather than a measured one.
        text = serialize.construct_to_json(family[0])
        base = serialize.construct_from_json(text)
        if serialize.construct_to_json(base) != text:
            problems.append("re-serialized construct differs from the file it was read from")
        loaded = [base] + family[1:]
        report = obstruction.consistency_check(loaded)
        if not report.deviation <= DEVIATION_TOL:
            problems.append(f"route deviation {report.deviation:.3e} > {DEVIATION_TOL}")
        _, direct, _ = obstruction.direct_pipeline_data(loaded[0])
        if direct.mark_orders != (1, 1, 1) or direct.local_orders != (1, 1, 1):
            problems.append(f"residual divisors {direct.mark_orders}/{direct.local_orders}, want (1, 1, 1)")
        base_lam = obstruction.lambda_factors(loaded[0])
        base_ds = obstruction.scale_derivatives(loaded[0].n_p)
        spread = 0.0
        for member in loaded[1:]:
            spread = max(
                spread,
                _relative_spread(obstruction.lambda_factors(member), base_lam),
                _relative_spread(obstruction.scale_derivatives(member.n_p), base_ds),
            )
        if not spread <= MARK_SPREAD_TOL:
            problems.append(f"mark spread {spread:.3e} > {MARK_SPREAD_TOL}")
        return problems


# ---------------------------------------------------------------------------
# combinatorics: criteria 01-07/11, the `topo` and `nc` tools
# ---------------------------------------------------------------------------

COLLAPSE_BUDGET = 5_000
TIETZE_BUDGET = 100_000
# isomorphic() assigns vertex images before any constraint applies, so its
# search grows factorially in the vertex count; at 12 vertices a relabeled
# copy was not matched within 3 s.  Complexes above this size skip it.
ISO_MAX_VERTICES = 7


def _as_tset(x) -> simplicial.TriangulatedSet:
    return x if isinstance(x, simplicial.TriangulatedSet) else simplicial.functor_p(x)


def wedge(a: simplicial.SemiSimplicialSet, b: simplicial.SemiSimplicialSet, b_vertex: int = 0):
    """Glue vertex ``b_vertex`` of ``b`` to vertex 0 of ``a``."""
    vmap = {}
    k = a.num_vertices
    for v in range(b.num_vertices):
        if v == b_vertex:
            vmap[v] = 0
        else:
            vmap[v] = k
            k += 1
    levels = []
    for d in range(1, max(a.dimension, b.dimension) + 1):
        la = list(a.faces[d - 1]) if d <= a.dimension else []
        lb = list(b.faces[d - 1]) if d <= b.dimension else []
        if d == 1:
            lb = [tuple(vmap[f] for f in fs) for fs in lb]
        else:
            lb = [tuple(f + a.count(d - 1) for f in fs) for fs in lb]
        levels.append(tuple(la + lb))
    out = simplicial.SemiSimplicialSet(k, tuple(levels))
    out.validate()
    return out


def relabel(t: simplicial.TriangulatedSet, rng: np.random.Generator) -> simplicial.TriangulatedSet:
    """The same complex with its facet ids permuted in every dimension."""
    perms = [rng.permutation(t.count(d)).tolist() for d in range(t.dimension + 1)]
    levels = []
    for d in range(1, t.dimension + 1):
        level = [None] * t.count(d)
        for i, atts in enumerate(t.attach[d - 1]):
            level[perms[d][i]] = tuple((perms[d - 1][g], inj) for g, inj in atts)
        levels.append(tuple(level))
    out = simplicial.TriangulatedSet(t.num_vertices, tuple(levels))
    out.validate()
    return out


def _tetrahedron_with_doubled_face():
    """Four triangles on the tetrahedron's edges, one face taken twice: same counts, not a sphere."""
    t = simplicial.make_tetrahedron_boundary()
    tris = t.faces[1]
    return simplicial.SemiSimplicialSet(4, (t.faces[0], tris[:3] + (tris[0],)))


def _pinched_triangle():
    """A triangle with two vertices identified, plus an isolated vertex."""
    return simplicial.SemiSimplicialSet(3, (((1, 1), (1, 0), (1, 0)), ((0, 1, 2),)))


def _digon_and_loop():
    return simplicial.SemiSimplicialSet(3, (((1, 0), (1, 0), (2, 2)),))


# base: (builder, homology, euler, has free faces, collapse status, tietze status, negative partner)
BASES = {
    "duncehat": (simplicial.make_duncehat, ["Z", "0", "0"], 1, False, "non_collapsible", "trivial", "cyclic-triangle"),
    "cyclic-triangle": (simplicial.make_cyclic_triangle, ["Z", "Z/3", "0"], 1, False, "non_collapsible", "inconclusive", "duncehat"),
    "tetrahedron-boundary": (simplicial.make_tetrahedron_boundary, ["Z", "0", "Z"], 2, False, "non_collapsible", "trivial", "doubled-face"),
    "single-2-simplex": (simplicial.make_single_2_simplex, ["Z", "0", "0"], 1, True, "collapsible", "trivial", "pinched-triangle"),
    "circle": (simplicial.make_cycle_graph, ["Z", "Z"], 0, False, "non_collapsible", "inconclusive", "digon-and-loop"),
    # the wedges have free faces but no collapse, so that search is exhaustive
    "duncehat+simplex": (
        lambda: wedge(simplicial.make_duncehat(), simplicial.make_single_2_simplex()),
        ["Z", "0", "0"], 1, True, "non_collapsible", "trivial", None,
    ),
    "duncehat+sd-simplex": (
        lambda: wedge(simplicial.make_duncehat(), topology.barycentric_subdivision(simplicial.make_single_2_simplex())),
        ["Z", "0", "0"], 1, True, "non_collapsible", "trivial", "duncehat+sd-simplex@center",
    ),
}

PARTNERS = {
    "doubled-face": _tetrahedron_with_doubled_face,
    "pinched-triangle": _pinched_triangle,
    "digon-and-loop": _digon_and_loop,
    # same counts as duncehat+sd-simplex, wedge point at the barycenter instead of a corner
    "duncehat+sd-simplex@center": lambda: wedge(
        simplicial.make_duncehat(), topology.barycentric_subdivision(simplicial.make_single_2_simplex()), 6
    ),
}

# builtin surface: the builtin complex its dual complex must be isomorphic to
SURFACES = {
    "duncehat-surface": "duncehat",
    "wrong-case": "cyclic-triangle",
    "three-planes": "single-2-simplex",
}

# One pass over the pool, in a fixed order.  ("complex", base, level) builds
# the base and subdivides it ``level`` times inside the op; ("surface", name,
# level) starts from the surface's dual complex instead; ("graph",) is pic0
# on a seeded incidence graph.
# Tietze on a second subdivision of the dunce hat costs ~0.7 s, so both
# routes to it are in the pass: the tail then falls inside that group
# whatever the run's length.
POOL = (
    ("complex", "duncehat", 0),
    ("complex", "duncehat", 2),
    ("graph",),
    ("complex", "cyclic-triangle", 0),
    ("complex", "duncehat", 1),
    ("complex", "tetrahedron-boundary", 0),
    ("complex", "single-2-simplex", 2),
    ("surface", "duncehat-surface", 0),
    ("complex", "circle", 0),
    ("complex", "cyclic-triangle", 1),
    ("graph",),
    ("complex", "duncehat+sd-simplex", 0),
    ("complex", "single-2-simplex", 0),
    ("surface", "wrong-case", 0),
    ("complex", "tetrahedron-boundary", 1),
    ("surface", "duncehat-surface", 2),
    ("complex", "circle", 1),
    ("graph",),
    ("complex", "cyclic-triangle", 2),
    ("complex", "single-2-simplex", 1),
    ("surface", "three-planes", 0),
    ("complex", "duncehat+simplex", 0),
    ("complex", "circle", 2),
    ("graph",),
)


def _base(kind: str, name: str) -> str:
    return SURFACES[name] if kind == "surface" else name


def _build(kind: str, name: str):
    return ncgeom.dual_complex(ncgeom.builtin_surface(name)) if kind == "surface" else BASES[name][0]()


def _subdivided(x, level: int):
    for _ in range(level):
        x = topology.barycentric_subdivision(x)
    return x


class Combinatorics:
    name = "combinatorics"
    pass_length = len(POOL)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # complexes small enough for isomorphism checks: the form to relabel, and a partner
        self.small = {}
        self.partners = {}
        for kind in POOL:
            if kind[0] == "graph":
                continue
            _, name, level = kind
            t = _as_tset(_subdivided(_build(kind[0], name), level))
            if t.num_vertices > ISO_MAX_VERTICES:
                continue
            self.small[(name, level)] = t
            partner = BASES[_base(kind[0], name)][-1]
            if partner is not None:
                x = PARTNERS[partner]() if partner in PARTNERS else BASES[partner][0]()
                self.partners[(name, level)] = _as_tset(_subdivided(x, level))

    def op_input(self, index: int):
        rng = np.random.default_rng(stream_seed(self.seed, index))
        return self._input(POOL[index % len(POOL)], rng)

    def warmup_input(self):
        return self._input(("complex", "duncehat", 1), np.random.default_rng(0))

    def _input(self, kind, rng: np.random.Generator):
        if kind[0] == "graph":
            return ("graph", accept._random_incidence_graph(rng))
        _, name, level = kind
        small = self.small.get((name, level))
        return (kind[0], name, level, None if small is None else relabel(small, rng))

    def run(self, inp) -> list[str]:
        if inp[0] == "graph":
            return self._run_graph(inp[1])
        kind, name, level, copy = inp
        base = _base(kind, name)
        x = _build(kind, name)
        problems = []
        if kind == "surface" and not simplicial.isomorphic(x, _as_tset(BASES[base][0]())):
            problems.append(f"dual complex of {name} is not the {base}")
        return problems + self._certify(_subdivided(x, level), base, name, level, copy)

    def _certify(self, x, base: str, name: str, level: int, copy) -> list[str]:
        _, hom, euler, has_free, collapse, tietze, _ = BASES[base]
        where = f"{name}/sd{level}"
        problems = []
        got = [str(h) for h in topology.homology(x)]
        if got != hom:
            problems.append(f"{where}: homology {got}, want {hom}")
        chi = topology.euler_characteristic(x)
        if chi != euler:
            problems.append(f"{where}: euler characteristic {chi}, want {euler}")
        free = topology.free_faces(x)
        if bool(free) != has_free:
            problems.append(f"{where}: {len(free)} free faces, want {'some' if has_free else 'none'}")
        col = topology.is_collapsible(x, budget=COLLAPSE_BUDGET)
        if col.status != collapse or (collapse == "non_collapsible" and not col.exhausted):
            problems.append(f"{where}: collapse {col.status}, want {collapse}")
        elif collapse == "collapsible" and not topology.replay_collapse(x, col.certificate):
            problems.append(f"{where}: collapse certificate does not replay")
        tz = topology.tietze_trivialize(topology.edge_path_presentation(x), budget=TIETZE_BUDGET)
        if tz.status != tietze:
            problems.append(f"{where}: tietze {tz.status}, want {tietze}")
        if copy is not None:
            t = _as_tset(x)
            if not simplicial.isomorphic(t, copy):
                problems.append(f"{where}: not isomorphic to its relabeled copy")
            other = self.partners.get((name, level))
            if other is not None and simplicial.isomorphic(t, other):
                problems.append(f"{where}: isomorphic to its non-isomorphic partner")
        return problems

    def _run_graph(self, graph) -> list[str]:
        torus = ncgeom.pic0_structure(graph)
        b1 = accept._graph_b1_oracle(graph)
        if torus.dimension != b1 or graph.betti_1() != b1:
            return [f"pic0 dimension {torus.dimension}, betti_1 {graph.betti_1()}, oracle {b1}"]
        return []


WORKLOADS = {w.name: w for w in (ClassMap, Consistency, Combinatorics)}
