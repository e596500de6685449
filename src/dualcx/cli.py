"""Command line front end.

One executable, four tool families plus a one-shot verification driver:

    dualcx topo  {homology,euler,collapse,pi1,subdivide}  FILE|--builtin NAME
    dualcx nc    {dual-complex,kulikov,chi,pic0,pi1}      FILE|--builtin NAME
    dualcx cubic {make,random,validate,show}
    dualcx obs   {data,consistency,jacobian,scan}
    dualcx reproduce [--quick]

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage or input
error, 3 a numeric guard rejected the configuration.

Reports are dictionaries rendered either as human-readable text or, with
--json, as canonical JSON (sorted keys).  The JSON payload is a pure
function of (inputs, seeds, tolerances, version): timing is kept out of
it, every numeric verdict carries the tolerance it was checked at, and
all randomness is seed-injected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import BudgetError, DualcxError, GuardError, RootFindingError, ValidationError
from .numerics import DEFAULT_TOL, Tolerances
from . import accept, simplicial, topology, ncgeom, cubics, obstruction
from .serialize import construct_from_json, construct_to_json

SCHEMA = "dualcx-report/1"


class UsageError(DualcxError):
    pass


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _jsonable(x):
    """Coerce numpy scalars (and containers of them) to plain Python."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    return x


def _load_complex(args):
    if args.builtin:
        return simplicial.builtin_complex(args.builtin)
    if not args.file:
        raise UsageError("give a complex file or --builtin NAME")
    with open(args.file) as fh:
        return simplicial.complex_from_json(fh.read())


def _load_surface(args):
    if args.builtin:
        return ncgeom.builtin_surface(args.builtin)
    if not args.file:
        raise UsageError("give a surface file or --builtin NAME")
    with open(args.file) as fh:
        return ncgeom.ncsurf_from_json(fh.read())


def _input_tag(args) -> str:
    if getattr(args, "builtin", None):
        return f"builtin:{args.builtin}"
    if getattr(args, "file", None):
        with open(args.file, "rb") as fh:
            return "sha256:" + hashlib.sha256(fh.read()).hexdigest()[:16]
    return "none"


def _tolerances(args) -> Tolerances:
    over = {}
    if args.tol_root is not None:
        over["root_residual"] = args.tol_root
    if args.tol_cluster is not None:
        over["cluster_radius"] = args.tol_cluster
    if args.tol_rank is not None:
        over["rank_tol"] = args.tol_rank
    return DEFAULT_TOL.with_overrides(**over)


# ---------------------------------------------------------------------------
# topo subcommands
# ---------------------------------------------------------------------------


def cmd_topo(args) -> tuple[dict, bool]:
    x = _load_complex(args)
    if args.topo_cmd == "homology":
        hs = topology.homology(x)
        return {"homology": [{"betti": h.betti, "torsion": list(h.torsion)} for h in hs],
                "pretty": [str(h) for h in hs]}, True
    if args.topo_cmd == "euler":
        return {"euler_characteristic": topology.euler_characteristic(x)}, True
    if args.topo_cmd == "collapse":
        res = topology.is_collapsible(x, budget=args.budget)
        report = {
            "status": res.status,
            "states_explored": res.states_explored,
            "search_exhausted": res.exhausted,
            "certificate": [[list(g), list(f)] for g, f in res.certificate] if res.certificate else None,
        }
        if res.core_counts is not None:
            report["core_counts"] = list(res.core_counts)
        return report, res.status != "inconclusive"
    if args.topo_cmd == "pi1":
        pres = topology.edge_path_presentation(x)
        tz = topology.tietze_trivialize(pres, budget=args.budget)
        ab = pres.abelianization()
        return {
            "generators": pres.num_generators,
            "relators": [list(r) for r in pres.relators],
            "abelianization": str(ab),
            "tietze": {"status": tz.status, "reason": tz.reason,
                       "moves": [list(map(str, m)) for m in tz.moves] if tz.moves else None},
        }, True
    if args.topo_cmd == "subdivide":
        b = topology.barycentric_subdivision(x)
        return {"counts": list(b.counts()), "euler_characteristic": b.euler_characteristic(),
                "complex": b.to_json_dict()}, True
    raise UsageError(f"unknown topo subcommand {args.topo_cmd!r}")


# ---------------------------------------------------------------------------
# nc subcommands
# ---------------------------------------------------------------------------


def cmd_nc(args) -> tuple[dict, bool]:
    desc = _load_surface(args)
    if args.nc_cmd == "dual-complex":
        t = ncgeom.dual_complex(desc)
        return {"counts": list(t.counts()), "complex": t.to_json_dict()}, True
    if args.nc_cmd == "kulikov":
        rows = ncgeom.kulikov_report(desc)
        return {"curves": rows, "all_vanish": all(r["vanishes"] for r in rows)}, all(r["vanishes"] for r in rows)
    if args.nc_cmd == "chi":
        return {"generic_fiber_euler": ncgeom.generic_fiber_euler(desc)}, True
    if args.nc_cmd == "pic0":
        graph = _incidence_graph(desc)
        torus = ncgeom.pic0_structure(graph)
        return {
            "components": graph.num_components,
            "point_multiplicities": list(graph.point_multiplicities),
            "torus_dimension": torus.dimension,
            "graph_betti_1": graph.betti_1(),
        }, True
    if args.nc_cmd == "pi1":
        flags = [True] * len(desc.components()) if args.assume_simply_connected else [False] * len(desc.components())
        verdict = ncgeom.pi1_vanishing_verdict(desc, flags, budget=args.budget)
        return {"status": verdict.status, "reasons": list(verdict.reasons),
                "component_flags": flags}, verdict.status == "vanishes" or not args.assume_simply_connected
    raise UsageError(f"unknown nc subcommand {args.nc_cmd!r}")


def _incidence_graph(desc) -> ncgeom.CurveIncidenceGraph:
    """Incidence graph of the singular locus: double curves vs triple points."""
    mult = [st.branches for st in desc.triple_points()]
    edges = []
    for j, tp in enumerate(desc.triple_points()):
        for tgt, _ in tp.attach:
            edges.append((tgt, j))
    return ncgeom.CurveIncidenceGraph(
        num_components=len(desc.double_curves()),
        point_multiplicities=tuple(mult),
        edges=tuple(edges),
    )


# ---------------------------------------------------------------------------
# cubic subcommands
# ---------------------------------------------------------------------------


def _construct_from_args(args, tol) -> cubics.Construct:
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return construct_from_json(fh.read(), tol)
    return cubics.random_construct(args.seed, tol)


def _construct_summary(c: cubics.Construct) -> dict:
    return {
        "seed": c.seed,
        "n_p": _c(c.n_p),
        "n_q": _c(c.n_q),
        "tau_b": _c(c.tau_b),
        "node_p": _c(complex(c.p.node[0])) + _c(complex(c.p.node[1])),
        "node_q": _c(complex(c.q.node[0])) + _c(complex(c.q.node[1])),
        "intersection_index": c.n_index,
        "flex_rule": c.p.flex_rule,
    }


def cmd_cubic(args, tol) -> tuple[dict, bool]:
    if args.cubic_cmd in ("make", "random"):
        c = cubics.random_construct(args.seed, tol)
        payload = json.loads(construct_to_json(c))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(construct_to_json(c))
        return {"construct": payload, "summary": _construct_summary(c)}, True
    if args.cubic_cmd == "validate":
        c = _construct_from_args(args, tol)
        return {"valid": True, "summary": _construct_summary(c)}, True
    if args.cubic_cmd == "show":
        c = _construct_from_args(args, tol)
        return {"summary": _construct_summary(c)}, True
    raise UsageError(f"unknown cubic subcommand {args.cubic_cmd!r}")


# ---------------------------------------------------------------------------
# obs subcommands
# ---------------------------------------------------------------------------


def cmd_obs(args, tol) -> tuple[dict, bool]:
    if args.obs_cmd == "data":
        c = _construct_from_args(args, tol)
        jc, sbg, tc = obstruction.closed_form_data(c)
        jd, rep, td = obstruction.direct_pipeline_data(c, tol)
        return {
            "summary": _construct_summary(c),
            "closed_form": {"g21": _c(jc.g21), "g31": _c(jc.g31)},
            "direct": {"g21": _c(jd.g21), "g31": _c(jd.g31)},
            "route_ratio": {"r21": _c(jd.g21 / jc.g21), "r31": _c(jd.g31 / jc.g31)},
            "residual_divisor_orders": list(rep.mark_orders),
        }, True
    if args.obs_cmd == "consistency":
        if args.family_size < 2:
            raise UsageError(f"--family-size must be at least 2, got {args.family_size}")
        fam = obstruction.seeded_family(args.seed, args.family_size, tol)
        rep = obstruction.consistency_check(fam, tol)
        passed = rep.deviation <= args.tol
        return {
            "seed": args.seed,
            "family_size": args.family_size,
            "n_p": _c(rep.n_p),
            "n_q": _c(rep.n_q),
            "deviation": rep.deviation,
            "tolerance": args.tol,
            "passed": passed,
        }, passed
    if args.obs_cmd == "jacobian":
        c = _construct_from_args(args, tol)
        jr = obstruction.jacobian_rank(c, tol=tol)
        return {
            "summary": _construct_summary(c),
            "rank": jr.rank,
            "singular_values": list(jr.singular_values),
            "rank_tol": tol.rank_tol,
            "full_rank": jr.rank == 4,
        }, jr.rank == 4
    if args.obs_cmd == "scan":
        if args.targets < 1:
            raise UsageError(f"--targets must be at least 1, got {args.targets}")
        rep = obstruction.surjectivity_scan(args.seed, n_targets=args.targets, tol=args.tol, tolerances=tol)
        return {
            "seed": args.seed,
            "targets": [
                {"target": _c(t.target[0]) + _c(t.target[1]), "reached": t.reached,
                 "iterations": t.iterations, "residual": t.residual}
                for t in rep.targets
            ],
            "newton_tolerance": args.tol,
            "all_reached": rep.all_reached,
        }, rep.all_reached
    raise UsageError(f"unknown obs subcommand {args.obs_cmd!r}")


# ---------------------------------------------------------------------------
# the one-shot verification driver
# ---------------------------------------------------------------------------


def cmd_reproduce(args, tol) -> tuple[dict, bool]:
    checks = accept.run_all(quick=args.quick, tol=tol)
    passed = all(c["passed"] for c in checks)
    return {"quick": args.quick, "checks": checks, "all_passed": passed}, passed


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from overwriting a flag given before the
    # subcommand; unset attributes get their defaults after parsing
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    common.add_argument("--seed", type=int)
    common.add_argument("--budget", type=int,
                        help="state budget of the Tietze search and of the collapse search, which backtracks in "
                             "dimension >= 3 only (on a 2-complex it stops at its first dead end)")
    common.add_argument("--tol-root", type=float, help="root-finder backward error")
    common.add_argument("--tol-cluster", type=float, help="cluster radius for roots and divisors")
    common.add_argument("--tol-rank", type=float, help="relative singular-value floor for ranks")

    ap = argparse.ArgumentParser(
        prog="dualcx", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, parents=[common]
    )
    sub = ap.add_subparsers(dest="tool", required=True)

    topo = sub.add_parser("topo", help="complexes: homology, collapsibility, pi1", parents=[common])
    topo.add_argument("topo_cmd", choices=["homology", "euler", "collapse", "pi1", "subdivide"])
    topo.add_argument("file", nargs="?")
    topo.add_argument("--builtin", choices=sorted(simplicial.BUILTIN_COMPLEXES))

    nc = sub.add_parser("nc", help="normal-crossing surface descriptions", parents=[common])
    nc.add_argument("nc_cmd", choices=["dual-complex", "kulikov", "chi", "pic0", "pi1"])
    nc.add_argument("file", nargs="?")
    nc.add_argument("--builtin", choices=sorted(ncgeom.BUILTIN_SURFACES))
    nc.add_argument("--assume-simply-connected", action="store_true",
                    help="declare every component's open part simply connected")

    cubic = sub.add_parser("cubic", help="nodal cubic constructs", parents=[common])
    cubic.add_argument("cubic_cmd", choices=["make", "random", "validate", "show"])
    cubic.add_argument("file", nargs="?")
    cubic.add_argument("--out", help="write construct JSON here")

    obs = sub.add_parser("obs", help="obstruction data, consistency, rank, scan", parents=[common])
    obs.add_argument("obs_cmd", choices=["data", "consistency", "jacobian", "scan"])
    obs.add_argument("file", nargs="?")
    obs.add_argument("--family-size", type=int, default=5)
    obs.add_argument("--targets", type=int, default=20)
    obs.add_argument("--tol", type=float, default=None)

    rep = sub.add_parser("reproduce", help="run the whole acceptance suite", parents=[common])
    rep.add_argument("--quick", action="store_true", help="reduced sample sizes")
    return ap


def _render_human(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, val in report.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_human(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(_render_human(item, indent + 1))
                lines.append(pad + "  -")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(l for l in lines if l.strip() != "-")


_GLOBAL_DEFAULTS = {
    "json": False,
    "seed": 1,
    "budget": 200_000,
    "tol_root": None,
    "tol_cluster": None,
    "tol_rank": None,
}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args, extra = ap.parse_known_args(argv)
        # argparse leaves a FILE that follows an option after the subcommand
        # (`topo euler --json FILE`) unparsed: one such token is the FILE
        if len(extra) == 1 and not extra[0].startswith("-") and getattr(args, "file", "") is None:
            args.file, extra = extra[0], []
        if extra:
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for key, val in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    tol = _tolerances(args)
    started = time.time()
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.tool == "topo":
            report, ok = cmd_topo(args)
        elif args.tool == "nc":
            report, ok = cmd_nc(args)
        elif args.tool == "cubic":
            report, ok = cmd_cubic(args, tol)
        elif args.tool == "obs":
            if args.tol is None:
                args.tol = 1e-6 if args.obs_cmd == "consistency" else 1e-8
            report, ok = cmd_obs(args, tol)
        elif args.tool == "reproduce":
            report, ok = cmd_reproduce(args, tol)
        else:
            raise UsageError(f"unknown tool {args.tool!r}")
    except (UsageError, ValidationError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"rejected ({exc.reason}): {exc}", file=sys.stderr)
        return 3
    except RootFindingError as exc:
        print(f"rejected (root-finding): {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    envelope = _jsonable({
        "schema": SCHEMA,
        "version": __version__,
        "tool": args.tool,
        "subcommand": getattr(args, f"{args.tool}_cmd", args.tool),
        "input": _input_tag(args),
        "seed": args.seed,
        "tolerances": {
            "root_residual": tol.root_residual,
            "cluster_radius": tol.cluster_radius,
            "rank_tol": tol.rank_tol,
        },
        "report": report,
        "verdict": "pass" if bool(ok) else "fail",
    })
    if args.json:
        print(json.dumps(envelope, sort_keys=True, indent=1))
    else:
        print(_render_human(envelope))
        print(f"elapsed: {time.time() - started:.2f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
