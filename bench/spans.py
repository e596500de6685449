"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every alias of each one: ``cubics``, ``obstruction``,
``serialize`` and ``ncgeom`` import these names with ``from ... import``,
so patching only the defining module would miss most calls.  Spans are
kept in memory as small lists and aggregated or written out after the run;
``Tracer.restore`` puts every original back and checks by identity that
it is back.  No file of the library changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED: dict[str, tuple[str, ...]] = {
    "numerics": ("aberth_roots", "poly_roots", "finite_diff_jacobian"),
    "cubics": (
        "nodal_cubic",
        "flexes",
        "intersect",
        "transport_cubic",
        "make_construct",
        "random_construct",
        "affine_family",
    ),
    "serialize": ("construct_to_json", "construct_from_json"),
    "obstruction": (
        "closed_form_data",
        "direct_pipeline_data",
        "seeded_family",
        "consistency_check",
        "jacobian_rank",
        "surjectivity_scan",
    ),
    "topology": (
        "homology",
        "free_faces",
        "is_collapsible",
        "edge_path_presentation",
        "tietze_trivialize",
        "barycentric_subdivision",
    ),
    "simplicial": ("functor_p", "isomorphic"),
    "ncgeom": ("dual_complex", "pic0_structure"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# calls that raised, over all calls
FAIL_RATIOS = (
    "cubics.affine_family",
    "cubics.make_construct",
    "obstruction.direct_pipeline_data",
    "numerics.aberth_roots",
)

# span fields
NAME, START, END, PARENT, OP, RAISED = range(6)


def _states_explored(result) -> dict[str, float]:
    return {"states_explored": result.states_explored}


def _scan_counts(result) -> dict[str, float]:
    return {
        "newton_iterations": sum(t.iterations for t in result.targets),
        "targets": len(result.targets),
        "reached": sum(t.reached for t in result.targets),
    }


# counts read from returned results, summed per span name
RESULT_COUNTS = {
    "topology.is_collapsible": _states_explored,
    "topology.tietze_trivialize": _states_explored,
    "obstruction.surjectivity_scan": _scan_counts,
}


def traced_originals() -> dict[str, object]:
    """The current binding of every traced name in its defining module."""
    import importlib

    out = {}
    for mod, fns in TRACED.items():
        module = importlib.import_module(f"dualcx.{mod}")
        for fn in fns:
            out[f"{mod}.{fn}"] = getattr(module, fn)
    return out


def assert_untouched() -> None:
    """Raise unless every traced name is bound to the library's own function."""
    for name, fn in traced_originals().items():
        mod = name.rsplit(".", 1)[0]
        if getattr(fn, "__module__", None) != f"dualcx.{mod}" or hasattr(fn, "__wrapped__"):
            raise RuntimeError(f"{name} is not the library function: {fn!r}")


class Tracer:
    """Span recorder for one process; spans are (name, start, end, parent, op, raised)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.op_id: int | None = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, raised: bool = False) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[RAISED] = raised
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, raised=True)
                raise
            self.end(idx)
            if counter is not None:
                acc = self.counts.setdefault(name, {})
                for key, value in counter(result).items():
                    acc[key] = acc.get(key, 0) + value
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every alias of every traced function to a span wrapper."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = traced_originals()  # captured before anything is patched
        by_id = {id(fn): name for name, fn in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "dualcx" or modname.startswith("dualcx.")):
                continue
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and originals[name] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[name])
        bound = {f"{m.__name__.removeprefix('dualcx.')}.{a}" for m, a, _ in self._bindings}
        missing = [name for name in originals if name not in bound]
        if missing:
            raise RuntimeError(f"traced names not found in their modules: {missing}")

    def restore(self) -> int:
        """Put every original back; check by identity.  Returns the alias count."""
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        for module, attr, original in self._bindings:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        n = len(self._bindings)
        self._bindings = []
        assert_untouched()
        return n

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, "raised": raised}))
                fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, nested calls), so the
    covered time is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op ``calls`` and ``self_ms`` and ``ms_per_call`` for every traced name."""
    selfs = self_times(tracer.spans)
    calls = {name: 0 for name in SPAN_NAMES}
    raised = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    total_s = {name: 0.0 for name in SPAN_NAMES}
    for span, st in zip(tracer.spans, selfs):
        name = span[NAME]
        if name not in calls or span[OP] is None:
            continue
        calls[name] += 1
        raised[name] += span[RAISED]
        self_s[name] += st
        total_s[name] += span[END] - span[START]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
        out[f"{name}.ms_per_call"] = 1e3 * total_s[name] / calls[name] if calls[name] else 0.0
    for name in FAIL_RATIOS:
        out[f"{name}.fail_ratio"] = raised[name] / calls[name] if calls[name] else 0.0
    for name in ("topology.is_collapsible", "topology.tietze_trivialize"):
        out[f"{name}.states_explored"] = tracer.counts.get(name, {}).get("states_explored", 0) / n_ops
    scan = tracer.counts.get("obstruction.surjectivity_scan", {})
    out["obstruction.surjectivity_scan.newton_iterations"] = scan.get("newton_iterations", 0) / n_ops
    out["obstruction.surjectivity_scan.reached_ratio"] = scan["reached"] / scan["targets"] if scan.get("targets") else 0.0
    return out
