"""The benchmark tracer's span list against the library's public functions.

``bench/spans.py`` wraps the functions it lists in ``TRACED`` by name.  A
refactor that renames or moves one of them would break ``--trace`` runs
without failing anything else here, so the list is read (not edited) and
checked against the library.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_function():
    for mod, names in _spans().TRACED.items():
        module = importlib.import_module(f"dualcx.{mod}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn) and fn.__module__ == module.__name__, f"{mod}.{name}"


def test_the_tracer_wraps_and_restores_the_library():
    from dualcx import cubics

    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cubics.random_construct(3)
    finally:
        tracer.restore()
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"cubics.random_construct", "cubics.nodal_cubic", "cubics.intersect", "cubics.make_construct"} <= names
    spans.assert_untouched()
