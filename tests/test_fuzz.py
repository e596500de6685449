"""Seeded mutation fuzzing of the three input file kinds through the command line.

One JSON path of a valid file is mutated at a time (a string, -5, 10^9,
NaN, null, a list, a bool, or the entry deleted) and the mutated file goes
through every command that reads that kind of file.  Each run must end in
an exit code of 0-3; an exception escaping ``main`` is a failure.
"""

import json
import random

import pytest

from dualcx import cubics, ncgeom, simplicial
from dualcx.cli import main
from dualcx.serialize import construct_to_json

DELETE = object()
MUTATIONS = ("x", -5, 10**9, float("nan"), None, [1, 2], True, DELETE)

COMMANDS = {
    "complex": [["topo", c] for c in ("homology", "euler", "collapse", "pi1", "subdivide")],
    "ncsurf": [["nc", c] for c in ("dual-complex", "kulikov", "chi", "pic0", "pi1")],
    "construct": [["cubic", "validate"]],
}

LOADERS = {
    "complex": simplicial.complex_from_json,
    "ncsurf": ncgeom.ncsurf_from_json,
    "construct": lambda text: None,
}


def _paths(node, prefix=()):
    """Every JSON path below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(data: dict, path: tuple, value) -> dict:
    out = json.loads(json.dumps(data))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _commands(kind: str, text: str) -> list:
    """Every command of the kind when the file loads; one is enough to see a load refused."""
    try:
        LOADERS[kind](text)
    except Exception:
        return COMMANDS[kind][:1]
    return COMMANDS[kind]


@pytest.mark.parametrize(
    "kind, data, sample",
    [
        ("complex", simplicial.make_duncehat().to_json_dict(), None),
        ("complex", simplicial.make_cyclic_triangle().to_json_dict(), None),
        ("ncsurf", ncgeom.duncehat_surface_description().to_json_dict(), None),
        ("construct", json.loads(construct_to_json(cubics.random_construct(6))), 200),
    ],
    ids=["duncehat", "cyclic-triangle", "duncehat-surface", "construct-6"],
)
def test_mutated_files_exit_0_to_3(capsys, tmp_path, kind, data, sample):
    cases = [(path, value) for path in _paths(data) for value in MUTATIONS]
    if sample is not None:
        cases = random.Random(13).sample(cases, sample)
    failures = []
    mutated_file = tmp_path / "mutated.json"
    for path, value in cases:
        text = json.dumps(_mutated(data, path, value))
        mutated_file.write_text(text)
        for argv in _commands(kind, text):
            try:
                code = main(argv + [str(mutated_file), "--budget", "2000"])
            except Exception as exc:
                failures.append((path, value, argv, repr(exc)))
                continue
            if code not in (0, 1, 2, 3):
                failures.append((path, value, argv, code))
        capsys.readouterr()
    assert not failures, failures[:5]
