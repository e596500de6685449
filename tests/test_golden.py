"""Pin the exact `--json` reports of the combinatorial tools.

Every `topo` subcommand on the five builtin complexes and every `nc`
subcommand on the four builtin surfaces (`nc pi1` with and without
`--assume-simply-connected`) is run in process; the sha256 of its stdout
and its exit code must match the committed table `golden_reports.json`.
These reports hold no floats, so the digests do not depend on the
platform.  The numeric tools (`cubic`, `obs`, `reproduce`) are left out
for that reason.

After a deliberate change to one of these reports, regenerate the table
from the repository root with

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_reports.json
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from dualcx.cli import main
from dualcx.ncgeom import BUILTIN_SURFACES
from dualcx.simplicial import BUILTIN_COMPLEXES

TABLE = pathlib.Path(__file__).with_name("golden_reports.json")

COMMANDS = [
    *(f"topo {cmd} --builtin {name} --json"
      for name in sorted(BUILTIN_COMPLEXES) for cmd in ("homology", "euler", "collapse", "pi1", "subdivide")),
    *(f"nc {cmd} --builtin {name} --json"
      for name in sorted(BUILTIN_SURFACES)
      for cmd in ("dual-complex", "kulikov", "chi", "pic0", "pi1", "pi1 --assume-simply-connected")),
]


def _digest(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return {"code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_the_golden_table(command):
    assert _digest(command) == json.loads(TABLE.read_text())[command]


def test_golden_table_lists_exactly_these_commands():
    assert sorted(json.loads(TABLE.read_text())) == sorted(COMMANDS)


if __name__ == "__main__":
    print(json.dumps({command: _digest(command) for command in COMMANDS}, sort_keys=True, indent=1))
