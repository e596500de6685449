"""The command line: dispatch, exit codes, deterministic reports."""

import json

import pytest

from dualcx.cli import main
from dualcx.ncgeom import builtin_surface
from dualcx.serialize import construct_from_json, construct_to_json
from dualcx.simplicial import SemiSimplicialSet, complex_from_json, make_single_2_simplex, make_tetrahedron_boundary
from dualcx.topology import barycentric_subdivision, replay_collapse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_builtin(capsys):
    code, out, _ = run(capsys, "topo", "homology", "--builtin", "duncehat", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["pretty"] == ["Z", "0", "0"]
    assert data["verdict"] == "pass"


def test_kulikov_builtin(capsys):
    code, out, _ = run(capsys, "nc", "kulikov", "--builtin", "duncehat-surface", "--json")
    assert code == 0
    assert json.loads(out)["report"]["curves"][0]["degree"] == 0


def test_euler_and_chi(capsys):
    code, out, _ = run(capsys, "topo", "euler", "--builtin", "cyclic-triangle", "--json")
    assert code == 0 and json.loads(out)["report"]["euler_characteristic"] == 1
    code, out, _ = run(capsys, "nc", "chi", "--builtin", "duncehat-surface", "--json")
    assert code == 0 and json.loads(out)["report"]["generic_fiber_euler"] == 11


def test_collapse_and_pi1(capsys, tmp_path):
    code, out, _ = run(capsys, "topo", "collapse", "--builtin", "duncehat", "--json")
    assert code == 0 and json.loads(out)["report"]["status"] == "non_collapsible"
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"kind": "ssset", "schema": 1, "dims": [0], "faces": []}))
    code, out, _ = run(capsys, "topo", "collapse", str(empty), "--json")
    assert code == 0 and json.loads(out)["report"]["states_explored"] == 1
    code, out, _ = run(capsys, "topo", "pi1", "--builtin", "cyclic-triangle", "--json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["abelianization"] == "Z/3"
    code, out, _ = run(capsys, "nc", "pi1", "--builtin", "wrong-case", "--assume-simply-connected", "--json")
    assert code == 1  # certification fails, loudly
    assert json.loads(out)["report"]["status"] == "unknown"


def _subdivided(x, level):
    for _ in range(level):
        x = barycentric_subdivision(x)
    return x


def test_collapse_of_a_deep_collapsible_complex(capsys, tmp_path):
    # the 2-simplex's fourth subdivision (673/1968/1296 cells) needs 1968
    # collapses, and the solid 3-simplex's second (149/796/1224/576) needs
    # 1372 states of the backtracking search, more than a recursive search
    # has stack frames for
    solid = SemiSimplicialSet(4, make_tetrahedron_boundary().faces + (((3, 2, 1, 0),),))
    for name, x, states in (("sd4", _subdivided(make_single_2_simplex(), 4), 1968),
                            ("solid-sd2", _subdivided(solid, 2), 1372)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(x.to_json_dict()))
        code, out, err = run(capsys, "topo", "collapse", str(path), "--json")
        assert code == 0 and not err, name
        rep = json.loads(out)["report"]
        assert rep["status"] == "collapsible" and rep["states_explored"] == states and "core_counts" not in rep
        assert replay_collapse(complex_from_json(path.read_text()), rep["certificate"]), name
    # a stuck 2-complex reports the cells left, here all of the dunce hat
    code, out, _ = run(capsys, "topo", "collapse", "--builtin", "duncehat", "--json")
    rep = json.loads(out)["report"]
    assert code == 0 and rep["core_counts"] == [1, 1, 1] and rep["search_exhausted"]


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "topo", "homology")
    assert code == 2
    code, _, err = run(capsys, "nc", "kulikov", "/no/such/file.json")
    assert code == 2


def test_guard_rejection_exit_3(capsys, tmp_path):
    code, out, _ = run(capsys, "cubic", "random", "--seed", "4", "--out", str(tmp_path / "c.json"), "--json")
    assert code == 0
    data = json.loads((tmp_path / "c.json").read_text())
    data["b"] = data["P"]["node"][0]  # collide b with the first node preimage
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "cubic", "validate", str(bad))
    assert code == 3
    assert "rejected" in err


CIRCLE = {"kind": "ssset", "schema": 1, "dims": [1, 1], "faces": [[[0, 0]]]}
NCSURF = {"kind": "ncsurf", "schema": 1, "strata": []}
MISSING = object()  # a field value meaning "delete the key"


@pytest.mark.parametrize(
    "command, field, edit",
    [
        ("obs data", "P", lambda d: d.pop("P")),
        ("obs data", "intersection_index", lambda d: d.update(intersection_index="x")),
        ("obs data", "intersection_index", lambda d: d.update(intersection_index=0.7)),
        ("obs data", "b", lambda d: d.update(b=[1])),
        ("obs data", "P", lambda d: d["P"]["x"][0].__setitem__(0, "nan")),
        ("cubic validate", "P", lambda d: d["P"]["x"][0].__setitem__(0, "nan")),
        ("obs data", "b", lambda d: d["b"].__setitem__(1, "inf")),
        ("cubic validate", "b", lambda d: d["b"].__setitem__(1, "inf")),
        ("cubic validate", "Q", lambda d: d["Q"]["node"][1].__setitem__(0, "-inf")),
        ("topo homology", "faces", lambda d: d.update(faces=[[["a", "0"]]])),
        ("topo homology", "faces", lambda d: d.pop("faces")),
        ("nc kulikov", "strata", lambda d: d.pop("strata")),
        ("topo homology", "dims", lambda d: d["dims"].__setitem__(0, 10**9)),
        ("topo collapse", "dims", lambda d: d.update(dims=[1, 2])),
        # a JSON boolean is not an integer, although Python's bool is an int
        ("topo euler", "dims", lambda d: d["dims"].__setitem__(0, True)),
        ("topo euler", "faces", lambda d: d["faces"][0][0].__setitem__(1, False)),
        ("obs data", "intersection_index", lambda d: d.update(intersection_index=True)),
        ("cubic validate", "seed", lambda d: d.update(seed=True)),
        ("cubic validate", "seed", lambda d: d.update(seed=1.5)),
        ("cubic validate", "seed", lambda d: d.update(seed="x")),
        ("cubic validate", "seed", lambda d: d.update(seed=[1])),
    ],
    ids=["no-P", "string-index", "float-index", "short-b", "nan-in-P", "nan-in-P-validate", "inf-in-b",
         "inf-in-b-validate", "inf-in-Q-node", "string-face-id", "no-faces", "no-strata", "huge-dims",
         "dims-off-levels", "bool-dims", "bool-face-id", "bool-index", "bool-seed", "float-seed", "string-seed",
         "list-seed"],
)
def test_malformed_file_field_exits_2(capsys, tmp_path, command, field, edit):
    if command in ("obs data", "cubic validate"):
        run(capsys, "cubic", "random", "--seed", "6", "--out", str(tmp_path / "c.json"))
        data = json.loads((tmp_path / "c.json").read_text())
    else:
        data = json.loads(json.dumps(NCSURF if command.startswith("nc") else CIRCLE))
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, *command.split(), str(bad))
    assert code == 2
    assert err.startswith("error: ") and repr(field) in err


@pytest.mark.parametrize(
    "command, level, field, value",
    [("nc chi", 0, "chi_normalization", "x"), ("nc kulikov", 1, "normal_degrees", "ab"),
     ("nc kulikov", 1, "normal_degrees", [1, 2, 3]), ("nc kulikov", 1, "triple_count", 2.5),
     ("nc dual-complex", 1, "branch_trivial", "false"), ("nc dual-complex", 1, "branch_trivial", None),
     ("nc chi", 0, "chi_normalization", True), ("nc kulikov", 0, "branches", True),
     ("nc kulikov", 1, "branches", "two"), ("nc kulikov", 1, "branches", MISSING)],
    ids=["string-chi", "string-degrees", "three-degrees", "float-triple-count", "string-branch-trivial",
         "null-branch-trivial", "bool-chi", "bool-branches", "string-branches", "no-branches"],
)
def test_malformed_surface_decoration_exits_2(capsys, tmp_path, command, level, field, value):
    data = builtin_surface("duncehat-surface").to_json_dict()
    if value is MISSING:
        del data["strata"][level][0][field]
    else:
        data["strata"][level][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, *command.split(), str(bad))
    assert code == 2
    assert err.startswith("error: ") and repr(field) in err


@pytest.mark.parametrize(
    "argv",
    [["topo", "homology", "{dir}"], ["topo", "homology", "{bin}"], ["nc", "chi", "{bin}"],
     ["cubic", "show", "{bin}"], ["cubic", "make", "--out", "{dir}"], ["obs", "data", "{dir}"]],
    ids=["topo-dir", "topo-binary", "nc-binary", "cubic-binary", "cubic-out-dir", "obs-dir"],
)
def test_unreadable_input_exits_2(capsys, tmp_path, argv):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00not text")
    argv = [a.format(dir=tmp_path, bin=binary) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command, options",
    [("topo euler", ["--json"]), ("topo collapse", ["--budget", "5", "--json"]), ("nc chi", ["--json"]),
     ("nc pi1", ["--budget", "50", "--json"]), ("cubic validate", ["--json"]),
     ("obs data", ["--json", "--budget", "5"])],
)
def test_options_before_file_read_as_after_it(capsys, tmp_path, command, options):
    path = tmp_path / "input.json"
    if command.startswith("topo"):
        path.write_text(json.dumps(CIRCLE))
    elif command.startswith("nc"):
        path.write_text(json.dumps(builtin_surface("duncehat-surface").to_json_dict()))
    else:
        run(capsys, "cubic", "random", "--seed", "6", "--out", str(path))
    file_first = run(capsys, *command.split(), str(path), *options)
    assert file_first[1]
    assert run(capsys, *command.split(), *options, str(path)) == file_first
    for argv in ([*options, str(path), str(path)], [str(path), *options, str(path)]):
        code, out, err = run(capsys, *command.split(), *argv)
        assert code == 2 and not out and f"unrecognized arguments: {path}" in err


def test_construct_round_trip_and_obs_data(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, out, _ = run(capsys, "cubic", "random", "--seed", "6", "--out", str(path), "--json")
    assert code == 0
    first = path.read_text()
    code, out, _ = run(capsys, "cubic", "validate", str(path), "--json")
    assert code == 0
    code, out, _ = run(capsys, "obs", "data", str(path), "--json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["residual_divisor_orders"] == [1, 1, 1]


def test_reports_are_byte_identical(capsys, tmp_path):
    _, out1, _ = run(capsys, "obs", "jacobian", "--seed", "3", "--json")
    _, out2, _ = run(capsys, "obs", "jacobian", "--seed", "3", "--json")
    assert out1 == out2
    assert json.loads(out1)["report"]["rank"] == 4
    _, out1, _ = run(capsys, "obs", "scan", "--seed", "5", "--targets", "2", "--json")
    _, out2, _ = run(capsys, "obs", "scan", "--seed", "5", "--targets", "2", "--json")
    assert out1 == out2
    assert json.loads(out1)["report"]["all_reached"]
    _, out1, _ = run(capsys, "obs", "consistency", "--seed", "100", "--json")
    _, out2, _ = run(capsys, "obs", "consistency", "--seed", "100", "--json")
    assert out1 == out2
    assert json.loads(out1)["verdict"] == "pass"
    # the Tietze move log on the dunce hat's second subdivision, and the
    # collapse certificate on the 2-simplex's (60 states explored)
    reports = {}
    for builtin, command in (("duncehat", "pi1"), ("single-2-simplex", "collapse")):
        source = ["--builtin", builtin]
        for level in (1, 2):
            _, out, _ = run(capsys, "topo", "subdivide", *source, "--json")
            path = tmp_path / f"{builtin}-sd{level}.json"
            path.write_text(json.dumps(json.loads(out)["report"]["complex"]))
            source = [str(path)]
        _, out1, _ = run(capsys, "topo", command, *source, "--json")
        _, out2, _ = run(capsys, "topo", command, *source, "--json")
        assert out1 == out2
        reports[command] = json.loads(out1)["report"]
    assert reports["pi1"]["tietze"]["status"] == "trivial"
    assert reports["collapse"]["status"] == "collapsible" and reports["collapse"]["states_explored"] == 60


def test_consistency_subcommand(capsys):
    code, out, _ = run(capsys, "obs", "consistency", "--seed", "7", "--family-size", "3", "--json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["deviation"] <= 1e-6
    assert rep["tolerance"] == 1e-6


def test_exhausted_family_exits_3(capsys):
    code, out, err = run(capsys, "obs", "consistency", "--seed", "200146")
    assert code == 3
    assert "rejected (sampling-exhausted)" in err
    assert "Traceback" not in out + err


def test_root_finding_failure_exits_3(capsys):
    code, out, err = run(capsys, "obs", "consistency", "--seed", "100", "--tol-root", "1e-30")
    assert code == 3
    assert "rejected (root-finding): " in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "argv",
    [["cubic", "random", "--seed", "-1"], ["obs", "jacobian", "--seed", "-1"],
     ["obs", "consistency", "--seed", "-1"], ["obs", "scan", "--seed", "-4"]],
    ids=["cubic-random", "obs-jacobian", "obs-consistency", "obs-scan"],
)
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and not out
    assert err.startswith("error: ") and "--seed" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize("option", ["--tol", "--tol-root", "--tol-cluster", "--tol-rank"])
def test_non_finite_or_non_positive_tolerance_exits_2(capsys, option, value):
    # NaN or infinity would reach the report as bare NaN or Infinity, which is not JSON
    code, out, err = run(capsys, "obs", "consistency", "--seed", "5", f"{option}={value}", "--json")
    assert code == 2 and not out
    assert err.startswith("error: ") and f"{option} must" in err and len(err.splitlines()) == 1


def test_obs_tol_reaches_the_check(capsys):
    # --tol is no prefix of --tol-root, --tol-cluster or --tol-rank to the top-level parser
    code, out, _ = run(capsys, "obs", "consistency", "--seed", "7", "--family-size", "3", "--tol", "1e-30", "--json")
    rep = json.loads(out)["report"]
    assert code == 1 and rep["tolerance"] == 1e-30 and not rep["passed"]


@pytest.mark.parametrize(
    "argv, option",
    [(["consistency", "--family-size", "0"], "--family-size"), (["consistency", "--family-size", "-3"], "--family-size"),
     (["consistency", "--family-size", "1"], "--family-size"), (["scan", "--targets", "0"], "--targets"),
     (["scan", "--targets", "-2"], "--targets")],
    ids=["family-0", "family-negative", "family-1", "targets-0", "targets-negative"],
)
def test_empty_sample_exits_2(capsys, argv, option):
    # a check over no members or no targets would pass having checked nothing
    code, out, err = run(capsys, "obs", *argv, "--seed", "5", "--json")
    assert code == 2 and not out
    assert err.startswith("error: ") and option in err


def test_construct_seed_null_missing_or_integer_round_trips(capsys, tmp_path):
    path = tmp_path / "c.json"
    run(capsys, "cubic", "random", "--seed", "6", "--out", str(path))
    saved = json.loads(path.read_text())
    for seed in (None, 0, 6, MISSING):
        data = {k: v for k, v in saved.items() if k != "seed"}
        if seed is not MISSING:
            data["seed"] = seed
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "cubic", "validate", str(path), "--json")
        want = None if seed is MISSING else seed
        assert code == 0 and json.loads(out)["report"]["summary"]["seed"] == want
        c = construct_from_json(path.read_text())
        assert c.seed == want and construct_from_json(construct_to_json(c)).seed == want


def test_cluster_radius_override_reaches_route_two(capsys):
    # the direct route merges and splits its divisors at the cluster radius:
    # 0.3 swallows off-mark points into the marks, 1e-2 moves its values
    code, out, err = run(capsys, "obs", "consistency", "--seed", "100", "--tol-cluster", "0.3")
    assert code == 3
    assert "rejected (residual-divisor)" in err
    assert "Traceback" not in out + err
    code, out, _ = run(capsys, "obs", "consistency", "--seed", "100", "--tol-cluster", "1e-2", "--json")
    assert code == 1
    assert json.loads(out)["report"]["deviation"] > 1e-3


def test_subdivide_subcommand(capsys):
    code, out, _ = run(capsys, "topo", "subdivide", "--builtin", "duncehat", "--json")
    assert code == 0
    assert json.loads(out)["report"]["counts"] == [3, 8, 6]


def test_pic0_subcommand(capsys):
    code, out, _ = run(capsys, "nc", "pic0", "--builtin", "duncehat-surface", "--json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["torus_dimension"] == 2 and rep["graph_betti_1"] == 2


def test_scan_subcommand(capsys):
    code, out, _ = run(capsys, "obs", "scan", "--seed", "5", "--targets", "1", "--json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["all_reached"] and rep["targets"][0]["residual"] <= 1e-8


def test_tampered_rank_tolerance_fails_loudly(capsys):
    code, out, _ = run(capsys, "obs", "jacobian", "--seed", "3", "--tol-rank", "0.5", "--json")
    assert code == 1
    assert json.loads(out)["report"]["full_rank"] is False
